"""Workload generators: each turns a seed into the list of ops of one pass.

An op names one public experiment driver of ``fraclab.experiments`` and the
plain arguments to call it with (strings, floats, ints). Grid sizes travel
as ``N``; the runner builds the grid spec, so this module never imports the
program and the program only ever sees the generated inputs.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

L = 20.0
N_BATTERY = 2**14
N_FINE = 2**18
SOURCE = "x*exp(-x^2)"
SWEEP_ORDERS = [0.25, 0.5, 0.75, 1.1, 1.25, 1.4]
DEFAULT_SEED = 42

# random-sweep: ops per pass, draws per op
SWEEP_OPS = 10
SWEEP_COUNT = 100

# sign-change-mix: ops per pass and the input family P(x) exp(-a (x-c)^2)
MIX_OPS = 24
MIX_ROOT_SPAN = (-1.5, 1.5)
MIX_ROOT_GAP = 0.2
# the admissible orders of verify_identity, minus a margin around s = 1
MIX_S_BANDS = ((0.2, 0.95), (1.05, 1.45))
SUPPORT_DECAY = 1e-12


class Op(NamedTuple):
    driver: str
    args: tuple
    kwargs: dict

    @property
    def key(self) -> str:
        """Canonical text of the op's inputs; equal keys give equal reports."""
        return json.dumps([self.driver, list(self.args), self.kwargs], sort_keys=True)


def battery(seed: int) -> list[Op]:
    """The six default experiments with the inputs of scripts/run_full_battery.py."""
    n = {"N": N_BATTERY}
    return [
        Op("verify_identity", (SOURCE, 1.25), n),
        Op("sign_sweep", (SOURCE, SWEEP_ORDERS), n),
        Op(
            "counterexample_scan",
            (SOURCE, [1.3, 1.4, 1.6, 1.7], [80.0, 160.0, 320.0, 640.0, 1280.0]),
            n,
        ),
        Op("truncation_bound_probe", (SOURCE, 1.25, [0.2, 0.1, 0.05, 0.02, 0.01]), n),
        Op("interp_sweep", (SWEEP_COUNT,), {"seed": seed, **n}),
        Op("convergence_study", (SOURCE, 1.25, [2048, 4096, 8192, 16384]), {}),
    ]


def fine_grid(seed: int) -> list[Op]:
    """Fixed inputs at N = 2^18; the seed is unused."""
    n = {"N": N_FINE}
    return [
        Op("verify_identity", (SOURCE, 1.25), n),
        Op("sign_sweep", (SOURCE, SWEEP_ORDERS), n),
        Op("convergence_study", (SOURCE, 1.25, [2**15, 2**16, 2**17, 2**18]), {}),
    ]


def random_sweep(seed: int) -> list[Op]:
    return [
        Op("interp_sweep", (SWEEP_COUNT,), {"seed": seed + i, "N": N_BATTERY})
        for i in range(SWEEP_OPS)
    ]


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _shift(x: float) -> str:
    """Source text of (x - x0)."""
    return f"(x-{_num(x)})" if x >= 0 else f"(x+{_num(-x)})"


def _stratified_order(i: int, u: float) -> float:
    """Order for op i: uniform within the i-th of MIX_OPS equal slices of
    the union of MIX_S_BANDS, so every pass spans the whole range."""
    t = (i + u) / MIX_OPS * sum(hi - lo for lo, hi in MIX_S_BANDS)
    for lo, hi in MIX_S_BANDS:
        if t < hi - lo:
            return lo + t
        t -= hi - lo
    return MIX_S_BANDS[-1][1] - 1e-9  # rounding put t on the top edge


def _roots(rng: np.random.Generator, k: int) -> list[float]:
    lo, hi = MIX_ROOT_SPAN
    while True:
        r = sorted(float(v) for v in rng.uniform(lo, hi, size=k))
        if all(b - a >= MIX_ROOT_GAP for a, b in zip(r[:-1], r[1:])):
            return r


def _check_support(amp, roots, a, c, n_nodes=N_BATTERY):
    """Raise unless the input decays below 1e-12 on the outer half of the box."""
    x = -L + (2.0 * L / n_nodes) * np.arange(n_nodes)
    outer = x[np.abs(x) >= L / 2.0]
    vals = amp * np.prod([outer - r for r in roots], axis=0) * np.exp(-a * (outer - c) ** 2)
    tail = float(np.max(np.abs(vals)))
    if not tail < SUPPORT_DECAY:
        raise RuntimeError(f"generated input breaks the support rule: tail {tail:.3e}")


def sign_change_source(rng: np.random.Generator, k: int) -> str:
    """amp * (x - r_1) ... (x - r_k) * exp(-a (x - c)^2) with k simple roots."""
    roots = _roots(rng, k)
    amp = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
    a = float(rng.uniform(0.5, 1.5))
    c = float(rng.uniform(-0.5, 0.5))
    _check_support(amp, roots, a, c)
    factors = "*".join(_shift(r) for r in roots)
    return f"{_num(amp)}*{factors}*exp(-{_num(a)}*{_shift(c)}^2)"


def sign_change_mix(seed: int) -> list[Op]:
    """verify_identity on seeded inputs with 1-3 off-node sign changes.

    Root counts cycle 1, 2, 3 across the ops; orders are stratified over the
    admissible bands. Inputs that make the program raise are kept.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(MIX_OPS):
        source = sign_change_source(rng, 1 + i % 3)
        s = _stratified_order(i, float(rng.uniform()))
        ops.append(Op("verify_identity", (source, s), {"N": N_BATTERY}))
    return ops


WORKLOADS = {
    "battery": battery,
    "fine-grid": fine_grid,
    "random-sweep": random_sweep,
    "sign-change-mix": sign_change_mix,
}

