"""Uniform grids on the line and the pointwise operators on sampled functions.

Functions live on [-L, L] with N nodes at x_j = -L + j*(2L/N). The
experiment pipeline needs exactly the pointwise maps that commute with
sampling: positive/negative part, absolute value and the shifted
truncation max(u - eps, 0).

Everything here treats GridFunction as an immutable value; operations
return new instances and never mutate samples in place.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError
from .expr import evaluate_array, parse

SUPPORT_DECAY = 1e-12


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Grid on the line: [-L, L] with N power-of-two nodes.

    n is the space dimension, recorded in every report; only n = 1 is
    supported.
    """

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n != 1:
            raise DomainError(f"grids are one-dimensional, got dimension {self.n}")
        if not (self.L > 0):
            raise DomainError(f"half-width must be positive, got {self.L}")
        if not _is_power_of_two(self.N) or self.N < 4:
            raise DomainError(
                f"N must be a power of two >= 4, got {self.N}"
            )

    @property
    def delta(self) -> float:
        return 2.0 * self.L / self.N

    def axis_nodes(self) -> np.ndarray:
        return -self.L + self.delta * np.arange(self.N)

    @property
    def shape(self):
        return (self.N,)


@dataclass(frozen=True)
class GridFunction:
    """Real samples on a GridSpec. Samples are finite by construction."""

    spec: GridSpec
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.shape != self.spec.shape:
            raise DomainError(
                f"sample shape {arr.shape} does not match grid {self.spec.shape}"
            )
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise DomainError(
                f"non-finite sample at node index {tuple(int(b) for b in bad)}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


def _require_same_spec(u: GridFunction, v: GridFunction):
    if u.spec != v.spec:
        raise GridMismatchError(
            f"incompatible grids: {u.spec} vs {v.spec}"
        )


def sample(ast, spec: GridSpec) -> GridFunction:
    """Sample an expression (AST or source text) on every grid node."""
    if isinstance(ast, str):
        ast = parse(ast)
    values = evaluate_array(ast, (spec.axis_nodes(),))
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise DomainError(
            f"expression produced a non-finite sample at node index "
            f"{tuple(int(b) for b in bad)}"
        )
    return GridFunction(spec, values)


def truncate(u: GridFunction, mode: str, eps: float | None = None) -> GridFunction:
    """Pointwise truncation: mode in {pos, neg, abs, shifted_pos}.

    pos -> max(u, 0);  neg -> max(-u, 0);  abs -> |u|;
    shifted_pos -> max(u - eps, 0) with eps > 0.
    The identities u = pos - neg and |u| = pos + neg hold exactly per sample.
    """
    s = u.samples
    if mode == "pos":
        out = np.maximum(s, 0.0)
    elif mode == "neg":
        out = np.maximum(-s, 0.0)
    elif mode == "abs":
        out = np.abs(s)
    elif mode == "shifted_pos":
        if eps is None or not (eps > 0):
            raise DomainError("shifted_pos requires eps > 0")
        out = np.maximum(s - eps, 0.0)
    else:
        raise DomainError(f"unknown truncation mode {mode!r}")
    return GridFunction(u.spec, out)


def l2_inner(u: GridFunction, v: GridFunction) -> float:
    """Riemann approximation of the L2 inner product: sum u v * delta."""
    _require_same_spec(u, v)
    return float(np.dot(u.samples, v.samples) * u.spec.delta)


def max_tail(u: GridFunction) -> float:
    """Largest |u| on the outer half of the box, |x| >= L/2."""
    # never empty: the first node, x = -L, lies outside
    outside = np.abs(u.spec.axis_nodes()) >= u.spec.L / 2.0
    return float(np.max(np.abs(u.samples[outside])))


def satisfies_support_rule(u: GridFunction) -> bool:
    return max_tail(u) < SUPPORT_DECAY


def write_csv(u: GridFunction, path) -> None:
    """Serialize to CSV: the node coordinate, then the sample value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, value in zip(u.spec.axis_nodes(), u.samples):
            writer.writerow([format(x, ".17g"), format(value, ".17g")])
