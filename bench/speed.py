"""Machine-speed calibration.

The cores of a shared machine change speed as its other tenants load them.
On the 2-core sandbox this benchmark was built on, the same op ran up to 1.8
times slower for tens of seconds at a time, so whole runs landed in a slow
phase. Every timed interval is therefore bracketed by ``slowdown()`` and
reported as ``raw / slowdown``: seconds at the reference speed.

Different code slows by different factors (a Python loop less than numpy on
large arrays, or the other way round, depending on what the neighbours run),
so the probe times five kinds of fixed work, each about 1 ms, and averages
their slowdowns with equal weights.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_SIG = np.sin(np.linspace(0.0, 5.0, 512))
_NZ = np.flatnonzero(_SIG != 0.0)
_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal(1 << 14)
_LARGE = _RNG.standard_normal(1 << 17)


def _scalar_loop():
    """Python loop over numpy scalars, as in the crossing scan."""
    s = _SIG
    n = 0
    for a, b in zip(_NZ[:-1], _NZ[1:]):
        if (s[a] > 0.0) != (s[b] > 0.0):
            n += 1


def _interpreter():
    """Plain Python: strings, dicts and floats, as in parsing."""
    d = {}
    for i in range(2000):
        k = "x" + str(i % 50)
        d[k] = d.get(k, 0.0) + i * 0.5


def _fft():
    for _ in range(3):
        np.fft.fft(_SMALL)


def _ufuncs():
    for _ in range(3):
        np.exp(-_SMALL * _SMALL) * np.cos(_SMALL)
        np.power(_SMALL, 2.0)


def _large_arrays():
    np.exp(-_LARGE * 0.5) + _LARGE


# best-of-three seconds of each probe on that sandbox in a fast phase
PROBES = (
    (_scalar_loop, 0.53e-3),
    (_interpreter, 0.53e-3),
    (_fft, 0.58e-3),
    (_ufuncs, 0.64e-3),
    (_large_arrays, 0.93e-3),
)


def _best_of_three(fn) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def slowdown(min_seconds: float = 0.0) -> float:
    """Current slowdown of this core against the reference phase (1.0 there).

    Repeats the probe round for at least ``min_seconds`` and returns the
    median round, so that the estimate after a long op is steadier."""
    rounds = []
    t_end = time.perf_counter() + min_seconds
    while not rounds or time.perf_counter() < t_end:
        rounds.append(sum(_best_of_three(fn) / ref for fn, ref in PROBES) / len(PROBES))
    return statistics.median(rounds)
