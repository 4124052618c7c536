"""Uniform grids on the line and the pointwise operators on sampled functions.

Functions live on [-L, L] with N nodes at x_j = -L + j*(2L/N). The
experiment pipeline needs exactly the pointwise maps that commute with
sampling: positive part, negative part and absolute value.

Everything here treats GridFunction as an immutable value; operations
return new instances and never mutate samples in place.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import DomainError, GridMismatchError, SupportRuleError
from .expr import evaluate_array, parse

SUPPORT_DECAY = 1e-12


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Grid on the line: [-L, L] with N >= 8 nodes, N a power of two.

    n is the space dimension, recorded in every report; only n = 1 is
    supported. L is stored as a float and N as an int, so that a numpy
    scalar gives the same grid, and the same report, as a Python number.
    """

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n != 1:
            raise DomainError(f"grids are one-dimensional, got dimension {self.n}")
        if not (isinstance(self.L, Real) and isinstance(self.N, Integral)):
            raise DomainError(
                f"L must be a real number and N an integer, got {self.L!r} and {self.N!r}"
            )
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "N", operator.index(self.N))
        if not (0 < self.L < math.inf):
            raise DomainError(f"half-width must be positive and finite, got L={self.L}")
        # the endpoint stencil reads shells -3 .. 3, counterexample nodes N/2 +- 2
        if not _is_power_of_two(self.N) or self.N < 8:
            raise DomainError(f"N must be a power of two >= 8, got N={self.N}")
        # the spectral route squares the frequencies |xi| <= pi N / (2L)
        xi_max = math.pi / self.L * (self.N // 2)
        if not math.isfinite(xi_max * xi_max):
            raise DomainError(
                f"half-width L={self.L} is too small: squared frequencies overflow"
            )

    @property
    def delta(self) -> float:
        return 2.0 * self.L / self.N

    def axis_nodes(self) -> np.ndarray:
        return -self.L + self.delta * np.arange(self.N)


@dataclass(frozen=True)
class GridFunction:
    """Real samples on a GridSpec. Samples are finite by construction."""

    spec: GridSpec
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.shape != (self.spec.N,):
            raise DomainError(
                f"sample shape {arr.shape} does not match grid {(self.spec.N,)}"
            )
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DomainError(f"non-finite sample at node index {bad}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


def _require_same_spec(u: GridFunction, v: GridFunction):
    if u.spec != v.spec:
        raise GridMismatchError(
            f"incompatible grids: {u.spec} vs {v.spec}"
        )


def sample(source: str, spec: GridSpec) -> GridFunction:
    """Sample the expression source text on every grid node."""
    # GridFunction rejects non-finite samples and names the node index
    return GridFunction(spec, evaluate_array(parse(source), spec.axis_nodes()))


def truncate(u: GridFunction, mode: str) -> GridFunction:
    """Pointwise truncation: mode in {pos, neg, abs}.

    pos -> max(u, 0);  neg -> max(-u, 0);  abs -> |u|.
    The identities u = pos - neg and |u| = pos + neg hold exactly per sample.
    """
    s = u.samples
    if mode == "pos":
        out = np.maximum(s, 0.0)
    elif mode == "neg":
        out = np.maximum(-s, 0.0)
    elif mode == "abs":
        out = np.abs(s)
    else:
        raise DomainError(f"unknown truncation mode {mode!r}")
    return GridFunction(u.spec, out)


def l2_inner(u: GridFunction, v: GridFunction) -> float:
    """Riemann approximation of the L2 inner product: sum u v * delta."""
    _require_same_spec(u, v)
    return float(np.dot(u.samples, v.samples) * u.spec.delta)


def outer_window(spec: GridSpec) -> tuple[int, int]:
    """(a, b) such that the nodes with |x_j| >= L/2 are exactly j < a and
    j >= b.

    The nodes increase with j, so the outer half of the box is a prefix
    and a suffix. Rounding moves a node by a few ulps of L, far less than
    the node spacing, so only the nodes N/4 and 3N/4 can land on either
    side of -L/2 and L/2; they are evaluated with the axis_nodes
    arithmetic.
    """
    q = spec.N // 4
    half = spec.L / 2.0
    a = q + int(-spec.L + spec.delta * q <= -half)
    b = 3 * q + int(-spec.L + spec.delta * (3 * q) < half)
    return a, b


def max_tail(u: GridFunction) -> float:
    """Largest |u| on the outer half of the box, |x| >= L/2."""
    a, b = outer_window(u.spec)
    # neither part is empty: a >= 1, and b <= 3N/4 + 1 < N from N = 8 on
    s = u.samples
    return max(float(np.max(np.abs(s[:a]))), float(np.max(np.abs(s[b:]))))


def _require_decay(u: GridFunction) -> None:
    """Raise SupportRuleError unless u decays below SUPPORT_DECAY of its
    largest |sample| on the outer half of the box, the inputs on which the
    discrete transform and the P1 pairing neglect nothing beyond the box.

    The rule does not depend on the scale of u while SUPPORT_DECAY times
    the largest |sample| is a normal double. A tail below the normal range
    has lost its relative precision and passes, as a zero tail does."""
    tail = max_tail(u)
    s = u.samples
    peak = max(float(s.max()), -float(s.min()))
    if tail >= max(SUPPORT_DECAY * peak, sys.float_info.min):
        raise SupportRuleError(
            f"samples reach {tail:.3e} on the outer half of the box, |x| >= "
            f"L/2 with L={u.spec.L:g}; the transform needs decay below "
            f"{SUPPORT_DECAY:g} of the largest |sample|, {peak:.3e}, there"
        )
