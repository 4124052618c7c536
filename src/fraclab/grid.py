"""Uniform box grids and the pointwise operators on sampled functions.

Functions live on [-L, L]^n with N nodes per axis at x_j = -L + j*(2L/N).
The experiment pipeline needs exactly the pointwise maps that commute with
sampling: positive/negative part, absolute value, the shifted truncation
max(u - eps, 0), pointwise min, a smooth cutoff plateau, and mollification
by a compactly supported bump kernel (one-dimensional grids only).

Everything here treats GridFunction as an immutable value; operations
return new instances and never mutate samples in place.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError
from .expr import ExprAst, evaluate_array, parse

SUPPORT_DECAY = 1e-12


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """n-dimensional box grid: [-L, L]^n, N power-of-two nodes per axis."""

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise DomainError(f"dimension must be 1 or 2, got {self.n}")
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

    def coordinates(self):
        """Tuple of coordinate arrays, each shaped like the sample array."""
        axis = self.axis_nodes()
        if self.n == 1:
            return (axis,)
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        return (x1, x2)

    @property
    def shape(self):
        return (self.N,) * self.n


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


def sample(ast, spec: GridSpec, n: int | None = None) -> GridFunction:
    """Sample an expression (AST or source text) on every grid node."""
    if isinstance(ast, str):
        ast = parse(ast, spec.n)
    values = evaluate_array(ast, spec.coordinates())
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


def pointwise_min(u: GridFunction, v: GridFunction) -> GridFunction:
    _require_same_spec(u, v)
    return GridFunction(u.spec, np.minimum(u.samples, v.samples))


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1.

    Built from the same exp(-1/t) atom as bump, so the cutoff is genuinely
    smooth, not just C^1.
    """
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def smooth_cutoff(spec: GridSpec, inner_radius: float, margin: float) -> GridFunction:
    """Plateau function: 1 on {|x|_inf <= inner_radius}, 0 outside
    {|x|_inf >= inner_radius + margin}, smooth and monotone between."""
    if not (inner_radius > 0 and margin > 0):
        raise DomainError("inner_radius and margin must be positive")
    if inner_radius + margin >= spec.L:
        raise DomainError(
            f"cutoff support radius {inner_radius + margin} must stay "
            f"inside the box half-width {spec.L}"
        )
    coords = spec.coordinates()
    r = np.abs(coords[0])
    for c in coords[1:]:
        r = np.maximum(r, np.abs(c))
    return GridFunction(spec, _smooth_step((inner_radius + margin - r) / margin))


def _mollifier_kernel(spec: GridSpec, h: int) -> np.ndarray:
    """Samples of h * rho(h x) on grid offsets, normalized to unit
    discrete mass; rho is the standard bump exp(-1/(1-x^2))."""
    radius = 1.0 / h
    m = int(np.floor(radius / spec.delta))
    offsets = spec.delta * np.arange(-m, m + 1)
    r2 = (offsets * h) ** 2
    inside = r2 < 1.0
    safe = np.where(inside, r2, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        kern = np.where(inside, np.exp(-1.0 / (1.0 - safe)), 0.0)
    mass = kern.sum() * spec.delta
    return kern / mass


def mollify(u: GridFunction, h: int) -> GridFunction:
    """Convolve with the bump mollifier at scale 1/h.

    Preserves the discrete integral exactly up to roundoff (the kernel is
    normalized on the grid) and widens the support by at most 1/h per side.
    One-dimensional grids only.
    """
    if u.spec.n != 1:
        raise DomainError("mollify is one-dimensional")
    if h != int(h) or h <= 0:
        raise DomainError(f"mollifier scale must be a positive integer, got {h}")
    h = int(h)
    if 1.0 / h < 2.0 * u.spec.delta:
        raise DomainError(
            f"mollifier radius 1/{h} is below two grid steps; refine the grid"
        )
    kern = _mollifier_kernel(u.spec, h)
    out = np.convolve(u.samples, kern, mode="same") * u.spec.delta
    return GridFunction(u.spec, out)


def l2_inner(u: GridFunction, v: GridFunction) -> float:
    """Riemann approximation of the L2 inner product: sum u v * delta^n."""
    _require_same_spec(u, v)
    return float(
        np.dot(u.samples.ravel(), v.samples.ravel()) * u.spec.delta**u.spec.n
    )


def max_tail(u: GridFunction) -> float:
    """Largest |u| on the outer half of the box, |x|_inf >= L/2."""
    coords = u.spec.coordinates()
    r = np.abs(coords[0])
    for c in coords[1:]:
        r = np.maximum(r, np.abs(c))
    outside = r >= u.spec.L / 2.0
    if not outside.any():
        return 0.0
    return float(np.max(np.abs(u.samples[outside])))


def satisfies_support_rule(u: GridFunction) -> bool:
    return max_tail(u) < SUPPORT_DECAY


def write_csv(u: GridFunction, path) -> None:
    """Serialize to CSV: coordinate columns then the sample value."""
    coords = u.spec.coordinates()
    header = ["x"] if u.spec.n == 1 else ["x1", "x2"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["value"])
        flat = [c.ravel() for c in coords]
        vals = u.samples.ravel()
        for i in range(vals.size):
            writer.writerow(
                [format(c[i], ".17g") for c in flat] + [format(vals[i], ".17g")]
            )
