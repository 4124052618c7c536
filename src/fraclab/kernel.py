"""Kernel side: double integrals of f(x) g(y) |x-y|^{-1-2s} over the
piecewise-linear (P1) interpolants of samples, in two pieces.

phi_integral integrates u+(x) u-(y) |x-y|^{-1-2s}. Near a sign
crossing z the factors vanish linearly, so the integrand behaves like
(x-z)(z-y)/|x-y|^{1+2s}: unbounded but integrable for s < 3/2. Strategy:

  * split the box at the sign crossings that find_crossings locates; each
    interval takes the sign of the slope of the crossing on its left;
  * for every interval pair, grade both axes dyadically toward the shared
    crossing (or toward the facing edges when the pair is separated), with
    fixed 12-point Gauss-Legendre per cell; accuracy comes from grading
    depth, never rule order. A pair builds the nodes of all depths and
    evaluates each factor on them once; depth j reads the shallower cells
    as array prefixes;
  * contributions of depth D form a geometric tail with ratio
    2^{-(3-2s)D} (the corner integrand is self-similar under halving), so
    the summed-tail correction step * rho/(1-rho) is applied and the
    a-posteriori error estimate is the difference of the last two corrected
    depth values.

p1_pairing(v, w, s) is the same integral in closed form for any two P1
interpolants: Delta^{1-2s} sum_{k,l} v_k w_l m(k-l) with node spacing
Delta, where m(d) = delta^4 F(d) is the central fourth difference of a
fourth antiderivative F of |t|^{-1-2s}, because two hats meet the kernel
through their autocorrelation, the cubic B-spline. Where the supports
overlap it is the finite part, which exists for s < 3/2. This is the P1
discretization of the fractional Laplacian (Y. Huang and A. Oberman, SIAM
J. Numer. Anal. 52 (2014) 3056-3084), and -C(1, s) p1_pairing(u, v, s) is
the Gagliardo form of the interpolants. When every crossing of u is a
node, p1_pairing(u+, u-, s) is the exact value of the integral that
phi_integral approximates; off the nodes phi_integral cuts each factor at
the crossing, where its interpolant does not vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureToleranceError
from .grid import GridFunction, _require_decay, _require_same_spec
from .special import _check_tol, _kernel_order, _noninteger_order

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

_MAX_DEPTH = 48
_MIN_DEPTH = 6

# m(d) by direct differences up to _NEAR and beyond by the asymptotic
# series d^{-a} sum_k c_k (a)_{2k} d^{-2k}, a = 1 + 2s, whose c_k are the
# Taylor coefficients of (2 sinh(x/2) / x)^4; lags below _BAND are summed
# by direct dot products, the rest by one FFT
_NEAR = 16
_SERIES = (1.0, 1 / 6, 1 / 80, 17 / 30240, 31 / 1814400, 1 / 2661120)
_BAND = 128


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise DomainError("quadrature depth must be >= 1")


def find_crossings(u: GridFunction):
    """Sign-change locations of u with their linear-interpolation slopes.

    A crossing is recorded between consecutive nonzero samples of opposite
    sign (samples that are exactly zero are treated as part of the
    transition). Returns a list of (location, slope) pairs of Python floats
    sorted by location.

    O(N) and vectorised: one comparison finds the sign flips between
    consecutive nonzero samples, and array arithmetic evaluates the root and
    slope of every bracket with the operands and operation order of the
    scalar formulas, so results match a per-sample loop bit for bit. Only
    the bracket nodes are computed, with the arithmetic of axis_nodes.
    """
    spec = u.spec
    s = u.samples
    nz = np.flatnonzero(s != 0.0)
    positive = (s > 0.0)[nz]
    flips = np.flatnonzero(positive[:-1] != positive[1:])
    a = nz[flips]
    b = nz[flips + 1]
    sa, sb = s[a], s[b]
    xa = -spec.L + spec.delta * a
    xb = -spec.L + spec.delta * b
    t = sa / (sa - sb)
    z = xa + t * (xb - xa)
    slope = (sb - sa) / (xb - xa)
    return list(zip(z.tolist(), slope.tolist()))


def _sign_regions(crossings, lo: float, hi: float):
    """Intervals of [lo, hi] between crossings where the interpolant of u is
    positive, and those where it is negative. The sign alternates from one
    crossing to the next: the interval right of a crossing has the sign of
    its slope, the first interval the opposite one. Read from the sign bit,
    since a slope between subnormal samples can underflow to +-0.
    """
    bounds = [lo] + [z for z, _ in crossings] + [hi]
    rising = [math.copysign(1.0, k) > 0.0 for _, k in crossings]
    pos, neg = [], []
    for a, b, up in zip(bounds[:-1], bounds[1:], [not rising[0]] + rising):
        if b > a:
            (pos if up else neg).append((a, b))
    return pos, neg


def _level_nodes(lo: float, hi: float, anchor_lo: bool):
    """12-point Gauss-Legendre nodes and weights on the dyadic cells of all
    _MAX_DEPTH levels; level j is entries [12j, 12j + 12)."""
    w = hi - lo
    scale = 2.0 ** -np.arange(_MAX_DEPTH + 1.0)
    near, far = w * scale[1:], w * scale[:-1]
    a, b = (lo + near, lo + far) if anchor_lo else (hi - far, hi - near)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    return nodes.ravel(), (half[:, None] * _GL_WEIGHTS).ravel()


def _kernel_block(x: np.ndarray, y: np.ndarray, expo: float) -> np.ndarray:
    """|x_i - y_j|^expo, built in one array."""
    k = np.subtract.outer(x, y)
    np.abs(k, out=k)
    return np.power(k, expo, out=k)


def _pair_quadrature(
    fx, fy, xreg, yreg, x_anchor_lo, y_anchor_lo, contact, s, tol
):
    """Graded product quadrature of fx(x) fy(y) |x-y|^{-1-2s}.

    fx, fy evaluate the (nonnegative) factors; each is called once, on the
    nodes of all levels. Returns (value, est, depth). For contact pairs the
    geometric tail correction uses the analytic ratio rho = 2^{-(3-2s)};
    separated pairs converge faster than any fixed ratio and are stopped
    purely a posteriori.
    """
    expo = -(1.0 + 2.0 * s)
    rho = 2.0 ** (-(3.0 - 2.0 * s)) if contact else None
    X, WX = _level_nodes(xreg[0], xreg[1], x_anchor_lo)
    Y, WY = _level_nodes(yreg[0], yreg[1], y_anchor_lo)
    VX, VY = fx(X) * WX, fy(Y) * WY
    total = 0.0
    prev_total = None
    prev_corr = None
    corr = 0.0
    est = math.inf
    for j in range(_MAX_DEPTH):
        i, k = 12 * j, 12 * j + 12
        xn, vx, yn, vy = X[i:k], VX[i:k], Y[i:k], VY[i:k]
        if j:
            total += np.einsum("i,ij,j->", vx, _kernel_block(xn, Y[:i], expo), VY[:i])
            total += np.einsum("i,ij,j->", VX[:i], _kernel_block(X[:i], yn, expo), vy)
        total += np.einsum("i,ij,j->", vx, _kernel_block(xn, yn, expo), vy)
        if prev_total is not None:
            step = total - prev_total
            corr = total + step * rho / (1.0 - rho) if contact else total
            if prev_corr is not None:
                est = abs(corr - prev_corr)
                if j + 1 >= _MIN_DEPTH and est <= tol:
                    return corr, est, j + 1
            prev_corr = corr
        prev_total = total
    raise QuadratureToleranceError(
        f"pair tolerance {tol:.3e} not reached at depth {_MAX_DEPTH} "
        f"(last estimate {est:.3e})"
    )


def _contact_geometry(p, m):
    """Anchors for a region pair; contact means a shared endpoint."""
    (plo, phi), (mlo, mhi) = p, m
    if phi <= mlo:  # p left of m
        contact = phi == mlo
        return False, True, contact  # grade x toward hi, y toward lo
    if mhi <= plo:  # p right of m
        contact = mhi == plo
        return True, False, contact
    raise DomainError(
        f"region interiors overlap: {p} vs {m}; sign split is inconsistent"
    )


def phi_integral(u: GridFunction, crossings, s, tol: float = 1e-6) -> QuadratureResult:
    """Double integral of u+(x) u-(y) |x-y|^{-1-2s} over the plane.

    crossings is find_crossings(u), the scan that the drivers also hand to
    dealias_spectrum; its slopes sign the regions of u+ and u- between them.
    Non-integer s in (0, 3/2); the linear vanishing of u+ and u- at each
    crossing keeps the integral finite exactly in that range.
    """
    s = _kernel_order(s)
    _check_tol(tol)
    x = u.spec.axis_nodes()
    p_regs, m_regs = _sign_regions(crossings, x[0], x[-1]) if crossings else ([], [])
    if not p_regs or not m_regs:
        return QuadratureResult(value=0.0, error_estimate=0.0, depth=1)

    def factor(part):  # part holds the samples of truncate(u, "pos"/"neg")
        return lambda pts: np.maximum(np.interp(pts, x, part), 0.0)

    fp, fm = factor(np.maximum(u.samples, 0.0)), factor(np.maximum(-u.samples, 0.0))
    pair_tol = tol / (2.0 * len(p_regs) * len(m_regs))
    value, est, depth = 0.0, 0.0, 1
    for p in p_regs:
        for m in m_regs:
            v, e, d = _pair_quadrature(
                fp, fm, p, m, *_contact_geometry(p, m), s, pair_tol
            )
            value += v
            est += e
            depth = max(depth, d)
    return QuadratureResult(value=float(value), error_estimate=float(est), depth=depth)


def _antiderivative(a: float) -> np.ndarray:
    """F(t) = t^e / p at t = 0 .. _NEAR + 2, e = 4 - a, p = (1-a)..(4-a).

    Within 1/4 of s = 1/2 (e = k = 2) or s = 3/2 (k = 0) p nearly vanishes;
    F - t^k / p = t^k expm1((e-k) log t) / p differs by an even polynomial,
    which delta^4 annihilates, and tends to -t^2 log t / 2 and -log t / 6
    there. F(0) is read only for a < 4.
    """
    t = np.arange(1.0, _NEAR + 3)
    e = 4.0 - a
    p = (1.0 - a) * (2.0 - a) * (3.0 - a) * e
    k = 2.0 * round(e / 2.0)
    if k not in (0.0, 2.0) or abs(e - k) >= 0.25:
        return np.concatenate(([0.0], t**e / p))
    q = (1.0 - a) * (3.0 - a) * (2.0 + k - a)  # p without its factor e - k
    lg = np.log(t)
    f = t**k * (np.expm1((e - k) * lg) / (e - k) if e != k else lg) / q
    return np.concatenate(([-1.0 / p if k == 0.0 and a < 4.0 else 0.0], f))


def _lag_weights(N: int, s: float) -> np.ndarray:
    """m(d) for d = 0 .. N-1; from s = 3/2 on the infinite m(0..2) stay 0."""
    a = 1.0 + 2.0 * s
    m = np.zeros(N)
    F = _antiderivative(a)
    d = np.arange(3 if s >= 1.5 else 0, min(N, _NEAR + 1))
    m[d] = F[abs(d - 2)] - 4.0 * F[abs(d - 1)] + 6.0 * F[d] - 4.0 * F[d + 1] + F[d + 2]
    far = np.arange(_NEAR + 1.0, N)
    rising = np.cumprod(a + np.arange(2 * len(_SERIES) - 2))[1::2]
    coef = np.array(_SERIES) * np.concatenate(([1.0], rising))  # c_k (a)_{2k}
    m[_NEAR + 1 :] = far**-a * np.polyval(coef[::-1], far**-2.0)
    return m


def p1_pairing(v: GridFunction, w: GridFunction, s) -> float:
    """Double integral of P1v(x) P1w(y) |x-y|^{-1-2s} in closed form (the
    finite part where the supports overlap) for any non-integer s > 0, on
    inputs that forward_transform accepts. From s = 3/2 on it is finite
    only if v_k w_l = 0 for |k - l| <= 2 (else DomainError). Only lags past
    _BAND go through the FFT: its round-off, eps |v| |w| times the large
    near weights, would swamp cross forms that cancel near the diagonal.
    """
    s = _noninteger_order(s)
    _require_same_spec(v, w)
    _require_decay(v)
    _require_decay(w)
    a, b = v.samples, w.samples
    N = a.size
    if s >= 1.5:
        near_w = np.convolve((b != 0.0).astype(float), np.ones(5), "same")
        if np.any((a != 0.0) & (near_w > 0.0)):
            raise DomainError(f"pairing diverges at s={s}: supports within two nodes")
    m = _lag_weights(N, s)
    band = min(N, _BAND)
    total = 0.0
    for d in range(band):
        # c(d) + c(-d), where c(d) = sum_k v_k w_{k-d}; m(0..2) = 0 past 3/2
        c = np.dot(a[d:], b[: N - d])
        if d:
            c += np.dot(a[: N - d], b[d:])
        total += m[d] * c
    M = 2 * N
    corr = np.fft.irfft(np.fft.rfft(a, M) * np.conj(np.fft.rfft(b, M)), M)
    total += np.dot(m[band:], corr[band:N] + corr[M - band : N : -1])
    return float(v.spec.delta ** (1.0 - 2.0 * s) * total)
