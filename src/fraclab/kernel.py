"""Kernel side: singular double integrals of the truncation interaction.

The object of interest is the product integrand u+(x) u-(y) |x-y|^{-1-2s}
on supp(u+) x supp(u-). Near a sign crossing z the factors vanish linearly,
so the integrand behaves like (x-z)(z-y)/|x-y|^{1+2s}: unbounded but
integrable for s < 3/2. Quadrature strategy:

  * split supp(u+) and supp(u-) into maximal intervals bounded by sign
    crossings (linear-interpolation roots between bracketing samples);
  * for every interval pair, grade both axes dyadically toward the shared
    crossing (or toward the facing edges when the pair is separated), with
    fixed 12-point Gauss-Legendre per cell; accuracy comes from grading
    depth, never rule order;
  * contributions of depth D form a geometric tail with ratio
    2^{-(3-2s)D} (the corner integrand is self-similar under halving), so
    the summed-tail correction step * rho/(1-rho) is applied and the
    a-posteriori error estimate is the difference of the last two corrected
    depth values.

Between nodes all integrand values come from the piecewise-linear
interpolant of the samples, consistent with the crossing model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisjointSupportError,
    DomainError,
    QuadratureToleranceError,
)
from .grid import GridFunction, truncate
from .special import _as_order, _check_tol, _is_integer, kernel_constant

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

_MAX_DEPTH = 48
_MIN_DEPTH = 6


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


def _positive_regions(u: GridFunction, crossings, x: np.ndarray):
    """Maximal intervals where the interpolant of u is positive; x is
    u.spec.axis_nodes().

    The axis is sorted, so the nodes of [lo, hi] form one slice found by
    binary search; each region reads only its own samples.
    """
    s = u.samples
    bounds = [x[0]] + [z for z, _ in crossings] + [x[-1]]
    starts = np.searchsorted(x, bounds[:-1], side="left")
    stops = np.searchsorted(x, bounds[1:], side="right")
    regions = []
    for lo, hi, i, j in zip(bounds[:-1], bounds[1:], starts, stops):
        if hi - lo <= 0:
            continue
        if j > i and np.max(s[i:j]) > 0.0:
            regions.append((lo, hi))
    return regions


def _level_nodes(lo: float, hi: float, anchor_lo: bool, j: int):
    """12-point Gauss-Legendre nodes/weights on the level-j dyadic cell."""
    w = hi - lo
    if anchor_lo:
        a = lo + w * 2.0 ** (-j - 1)
        b = lo + w * 2.0 ** (-j)
    else:
        a = hi - w * 2.0 ** (-j)
        b = hi - w * 2.0 ** (-j - 1)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GL_NODES, half * _GL_WEIGHTS


def _pair_quadrature(
    fx, fy, xreg, yreg, x_anchor_lo, y_anchor_lo, s, tol, contact
):
    """Graded product quadrature of fx(x) fy(y) |x-y|^{-1-2s}.

    fx, fy evaluate the (nonnegative) factors. Returns (value, est, depth).
    For contact pairs the geometric tail correction uses the analytic ratio
    rho = 2^{-(3-2s)}; separated pairs converge faster than any fixed ratio
    and are stopped purely a posteriori.
    """
    expo = -(1.0 + 2.0 * s)
    rho = 2.0 ** (-(3.0 - 2.0 * s)) if contact else None
    X_acc, WX_acc, Y_acc, WY_acc = [], [], [], []
    total = 0.0
    prev_total = None
    prev_corr = None
    corr = 0.0
    est = math.inf
    for j in range(_MAX_DEPTH):
        xn, xw = _level_nodes(xreg[0], xreg[1], x_anchor_lo, j)
        yn, yw = _level_nodes(yreg[0], yreg[1], y_anchor_lo, j)
        vx = fx(xn) * xw
        vy = fy(yn) * yw
        if X_acc:
            Xa = np.concatenate(X_acc)
            WXa = np.concatenate(WX_acc)
            Ya = np.concatenate(Y_acc)
            WYa = np.concatenate(WY_acc)
            total += np.einsum(
                "i,ij,j->", vx, np.abs(xn[:, None] - Ya[None, :]) ** expo, WYa
            )
            total += np.einsum(
                "i,ij,j->", WXa, np.abs(Xa[:, None] - yn[None, :]) ** expo, vy
            )
        total += np.einsum(
            "i,ij,j->", vx, np.abs(xn[:, None] - yn[None, :]) ** expo, vy
        )
        X_acc.append(xn)
        WX_acc.append(vx)
        Y_acc.append(yn)
        WY_acc.append(vy)
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


def _sum_pairs(fx, fy, pairs, s, tol) -> QuadratureResult:
    """_pair_quadrature over pairs of (xreg, yreg, x_anchor_lo,
    y_anchor_lo, contact) in their order: values and estimates summed in
    that order, depth the deepest reached."""
    value = 0.0
    est = 0.0
    depth = 1
    for xreg, yreg, x_anchor_lo, y_anchor_lo, contact in pairs:
        v, e, d = _pair_quadrature(
            fx, fy, xreg, yreg, x_anchor_lo, y_anchor_lo, s, tol, contact
        )
        value += v
        est += e
        depth = max(depth, d)
    return QuadratureResult(value=float(value), error_estimate=float(est), depth=depth)


def _interp_pos(u: GridFunction, x: np.ndarray):
    # x is u.spec.axis_nodes()
    s = u.samples
    return lambda pts: np.maximum(np.interp(pts, x, s), 0.0)


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


def _edge_halves(hull):
    """Split a hull at its midpoint; each half anchors at its outer edge."""
    lo, hi = hull
    mid = 0.5 * (lo + hi)
    return ((lo, mid), True), ((mid, hi), False)


def phi_integral(u: GridFunction, s, tol: float = 1e-6) -> QuadratureResult:
    """Double integral of u+(x) u-(y) |x-y|^{-1-2s} over the plane.

    Non-integer s in (0, 3/2); the linear vanishing of u+ and u- at each
    crossing keeps the integral finite exactly in that range.
    """
    s = _as_order(s)
    if _is_integer(s) or not (0.0 < s < 1.5):
        raise DomainError(
            f"phi integral requires non-integer s in (0, 1.5), got {s}"
        )
    _check_tol(tol)
    crossings = find_crossings(u)
    x = u.spec.axis_nodes()
    up = truncate(u, "pos")
    um = truncate(u, "neg")
    p_regs = _positive_regions(up, crossings, x)
    m_regs = _positive_regions(um, crossings, x)
    if not p_regs or not m_regs:
        return QuadratureResult(value=0.0, error_estimate=0.0, depth=1)
    fp = _interp_pos(up, x)
    fm = _interp_pos(um, x)
    pair_tol = tol / (2.0 * len(p_regs) * len(m_regs))
    pairs = ((p, m, *_contact_geometry(p, m)) for p in p_regs for m in m_regs)
    return _sum_pairs(fp, fm, pairs, s, pair_tol)


def _support_hull(w: GridFunction, x: np.ndarray):
    # x is w.spec.axis_nodes()
    idx = np.flatnonzero(w.samples != 0.0)
    if idx.size == 0:
        return None
    return float(x[idx[0]]), float(x[idx[-1]])


def interaction_integral(
    v: GridFunction, w: GridFunction, s, tol: float = 1e-9
) -> QuadratureResult:
    """Double integral of v(x) w(y) |x-y|^{-1-2s} for disjoint supports.

    v, w >= 0 with a positive gap between their supports, so the integrand
    is smooth; any non-integer s > 0 is allowed. Overlapping or touching
    supports are rejected (that configuration needs phi_integral).
    """
    s = _as_order(s)
    if v.spec != w.spec:
        raise DomainError("interaction integral needs a common grid")
    if _is_integer(s):
        raise DomainError(f"non-integer order required, got {s}")
    _check_tol(tol)
    for name, f in (("v", v), ("w", w)):
        if np.min(f.samples) < -1e-13 * max(np.max(np.abs(f.samples)), 1e-300):
            raise DomainError(f"{name} must be nonnegative")
    x = v.spec.axis_nodes()
    hv = _support_hull(v, x)
    hw = _support_hull(w, x)
    if hv is None or hw is None:
        return QuadratureResult(value=0.0, error_estimate=0.0, depth=1)
    delta = v.spec.delta
    # The interpolants extend one grid cell beyond the outermost nonzero
    # samples, so a genuine gap needs more than two cells between hulls.
    if hv[0] <= hw[1] and hw[0] <= hv[1]:
        raise DisjointSupportError("supports overlap")
    gap = max(hw[0] - hv[1], hv[0] - hw[1])
    if gap <= 2.0 * delta:
        raise DisjointSupportError(
            f"supports touch (gap {gap:.3e} <= two grid cells); "
            f"use phi_integral for interface contact"
        )
    fx = _interp_pos(v, x)
    fy = _interp_pos(w, x)
    # Away from the gap the integrand is smooth in the kernel but can lose
    # analyticity at the support edges (compactly supported profiles), so
    # split each hull at its midpoint and grade every quadrant toward its
    # own support-edge corner; anchoring only at the facing edges leaves
    # fixed coarse panels whose error the refinement never sees.
    pairs = (
        (xreg, yreg, xa, ya, False)
        for xreg, xa in _edge_halves(hv)
        for yreg, ya in _edge_halves(hw)
    )
    return _sum_pairs(fx, fy, pairs, s, tol / 8.0)


def gagliardo_form(
    u: GridFunction, v: GridFunction, s: float, tol: float = 1e-6
) -> float:
    """Difference-quotient form (C(1,s)/2) double integral of
    (u(x)-u(y))(v(x)-v(y)) |x-y|^{-1-2s} for s in (0, 1).

    Folded to the difference variable t = x - y:

        C(1,s) * int_0^inf t^{-1-2s} g(t) dt,
        g(t) = int (u(y+t)-u(y)) (v(y+t)-v(y)) dy.

    Off-grid data is extended by the edge samples (so constants give
    exactly zero and decayed functions reduce to zero-extension); the edge
    strips and the saturated tail beyond t = 2L are handled by cumulative
    integrals and a closed-form remainder. g(t) ~ c t^2 near zero cancels
    the singularity; the sub-grid range uses graded Gauss-Legendre with an
    analytic c t^{2-2s} remainder.
    """
    if u.spec != v.spec:
        raise DomainError("gagliardo form needs a common grid")
    if not (0.0 < s < 1.0):
        raise DomainError(f"gagliardo form requires s in (0, 1), got {s}")
    _check_tol(tol)
    su = u.samples
    sv = v.samples
    N = u.spec.N
    delta = u.spec.delta
    x = u.spec.axis_nodes()
    for name, arr in (("u", su), ("v", sv)):
        scale = max(np.max(np.abs(arr)), 1.0)
        if abs(arr[-1] - arr[0]) > 1e-9 * scale:
            raise DomainError(
                f"{name} has mismatched edge values "
                f"({arr[0]:.3e} vs {arr[-1]:.3e}); the edge extension "
                f"would not be square-integrable"
            )
    uL, uR = su[0], su[-1]
    vL, vR = sv[0], sv[-1]

    # g at lag m*delta via four correlations (FFT, zero-padded).
    M = 2 * N
    fu = np.fft.rfft(su, M)
    fv = np.fft.rfft(sv, M)
    cross_uv = np.fft.irfft(fu * np.conj(fv), M)[:N]  # sum u[j+m] v[j]
    cross_vu = np.fft.irfft(fv * np.conj(fu), M)[:N]  # sum v[j+m] u[j]
    prod = su * sv
    suffix = np.cumsum(prod[::-1])[::-1]  # A(m) = sum_{j>=m} u v
    prefix = np.cumsum(prod)  # B(m) = sum_{j<=N-1-m} u v
    m = np.arange(N)
    g_int = (suffix[m] + prefix[N - 1 - m] - cross_uv - cross_vu) * delta

    edge_l = np.concatenate(
        [[0.0], np.cumsum((su - uL) * (sv - vL)) * delta]
    )  # edge_l[m] = int_{-L}^{-L+m delta}
    edge_r = np.concatenate(
        [[0.0], np.cumsum(((su - uR) * (sv - vR))[::-1]) * delta]
    )
    g_tot = g_int + edge_l[m] + edge_r[m]

    # plain part: trapezoid over t in [t0, (N-1) delta]
    m0 = min(32, N // 4)
    t = m * delta
    h = np.zeros(N)
    h[1:] = t[1:] ** (-1.0 - 2.0 * s) * g_tot[1:]
    plain = float(delta * (np.sum(h[m0:]) - 0.5 * (h[m0] + h[-1])))

    # saturated tail beyond the largest resolved lag
    g_sat = edge_l[N] + edge_r[N]
    t_end = t[-1]
    tail = g_sat * t_end ** (-2.0 * s) / (2.0 * s)

    # graded part on (0, t0]. np.interp clamps to the edge samples, which
    # is exactly the boundary-value extension on the right; the strip of y
    # below the left edge enters through the cumulative edge integral.
    lag_grid = np.arange(N + 1) * delta

    def g_at(ts):
        out = np.empty_like(ts)
        mag = np.empty_like(ts)
        for i, tt in enumerate(ts):
            du = np.interp(x + tt, x, su) - su
            dv = np.interp(x + tt, x, sv) - sv
            prods = du * dv
            edge = float(np.interp(tt, lag_grid, edge_l))
            out[i] = float(np.sum(prods)) * delta + edge
            mag[i] = float(np.sum(np.abs(prods))) * delta + abs(edge)
        return out, mag

    t0 = m0 * delta
    near = 0.0
    remainder = 0.0
    noise_floor = 0.0
    eps = np.finfo(float).eps
    result_prev = None
    converged = False
    for j in range(42):
        a = t0 * 2.0 ** (-j - 1)
        b = t0 * 2.0 ** (-j)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = mid + half * _GL_NODES
        gs, gmag = g_at(ts)
        weights = half * _GL_WEIGHTS * ts ** (-1.0 - 2.0 * s)
        near += float(np.dot(weights, gs))
        # g carries round-off of order eps times its magnitude sum; the
        # kernel-weighted image of that noise bounds what refinement can
        # still resolve
        noise_floor += 32.0 * eps * float(np.dot(np.abs(weights), gmag))
        c = float(np.mean(gs / ts**2))
        remainder = c * a ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
        result = near + remainder
        if result_prev is not None and j >= 3:
            # cross forms can cancel to zero, so gauge the tolerance
            # against the magnitude of the pieces, not the cancelled total
            scale = max(abs(plain) + abs(tail) + abs(near) + abs(remainder), 1e-300)
            diff = abs(result - result_prev)
            if diff <= 0.25 * tol * scale or diff <= noise_floor:
                converged = True
                break
        result_prev = result
    if not converged:
        raise QuadratureToleranceError(
            "gagliardo near-field refinement did not reach tolerance"
        )

    return kernel_constant(1, s) * (plain + tail + near + remainder)
