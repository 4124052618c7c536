"""Singular-kernel tests.

phi_integral and p1_pairing compute the bare double integral of
f(x) g(y) |x-y|^{-1-2s} (no kernel constant). Independent oracles pin
them down: the point-mass limit of separated unit-mass bumps, where the
integral tends to |distance|^{-1-2s}, high-precision cross-form values
transported through the kernel constant, the multiplier form of the
spectral route, and the O(N^2) double sum with 40-digit lag weights.
"""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraclab.errors import (
    DomainError,
    GridMismatchError,
    QuadratureToleranceError,
    SupportRuleError,
)
from fraclab.grid import GridFunction, GridSpec, sample, truncate
from fraclab.kernel import (
    _GL_NODES,
    _GL_WEIGHTS,
    _MAX_DEPTH,
    _MIN_DEPTH,
    QuadratureResult,
    _contact_geometry,
    _lag_weights,
    _pair_quadrature,
    _sign_regions,
    find_crossings,
    p1_pairing,
    phi_integral,
)
from fraclab.spectral import quadratic_form
from fraclab.special import kernel_constant

from helpers import mollifier_bump

SPEC = GridSpec(1, 20.0, 16384)
ODD = sample("x*exp(-x^2)", SPEC)

# cross forms of x e^{-x^2} from a 30-digit continuum evaluation,
# converted to the bare integral through the kernel constant
CROSS_FORM = {0.5: -0.045422528454052332116, 1.25: 0.2579186760169387218}


def test_find_crossings_odd_function():
    crossings = find_crossings(ODD)
    assert len(crossings) == 1
    loc, slope = crossings[0]
    assert loc == 0.0
    assert slope == pytest.approx(1.0, abs=1e-4)


def test_find_crossings_single_sign():
    assert find_crossings(sample("exp(-x^2)", SPEC)) == []
    assert find_crossings(sample("-exp(-x^2)", SPEC)) == []


def test_phi_of_single_sign_function_is_zero():
    u = sample("exp(-x^2)", SPEC)
    res = phi_integral(u, find_crossings(u), 0.75)
    assert res == QuadratureResult(0.0, 0.0, 1)


@pytest.mark.parametrize("s", [0.5, 1.25])
def test_phi_matches_transported_cross_form(s):
    c = kernel_constant(1, s)
    expect = -CROSS_FORM[s] / c
    res = phi_integral(ODD, find_crossings(ODD), s)
    assert res.value == pytest.approx(expect, rel=5e-5)
    assert res.error_estimate <= 1e-6


def test_phi_sign_flip_symmetry():
    # negating u swaps the positive and negative parts; the kernel is
    # symmetric so the integral is unchanged
    flipped = GridFunction(SPEC, -ODD.samples)
    s = 1.25
    a = phi_integral(ODD, find_crossings(ODD), s).value
    b = phi_integral(flipped, find_crossings(flipped), s).value
    assert a == pytest.approx(b, rel=1e-12)


def test_phi_validation():
    for bad_s in (1.0, 1.5, 1.7, -0.5):
        with pytest.raises(DomainError):
            phi_integral(ODD, find_crossings(ODD), bad_s)
    for bad_tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            phi_integral(ODD, find_crossings(ODD), 0.75, tol=bad_tol)


def test_phi_unreachable_tolerance_raises():
    # near s = 3/2 the contact-corner refinement gains a fixed factor per
    # level, so an absurd tolerance exhausts the depth budget
    coarse = GridSpec(1, 20.0, 4096)
    u = sample("x*exp(-x^2)", coarse)
    with pytest.raises(QuadratureToleranceError):
        phi_integral(u, find_crossings(u), 1.49, tol=1e-17)


def test_interaction_point_mass_limit():
    # unit-mass bumps four apart; Richardson in the radius removes the
    # O(radius^2) moment term, leaving 4^{-1-2s}
    fine = GridSpec(1, 16.0, 16384)
    s = 0.75
    vals = {}
    for r in (0.2, 0.1):
        v = mollifier_bump(fine, -2.0, r)
        w = mollifier_bump(fine, 2.0, r)
        vals[r] = p1_pairing(v, w, s)
    extrap = (4.0 * vals[0.1] - vals[0.2]) / 3.0
    assert extrap == pytest.approx(4.0 ** (-1.0 - 2.0 * s), rel=1e-4)


def test_interaction_dilation_law():
    # halving all lengths with mass fixed multiplies the integral by the
    # kernel homogeneity factor 2^{1+2s}
    fine = GridSpec(1, 16.0, 16384)
    s = 0.75
    wide = p1_pairing(
        mollifier_bump(fine, -2.0, 0.5), mollifier_bump(fine, 2.0, 0.5), s
    )
    narrow = p1_pairing(
        mollifier_bump(fine, -1.0, 0.25), mollifier_bump(fine, 1.0, 0.25), s
    )
    assert wide / narrow == pytest.approx(2.0 ** (-1.0 - 2.0 * s), rel=2e-5)


def test_interaction_empty_side_is_zero():
    fine = GridSpec(1, 16.0, 4096)
    v = mollifier_bump(fine, -2.0, 0.5)
    zero = GridFunction(fine, np.zeros(fine.N))
    assert p1_pairing(v, zero, 0.75) == 0.0
    assert p1_pairing(v, zero, 2.5) == 0.0


def test_interaction_monotone_in_shift():
    # lowering the shift grows the retained mass, so the integral against
    # the fixed positive part grows, staying below the contact integral
    s = 1.25
    pos = truncate(ODD, "pos")
    neg = truncate(ODD, "neg")
    phi_full = phi_integral(ODD, find_crossings(ODD), s).value
    values = []
    for eps in (0.15, 0.10, 0.05):
        shifted = truncate(GridFunction(SPEC, neg.samples - eps), "pos")
        values.append(p1_pairing(shifted, pos, s))
    assert values == pytest.approx(
        [0.06652666771730086, 0.0997377521051575, 0.15386353295081887], rel=1e-10
    )
    assert values[0] < values[1] < values[2] < phi_full


def test_gagliardo_matches_multiplier_form():
    # -C(1, s) p1_pairing(u, u, s) is the difference-quotient form of the
    # interpolant
    spec = GridSpec(1, 16.0, 4096)
    u = sample("exp(-x^2/2)", spec)
    for s in (0.5, 0.75, 1.1, 1.25):
        kernel_route = -kernel_constant(1, s) * p1_pairing(u, u, s)
        spectral_route = quadratic_form(u, u, s)
        assert kernel_route == pytest.approx(spectral_route, rel=1e-3), s


def test_gagliardo_symmetric():
    spec = GridSpec(1, 16.0, 2048)
    u = sample("exp(-x^2/2)", spec)
    v = sample("exp(-(x-1)^2)", spec)
    s = 0.4
    ab = p1_pairing(u, v, s)
    ba = p1_pairing(v, u, s)
    assert ab == pytest.approx(ba, rel=1e-12)
    assert ab != 0.0


def test_gagliardo_even_odd_cross_form_cancels():
    # opposite parity makes the difference-quotient form vanish
    spec = GridSpec(1, 16.0, 2048)
    even = sample("exp(-x^2/2)", spec)
    odd = sample("x*exp(-x^2)", spec)
    s = 0.4
    cross = p1_pairing(even, odd, s)
    scale = p1_pairing(even, even, s)
    assert abs(cross) <= 1e-8 * abs(scale)


def test_gagliardo_validation():
    spec = GridSpec(1, 16.0, 2048)
    u = sample("exp(-x^2/2)", spec)
    for bad_s in (0.0, 1.0, 2.0, -0.3, math.inf, math.nan):
        with pytest.raises(DomainError):
            p1_pairing(u, u, bad_s)
    with pytest.raises(GridMismatchError):
        p1_pairing(u, sample("exp(-x^2/2)", GridSpec(1, 16.0, 1024)), 0.5)
    # the inputs forward_transform accepts, and no others: a ramp or a
    # slowly decaying input reaches the outer half of the box
    ramp = GridFunction(spec, spec.axis_nodes())
    wide = sample("exp(-x^2/200)", spec)
    for bad in (ramp, wide):
        for pair in ((bad, u), (u, bad)):
            with pytest.raises(SupportRuleError):
                p1_pairing(*pair, 0.5)


def test_interaction_rejects_overlap_and_touch_above_three_halves():
    # from s = 3/2 on, the pairing of samples within two nodes is infinite;
    # below it, overlap has a finite part and signs are free
    spec = GridSpec(1, 16.0, 2048)
    odd = sample("x*exp(-x^2)", spec)
    pos, neg = truncate(odd, "pos"), truncate(odd, "neg")
    assert math.isfinite(p1_pairing(odd, pos, 1.25))
    c = spec.N // 2
    spike = GridFunction(spec, np.where(np.arange(spec.N) == c, 1.0, 0.0))
    for s in (1.5, 2.5):
        with pytest.raises(DomainError, match="diverges"):
            p1_pairing(pos, neg, s)
        with pytest.raises(DomainError, match="diverges"):
            p1_pairing(pos, pos, s)
        for gap in (-2, 2, 3):
            other = GridFunction(spec, np.roll(spike.samples, gap))
            if abs(gap) <= 2:
                with pytest.raises(DomainError, match="diverges"):
                    p1_pairing(spike, other, s)
            else:
                assert math.isfinite(p1_pairing(spike, other, s))


def _reference_weights(n, s):
    """m(d) = delta^4 F(d) at 40 digits, with the generic or logarithmic F."""
    mpmath.mp.dps = 40
    a = 1 + 2 * mpmath.mpf(s)

    def F(t):
        t = abs(mpmath.mpf(t))
        if a == 2:
            return 0 if t == 0 else -t * t * mpmath.log(t) / 2
        if a == 4:
            return -mpmath.log(t) / 6
        return t ** (4 - a) / ((1 - a) * (2 - a) * (3 - a) * (4 - a))

    lo = 3 if s >= 1.5 else 0
    m = [0.0] * n
    for d in range(lo, n):
        m[d] = float(F(d - 2) - 4 * F(d - 1) + 6 * F(d) - 4 * F(d + 1) + F(d + 2))
    return np.array(m)


@pytest.mark.parametrize("s", [0.3, 0.49, 0.5, 0.75, 1.25, 1.45, 1.5, 2.5])
def test_lag_weights_match_high_precision(s):
    # direct differences up to lag 16, the asymptotic series beyond; 0.49
    # and 1.45 take the expm1 form of F, 0.5 and 1.5 its logarithmic limit
    want = _reference_weights(200, s)
    got = _lag_weights(200, s)
    lo = 3 if s >= 1.5 else 0
    assert np.all(got[:lo] == 0.0)
    assert np.max(np.abs(got[lo:] / want[lo:] - 1.0)) <= 2e-10


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 1.25, 1.45])
@pytest.mark.parametrize("N", [64, 256])
def test_p1_pairing_matches_direct_double_sum(s, N):
    # a full form and a cross form whose crossing z = 0.3 is off the nodes
    spec = GridSpec(1, 12.0, N)
    m = _reference_weights(N, s)
    k = np.arange(N)
    toeplitz = m[np.abs(k[:, None] - k[None, :])]
    u = sample("(x-0.3)*exp(-x^2)", spec)
    gauss = sample("exp(-x^2)", spec)
    for v, w in ((gauss, gauss), (truncate(u, "pos"), truncate(u, "neg"))):
        want = spec.delta ** (1.0 - 2.0 * s) * (v.samples @ toeplitz @ w.samples)
        assert p1_pairing(v, w, s) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("s", [0.5, 1.25])
def test_p1_pairing_cross_form_at_fine_grid(s):
    # the O(Delta^2) discretization error alone; an FFT over every lag
    # misses by 7.9e-8 at s = 1.25
    spec = GridSpec(1, 20.0, 2**18)
    u = sample("x*exp(-x^2)", spec)
    pos, neg = truncate(u, "pos"), truncate(u, "neg")
    value = p1_pairing(pos, neg, s)
    assert -kernel_constant(1, s) * value == pytest.approx(CROSS_FORM[s], rel=3e-8)
    assert p1_pairing(neg, pos, s) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 1.1, 1.25, 1.45])
def test_phi_estimate_covers_its_quadrature_error(s):
    # the crossing of ODD is a node, so the P1 pairing of its parts is the
    # exact integral that phi_integral approximates
    res = phi_integral(ODD, find_crossings(ODD), s)
    exact = p1_pairing(truncate(ODD, "pos"), truncate(ODD, "neg"), s)
    assert abs(res.value - exact) <= res.error_estimate


def test_quadrature_result_validates_depth():
    with pytest.raises(DomainError):
        QuadratureResult(0.0, 0.0, 0)


# ----------------------------------------------------------------------
# the vectorised crossing scan and region split against their loop forms


def _find_crossings_loop(u):
    """Scalar reference: one bracket per pair of consecutive nonzero samples."""
    x = u.spec.axis_nodes()
    s = u.samples
    nz = np.flatnonzero(s != 0.0)
    out = []
    for a, b in zip(nz[:-1], nz[1:]):
        if (s[a] > 0.0) != (s[b] > 0.0):
            t = s[a] / (s[a] - s[b])
            z = x[a] + t * (x[b] - x[a])
            slope = (s[b] - s[a]) / (x[b] - x[a])
            out.append((float(z), float(slope)))
    return out


def _masked_split(u, crossings):
    """Reference region split with a full-axis mask per interval.

    Interior bounds are open: a root that rounds onto a node (t = 1 in
    find_crossings) puts that node, whose sample has the far sign, on the
    bound, and a closed mask counts it in both neighbouring intervals. The
    open part of a sliver beside such a node can hold no nonzero sample;
    the mask cannot sign it, so it takes the sign of its run, the nonzero
    samples between the two crossings around it.
    """
    x = u.spec.axis_nodes()
    s = u.samples
    nonzero = s[s != 0.0] > 0.0
    runs = [nonzero[0]] + [b for a, b in zip(nonzero[:-1], nonzero[1:]) if a != b]
    bounds = [x[0]] + [z for z, _ in crossings] + [x[-1]]
    last = len(bounds) - 2
    pos, neg = [], []
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi - lo <= 0:
            continue
        inside = (x >= lo if i == 0 else x > lo) & (x <= hi if i == last else x < hi)
        part = s[inside & (s != 0.0)]
        if (np.max(part) > 0.0) if part.size else runs[i]:
            pos.append((lo, hi))
        if (np.min(part) < 0.0) if part.size else not runs[i]:
            neg.append((lo, hi))
    return pos, neg


def _short_axis(values):
    """Stand-in for a grid function on any number of nodes, including fewer
    than GridSpec allows."""
    arr = np.asarray(values, dtype=float)
    nodes = -1.0 + 0.5 * np.arange(arr.size)
    spec = SimpleNamespace(n=1, L=1.0, delta=0.5, axis_nodes=lambda: nodes)
    return SimpleNamespace(spec=spec, samples=arr)


# small integers give exact zeros, runs of them between opposite signs and
# symmetric brackets whose root lands on a node; floats land off the nodes
_SAMPLE_VALUE = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -3.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _grid_functions(draw):
    N = draw(st.sampled_from([8, 16, 32]))
    values = draw(st.lists(_SAMPLE_VALUE, min_size=N, max_size=N))
    L = draw(st.sampled_from([1.0, 3.0, 20.0]))
    return GridFunction(GridSpec(1, L, N), np.array(values))


def _assert_same_pairs(got, want):
    assert got == want
    assert all(type(z) is float and type(k) is float for z, k in got)


@settings(max_examples=300, deadline=None)
@given(_grid_functions())
def test_find_crossings_matches_loop(u):
    _assert_same_pairs(find_crossings(u), _find_crossings_loop(u))


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0.0],
        [-1.5],
        [1.0, -3.0],
        [0.0, 2.0],
        [-1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 2.0, 3.0, 4.0],
        [0.0, 1.0, -1.0, 0.0],
        [0.0, -2.0, 0.0, 0.0, 3.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 2.0],
    ],
)
def test_find_crossings_matches_loop_on_edge_cases(values):
    u = _short_axis(values)
    _assert_same_pairs(find_crossings(u), _find_crossings_loop(u))


def test_find_crossings_on_node_and_through_zero_run():
    spec = GridSpec(1, 2.0, 8)  # nodes -2, -1.5, ..., 1.5
    on_node = GridFunction(spec, np.array([0, 0, 2.0, 0, -2.0, 0, 0, 0]))
    assert find_crossings(on_node) == [(-0.5, -4.0)]
    off_node = GridFunction(spec, np.array([1.0, 0, 0, -3.0, 0, 0, 0, 0]))
    assert find_crossings(off_node) == [(-2.0 + 0.25 * 1.5, -4.0 / 1.5)]


def _split(u, crossings):
    x = u.spec.axis_nodes()
    return _sign_regions(crossings, x[0], x[-1])


@settings(max_examples=300, deadline=None)
@given(_grid_functions())
def test_positive_regions_match_masked_split(u):
    # the crossing slopes alone give the regions of u+ and of u-
    crossings = find_crossings(u)
    assume(crossings)  # without crossings phi_integral returns 0 unsplit
    assert _split(u, crossings) == _masked_split(u, crossings)


def test_positive_regions_with_crossing_on_node():
    crossings = find_crossings(ODD)
    assert crossings[0][0] == 0.0 and 0.0 in ODD.spec.axis_nodes()
    got = _split(ODD, crossings)
    assert got == _masked_split(ODD, crossings)
    assert [len(regions) for regions in got] == [1, 1]


def test_regions_with_root_rounded_onto_node():
    # the bracket's far sample is 1e-300, so t rounds to 1 and the root is
    # the node itself; that node's sample does not make the left interval
    # negative as well
    spec = GridSpec(1, 2.0, 8)  # nodes -2, -1.5, ..., 1.5
    u = GridFunction(spec, np.array([0, 1.0, 2.0, 1.0, -1e-300, -1.0, -2.0, 0]))
    crossings = find_crossings(u)
    assert crossings[0][0] == 0.0
    got = _split(u, crossings)
    assert got == ([(-2.0, 0.0)], [(0.0, 1.5)])
    assert got == _masked_split(u, crossings)


def test_regions_signed_by_underflowed_slope():
    # samples of +-5e-324 ten apart give slopes of +0.0 and -0.0
    spec = GridSpec(1, 40.0, 8)  # nodes -40, -30, ..., 30
    u = GridFunction(spec, np.array([0, 0, 0, -5e-324, 5e-324, -5e-324, 0, 0]))
    crossings = find_crossings(u)
    assert [math.copysign(1.0, k) for _, k in crossings] == [1.0, -1.0]
    got = _split(u, crossings)
    assert got == ([(-5.0, 5.0)], [(-40.0, -5.0), (5.0, 30.0)])
    assert got == _masked_split(u, crossings)


def test_phi_integral_builds_the_node_axis_once(monkeypatch):
    # find_crossings computes only its bracket nodes; the regions and the
    # interpolants share one axis
    calls = []
    axis_nodes = GridSpec.axis_nodes

    def counting(spec):
        calls.append(spec.N)
        return axis_nodes(spec)

    u = sample("x*exp(-x^2)", GridSpec(1, 20.0, 4096))
    crossings = find_crossings(u)
    monkeypatch.setattr(GridSpec, "axis_nodes", counting)
    result = phi_integral(u, crossings, 0.5)
    assert calls == [4096]
    assert result.value > 0.0


# ----------------------------------------------------------------------
# the pair quadrature against its per-level form


def _level_nodes_scalar(lo, hi, anchor_lo, j):
    w = hi - lo
    if anchor_lo:
        a = lo + w * 2.0 ** (-j - 1)
        b = lo + w * 2.0 ** (-j)
    else:
        a = hi - w * 2.0 ** (-j)
        b = hi - w * 2.0 ** (-j - 1)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GL_NODES, half * _GL_WEIGHTS


def _pair_quadrature_per_level(
    fx, fy, xreg, yreg, x_anchor_lo, y_anchor_lo, contact, s, tol
):
    """Reference: nodes, factor values and the running node lists rebuilt
    at every level."""
    expo = -(1.0 + 2.0 * s)
    rho = 2.0 ** (-(3.0 - 2.0 * s)) if contact else None
    X_acc, WX_acc, Y_acc, WY_acc = [], [], [], []
    total = 0.0
    prev_total = None
    prev_corr = None
    corr = 0.0
    est = math.inf
    for j in range(_MAX_DEPTH):
        xn, xw = _level_nodes_scalar(xreg[0], xreg[1], x_anchor_lo, j)
        yn, yw = _level_nodes_scalar(yreg[0], yreg[1], y_anchor_lo, j)
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


def _p1_factor(rng, lo, hi, zero_at):
    """Positive P1 factor on [lo, hi] with random nodes; it vanishes at
    zero_at when that is an endpoint, as a truncation cut on a node does."""
    nodes = np.sort(np.concatenate(([lo, hi], rng.uniform(lo, hi, 6))))
    values = rng.uniform(0.1, 2.0, nodes.size)
    values[nodes == zero_at] = 0.0
    return lambda t: np.maximum(np.interp(t, nodes, values), 0.0)


def _random_pair(rng, case):
    contact = case % 2 == 0
    x_left = case % 4 < 2  # both anchor directions
    z = rng.uniform(-3.0, 3.0)
    wx, wy = rng.uniform(0.05, 4.0, 2)
    gap = 0.0 if contact else rng.uniform(1e-3, 2.0)
    if x_left:
        xreg, yreg = (z - wx, z), (z + gap, z + gap + wy)
    else:
        xreg, yreg = (z + gap, z + gap + wx), (z - wy, z)
    # half the cases keep the factors nonzero at the facing edges, like an
    # off-node crossing's cut interpolants
    vanish = rng.random() < 0.5
    fx = _p1_factor(rng, *xreg, xreg[x_left] if vanish else None)
    fy = _p1_factor(rng, *yreg, yreg[1 - x_left] if vanish else None)
    geometry = _contact_geometry(xreg, yreg)
    assert geometry[2] == contact and geometry[0] != x_left
    s = rng.uniform(0.05, 1.49)
    tol = 10.0 ** rng.uniform(-14.0, -2.0)
    return (fx, fy, xreg, yreg, *geometry, s, tol)


def _outcome(quadrature, args):
    try:
        value, est, depth = quadrature(*args)
    except QuadratureToleranceError as err:
        return ("raises", str(err))
    return (float(value).hex(), float(est).hex(), depth)


def test_pair_quadrature_matches_per_level_form_bit_for_bit():
    rng = np.random.default_rng(20261018)
    outcomes = []
    for case in range(1000):
        args = _random_pair(rng, case)
        want = _outcome(_pair_quadrature_per_level, args)
        assert _outcome(_pair_quadrature, args) == want, (case, args[2:])
        outcomes.append(want)
    raised = sum(o[0] == "raises" for o in outcomes)
    depths = {o[2] for o in outcomes if o[0] != "raises"}
    assert 100 < raised < 900  # both branches are exercised
    assert min(depths) == _MIN_DEPTH and max(depths) > 20


def test_pair_quadrature_evaluates_each_factor_once():
    calls = []

    def counting(t):
        calls.append(t.size)
        return np.ones_like(t)

    # a separated pair converges; at contact, factors that do not vanish
    # make the integral diverge for s > 1/2, so all levels run
    for xreg, yreg, s, raises in [
        ((-1.0, 0.0), (0.5, 1.0), 0.3, False),
        ((-1.0, 0.0), (0.0, 1.0), 1.3, True),
    ]:
        calls.clear()
        args = (counting, counting, xreg, yreg, *_contact_geometry(xreg, yreg))
        if raises:
            with pytest.raises(QuadratureToleranceError):
                _pair_quadrature(*args, s, 1e-6)
        else:
            assert _pair_quadrature(*args, s, 1e-6)[2] >= _MIN_DEPTH
        assert calls == [12 * _MAX_DEPTH] * 2
