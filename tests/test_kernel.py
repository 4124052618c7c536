"""Singular-kernel quadrature tests.

phi_integral and interaction_integral compute the bare double integral
of f(x) g(y) |x-y|^{-1-2s} (no kernel constant). Two independent oracles
pin them down: the point-mass limit of separated unit-mass bumps, where
the integral tends to |distance|^{-1-2s}, and high-precision cross-form
values transported through the kernel constant.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab.errors import DisjointSupportError, DomainError, QuadratureToleranceError
from fraclab.experiments import mollifier_bump
from fraclab.grid import GridFunction, GridSpec, sample, truncate
from fraclab.kernel import (
    QuadratureResult,
    _positive_regions,
    find_crossings,
    gagliardo_form,
    interaction_integral,
    phi_integral,
)
from fraclab.spectral import quadratic_form
from fraclab.special import kernel_constant

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
    res = phi_integral(sample("exp(-x^2)", SPEC), 0.75)
    assert res == QuadratureResult(0.0, 0.0, 1)


@pytest.mark.parametrize("s", [0.5, 1.25])
def test_phi_matches_transported_cross_form(s):
    c = kernel_constant(1, s)
    expect = -CROSS_FORM[s] / c
    res = phi_integral(ODD, s)
    assert res.value == pytest.approx(expect, rel=5e-5)
    assert res.error_estimate <= 1e-6


def test_phi_sign_flip_symmetry():
    # negating u swaps the positive and negative parts; the kernel is
    # symmetric so the integral is unchanged
    flipped = GridFunction(SPEC, -ODD.samples)
    s = 1.25
    a = phi_integral(ODD, s).value
    b = phi_integral(flipped, s).value
    assert a == pytest.approx(b, rel=1e-12)


def test_phi_validation():
    for bad_s in (1.0, 1.5, 1.7, -0.5):
        with pytest.raises(DomainError):
            phi_integral(ODD, bad_s)
    for bad_tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            phi_integral(ODD, 0.75, tol=bad_tol)


def test_phi_unreachable_tolerance_raises():
    # near s = 3/2 the contact-corner refinement gains a fixed factor per
    # level, so an absurd tolerance exhausts the depth budget
    coarse = GridSpec(1, 20.0, 4096)
    u = sample("x*exp(-x^2)", coarse)
    with pytest.raises(QuadratureToleranceError):
        phi_integral(u, 1.49, tol=1e-17)


def test_interaction_point_mass_limit():
    # unit-mass bumps four apart; Richardson in the radius removes the
    # O(radius^2) moment term, leaving 4^{-1-2s}
    fine = GridSpec(1, 16.0, 16384)
    s = 0.75
    vals = {}
    for r in (0.2, 0.1):
        v = mollifier_bump(fine, -2.0, r)
        w = mollifier_bump(fine, 2.0, r)
        vals[r] = interaction_integral(v, w, s).value
    extrap = (4.0 * vals[0.1] - vals[0.2]) / 3.0
    assert extrap == pytest.approx(4.0 ** (-1.0 - 2.0 * s), rel=1e-4)


def test_interaction_dilation_law():
    # halving all lengths with mass fixed multiplies the integral by the
    # kernel homogeneity factor 2^{1+2s}
    fine = GridSpec(1, 16.0, 16384)
    s = 0.75
    wide = interaction_integral(
        mollifier_bump(fine, -2.0, 0.5), mollifier_bump(fine, 2.0, 0.5), s
    ).value
    narrow = interaction_integral(
        mollifier_bump(fine, -1.0, 0.25), mollifier_bump(fine, 1.0, 0.25), s
    ).value
    assert wide / narrow == pytest.approx(2.0 ** (-1.0 - 2.0 * s), rel=2e-5)


def test_interaction_empty_side_is_zero():
    fine = GridSpec(1, 16.0, 4096)
    v = mollifier_bump(fine, -2.0, 0.5)
    zero = GridFunction(fine, np.zeros(fine.N))
    assert interaction_integral(v, zero, 0.75) == QuadratureResult(0.0, 0.0, 1)


def test_interaction_rejects_overlap_touch_and_signs():
    fine = GridSpec(1, 16.0, 4096)
    v = mollifier_bump(fine, -1.0, 0.5)
    with pytest.raises(DisjointSupportError):
        interaction_integral(v, mollifier_bump(fine, -0.5, 0.5), 0.75)
    touching = mollifier_bump(fine, 0.0, 0.5)
    with pytest.raises(DisjointSupportError):
        interaction_integral(v, touching, 0.75)
    far = mollifier_bump(fine, 2.0, 0.5)
    with pytest.raises(DomainError):
        interaction_integral(GridFunction(fine, -v.samples), far, 0.75)
    with pytest.raises(DomainError):
        interaction_integral(v, far, 1.0)
    for bad_tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            interaction_integral(v, far, 0.75, tol=bad_tol)


def test_interaction_monotone_in_shift():
    # lowering the shift grows the retained mass, so the integral against
    # the fixed positive part grows, staying below the contact integral
    s = 1.25
    pos = truncate(ODD, "pos")
    neg = truncate(ODD, "neg")
    phi_full = phi_integral(ODD, s).value
    values = []
    for eps in (0.15, 0.10, 0.05):
        shifted = truncate(GridFunction(SPEC, neg.samples - eps), "pos")
        values.append(interaction_integral(shifted, pos, s, tol=1e-9).value)
    assert values == pytest.approx(
        [0.06651705939522821, 0.0997056149393466, 0.15377085411404587], rel=1e-10
    )
    assert values[0] < values[1] < values[2] < phi_full


def test_gagliardo_matches_multiplier_form():
    spec = GridSpec(1, 16.0, 4096)
    u = sample("exp(-x^2/2)", spec)
    s = 0.5
    kernel_route = gagliardo_form(u, u, s)
    spectral_route = quadratic_form(u, u, s)
    assert kernel_route == pytest.approx(spectral_route, rel=1e-3)


def test_gagliardo_symmetric_and_zero_for_constants():
    spec = GridSpec(1, 16.0, 2048)
    u = sample("exp(-x^2/2)", spec)
    v = sample("exp(-(x-1)^2)", spec)
    s = 0.4
    ab = gagliardo_form(u, v, s)
    ba = gagliardo_form(v, u, s)
    assert ab == pytest.approx(ba, rel=1e-12)
    assert ab != 0.0
    const = GridFunction(spec, np.full(spec.N, 2.5))
    assert gagliardo_form(const, const, s) == pytest.approx(0.0, abs=1e-12)


def test_gagliardo_even_odd_cross_form_cancels():
    # opposite parity makes the difference-quotient form vanish
    spec = GridSpec(1, 16.0, 2048)
    even = sample("exp(-x^2/2)", spec)
    odd = sample("x*exp(-x^2)", spec)
    s = 0.4
    cross = gagliardo_form(even, odd, s)
    scale = gagliardo_form(even, even, s)
    assert abs(cross) <= 1e-8 * scale


def test_gagliardo_validation():
    spec = GridSpec(1, 16.0, 2048)
    u = sample("exp(-x^2/2)", spec)
    for bad_s in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(DomainError):
            gagliardo_form(u, u, bad_s)
    for bad_tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            gagliardo_form(u, u, 0.5, tol=bad_tol)
    ramp = GridFunction(spec, spec.axis_nodes())
    with pytest.raises(DomainError):
        gagliardo_form(ramp, ramp, 0.5)


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


def _positive_regions_masked(u, crossings):
    """Reference region split with a full-axis mask per region."""
    x = u.spec.axis_nodes()
    s = u.samples
    bounds = [x[0]] + [z for z, _ in crossings] + [x[-1]]
    regions = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo <= 0:
            continue
        inside = (x >= lo) & (x <= hi)
        if inside.any() and np.max(s[inside]) > 0.0:
            regions.append((lo, hi))
    return regions


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
    N = draw(st.sampled_from([4, 8, 16, 32]))
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


@settings(max_examples=300, deadline=None)
@given(_grid_functions())
def test_positive_regions_match_masked_split(u):
    crossings = find_crossings(u)
    for part in (u, truncate(u, "pos"), truncate(u, "neg")):
        want = _positive_regions_masked(part, crossings)
        assert _positive_regions(part, crossings, u.spec.axis_nodes()) == want


def test_positive_regions_with_crossing_on_node():
    crossings = find_crossings(ODD)
    assert crossings[0][0] == 0.0 and 0.0 in ODD.spec.axis_nodes()
    for mode in ("pos", "neg"):
        part = truncate(ODD, mode)
        got = _positive_regions(part, crossings, ODD.spec.axis_nodes())
        assert got == _positive_regions_masked(part, crossings)
        assert len(got) == 1


def test_phi_integral_builds_the_node_axis_once(monkeypatch):
    # find_crossings computes only its bracket nodes; the regions and the
    # interpolants share one axis
    calls = []
    axis_nodes = GridSpec.axis_nodes

    def counting(spec):
        calls.append(spec.N)
        return axis_nodes(spec)

    u = sample("x*exp(-x^2)", GridSpec(1, 20.0, 4096))
    monkeypatch.setattr(GridSpec, "axis_nodes", counting)
    result = phi_integral(u, 0.5)
    assert calls == [4096]
    assert result.value > 0.0
