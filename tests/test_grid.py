"""Grid container and truncation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab.errors import DomainError, SupportRuleError
from fraclab.grid import (
    SUPPORT_DECAY,
    GridFunction,
    GridSpec,
    l2_inner,
    max_tail,
    outer_window,
    sample,
    truncate,
)
from fraclab.spectral import forward_transform


def test_axis_nodes_layout():
    spec = GridSpec(1, 4.0, 8)
    nodes = spec.axis_nodes()
    assert np.array_equal(nodes, np.array([-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]))
    assert spec.delta == 1.0


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(1, 2.0, 6)  # not a power of two
    with pytest.raises(DomainError):
        GridSpec(1, -1.0, 8)
    # an infinite box gives an infinite node spacing
    for L in (math.inf, math.nan):
        with pytest.raises(DomainError, match=f"positive and finite, got L={L}"):
            GridSpec(1, L, 1024)
    with pytest.raises(DomainError):
        GridSpec(2, 4.0, 16)
    with pytest.raises(DomainError):
        GridSpec(3, 2.0, 8)
    with pytest.raises(DomainError):
        GridSpec(1, 2.0, 1)
    # the endpoint stencil and the counterexample scan need 8 nodes
    for N in (2, 4):
        with pytest.raises(DomainError) as err:
            GridSpec(1, 2.0, N)
        assert str(err.value) == f"N must be a power of two >= 8, got N={N}"
    # the squared frequencies (pi N / 2L)^2 must stay finite
    with pytest.raises(DomainError, match="L=1e-300 is too small"):
        GridSpec(1, 1e-300, 1024)
    assert GridSpec(1, 1e-150, 1024).L == 1e-150
    # L must be a real number and N an integer; numpy scalars convert
    for L, N in ((2.0, 8.0), (2.0, "abc"), (2.0, None), ("abc", 8), ("2", 8), (None, 8)):
        with pytest.raises(DomainError, match="L must be a real number and N an integer"):
            GridSpec(1, L, N)
    spec = GridSpec(1, np.float64(2.0), np.int64(8))
    assert spec == GridSpec(1, 2, 8)
    assert type(spec.L) is float and type(spec.N) is int


def test_sample_reports_offending_node():
    spec = GridSpec(1, 2.0, 8)
    with pytest.raises(DomainError):
        sample("1/x", spec)  # pole sits on the x = 0 node


def test_grid_function_names_the_bad_node_and_the_shape():
    spec = GridSpec(1, 2.0, 8)
    with pytest.raises(DomainError) as exc:
        GridFunction(spec, [0.0, 1.0, 2.0, math.inf, 0.0, 0.0, 0.0, 0.0])
    assert str(exc.value) == "non-finite sample at node index 3"
    with pytest.raises(DomainError) as exc:
        GridFunction(spec, np.zeros(3))
    assert str(exc.value) == "sample shape (3,) does not match grid (8,)"


def test_truncation_identities_reference_function():
    spec = GridSpec(1, 16.0, 1024)
    u = sample("x*exp(-x^2)", spec)
    pos = truncate(u, "pos")
    neg = truncate(u, "neg")
    absu = truncate(u, "abs")
    assert np.array_equal(pos.samples - neg.samples, u.samples)
    assert np.array_equal(pos.samples + neg.samples, absu.samples)
    assert np.all(pos.samples >= 0.0)
    assert np.all(neg.samples >= 0.0)
    assert np.all(pos.samples * neg.samples == 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8))
def test_truncation_identities_hypothesis(values):
    spec = GridSpec(1, 4.0, 8)
    u = GridFunction(spec, np.array(values))
    pos = truncate(u, "pos")
    neg = truncate(u, "neg")
    absu = truncate(u, "abs")
    assert np.array_equal(pos.samples - neg.samples, u.samples)
    assert np.array_equal(pos.samples + neg.samples, absu.samples)


def test_shifted_positive_part():
    spec = GridSpec(1, 16.0, 1024)
    u = sample("x*exp(-x^2)", spec)
    pos = truncate(u, "pos")
    shifted = truncate(GridFunction(spec, u.samples - 0.05), "pos")
    assert np.all(shifted.samples <= pos.samples)
    assert np.max(shifted.samples) == pytest.approx(np.max(pos.samples) - 0.05)
    for bad in ("shifted_pos", "nonsense"):
        with pytest.raises(DomainError):
            truncate(u, bad)


def test_l2_inner_gaussian():
    spec = GridSpec(1, 20.0, 4096)
    u = sample("exp(-x^2/2)", spec)
    val = l2_inner(u, u)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_support_rule_detection():
    spec = GridSpec(1, 16.0, 1024)
    ok = sample("exp(-x^2)", spec)
    assert max_tail(ok) < SUPPORT_DECAY
    wide = sample("exp(-x^2/200)", spec)
    assert max_tail(wide) >= SUPPORT_DECAY


# ----------------------------------------------------------------------
# the outer half of the box as a prefix and a suffix


def _outer_mask(spec):
    """Reference: the mask over the whole node axis."""
    return np.abs(spec.axis_nodes()) >= spec.L / 2.0


# at L = 7.3 node 3N/4 rounds below L/2, so the suffix starts one node later
_WINDOW_LS = [7.3, *np.random.default_rng(0).uniform(0.1, 100.0, 200)]


@pytest.mark.parametrize("N", [8, 16, 1024, 2**14])
def test_outer_window_matches_node_mask(N):
    for L in _WINDOW_LS:
        spec = GridSpec(1, float(L), N)
        a, b = outer_window(spec)
        got = np.zeros(N, dtype=bool)
        got[:a] = True
        got[b:] = True
        assert np.array_equal(got, _outer_mask(spec)), L


@pytest.mark.parametrize("N", [8, 16, 1024, 2**14])
def test_max_tail_equals_masked_max(N):
    rng = np.random.default_rng(N)
    for L in _WINDOW_LS[:20]:
        spec = GridSpec(1, float(L), N)
        u = GridFunction(spec, rng.normal(size=N))
        want = np.max(np.abs(u.samples[_outer_mask(spec)]))
        assert np.float64(max_tail(u)).view(np.uint64) == want.view(np.uint64)


def test_support_rule_message_unchanged():
    spec = GridSpec(1, 16.0, 1024)
    wide = sample("exp(-x^2/200)", spec)
    tail = float(np.max(np.abs(wide.samples[_outer_mask(spec)])))
    peak = float(np.max(np.abs(wide.samples)))
    want = (
        f"samples reach {tail:.3e} on the outer half of the box, |x| >= L/2 "
        f"with L=16; the transform needs decay below {SUPPORT_DECAY:g} of the "
        f"largest |sample|, {peak:.3e}, there"
    )
    with pytest.raises(SupportRuleError) as err:
        forward_transform(wide)
    assert str(err.value) == want


def test_support_rule_does_not_depend_on_scale():
    # the floor is relative to the largest |sample|: a slowly decaying shape
    # is refused at every scale and a fast one admitted at every scale; so
    # are the zero function and a tail below the normal double range
    spec = GridSpec(1, 20.0, 4096)
    for scale in (1.0, 1e-13, 1e13):
        with pytest.raises(SupportRuleError) as err:
            forward_transform(sample(f"{scale!r}*x*exp(-x^2/20)", spec))
        assert str(err.value).endswith(f"largest |sample|, {1.918 * scale:.3e}, there")
        forward_transform(sample(f"{scale!r}*x*exp(-x^2)", spec))
    forward_transform(GridFunction(spec, np.zeros(spec.N)))
    forward_transform(GridFunction(spec, np.full(spec.N, 5e-324)))


def test_forward_transform_builds_no_node_axis(monkeypatch):
    spec = GridSpec(1, 20.0, 1024)
    u = sample("exp(-x^2)", spec)
    calls = []
    axis_nodes = GridSpec.axis_nodes

    def counting(self):
        calls.append(1)
        return axis_nodes(self)

    monkeypatch.setattr(GridSpec, "axis_nodes", counting)
    forward_transform(u)
    forward_transform(truncate(u, "abs"))
    assert calls == []
