"""Grid container, truncations, mollifier, and cutoff tests."""

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
    mollify,
    sample,
    satisfies_support_rule,
    smooth_cutoff,
    truncate,
    write_csv,
)


def test_axis_nodes_layout():
    spec = GridSpec(1, 2.0, 4)
    nodes = spec.axis_nodes()
    assert np.array_equal(nodes, np.array([-2.0, -1.0, 0.0, 1.0]))
    assert spec.delta == 1.0
    assert spec.shape == (4,)


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(1, 2.0, 6)  # not a power of two
    with pytest.raises(DomainError):
        GridSpec(1, -1.0, 8)
    with pytest.raises(DomainError):
        GridSpec(3, 2.0, 8)
    with pytest.raises(DomainError):
        GridSpec(1, 2.0, 1)


def test_sample_reports_offending_node():
    spec = GridSpec(1, 2.0, 4)
    with pytest.raises(DomainError):
        sample("1/x", spec)  # pole sits on the x = 0 node


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
    shifted = truncate(u, "shifted_pos", eps=0.05)
    assert np.all(shifted.samples <= pos.samples)
    assert np.max(shifted.samples) == pytest.approx(np.max(pos.samples) - 0.05)
    for bad in (0.0, -0.1):
        with pytest.raises(DomainError):
            truncate(u, "shifted_pos", eps=bad)
    with pytest.raises(DomainError):
        truncate(u, "nonsense")


def test_mollify_preserves_mass_and_support_bound():
    spec = GridSpec(1, 16.0, 4096)
    u = truncate(sample("x*exp(-x^2)", spec), "pos")
    h = 4
    v = mollify(u, h)
    mass_u = float(np.sum(u.samples)) * spec.delta
    mass_v = float(np.sum(v.samples)) * spec.delta
    assert abs(mass_v - mass_u) <= 1e-12 * abs(mass_u)
    x = spec.axis_nodes()
    supp_u = x[np.abs(u.samples) > 0.0]
    supp_v = x[np.abs(v.samples) > 0.0]
    growth_lo = supp_u.min() - supp_v.min()
    growth_hi = supp_v.max() - supp_u.max()
    assert growth_lo <= 1.0 / h + spec.delta + 1e-12
    assert growth_hi <= 1.0 / h + spec.delta + 1e-12


def test_mollify_validation():
    spec = GridSpec(1, 4.0, 16)
    u = sample("exp(-x^2)", spec)
    with pytest.raises(DomainError):
        mollify(u, 0)
    with pytest.raises(DomainError):
        mollify(u, 2.5)
    # radius 1/h must cover at least two grid steps
    with pytest.raises(DomainError):
        mollify(u, 100)


def test_mollify_rejects_two_dimensional_grid():
    spec = GridSpec(2, 4.0, 16)
    u = GridFunction(spec, np.zeros(spec.shape))
    with pytest.raises(DomainError, match="one-dimensional"):
        mollify(u, 2)


def test_smooth_cutoff_plateau_and_monotone():
    spec = GridSpec(1, 16.0, 2048)
    chi = smooth_cutoff(spec, inner_radius=4.0, margin=2.0)
    x = spec.axis_nodes()
    r = np.abs(x)
    assert np.all(chi.samples[r <= 4.0] == 1.0)
    assert np.all(chi.samples[r >= 6.0] == 0.0)
    right = chi.samples[x >= 0.0]
    assert np.all(np.diff(right) <= 1e-15)
    with pytest.raises(DomainError):
        smooth_cutoff(spec, inner_radius=10.0, margin=8.0)


def test_l2_inner_gaussian():
    spec = GridSpec(1, 20.0, 4096)
    u = sample("exp(-x^2/2)", spec)
    val = l2_inner(u, u)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_support_rule_detection():
    spec = GridSpec(1, 16.0, 1024)
    ok = sample("exp(-x^2)", spec)
    assert satisfies_support_rule(ok)
    assert max_tail(ok) < SUPPORT_DECAY
    wide = sample("exp(-x^2/200)", spec)
    assert not satisfies_support_rule(wide)
    assert max_tail(wide) >= SUPPORT_DECAY


def test_write_csv_format(tmp_path):
    spec = GridSpec(1, 2.0, 4)
    u = GridFunction(spec, np.array([0.1, 0.2, 0.25, 0.5]))
    path = tmp_path / "u.csv"
    write_csv(u, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "-2"
    assert first[1] == "0.10000000000000001"
