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
    sample,
    satisfies_support_rule,
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
        GridSpec(2, 4.0, 16)
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
