"""Expression parser and evaluator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab.expr import evaluate_array, parse
from fraclab.errors import DomainError, ExpressionError
from fraclab.grid import GridSpec, sample
from helpers import bits

# negative, zero and positive nodes, with the edges of bump's support
NODES = np.array([-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5])

# source -> the numpy expression that its compiled function must compute
WRITTEN_OUT = {
    "x": lambda x: x,
    "0.7": lambda x: 0.7,
    "-x": lambda x: -x,
    "x+0.7": lambda x: x + 0.7,
    "x-0.7": lambda x: x - 0.7,
    "x*0.7": lambda x: x * 0.7,
    "x/0.7": lambda x: x / 0.7,
    "0.7/x": lambda x: 0.7 / x,
    "x^3": lambda x: np.power(x, 3.0),
    "exp(x)": np.exp,
    "sin(x)": np.sin,
    "cos(x)": np.cos,
    "abs(x)": np.abs,
    "bump(x)": lambda x: np.where(np.abs(x) < 1.0, np.exp(-1.0 / (1.0 - x * x)), 0.0),
    "x^-2": lambda x: np.power(x, -2.0),
    "-x^2": lambda x: -np.power(x, 2.0),
    "2^3^2": lambda x: np.power(2.0, np.power(3.0, 2.0)),
    "x*exp(-x^2)": lambda x: x * np.exp(-np.power(x, 2.0)),
}


def at(source, x):
    """The value of source at the one point x, as a 0-d array."""
    return evaluate_array(parse(source), np.array(x))


@pytest.mark.parametrize("source", WRITTEN_OUT)
def test_operators_match_numpy_bit_for_bit(source):
    with np.errstate(all="ignore"):
        expected = np.broadcast_to(WRITTEN_OUT[source](NODES), NODES.shape)
    got = evaluate_array(parse(source), NODES)
    assert got.shape == NODES.shape
    assert np.array_equal(bits(got), bits(expected.astype(float)))


def test_unary_minus_binds_looser_than_power():
    assert at("-x^2", 3.0) == -9.0
    assert at("-x^2", -3.0) == -9.0


def test_power_is_right_associative():
    assert at("2^3^2", 0.0) == 512.0


def test_unknown_variable_reports_position():
    with pytest.raises(ExpressionError) as exc:
        parse("x*x3")
    assert exc.value.position == 2


def test_one_dimensional_name_is_x():
    with pytest.raises(ExpressionError):
        parse("x1")


def test_bump_profile():
    t = np.array([0.0, 0.5, 0.999, 1.0, 1.5, -2.0])
    out = evaluate_array(parse("bump(x)"), t)
    assert out[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert out[3] == 0.0
    assert out[4] == 0.0
    assert out[5] == 0.0
    inner = math.exp(-1.0 / (1.0 - 0.25))
    assert out[1] == pytest.approx(inner, rel=1e-15)


def test_division_by_zero_raises():
    with pytest.raises(ExpressionError):
        at("1/x", 0.0)


def test_nonfinite_result_raises():
    # exp(1000 x) overflows on the positive nodes of [-2, 2]
    with pytest.raises(DomainError, match="non-finite sample at node index"):
        sample("exp(1000*x)", GridSpec(1, 2.0, 8))


def test_nesting_depth_limit():
    deep = "(" * 150 + "x" + ")" * 150
    with pytest.raises(ExpressionError, match="too deeply nested"):
        parse(deep)
    # the cap is 100 levels of each kind of nesting
    for nest in (
        lambda k: "(" * k + "x" + ")" * k,
        lambda k: "exp(" * k + "x" + ")" * k,
        lambda k: "-" * k + "x",
        lambda k: "x^" * k + "x",
    ):
        parse(nest(100))
        with pytest.raises(ExpressionError, match="too deeply nested"):
            parse(nest(101))


def test_malformed_inputs_raise():
    for bad in ("", "x+", "(x", "x)", "1..2", "exp()", "exp(x,y)", "foo(x)", "x 2"):
        with pytest.raises(ExpressionError):
            parse(bad)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="x12+-*/^()., sincoexpabum", max_size=40))
def test_parser_never_crashes(text):
    # arbitrary input either compiles to a function or raises the parse error
    try:
        f = parse(text)
    except ExpressionError:
        return
    assert callable(f)
