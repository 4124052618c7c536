"""Expression parser and evaluator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab.expr import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    evaluate,
    evaluate_array,
    parse,
    to_source,
)
from fraclab.errors import ExpressionError


def test_parse_reference_ast():
    tree = parse("x*exp(-x^2)")
    expected = BinOp(
        "*",
        Var("x", 0),
        Call("exp", Neg(BinOp("^", Var("x", 0), Num(2.0)))),
    )
    assert tree == expected


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2") == Neg(BinOp("^", Var("x", 0), Num(2.0)))
    assert evaluate(parse("-x^2"), 3.0) == -9.0


def test_power_is_right_associative():
    assert evaluate(parse("2^3^2"), 0.0) == 512.0


def test_unknown_variable_reports_position():
    with pytest.raises(ExpressionError) as exc:
        parse("x*x3")
    assert exc.value.position == 2


def test_one_dimensional_name_is_x():
    with pytest.raises(ExpressionError):
        parse("x1")


def test_bump_profile():
    t = np.array([0.0, 0.5, 0.999, 1.0, 1.5, -2.0])
    out = evaluate_array(parse("bump(x)"), (t,))
    assert out[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert out[3] == 0.0
    assert out[4] == 0.0
    assert out[5] == 0.0
    inner = math.exp(-1.0 / (1.0 - 0.25))
    assert out[1] == pytest.approx(inner, rel=1e-15)


def test_division_by_zero_raises():
    with pytest.raises(ExpressionError):
        evaluate(parse("1/x"), 0.0)


def test_nonfinite_result_raises():
    with pytest.raises(ExpressionError):
        evaluate(parse("exp(x)"), 1e6)


def test_to_source_round_trip_by_value():
    sources = [
        "x*exp(-x^2)",
        "sin(x)+cos(2*x)",
        "bump(x/3)",
        "(x+1)*(x-1)/4",
        "2^x",
        "abs(x)-x",
    ]
    pts = np.linspace(-2.5, 2.5, 41)
    for src in sources:
        tree = parse(src)
        again = parse(to_source(tree))
        a = evaluate_array(tree, (pts,))
        b = evaluate_array(again, (pts,))
        assert np.allclose(a, b, rtol=1e-15, atol=0.0), src


def test_to_source_canonical_form():
    assert to_source(parse("x*exp(-x^2)")) == "x*exp(-x^2.0)"


def test_nesting_depth_limit():
    deep = "(" * 150 + "x" + ")" * 150
    with pytest.raises(ExpressionError):
        parse(deep)


def test_malformed_inputs_raise():
    for bad in ("", "x+", "(x", "x)", "1..2", "exp()", "exp(x,y)", "foo(x)", "x 2"):
        with pytest.raises(ExpressionError):
            parse(bad)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="x12+-*/^()., sincoexpabum", max_size=40))
def test_parser_never_crashes(text):
    # arbitrary input either parses to an AST or raises the parse error
    try:
        tree = parse(text)
    except ExpressionError:
        return
    assert tree is not None
