"""Tiny expression language for test functions R -> R.

Grammar (conventional precedence, ^ tightest and right-associative, then
unary minus, then * /, then + -):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := primary ("^" factor)?
    primary := number | ident | ident "(" expr ")" | "(" expr ")"

Numbers are decimal literals with optional fraction and exponent. The only
identifiers are the variable x and the functions exp, sin, cos, abs,
bump. bump(t) = exp(-1/(1-t^2)) for |t| < 1 and 0 otherwise; it is the one
compactly supported atom, built in because the grammar has no
conditionals.

parse compiles the text, as it reads it, into a function of x; the
function takes a numpy array of points for x, so sampling a grid is one
vectorized call.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable

import numpy as np

from .errors import ExpressionError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)

# each nesting level costs several interpreter frames; the cap must trip
# well before CPython's recursion limit would
_MAX_DEPTH = 100


def _bump(t):
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    # evaluate only strictly inside the support; the complement is exactly 0
    safe = np.where(inside, t, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(inside, np.exp(-1.0 / (1.0 - safe * safe)), 0.0)
    return vals


# function name -> the array function that a call applies
FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "bump": _bump,
}


def _divide(a, b):
    # a 0-d zero divisor is refused; zeros in an array divisor give inf or
    # nan entries, which the grid sampler reports by node
    if np.ndim(b) == 0 and float(b) == 0.0:
        raise ExpressionError("division by zero")
    return a / b


_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "^": np.power,
}


def _unary(apply, operand):
    """The function of x that applies apply to operand(x)."""
    return lambda x: apply(operand(x))


def _binary(op, left, right):
    """The function of x that applies op to left(x) and right(x), computed
    in that order."""
    apply = _OPERATORS[op]
    return lambda x: apply(left(x), right(x))


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionError(
                f"unexpected character {source[pos]!r}", position=pos
            )
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise ExpressionError(f"expected {symbol!r}", position=pos)
        return self.advance()

    def parse(self):
        f = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(
                f"unexpected trailing input {text!r}", position=pos
            )
        return f

    def expr(self):
        f = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                f = _binary(text, f, self.term())
            else:
                return f

    def term(self):
        f = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                f = _binary(text, f, self.factor())
            else:
                return f

    def factor(self):
        # every nesting (parentheses, a call argument, unary minus, ^)
        # recurses through here, so self.depth counts the enclosing levels;
        # a parse that raises is abandoned, so only a return restores it
        kind, text, pos = self.peek()
        if self.depth > _MAX_DEPTH:
            raise ExpressionError("expression too deeply nested", position=pos)
        self.depth += 1
        if kind == "op" and text == "-":
            self.advance()
            f = _unary(operator.neg, self.factor())
        else:
            f = self.power()
        self.depth -= 1
        return f

    def power(self):
        base = self.primary()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return _binary("^", base, self.factor())
        return base

    def primary(self):
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            return lambda x: value
        if kind == "ident":
            nk, nt, npos = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    if text == "x":
                        raise ExpressionError(
                            f"variable {text!r} is not callable", position=pos
                        )
                    raise ExpressionError(
                        f"unknown function {text!r}", position=pos
                    )
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return _unary(FUNCTIONS[text], arg)
            if text == "x":
                return lambda x: x
            if text in FUNCTIONS:
                raise ExpressionError(
                    f"function {text!r} requires exactly one argument",
                    position=pos,
                )
            raise ExpressionError(f"unknown identifier {text!r}", position=pos)
        if kind == "op" and text == "(":
            f = self.expr()
            self.expect_op(")")
            return f
        raise ExpressionError(
            f"expected a number, identifier or '(', got {text!r}", position=pos
        )


def parse(source: str) -> Callable:
    """Compile source text in the variable x into a function of x."""
    if not isinstance(source, str):
        raise ExpressionError("source must be text")
    return _Parser(source).parse()


def evaluate_array(f: Callable, x):
    """Vectorized evaluation of the parsed expression f at every entry of
    the node array x.

    Non-finite entries are the caller's to report (the grid sampler knows
    the node indices).
    """
    with np.errstate(all="ignore"):
        values = f(x)
    return np.broadcast_to(np.asarray(values, dtype=float), x.shape)
