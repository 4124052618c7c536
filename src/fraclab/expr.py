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

Evaluation accepts a scalar or a numpy array for x, so sampling a grid is
a single vectorized tree walk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ExpressionError

FUNCTIONS = ("exp", "sin", "cos", "abs", "bump")

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


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    axis: int


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"


ExprAst = Union[Num, Var, Neg, BinOp, Call]


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

    def _enter(self, pos):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExpressionError("expression too deeply nested", position=pos)

    def parse(self) -> ExprAst:
        ast = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(
                f"unexpected trailing input {text!r}", position=pos
            )
        return ast

    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> ExprAst:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> ExprAst:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self._enter(pos)
            try:
                self.advance()
                return Neg(self.factor())
            finally:
                self.depth -= 1
        return self.power()

    def power(self) -> ExprAst:
        base = self.primary()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self._enter(pos)
            try:
                self.advance()
                return BinOp("^", base, self.factor())
            finally:
                self.depth -= 1
        return base

    def primary(self) -> ExprAst:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
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
                self._enter(pos)
                try:
                    self.advance()
                    arg = self.expr()
                finally:
                    self.depth -= 1
                self.expect_op(")")
                return Call(text, arg)
            if text == "x":
                return Var("x", 0)
            if text in FUNCTIONS:
                raise ExpressionError(
                    f"function {text!r} requires exactly one argument",
                    position=pos,
                )
            raise ExpressionError(f"unknown identifier {text!r}", position=pos)
        if kind == "op" and text == "(":
            self._enter(pos)
            try:
                node = self.expr()
            finally:
                self.depth -= 1
            self.expect_op(")")
            return node
        raise ExpressionError(
            f"expected a number, identifier or '(', got {text!r}", position=pos
        )


def parse(source: str) -> ExprAst:
    """Parse source text in the variable x into an AST."""
    if not isinstance(source, str):
        raise ExpressionError("source must be text")
    return _Parser(source).parse()


def _bump(t):
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    # evaluate only strictly inside the support; the complement is exactly 0
    safe = np.where(inside, t, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(inside, np.exp(-1.0 / (1.0 - safe * safe)), 0.0)
    return vals


_CALL_TABLE = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "bump": _bump,
}


def _eval_node(ast: ExprAst, coords):
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        return coords[ast.axis]
    if isinstance(ast, Neg):
        return -_eval_node(ast.operand, coords)
    if isinstance(ast, Call):
        return _CALL_TABLE[ast.func](_eval_node(ast.arg, coords))
    if isinstance(ast, BinOp):
        a = _eval_node(ast.left, coords)
        b = _eval_node(ast.right, coords)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if ast.op == "/":
            if np.ndim(b) == 0 and float(b) == 0.0:
                raise ExpressionError("division by zero")
            return a / b
        if ast.op == "^":
            return np.power(a, b)
    raise ExpressionError(f"malformed AST node {ast!r}")


def evaluate(ast: ExprAst, point) -> float:
    """Evaluate at a single point x."""
    coords = np.atleast_1d(np.asarray(point, dtype=float))
    with np.errstate(all="ignore"):
        value = _eval_node(ast, coords)
    value = float(value)
    if not np.isfinite(value):
        raise ExpressionError(f"evaluation produced a non-finite value {value}")
    return value


def evaluate_array(ast: ExprAst, coords):
    """Vectorized evaluation; coords is the one-element tuple (x,).

    Non-finite entries are the caller's to report (the grid sampler knows
    the node indices).
    """
    with np.errstate(all="ignore"):
        values = _eval_node(ast, coords)
    return np.broadcast_to(np.asarray(values, dtype=float), coords[0].shape)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(ast: ExprAst) -> int:
    if isinstance(ast, BinOp):
        return _PRECEDENCE[ast.op]
    if isinstance(ast, Neg):
        return _PRECEDENCE["neg"]
    return 9


def to_source(ast: ExprAst) -> str:
    """Render an AST back to parseable source (round trips by value)."""
    if isinstance(ast, Num):
        if ast.value < 0 or not np.isfinite(ast.value):
            return f"({ast.value!r})"
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Call):
        return f"{ast.func}({to_source(ast.arg)})"
    if isinstance(ast, Neg):
        inner = to_source(ast.operand)
        if _prec(ast.operand) < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(ast, BinOp):
        p = _PRECEDENCE[ast.op]
        left = to_source(ast.left)
        right = to_source(ast.right)
        if ast.op == "^":
            # right-associative: parenthesize a left child of equal level
            if _prec(ast.left) <= p:
                left = f"({left})"
            if _prec(ast.right) < _PRECEDENCE["neg"]:
                right = f"({right})"
        else:
            if _prec(ast.left) < p:
                left = f"({left})"
            if _prec(ast.right) <= p:
                right = f"({right})"
        return f"{left}{ast.op}{right}"
    raise ExpressionError(f"malformed AST node {ast!r}")
