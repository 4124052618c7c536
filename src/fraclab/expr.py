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

Evaluation takes a numpy array of points for x, so sampling a grid is a
single vectorized tree walk.
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
        # every nesting (parentheses, a call argument, unary minus, ^)
        # recurses through here, so self.depth counts the enclosing levels;
        # a parse that raises is abandoned, so only a return restores it
        kind, text, pos = self.peek()
        if self.depth > _MAX_DEPTH:
            raise ExpressionError("expression too deeply nested", position=pos)
        self.depth += 1
        if kind == "op" and text == "-":
            self.advance()
            node = Neg(self.factor())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> ExprAst:
        base = self.primary()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.factor())
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
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text == "x":
                return Var("x")
            if text in FUNCTIONS:
                raise ExpressionError(
                    f"function {text!r} requires exactly one argument",
                    position=pos,
                )
            raise ExpressionError(f"unknown identifier {text!r}", position=pos)
        if kind == "op" and text == "(":
            node = self.expr()
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


def _eval_node(ast: ExprAst, x):
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        return x
    if isinstance(ast, Neg):
        return -_eval_node(ast.operand, x)
    if isinstance(ast, Call):
        return _CALL_TABLE[ast.func](_eval_node(ast.arg, x))
    if isinstance(ast, BinOp):
        a = _eval_node(ast.left, x)
        b = _eval_node(ast.right, x)
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


def evaluate_array(ast: ExprAst, x):
    """Vectorized evaluation at every entry of the node array x.

    Non-finite entries are the caller's to report (the grid sampler knows
    the node indices).
    """
    with np.errstate(all="ignore"):
        values = _eval_node(ast, x)
    return np.broadcast_to(np.asarray(values, dtype=float), x.shape)

