"""Arithmetic expressions over ``$``-variables in layout descriptors.

Loop bounds and file-enumeration clauses in the layout component may contain
integer arithmetic over binding variables, e.g. the IPARS descriptor of the
paper uses::

    LOOP GRID ($DIRID*100+1):(($DIRID+1)*100):1 { ... }

This module provides a small expression language:

* integer literals,
* variable references (``$NAME``),
* ``+ - * / %`` with usual precedence (``/`` is floor division — bounds are
  always integers),
* unary minus and parentheses.

Expressions are parsed once (descriptor load time) into immutable AST nodes
that can be evaluated repeatedly against per-file variable bindings, and can
report their free variables so the validator can reject unbound names before
any query runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Optional, Tuple, Union

from ..errors import (
    MetadataEvaluationError,
    MetadataSyntaxError,
    MetadataValidationError,
)
from .spans import Span

Env = Dict[str, int]


class Expr:
    """Base class for expression AST nodes."""

    __slots__ = ()

    def evaluate(self, env: Env) -> int:
        raise NotImplementedError

    def free_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def to_python(self, var_format: str = "env[{!r}]") -> str:
        """Render as a Python expression string (used by the code generator).

        ``var_format`` is a format string applied to each variable name;
        the default renders dictionary lookups.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    value: int

    __slots__ = ("value",)

    def evaluate(self, env: Env) -> int:
        return self.value

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def to_python(self, var_format: str = "env[{!r}]") -> str:
        return repr(self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    __slots__ = ("name",)

    def evaluate(self, env: Env) -> int:
        try:
            return env[self.name]
        except KeyError:
            raise MetadataValidationError(
                f"unbound variable ${self.name} in expression"
            ) from None

    def free_vars(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def to_python(self, var_format: str = "env[{!r}]") -> str:
        return var_format.format(self.name)

    def __str__(self) -> str:
        return f"${self.name}"


_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b,
    "%": lambda a, b: a % b,
}


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    __slots__ = ("op", "left", "right")

    def evaluate(self, env: Env) -> int:
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if self.op in ("/", "%") and right == 0:
            # Typed (and span-carrying once RangeExpr re-raises it) instead
            # of a bare ZeroDivisionError; still a MetadataValidationError
            # subclass so existing handlers keep working.
            raise MetadataEvaluationError(
                f"division by zero evaluating {self}"
            )
        return _OPS[self.op](left, right)

    def free_vars(self) -> FrozenSet[str]:
        return self.left.free_vars() | self.right.free_vars()

    def to_python(self, var_format: str = "env[{!r}]") -> str:
        op = "//" if self.op == "/" else self.op
        return (
            f"({self.left.to_python(var_format)} {op} "
            f"{self.right.to_python(var_format)})"
        )

    def __str__(self) -> str:
        return f"({self.left}{self.op}{self.right})"


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    __slots__ = ("operand",)

    def evaluate(self, env: Env) -> int:
        return -self.operand.evaluate(env)

    def free_vars(self) -> FrozenSet[str]:
        return self.operand.free_vars()

    def to_python(self, var_format: str = "env[{!r}]") -> str:
        return f"(-{self.operand.to_python(var_format)})"

    def __str__(self) -> str:
        return f"(-{self.operand})"


# ---------------------------------------------------------------------------
# Tokenizer + recursive-descent parser
# ---------------------------------------------------------------------------

_Token = Tuple[str, Union[str, int]]


def _tokenize(text: str) -> Iterator[_Token]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("num", int(text[i:j]))
            i = j
        elif ch == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise MetadataSyntaxError(f"'$' without variable name in {text!r}")
            yield ("var", text[i + 1 : j])
            i = j
        elif ch.isalpha() or ch == "_":
            # Bare identifiers are accepted as variables; the paper's own
            # descriptors write e.g. DIR[DIRID] without the '$'.
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("var", text[i:j])
            i = j
        elif ch in "+-*/%()":
            yield ("op", ch)
            i += 1
        else:
            raise MetadataSyntaxError(f"bad character {ch!r} in expression {text!r}")
    yield ("end", "")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value = self.next()
        if kind != "op" or value != op:
            raise MetadataSyntaxError(
                f"expected {op!r} in expression {self.text!r}, got {value!r}"
            )

    def parse(self) -> Expr:
        expr = self.add_expr()
        kind, value = self.peek()
        if kind != "end":
            raise MetadataSyntaxError(
                f"unexpected trailing {value!r} in expression {self.text!r}"
            )
        return expr

    def add_expr(self) -> Expr:
        left = self.mul_expr()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.next()
                left = BinOp(str(value), left, self.mul_expr())
            else:
                return left

    def mul_expr(self) -> Expr:
        left = self.unary_expr()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in ("*", "/", "%"):
                self.next()
                left = BinOp(str(value), left, self.unary_expr())
            else:
                return left

    def unary_expr(self) -> Expr:
        kind, value = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Neg(self.unary_expr())
        return self.atom()

    def atom(self) -> Expr:
        kind, value = self.next()
        if kind == "num":
            return Literal(int(value))
        if kind == "var":
            return Var(str(value))
        if kind == "op" and value == "(":
            inner = self.add_expr()
            self.expect_op(")")
            return inner
        raise MetadataSyntaxError(
            f"unexpected {value!r} in expression {self.text!r}"
        )


def parse_expr(text: str) -> Expr:
    """Parse an arithmetic expression string into an AST.

    >>> parse_expr("$DIRID*100+1").evaluate({"DIRID": 2})
    201
    """
    return _Parser(text).parse()


@dataclass(frozen=True)
class RangeExpr:
    """An inclusive ``lo:hi:stride`` range with expression bounds.

    Loop headers and file-enumeration bindings both use this form.  Bounds
    are inclusive on both ends, matching the paper's ``0:3:1`` (four values).
    """

    lo: Expr
    hi: Expr
    stride: Expr
    #: Source span of the range text, when parsed from a descriptor file
    #: (excluded from equality/hashing; programmatic ranges have None).
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def free_vars(self) -> FrozenSet[str]:
        return self.lo.free_vars() | self.hi.free_vars() | self.stride.free_vars()

    def evaluate(self, env: Env) -> range:
        """Evaluate to a concrete :class:`range` (inclusive upper bound)."""
        try:
            lo = self.lo.evaluate(env)
            hi = self.hi.evaluate(env)
            stride = self.stride.evaluate(env)
        except MetadataEvaluationError as exc:
            if self.span is not None and exc.span is None:
                raise MetadataEvaluationError(
                    exc.bare_message, span=self.span
                ) from None
            raise
        if stride <= 0:
            raise MetadataValidationError(
                f"range stride must be positive, got {stride} in {self}"
            )
        if hi < lo:
            raise MetadataValidationError(
                f"empty range {lo}:{hi}:{stride} in layout"
            )
        return range(lo, hi + 1, stride)

    def count(self, env: Env) -> int:
        """Number of iterations of the range under ``env``."""
        return len(self.evaluate(env))

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}:{self.stride}"


def parse_range(text: str, span: Optional[Span] = None) -> RangeExpr:
    """Parse ``lo:hi:stride`` (stride optional, default 1).

    The bounds may be arbitrary expressions; ``:`` at expression top level
    separates them.  Because bounds can contain parenthesised expressions
    with no ``:`` inside, a simple split at depth zero suffices.
    """
    parts = _split_top_level(text, ":")
    if len(parts) == 2:
        parts.append("1")
    if len(parts) != 3:
        raise MetadataSyntaxError(f"range must be lo:hi[:stride], got {text!r}")
    return RangeExpr(
        parse_expr(parts[0]), parse_expr(parts[1]), parse_expr(parts[2]), span
    )


def _split_top_level(text: str, sep: str) -> list:
    """Split ``text`` on ``sep`` occurrences outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise MetadataSyntaxError(f"unbalanced ')' in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise MetadataSyntaxError(f"unbalanced '(' in {text!r}")
    parts.append(text[start:])
    return parts
