"""Static type inference and checking for queries against a descriptor.

The descriptor's schema is a *type declaration*: every attribute has a
declared fixed-width scalar type, so a query's operand types are fully
known before any data is read.  :func:`typecheck_query` infers a type
for every WHERE/SELECT operand and reports the ``RT3xx`` diagnostic
family through a ``repro.diag`` collector:

========  ==========================================================
RT301     incomparable operand types in a comparison (error)
RT302     function argument type mismatch (error)
RT303     IN/BETWEEN value type mismatch (error)
RT304     aggregate over a non-numeric attribute (error)
RT305     SUM over a 64-bit integer attribute may overflow (warning)
RT306     equality against a literal no value of the attribute's
          type equals — can never (or always) match (warning)
RT307     comparison bound outside the attribute type's range — the
          comparison is constant (warning)
RT308     function result type assumed numeric; no signature
          registered (info)
RT309     filter function not declared vectorized; the compiled
          kernel calls it once per row (info)
========  ==========================================================

Errors block execution under ``ExecOptions(strict=True)`` before any
node is contacted; warnings flag queries that execute but almost
certainly do not mean what they say.

RT306 and RT307 are the verdicts of :func:`bind_where`, which writes
each literal of a WHERE as its column's own comparison reads it (NumPy
2, NEP 50); every later stage reads the bound tree.

This module also owns the *aggregate dtype policy* — which accumulator
and output dtypes each reduction uses given the input attribute type —
so the decision is made statically in one place and shared by the
typechecker (overflow warnings) and the execution engine
(``repro.core.aggregate``).

The string/numeric type lattice is deliberately coarse: the storage
model has only fixed-width numerics and fixed-width byte strings, and
numpy's elementwise kernels handle all numeric-to-numeric comparisons
exactly as the interpreter does.  The checker therefore only rejects
cross-domain mixes (string vs numeric, bool vs value) that numpy would
resolve to a constant or raise on at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, List, Mapping, Optional, Set, Tuple, Union,
)

import numpy as np

from .ast import (
    _CMP,
    MIRROR_OP,
    NEGATE_OP,
    And,
    Between,
    BoolLiteral,
    Column,
    Comparison,
    FunctionCall,
    InList,
    Literal,
    Node,
    Not,
    Number,
    Or,
    Query,
    Value,
)
from .functions import FunctionRegistry

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.diag
    from ..diag.core import Collector
    from ..metadata.descriptor import Descriptor
    from ..metadata.spans import Span

__all__ = [
    "ExprType",
    "NUMERIC",
    "STRING",
    "BOOLEAN",
    "UNKNOWN",
    "Verdict",
    "bind_where",
    "infer_type",
    "typecheck_query",
    "sum_accumulator_dtype",
    "aggregate_output_dtype",
    "aggregate_state_dtypes",
    "sum_may_overflow",
]

SpanLookup = Callable[[str], Optional["Span"]]


@dataclass(frozen=True)
class ExprType:
    """The inferred static type of one expression operand.

    ``kind`` is one of ``"numeric"``, ``"string"``, ``"bool"`` or
    ``"unknown"``; ``dtype`` is the declared numpy dtype when the
    operand maps directly onto a schema attribute (None for literals
    and function results, whose width numpy chooses at evaluation).
    """

    kind: str
    dtype: Optional[np.dtype] = None

    def __str__(self) -> str:
        if self.dtype is not None:
            return f"{self.kind}[{self.dtype}]"
        return self.kind


NUMERIC = ExprType("numeric")
STRING = ExprType("string")
BOOLEAN = ExprType("bool")
UNKNOWN = ExprType("unknown")

_EQUALITY_OPS = ("=", "==")
_INEQUALITY_OPS = ("!=", "<>")


# ---------------------------------------------------------------------------
# Aggregate dtype policy (shared with repro.core.aggregate)
# ---------------------------------------------------------------------------


def sum_accumulator_dtype(col_dtype: np.dtype) -> np.dtype:
    """The accumulator dtype SUM/AVG use for an input attribute.

    Integer and boolean inputs accumulate in int64 (exact, but can
    overflow for 64-bit inputs — RT305 warns); everything else
    accumulates in float64.
    """
    if col_dtype.kind in "iub":
        return np.dtype(np.int64)
    return np.dtype(np.float64)


def aggregate_output_dtype(func: str, col_dtype: Optional[np.dtype]) -> np.dtype:
    """The output dtype of one aggregate over an input attribute."""
    if func == "count":
        return np.dtype(np.int64)
    if col_dtype is None:  # pragma: no cover - only COUNT lacks a column
        raise ValueError(f"aggregate {func!r} requires an input attribute")
    if func == "avg":
        return np.dtype(np.float64)
    if func == "sum":
        return sum_accumulator_dtype(col_dtype)
    return col_dtype


def sum_may_overflow(col_dtype: np.dtype) -> bool:
    """Whether SUM's int64 accumulator can overflow for this input."""
    return col_dtype.kind in "iu" and col_dtype.itemsize >= 8


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _literal_type(value: Union[Value, bool]) -> ExprType:
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, str):
        return STRING
    return NUMERIC


def infer_type(
    node: Node,
    descriptor: "Descriptor",
    functions: FunctionRegistry,
) -> ExprType:
    """Infer the static type of an operand expression.

    Unknown attributes and unregistered functions infer ``UNKNOWN``
    (their existence is reported by the RQ2xx analyzers; the
    typechecker does not double-report).
    """
    if isinstance(node, Column):
        if node.name not in descriptor.schema:
            return UNKNOWN
        attr = descriptor.schema.attribute(node.name)
        if attr.type.is_numeric:
            return ExprType("numeric", attr.dtype)
        return ExprType("string", attr.dtype)
    if isinstance(node, Literal):
        return _literal_type(node.value)
    if isinstance(node, BoolLiteral):
        return BOOLEAN
    if isinstance(node, FunctionCall):
        if node.name not in functions:
            return UNKNOWN
        declared = functions.signature(node.name)
        if declared is not None and declared.result_kind == "string":
            return STRING
        return NUMERIC
    return UNKNOWN


def _incomparable(left: ExprType, right: ExprType) -> bool:
    if left.kind == "unknown" or right.kind == "unknown":
        return False
    if left.kind == "bool" or right.kind == "bool":
        # TRUE/FALSE against a value column is a category error even
        # though numpy would coerce it to 1/0.
        return left.kind != right.kind
    return left.kind != right.kind


# ---------------------------------------------------------------------------
# Binding: each literal as the column's own comparison reads it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """A column-literal comparison the binding replaced by a constant:
    ``column op value`` as written (column on the left) ``holds`` on
    every row.  ``code`` is RT307 for an ordered comparison or a literal
    outside the dtype's range, RT306 for an equality no value of the
    dtype can meet (or, with ``!=``, miss)."""

    column: str
    op: str
    value: Value
    holds: bool
    code: str


def bind_where(
    where: Optional[Node], dtypes: Mapping[str, np.dtype]
) -> Tuple[Optional[Node], Tuple[Verdict, ...]]:
    """``where`` with each literal bound to its column's dtype, and the
    comparisons that binding decided.

    The kernel compares a column with a Python scalar under NumPy 2's
    NEP 50; the bound tree spells out the comparison it performs, in
    values a Python comparison orders exactly as the column does:

    * on a float column a literal becomes the value NEP 50 casts it to
      (``0.1`` on float32 is ``0.10000000149011612``, ``1e300`` is
      ``inf``), the operator unchanged;
    * on an integer column an int literal stays, and a float literal,
      which NumPy compares in float64, becomes the integer threshold
      (``T > 2.5`` is ``T > 2``), value (``=``) or run (``BETWEEN``)
      selecting the same values; a comparison every value of the dtype
      answers alike (``S > 40000`` on int16, ``T = 2.5``) becomes TRUE
      or FALSE;
    * a NaN literal is FALSE, and TRUE under ``!=``;
    * BETWEEN binds both ends, and IN each value as its own ``=``
      would, dropping the values that never match;
    * NOT is pushed down to the leaves (De Morgan); a negated leaf on
      an integer column, which never holds NaN, flips its operator, and
      elsewhere it stays wrapped.

    Column-to-column comparisons, function operands and literals of
    another kind are left as written, and so is a tree already bound:
    binding twice changes nothing.
    """
    if where is None:
        return None, ()
    binder = _Binder(dtypes)
    return binder.bind(where), tuple(binder.verdicts)


def _first(holds: Callable[[int], bool], lo: int, hi: int) -> int:
    """The least ``v`` in ``[lo, hi]`` for which the monotone ``holds``
    is true; ``hi + 1`` when there is none."""
    while lo <= hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


def _bind(column: Column, op: str, x: Number, dtype: np.dtype) -> Optional[Node]:
    """``column op x`` as a column of ``dtype`` compares it (see
    :func:`bind_where`), ``x`` itself where its value stands; None for
    an int past float64 on a float column, which NumPy refuses to
    compare."""
    equality = op in _EQUALITY_OPS + _INEQUALITY_OPS
    if x != x:
        return BoolLiteral(op in _INEQUALITY_OPS)
    if dtype.kind == "f":
        try:
            with np.errstate(over="ignore"):
                value = float(dtype.type(x))
        except OverflowError:
            return None
        return Comparison(op, column, Literal(x if value == x else value))
    info = np.iinfo(dtype)
    lo, hi = int(info.min), int(info.max)
    if isinstance(x, float):
        # NumPy compares in float64, which is monotone in the value:
        # the values equal to x are the run [start, end].
        start = _first(lambda v: bool(dtype.type(v) >= x), lo, hi)
        end = _first(lambda v: bool(dtype.type(v) > x), lo, hi) - 1
        if equality and start != end:
            if start > end:
                return BoolLiteral(op in _INEQUALITY_OPS)
            run = Between(column, start, end)
            return run if op in _EQUALITY_OPS else _flip(run)
        x = start if op in ("<", ">=") else end
    # Constant: an equality outside the dtype, or an order every value
    # of it answers alike.
    if not lo <= x <= hi if equality else _CMP[op](lo, x) == _CMP[op](hi, x):
        return BoolLiteral(_CMP[op](lo, x))
    return Comparison(op, column, Literal(x))


def _stands(bound: Optional[Node], x: Number) -> bool:
    """Whether ``bound`` still compares with the literal ``x`` as
    written."""
    return (
        isinstance(bound, Comparison) and isinstance(bound.right, Literal)
        and bound.right.value is x
    )


def _flip(node: Node) -> Node:
    """The negation of a comparison or BETWEEN of an integer column,
    by operator."""
    if isinstance(node, Between):
        return Or((
            Comparison("<", node.operand, Literal(node.lo)),
            Comparison(">", node.operand, Literal(node.hi)),
        ))
    assert isinstance(node, Comparison)
    return Comparison(NEGATE_OP[node.op], node.left, node.right)


class _Binder:
    """One :func:`bind_where` run: the bound tree and its verdicts."""

    def __init__(self, dtypes: Mapping[str, np.dtype]) -> None:
        self.dtypes = dtypes
        self.verdicts: List[Verdict] = []

    def bind(self, node: Node) -> Node:
        if isinstance(node, Not):
            return self._negate(node)
        if isinstance(node, (And, Or)):
            terms = tuple(self.bind(term) for term in node.terms)
            if all(a is b for a, b in zip(terms, node.terms)):
                return node
            return type(node)(terms)
        return self._leaf(node)[0]

    def _negate(self, node: Not) -> Node:
        term = node.term
        if isinstance(term, Not):
            return self.bind(term.term)
        if isinstance(term, BoolLiteral):
            return BoolLiteral(not term.value)
        if isinstance(term, (And, Or)):
            dual = Or if isinstance(term, And) else And
            return dual(tuple(self._negate(Not(t)) for t in term.terms))
        bound, integral = self._leaf(term)
        if bound is not term:
            return self._negate(Not(bound))
        if integral and not isinstance(term, InList):
            return _flip(term)
        return node

    def _column(self, operand: Node) -> Optional[Tuple[Column, np.dtype]]:
        if isinstance(operand, Column):
            dtype = self.dtypes.get(operand.name)
            if dtype is not None and np.dtype(dtype).kind in "iuf":
                return operand, np.dtype(dtype)
        return None

    def _bind(
        self, column: Column, op: str, x: Number, dtype: np.dtype
    ) -> Optional[Node]:
        bound = _bind(column, op, x, dtype)
        if isinstance(bound, BoolLiteral):
            code = "RT307"
            if op in _EQUALITY_OPS + _INEQUALITY_OPS and (
                dtype.kind == "f" or x != x
                or np.iinfo(dtype).min <= x <= np.iinfo(dtype).max
            ):
                code = "RT306"
            self.verdicts.append(Verdict(column.name, op, x, bound.value, code))
        return bound

    def _leaf(self, node: Node) -> Tuple[Node, bool]:
        """The bound leaf, and whether it compares an integer column
        with numbers (so its negation may flip operators)."""
        if isinstance(node, Comparison):
            left, right, op = node.left, node.right, node.op
            if isinstance(left, Literal):
                left, right, op = right, left, MIRROR_OP[op]
            found = self._column(left)
            if found is None or not isinstance(right, Literal):
                return node, False
            x = right.value
            if isinstance(x, (bool, str)):
                return node, False
            bound = self._bind(found[0], op, x, found[1])
            if bound is None or _stands(bound, x):
                return node, bound is not None and found[1].kind in "iu"
            return bound, False
        found = self._column(getattr(node, "operand", None))
        if found is None:
            return node, False
        column, dtype = found
        if isinstance(node, Between):
            lo, hi = node.lo, node.hi
            if isinstance(lo, (bool, str)) or isinstance(hi, (bool, str)):
                return node, False
            low = self._bind(column, ">=", lo, dtype)
            high = self._bind(column, "<=", hi, dtype)
            if low is None or high is None or _stands(low, lo) and _stands(high, hi):
                return node, low is not None and high is not None and (
                    dtype.kind in "iu"
                )
            return And((low, high)), False
        if not isinstance(node, InList):
            return node, False
        values: List[Value] = []
        runs: List[Node] = []
        for x in node.values:
            bound = None if isinstance(x, (bool, str)) else (
                self._bind(column, "=", x, dtype)
            )
            if bound is None:
                values.append(x)
            elif isinstance(bound, Comparison) and isinstance(bound.right, Literal):
                values.append(bound.right.value)
            elif isinstance(bound, Between):
                runs.append(bound)
        distinct = [v for i, v in enumerate(values) if v not in values[:i]]
        terms: List[Node] = runs
        if len(distinct) == 1 and not isinstance(distinct[0], str):
            # One value is its ``=``, as the rewrite spells it (RW404).
            terms = [Comparison("=", column, Literal(distinct[0]))] + runs
        elif not runs and all(a is b for a, b in zip(values, node.values)) and (
            len(values) == len(node.values)
        ):
            return node, False
        elif values:
            terms = [InList(column, tuple(values))] + runs
        if not terms:
            return BoolLiteral(False), False
        return (terms[0] if len(terms) == 1 else Or(tuple(terms))), False


class _Checker:
    """One typecheck run over a single query."""

    def __init__(
        self,
        descriptor: "Descriptor",
        query: Query,
        functions: FunctionRegistry,
        collector: "Collector",
        span_of: Optional[SpanLookup],
    ) -> None:
        self.descriptor = descriptor
        self.query = query
        self.functions = functions
        self.collector = collector
        self.span_of = span_of
        self._assumed: Set[str] = set()
        self._unvectorized: Set[str] = set()

    # -- helpers -------------------------------------------------------------

    def _span(self, token: str) -> Optional["Span"]:
        if self.span_of is None:
            return None
        return self.span_of(token)

    def _emit(self, code: str, message: str, token: str) -> None:
        self.collector.emit(code, message, span=self._span(token))

    def _infer(self, node: Node) -> ExprType:
        kind = infer_type(node, self.descriptor, self.functions)
        if isinstance(node, FunctionCall):
            self._check_function(node)
        return kind

    def _is_rq206_pair(self, a: Node, b: Node) -> bool:
        """RQ206 already reports numeric-column-vs-string-literal."""
        for column, literal in ((a, b), (b, a)):
            if (
                isinstance(column, Column)
                and isinstance(literal, Literal)
                and isinstance(literal.value, str)
                and column.name in self.descriptor.schema
                and self.descriptor.schema.attribute(column.name).type.is_numeric
            ):
                return True
        return False

    # -- function calls ------------------------------------------------------

    def _check_function(self, node: FunctionCall) -> None:
        if node.name not in self.functions:
            return
        if not self.functions.is_vectorized(node.name):
            key = node.name.upper()
            if key not in self._unvectorized:
                self._unvectorized.add(key)
                self._emit(
                    "RT309",
                    f"filter function {node.name!r} is not declared "
                    "vectorized; the compiled kernel falls back to one "
                    "Python call per row for it (register with "
                    "vectorized=True if it is elementwise over arrays)",
                    node.name,
                )
        declared = self.functions.signature(node.name)
        if declared is None:
            key = node.name.upper()
            if key not in self._assumed:
                self._assumed.add(key)
                self._emit(
                    "RT308",
                    f"filter function {node.name!r} has no registered type "
                    "signature; its result is assumed numeric",
                    node.name,
                )
            for arg in node.args:
                self._infer(arg)
            return
        for position, arg in enumerate(node.args, start=1):
            arg_type = self._infer(arg)
            if declared.arg_kind == "numeric" and arg_type.kind == "string":
                self._emit(
                    "RT302",
                    f"argument {position} of {node.name}() has type "
                    f"{arg_type} but {node.name} expects numeric arguments",
                    node.name,
                )

    # -- comparisons the binding decided -------------------------------------

    def _check_verdicts(self) -> None:
        """RT306/RT307: each comparison :func:`bind_where` replaced by
        the constant NumPy answers it with — read off the rewrite memo of
        a query a dataset bound, else bound here."""
        memo = self.query.__dict__.get("_rewrite")
        bound = memo and memo.matches(self.query) and memo.bound
        if bound:
            verdicts = bound[1]
        else:
            dtypes = {a.name: a.dtype for a in self.descriptor.schema}
            verdicts = bind_where(self.query.where, dtypes)[1]
        for v in verdicts:
            type_name = self.descriptor.schema.attribute(v.column).type.name
            if v.code == "RT306":
                why = (
                    f"can {'always' if v.holds else 'never'} match: no value of "
                    f"{type_name!r} attribute {v.column!r} equals literal "
                )
            else:
                why = (
                    f"is always {'true' if v.holds else 'false'}: it lies at or "
                    f"past an end of {type_name!r} attribute {v.column!r}'s "
                    "range, literal "
                )
            comparison = f"{v.column} {v.op} {v.value!r}"
            self._emit(
                v.code, f"{comparison} {why}{v.value!r} as NumPy compares them",
                v.column,
            )

    # -- predicate checks ----------------------------------------------------

    def _check_comparison(self, node: Comparison) -> None:
        left = self._infer(node.left)
        right = self._infer(node.right)
        if _incomparable(left, right) and not self._is_rq206_pair(
            node.left, node.right
        ):
            self._emit(
                "RT301",
                f"cannot compare {left} with {right} in {node}",
                str(node.left) if isinstance(node.left, Column) else str(node),
            )

    def _check_membership(self, operand: Node, value: Value, clause: str) -> None:
        operand_type = self._infer(operand)
        value_type = _literal_type(value)
        if _incomparable(operand_type, value_type) and not self._is_rq206_pair(
            operand, Literal(value)
        ):
            self._emit(
                "RT303",
                f"{clause} value {value!r} has type {value_type} but "
                f"{operand} has type {operand_type}",
                str(operand) if isinstance(operand, Column) else clause,
            )

    def _check_predicate(self, node: Optional[Node]) -> None:
        if node is None or isinstance(node, BoolLiteral):
            return
        if isinstance(node, (And, Or)):
            for term in node.terms:
                self._check_predicate(term)
        elif isinstance(node, Not):
            self._check_predicate(node.term)
        elif isinstance(node, Comparison):
            self._check_comparison(node)
        elif isinstance(node, Between):
            self._check_membership(node.operand, node.lo, "BETWEEN")
            self._check_membership(node.operand, node.hi, "BETWEEN")
        elif isinstance(node, InList):
            for value in node.values:
                self._check_membership(node.operand, value, "IN")
        else:
            # Bare operand used as a predicate: infer for side effects
            # (function signature checks) but leave validity to RQ2xx.
            self._infer(node)

    # -- aggregates ----------------------------------------------------------

    def _check_aggregates(self) -> None:
        for item in self.query.aggregates():
            if item.column is None or item.column not in self.descriptor.schema:
                continue  # COUNT(*) / RQ213 territory
            attr = self.descriptor.schema.attribute(item.column)
            if item.func == "count":
                continue
            if not attr.type.is_numeric:
                self._emit(
                    "RT304",
                    f"{item.label} aggregates attribute {item.column!r} of "
                    f"non-numeric type {attr.type.name!r}",
                    item.column,
                )
            elif item.func == "sum" and sum_may_overflow(attr.dtype):
                self._emit(
                    "RT305",
                    f"{item.label} accumulates {attr.type.name!r} values in "
                    "a 64-bit integer accumulator; large datasets can "
                    "overflow silently",
                    item.column,
                )

    def run(self) -> None:
        self._check_predicate(self.query.where)
        self._check_verdicts()
        self._check_aggregates()


def typecheck_query(
    descriptor: "Descriptor",
    query: Query,
    functions: FunctionRegistry,
    collector: "Collector",
    span_of: Optional[SpanLookup] = None,
) -> None:
    """Type-check one query against a descriptor, emitting RT3xx codes.

    ``span_of`` maps a source token (attribute or function name) to a
    :class:`~repro.metadata.spans.Span` in the original SQL text; when
    omitted, diagnostics carry no spans (programmatic queries).
    """
    _Checker(descriptor, query, functions, collector, span_of).run()


def aggregate_state_dtypes(
    func: str, col_dtype: Optional[np.dtype]
) -> Tuple[np.dtype, ...]:
    """Dtypes of the partial-aggregation state columns for one item.

    COUNT keeps one int64 counter; AVG keeps an exact (sum, count)
    pair; SUM keeps its accumulator; MIN/MAX keep the input dtype.
    """
    if func == "count":
        return (np.dtype(np.int64),)
    if col_dtype is None:  # pragma: no cover - only COUNT lacks a column
        raise ValueError(f"aggregate {func!r} requires an input attribute")
    if func == "avg":
        return (sum_accumulator_dtype(col_dtype), np.dtype(np.int64))
    if func == "sum":
        return (sum_accumulator_dtype(col_dtype),)
    return (col_dtype,)
