"""Static analysis of queries against a descriptor.

:func:`analyze_query` checks a ``SELECT`` statement against a loaded
descriptor *before* execution, reusing the interval algebra of
:mod:`repro.sql.ranges` to prove facts the runtime would only discover
after scanning: a WHERE clause that cannot match any row, a predicate
that contradicts the dataspace bounds declared in the descriptor, or a
filter shape that defeats index pruning entirely.

Spans point into the SQL text.  The query AST is slotted and span-free
(it is also built programmatically, where no source exists), so spans
are recovered by locating the offending token in the original text —
approximate, but good enough to carry line/column into editors.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set, Tuple, Union

from ..errors import QueryError, QuerySyntaxError
from ..metadata.spans import Span
from ..sql.ast import (
    Aggregate,
    Between,
    BoolLiteral,
    Column,
    Comparison,
    FunctionCall,
    InList,
    Literal,
    Node,
    Query,
)
from ..sql.functions import DEFAULT_REGISTRY, FunctionRegistry
from ..sql.parser import parse_query
from ..sql.ranges import (
    IntervalSet,
    _FALSE_KEY,
    extract_ranges,
)
from ..sql.rewrite import rewrite_of
from ..sql.typecheck import bind_where, typecheck_query
from .core import Collector
from .linter import _const_range, _iter_loops

if TYPE_CHECKING:  # pragma: no cover
    from ..metadata.descriptor import Descriptor


def analyze_query(
    descriptor: "Descriptor",
    sql: Union[Query, str],
    functions: Optional[FunctionRegistry] = None,
    collector: Optional[Collector] = None,
    explain: bool = False,
) -> Collector:
    """Run every query analyzer; never raises on findings.

    Analyzers run over the query as written (span fidelity); the
    satisfiability check and the equivalence-preserving rewrite pass run
    over its WHERE bound to the schema
    (:func:`~repro.sql.typecheck.bind_where`), as planning does: a
    canonical form
    that folds to FALSE is reported as RQ207 even when the contradiction
    is invisible to plain interval extraction (e.g. it involves function
    operands).  With ``explain=True``, every applied rewrite is emitted
    as an informational ``RW4xx`` diagnostic — the audit trail behind
    ``repro check --explain``.
    """
    if collector is None:
        collector = Collector(source="query")
    if functions is None:
        functions = DEFAULT_REGISTRY
    text = sql if isinstance(sql, str) else str(sql)
    if isinstance(sql, str):
        try:
            query = parse_query(sql)
        except QuerySyntaxError as exc:
            span = None
            line = getattr(exc, "line", 0)
            if line:
                span = Span(line, getattr(exc, "column", 0) or 1)
            collector.emit("RQ200", str(exc), span=span)
            return collector
        except QueryError as exc:
            collector.emit("RQ200", str(exc))
            return collector
    else:
        query = sql

    _check_table(descriptor, query, text, collector)
    _check_select(descriptor, query, text, collector)
    _check_grouping(descriptor, query, text, collector)
    _check_where_columns(descriptor, query, text, collector)
    _check_functions(query, functions, text, collector)
    _check_literal_types(descriptor, query, text, collector)
    where = bind_where(query.where, {a.name: a.dtype for a in descriptor.schema})[0]
    bound = query if where is query.where else replace(query, where=where)
    _check_satisfiability(descriptor, bound, text, collector)
    _check_index_pruning(descriptor, query, text, collector)
    typecheck_query(
        descriptor,
        query,
        functions,
        collector,
        span_of=lambda token: _sql_span(text, token),
    )

    memo = rewrite_of(bound)
    if (
        isinstance(memo.canonical_where, BoolLiteral)
        and not memo.canonical_where.value
        and "RQ207" not in collector.codes()
    ):
        collector.emit(
            "RQ207",
            "WHERE clause is provably false (the rewrite pass reduced it "
            "to FALSE); the query selects no rows",
            span=None,
        )
    if explain:
        for step in memo.steps:
            collector.emit(step.code, step.detail)
    return collector


# ---------------------------------------------------------------------------
# Span recovery
# ---------------------------------------------------------------------------


def _sql_span(text: str, token: str, occurrence: int = 0) -> Optional[Span]:
    """Approximate span of ``token`` in the SQL text (word-boundary match)."""
    if not token:
        return None
    pattern = re.compile(rf"\b{re.escape(token)}\b", re.IGNORECASE)
    for i, match in enumerate(pattern.finditer(text)):
        if i == occurrence:
            before = text[: match.start()]
            line = before.count("\n") + 1
            column = match.start() - (before.rfind("\n") + 1) + 1
            return Span(
                line, column, line, column + (match.end() - match.start())
            )
    return None


# ---------------------------------------------------------------------------
# AST walking
# ---------------------------------------------------------------------------


def _walk(node: Optional[Node]) -> Iterator[Node]:
    if node is None:
        return
    yield node
    for attr in ("terms", "args"):
        children = getattr(node, attr, None)
        if children is not None:
            for child in children:
                yield from _walk(child)
    for attr in ("term", "left", "right", "operand"):
        child = getattr(node, attr, None)
        if isinstance(child, Node):
            yield from _walk(child)


# ---------------------------------------------------------------------------
# Analyzers
# ---------------------------------------------------------------------------


def _check_table(
    descriptor: "Descriptor", query: Query, text: str, collector: Collector
) -> None:
    if query.table.upper() != descriptor.name.upper():
        collector.emit(
            "RQ201",
            f"query targets table {query.table!r} but the descriptor "
            f"declares dataset {descriptor.name!r}",
            span=_sql_span(text, query.table),
            fix=f"change FROM {query.table} to FROM {descriptor.name}",
        )


def _check_select(
    descriptor: "Descriptor", query: Query, text: str, collector: Collector
) -> None:
    if query.select is None:
        return
    seen: Set[str] = set()
    for item in query.select:
        if isinstance(item, Aggregate):
            label = item.label
            if (
                item.column is not None
                and item.column not in descriptor.schema
            ):
                collector.emit(
                    "RQ213",
                    f"{item.label} aggregates unknown attribute "
                    f"{item.column!r}; schema {descriptor.schema.name!r} "
                    f"has {list(descriptor.schema.names)}",
                    span=_sql_span(text, item.column),
                )
        else:
            label = item
            if item not in descriptor.schema:
                collector.emit(
                    "RQ202",
                    f"SELECT references unknown attribute {item!r}; schema "
                    f"{descriptor.schema.name!r} has "
                    f"{list(descriptor.schema.names)}",
                    span=_sql_span(text, item),
                )
        if label in seen:
            collector.emit(
                "RQ210",
                f"SELECT lists {label} more than once",
                span=_sql_span(
                    text, label if not isinstance(item, Aggregate)
                    else (item.column or item.func), occurrence=1,
                ),
                fix=f"drop the repeated {label}",
            )
        seen.add(label)


def _check_grouping(
    descriptor: "Descriptor", query: Query, text: str, collector: Collector
) -> None:
    """RQ211/RQ212/RQ214: the SQL grouping rules, checked statically
    (execution raises the same conditions as QueryValidationError)."""
    if not query.is_aggregate:
        return
    group_by = list(query.group_by or [])
    for name in group_by:
        if name not in descriptor.schema:
            collector.emit(
                "RQ212",
                f"GROUP BY references unknown attribute {name!r}; schema "
                f"{descriptor.schema.name!r} has {list(descriptor.schema.names)}",
                span=_sql_span(text, name),
            )
    for name in query.bare_select_names():
        if name not in group_by:
            collector.emit(
                "RQ211",
                f"bare attribute {name!r} in an aggregate SELECT must "
                "appear in GROUP BY; its value is ambiguous within a group",
                span=_sql_span(text, name),
                fix=f"add {name} to GROUP BY or wrap it in an aggregate",
            )
    if query.group_by is not None and not query.aggregates():
        collector.emit(
            "RQ214",
            "GROUP BY without aggregate functions returns the distinct "
            "group-key rows (DISTINCT semantics)",
            span=None,
        )


def _check_where_columns(
    descriptor: "Descriptor", query: Query, text: str, collector: Collector
) -> None:
    for name in query.referenced_columns():
        if name not in descriptor.schema:
            collector.emit(
                "RQ203",
                f"WHERE references unknown attribute {name!r}; schema "
                f"{descriptor.schema.name!r} has {list(descriptor.schema.names)}",
                span=_sql_span(text, name),
            )


def _check_functions(
    query: Query, functions: FunctionRegistry, text: str, collector: Collector
) -> None:
    for node in _walk(query.where):
        if not isinstance(node, FunctionCall):
            continue
        if node.name not in functions:
            collector.emit(
                "RQ204",
                f"filter function {node.name!r} is not registered; known "
                f"functions: {sorted(functions.names())}",
                span=_sql_span(text, node.name),
                fix="register it with FunctionRegistry.register "
                "before submitting the query",
            )
            continue
        minimum, maximum = functions.arity(node.name)
        got = len(node.args)
        if got < minimum or (maximum is not None and got > maximum):
            if maximum is None:
                expected = f"at least {minimum}"
            elif minimum == maximum:
                expected = str(minimum)
            else:
                expected = f"{minimum} to {maximum}"
            collector.emit(
                "RQ205",
                f"filter function {node.name!r} takes {expected} "
                f"argument(s) but the query passes {got}",
                span=_sql_span(text, node.name),
            )


def _check_literal_types(
    descriptor: "Descriptor", query: Query, text: str, collector: Collector
) -> None:
    """RQ206: a string literal compared against a numeric column (or the
    reverse) can never be a meaningful match in this storage model."""

    def check_pair(column: Node, value: object, op_desc: str) -> None:
        if not isinstance(column, Column) or column.name not in descriptor.schema:
            return
        attr = descriptor.schema.attribute(column.name)
        if attr.type.is_numeric and isinstance(value, str):
            collector.emit(
                "RQ206",
                f"attribute {column.name!r} has numeric type "
                f"{attr.type.name!r} but is {op_desc} string literal "
                f"{value!r}",
                span=_sql_span(text, column.name),
            )

    for node in _walk(query.where):
        if isinstance(node, Comparison):
            if isinstance(node.right, Literal):
                check_pair(node.left, node.right.value, "compared against")
            if isinstance(node.left, Literal):
                check_pair(node.right, node.left.value, "compared against")
        elif isinstance(node, Between):
            check_pair(node.operand, node.lo, "bounded below by")
            check_pair(node.operand, node.hi, "bounded above by")
        elif isinstance(node, InList):
            for value in node.values:
                check_pair(node.operand, value, "matched against")


def _declared_bounds(descriptor: "Descriptor") -> Dict[str, Tuple[int, int]]:
    """Constant [lo, hi] hulls the descriptor declares per implicit
    attribute (loop or binding variables that name schema attributes)."""
    stored: Set[str] = set()
    bounds: Dict[str, Tuple[int, int]] = {}

    def widen(name: str, lo: int, hi: int) -> None:
        if name in bounds:
            old_lo, old_hi = bounds[name]
            bounds[name] = (min(old_lo, lo), max(old_hi, hi))
        else:
            bounds[name] = (lo, hi)

    for leaf in descriptor.leaves():
        from ..metadata.layout import iter_attr_names

        stored.update(iter_attr_names(leaf.dataspace))
        for binding in leaf.data.bindings:
            const = _const_range(binding.range)
            if const and const[2] > 0 and const[1] >= const[0]:
                widen(binding.var, const[0], const[1])
        for loop in _iter_loops(leaf.dataspace):
            const = _const_range(loop.range)
            if const and const[2] > 0 and const[1] >= const[0]:
                widen(loop.var, const[0], const[1])
    return {
        name: hull
        for name, hull in bounds.items()
        if name in descriptor.schema and name not in stored
    }


def _check_satisfiability(
    descriptor: "Descriptor", query: Query, text: str, collector: Collector
) -> None:
    """RQ207 (self-contradictory WHERE) and RQ208 (contradicts the
    descriptor's declared dataspace bounds)."""
    try:
        ranges = extract_ranges(query.where)
    except QueryError:
        return
    for name, interval_set in ranges.items():
        if not interval_set.is_empty():
            continue
        if name == _FALSE_KEY:
            collector.emit(
                "RQ207",
                "WHERE clause is provably false; the query selects no rows",
                span=None,
            )
        else:
            collector.emit(
                "RQ207",
                f"WHERE constraints on {name!r} are contradictory "
                "(empty interval set); the query selects no rows",
                span=_sql_span(text, name),
            )
        return

    for name, (lo, hi) in _declared_bounds(descriptor).items():
        interval_set = ranges.get(name)
        if interval_set is None or interval_set.is_full():
            continue
        declared = IntervalSet.of(lo, hi)
        if declared.intersect(interval_set).is_empty():
            collector.emit(
                "RQ208",
                f"predicate restricts {name!r} to {interval_set}, but the "
                f"descriptor only produces values in [{lo}, {hi}]; the "
                "query selects no rows",
                span=_sql_span(text, name),
            )


def _check_index_pruning(
    descriptor: "Descriptor", query: Query, text: str, collector: Collector
) -> None:
    """RQ209: the WHERE clause mentions a DATAINDEX attribute but no
    range can be derived for it, so the predicate cannot prune chunks."""
    if query.where is None:
        return
    index_attrs = set(descriptor.index_attrs)
    if not index_attrs:
        return
    try:
        ranges = extract_ranges(query.where)
    except QueryError:
        return
    referenced = set(query.referenced_columns())
    for name in sorted(index_attrs & referenced):
        interval_set = ranges.get(name)
        if interval_set is None or interval_set.is_full():
            collector.emit(
                "RQ209",
                f"WHERE mentions DATAINDEX attribute {name!r} but no range "
                "can be derived from the predicate shape (e.g. it only "
                "appears inside a function call, a column-to-column "
                "comparison, or an OR with an unconstrained branch); index "
                "pruning is defeated and every chunk will be scanned",
                span=_sql_span(text, name),
                fix=f"add a direct range condition on {name} "
                "(AND-ed with the rest of the predicate)",
            )


__all__ = ["analyze_query"]
