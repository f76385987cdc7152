"""Provably-equivalence-preserving query normalization.

Every query passes through :func:`rewrite_query` before planning and
cache keying.  Each transformation preserves the *vectorised evaluation
semantics* of the WHERE tree exactly — including IEEE NaN behaviour on
float attributes, where every comparison against NaN is elementwise
False.  That rules out one classically "obvious" rewrite: an interval
union that covers the whole number line (``X < 5 OR X >= 5``) is *not*
folded to TRUE, because a NaN row fails both sides.  Interval algebra is
therefore only applied to *conjuncts* over one column — and only to the
comparisons that are elementwise False on NaN (``=``, ``<``, ``<=``,
``>``, ``>=``, positive IN).  ``!=`` is excluded: it is True on NaN, so
re-rendering its co-finite interval set as ranges would flip NaN rows.
The reachable outcomes (dropping a subsumed bound, folding an empty
intersection to FALSE) are then pointwise sound under NaN.

The pass rewrites a WHERE *bound* to the schema
(:func:`~repro.sql.typecheck.bind_where`), whose literals are written
exactly in their column's dtype: comparing two ends in Python then
orders them as the column does, so merged ends select what their
conjuncts select.  A comparison over a function call is not merged,
because the dtype it compares in is known only when the function runs.

Filter functions are assumed pure (same inputs, same outputs); the
result cache and plan memoizer already rely on this, and
``docs/language.md`` documents it as a language-level contract.

Each applied rewrite is recorded as a :class:`RewriteStep` carrying an
``RW4xx`` diagnostic code, surfaced by ``repro check --explain`` and as
a ``rewrite`` span in the trace:

========  ==========================================================
RW400     constant folded (``3 < 5`` → TRUE, ``5 IN (1, 2)`` → FALSE)
RW401     comparison canonicalized (``10 > a`` → ``a < 10``,
          ``==`` → ``=``, ``<>`` → ``!=``)
RW402     NOT pushed inward (De Morgan, double negation; comparisons
          stay wrapped — flipping the operator is NaN-unsound)
RW403     BETWEEN expanded (``x BETWEEN 1 AND 5`` →
          ``x >= 1 AND x <= 5``; bit-identical evaluation)
RW404     IN list canonicalized (deduplicated, sorted, singleton → ``=``)
RW405     duplicate term eliminated (``a AND a`` → ``a``)
RW406     subsumed range conjunct merged (``x > 1 AND x > 3`` →
          ``x > 3``)
RW407     neutral/absorbing constant eliminated (TRUE in AND, FALSE in
          OR, TRUE disjunct absorbs, WHERE TRUE dropped)
RW408     contradiction folded to FALSE (``x > 1 AND x < 0``)
RW409     term order canonicalized (nested AND/OR flattened, terms
          sorted)
========  ==========================================================

The pass runs bottom-up to a structural fixpoint, so the output is a
*canonical form*: two equivalent spellings (commuted conjuncts, flipped
comparisons, folded constants) normalize to the same tree, which is how
``repro.cache`` collapses them onto one ``QueryKey``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .ast import (
    _CMP,
    MIRROR_OP,
    And,
    Between,
    BoolLiteral,
    Column,
    Comparison,
    InList,
    Literal,
    Node,
    Not,
    Or,
    Query,
    Value,
)
from .ranges import Interval, IntervalSet, leaf_range

__all__ = ["Rewrite", "RewriteStep", "rewrite_of", "rewrite_where", "rewrite_query"]

TRUE = BoolLiteral(True)
FALSE = BoolLiteral(False)

#: Upper bound on fixpoint passes; each pass strictly shrinks or
#: canonicalizes the tree, so real queries converge in 2-3 passes.
_MAX_PASSES = 16

#: Operator spellings normalized away by RW401.
_OP_SPELLING = {"==": "=", "<>": "!="}


@dataclass(frozen=True)
class RewriteStep:
    """One auditable normalization step (an ``RW4xx`` explain entry)."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.detail}"


def _is_plain_number(value: object) -> bool:
    """A numeric literal value usable in interval algebra (bools are
    excluded: TRUE/FALSE compare as 1/0 but are not ranges)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sort_key(value: Value) -> Tuple[bool, Value]:
    """Total order over IN-list values that never compares str to num."""
    return (isinstance(value, str), value)


# ---------------------------------------------------------------------------
# Leaf rewrites
# ---------------------------------------------------------------------------


def _fold_comparison(op: str, a: Value, b: Value) -> Optional[BoolLiteral]:
    """Fold ``literal op literal`` when both sides share a type class."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    if isinstance(a, str) != isinstance(b, str):
        return None
    return TRUE if _CMP[op](a, b) else FALSE


def _rewrite_comparison(node: Comparison, steps: List[RewriteStep]) -> Node:
    op = _OP_SPELLING.get(node.op, node.op)
    if op != node.op:
        steps.append(
            RewriteStep(
                "RW401",
                f"canonicalized operator spelling {node.op!r} to {op!r}",
            )
        )
    left, right = node.left, node.right
    if isinstance(left, Literal) and isinstance(right, Literal):
        folded = _fold_comparison(op, left.value, right.value)
        if folded is not None:
            steps.append(
                RewriteStep("RW400", f"folded constant {node} to {folded}")
            )
            return folded
    if isinstance(left, Literal) and not isinstance(right, Literal):
        # Literal on the left: mirror so the attribute/function leads.
        left, right, op = right, left, MIRROR_OP[op]
        steps.append(
            RewriteStep("RW401", f"oriented {node} as {left} {op} {right}")
        )
    elif (
        not isinstance(left, Literal)
        and not isinstance(right, Literal)
        and str(right) < str(left)
    ):
        # Neither side is a literal (e.g. ``SOIL > SGAS``): order the
        # operands lexicographically so commuted spellings converge.
        left, right, op = right, left, MIRROR_OP[op]
        steps.append(
            RewriteStep("RW401", f"oriented {node} as {left} {op} {right}")
        )
    if op == node.op and left is node.left and right is node.right:
        return node
    return Comparison(op, left, right)


def _rewrite_inlist(node: InList, steps: List[RewriteStep]) -> Node:
    if not node.values:
        steps.append(
            RewriteStep("RW400", f"folded empty IN list {node} to FALSE")
        )
        return FALSE
    if isinstance(node.operand, Literal):
        ov = node.operand.value
        pool = (ov,) + node.values
        all_num = all(_is_plain_number(v) for v in pool)
        all_str = all(isinstance(v, str) for v in pool)
        if all_num or all_str:
            folded = TRUE if any(v == ov for v in node.values) else FALSE
            steps.append(
                RewriteStep("RW400", f"folded constant {node} to {folded}")
            )
            return folded
    unique: List[Value] = []
    for value in node.values:
        if value not in unique:
            unique.append(value)
    unique.sort(key=_sort_key)
    if len(unique) == 1:
        result: Node = Comparison("=", node.operand, Literal(unique[0]))
        steps.append(
            RewriteStep("RW404", f"reduced singleton {node} to {result}")
        )
        return result
    canonical = tuple(unique)
    if canonical != node.values:
        steps.append(
            RewriteStep(
                "RW404",
                f"canonicalized IN list {node.values} to {canonical}",
            )
        )
        return InList(node.operand, canonical)
    return node


def _expand_between(node: Between, steps: List[RewriteStep]) -> Node:
    steps.append(
        RewriteStep(
            "RW403",
            f"expanded {node} to {node.operand} >= {Literal(node.lo)} "
            f"AND {node.operand} <= {Literal(node.hi)}",
        )
    )
    terms = [
        _rewrite_comparison(
            Comparison(">=", node.operand, Literal(node.lo)), steps
        ),
        _rewrite_comparison(
            Comparison("<=", node.operand, Literal(node.hi)), steps
        ),
    ]
    return _rebuild_and(terms, steps)


# ---------------------------------------------------------------------------
# NOT push-down
# ---------------------------------------------------------------------------


def _negate(term: Node, steps: List[RewriteStep]) -> Node:
    """Negate a term using only mask-level identities.

    ``NOT`` evaluates as elementwise mask complement, so double
    negation, TRUE/FALSE flips, and De Morgan (``~(x & y) == ~x | ~y``)
    hold row-for-row unconditionally.  Rewriting the *operator* instead
    (``NOT (A > 2)`` → ``A <= 2``) does NOT: on a NaN row the original
    is True (complement of a False comparison) but the flipped
    comparison is False, so comparisons stay wrapped in ``NOT``.
    """
    if isinstance(term, BoolLiteral):
        return FALSE if term.value else TRUE
    if isinstance(term, Not):
        return term.term
    if isinstance(term, And):
        return _rebuild_or([_negate(t, steps) for t in term.terms], steps)
    if isinstance(term, Or):
        return _rebuild_and([_negate(t, steps) for t in term.terms], steps)
    # NOT over a comparison, IN, or another opaque predicate stays.
    return Not(term)


def _rewrite_not(node: Not, steps: List[RewriteStep]) -> Node:
    inner = _rewrite(node.term, steps)
    if isinstance(inner, (BoolLiteral, Not, And, Or)):
        result = _negate(inner, steps)
        steps.append(
            RewriteStep("RW402", f"pushed NOT inward: NOT ({inner}) is {result}")
        )
        return result
    if inner is node.term:
        return node
    return Not(inner)


# ---------------------------------------------------------------------------
# Conjunction rebuild: flatten, dedupe, interval-merge, sort
# ---------------------------------------------------------------------------


def _interval_terms(operand: Node, interval: Interval) -> List[Node]:
    """Synthesize AST terms equivalent to one non-empty interval; an
    open infinite end (``V < inf``) is a term, since it drops a row."""
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        return [Comparison("=", operand, Literal(_numeric(lo)))]
    terms: List[Node] = []
    if lo != -math.inf or interval.lo_open:
        op = ">" if interval.lo_open else ">="
        terms.append(Comparison(op, operand, Literal(_numeric(lo))))
    if hi != math.inf or interval.hi_open:
        op = "<" if interval.hi_open else "<="
        terms.append(Comparison(op, operand, Literal(_numeric(hi))))
    return terms


def _numeric(value: float) -> Value:
    """Prefer the int spelling for integral endpoints (``2.0`` → ``2``)."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return int(value)
    return value


def _set_to_terms(operand: Node, ivs: IntervalSet) -> Optional[List[Node]]:
    """Synthesize conjunct terms equivalent to a non-empty interval set.

    Atom sets are single intervals or finite point sets, and both are
    closed under intersection, so those are the only shapes to render;
    None (keep the original terms) is a sound fallback for anything
    else.
    """
    intervals = ivs.intervals
    if len(intervals) == 1:
        terms = _interval_terms(operand, intervals[0])
        return terms or None
    if all(
        iv.lo == iv.hi and not iv.lo_open and not iv.hi_open
        for iv in intervals
    ):
        values = tuple(_numeric(iv.lo) for iv in intervals)
        return [InList(operand, values)]
    return None


def _merge_range_conjuncts(
    terms: Sequence[Node], spelled: Sequence[str], steps: List[RewriteStep]
) -> Optional[List[Tuple[Node, str]]]:
    """Intersect atomic range conjuncts per operand; None = contradiction.

    ``spelled`` is ``str`` of each term; the result pairs each kept or
    synthesized term with its spelling.
    """
    # Only atoms merge: an ordered or equality comparison of a column
    # with a number, or a positive all-number IN.  Each is elementwise
    # False on a NaN row, so an empty intersection folds to FALSE
    # soundly, and a full one (NaN-unsound TRUE) is never reached.
    # ``!=`` is no atom: it is True on NaN, so its co-finite set
    # rendered back as ranges (False on NaN) would drop NaN rows —
    # ``B != 5 AND B != 7`` survives as written.
    atoms = [
        None if getattr(term, "op", None) in ("!=", "<>") else leaf_range(term)
        for term in terms
    ]
    groups: Dict[str, List[int]] = {}
    for i, atom in enumerate(atoms):
        if atom is not None:
            groups.setdefault(atom[0], []).append(i)
    out: List[Tuple[Node, str]] = []
    emitted: Set[str] = set()
    for term, spelling, atom in zip(terms, spelled, atoms):
        if atom is None or len(groups[atom[0]]) < 2:
            out.append((term, spelling))
            continue
        key = atom[0]
        if key in emitted:
            continue
        emitted.add(key)
        group = groups[key]
        acc = atoms[group[0]][1]
        for i in group[1:]:
            acc = acc.intersect(atoms[i][1])
        originals = " AND ".join(spelled[i] for i in group)
        if acc.is_empty():
            steps.append(
                RewriteStep(
                    "RW408",
                    f"conjuncts on {key} are contradictory ({originals}); "
                    "folded to FALSE",
                )
            )
            return None
        synthesized = _set_to_terms(Column(key), acc)
        if synthesized is not None:
            rendered = [str(t) for t in synthesized]
            if sorted(rendered) == sorted(spelled[i] for i in group):
                synthesized = None
        if synthesized is None:
            out.extend((terms[i], spelled[i]) for i in group)
            continue
        steps.append(
            RewriteStep(
                "RW406",
                f"merged range conjuncts on {key}: {originals} is "
                f"{' AND '.join(rendered)}",
            )
        )
        out.extend(zip(synthesized, rendered))
    return out


def _rebuild_and(terms: Sequence[Node], steps: List[RewriteStep]) -> Node:
    flat: List[Node] = []
    flattened = False
    for term in terms:
        if isinstance(term, And):
            flat.extend(term.terms)
            flattened = True
        else:
            flat.append(term)
    if flattened:
        steps.append(RewriteStep("RW409", "flattened nested AND"))
    # Each term is spelled once; dedupe, grouping and ordering share it.
    unique: List[Node] = []
    spelled: List[str] = []
    seen: Set[str] = set()
    for term in flat:
        if isinstance(term, BoolLiteral):
            if term.value:
                steps.append(
                    RewriteStep("RW407", "dropped neutral TRUE conjunct")
                )
                continue
            steps.append(
                RewriteStep("RW408", "FALSE conjunct folds the AND to FALSE")
            )
            return FALSE
        spelling = str(term)
        if spelling in seen:
            steps.append(
                RewriteStep("RW405", f"dropped duplicate conjunct {spelling}")
            )
            continue
        seen.add(spelling)
        unique.append(term)
        spelled.append(spelling)
    merged = _merge_range_conjuncts(unique, spelled, steps)
    if merged is None:
        return FALSE
    ordered = sorted(merged, key=_spelling)
    if any(a[1] != b[1] for a, b in zip(ordered, merged)):
        steps.append(RewriteStep("RW409", "canonicalized conjunct order"))
    if not ordered:
        return TRUE
    if len(ordered) == 1:
        return ordered[0][0]
    return And(tuple(term for term, _ in ordered))


def _spelling(entry: Tuple[Node, str]) -> str:
    return entry[1]


def _rebuild_or(terms: Sequence[Node], steps: List[RewriteStep]) -> Node:
    flat: List[Node] = []
    flattened = False
    for term in terms:
        if isinstance(term, Or):
            flat.extend(term.terms)
            flattened = True
        else:
            flat.append(term)
    if flattened:
        steps.append(RewriteStep("RW409", "flattened nested OR"))
    kept: List[Node] = []
    for term in flat:
        if isinstance(term, BoolLiteral):
            if not term.value:
                steps.append(
                    RewriteStep("RW407", "dropped neutral FALSE disjunct")
                )
                continue
            steps.append(
                RewriteStep("RW407", "TRUE disjunct absorbs the OR")
            )
            return TRUE
        kept.append(term)
    unique: List[Node] = []
    seen: Set[str] = set()
    for term in kept:
        spelled = str(term)
        if spelled in seen:
            steps.append(
                RewriteStep("RW405", f"dropped duplicate disjunct {spelled}")
            )
            continue
        seen.add(spelled)
        unique.append(term)
    ordered = sorted(unique, key=str)
    if [str(t) for t in ordered] != [str(t) for t in unique]:
        steps.append(RewriteStep("RW409", "canonicalized disjunct order"))
    if not ordered:
        return FALSE
    if len(ordered) == 1:
        return ordered[0]
    return Or(tuple(ordered))


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


def _rewrite(node: Node, steps: List[RewriteStep]) -> Node:
    if isinstance(node, Comparison):
        return _rewrite_comparison(node, steps)
    if isinstance(node, InList):
        return _rewrite_inlist(node, steps)
    if isinstance(node, Between):
        return _expand_between(node, steps)
    if isinstance(node, Not):
        return _rewrite_not(node, steps)
    if isinstance(node, And):
        return _rebuild_and([_rewrite(t, steps) for t in node.terms], steps)
    if isinstance(node, Or):
        return _rebuild_or([_rewrite(t, steps) for t in node.terms], steps)
    return node


def rewrite_where(
    where: Optional[Node],
) -> Tuple[Optional[Node], List[RewriteStep]]:
    """Normalize a WHERE tree; returns (canonical tree, applied steps).

    The canonical tree evaluates bit-identically to the input on every
    column mapping (NaN included).  A tree that reduces to TRUE returns
    ``None`` (no WHERE clause); a contradiction returns
    ``BoolLiteral(False)``, which the planner short-circuits to a plan
    with zero read calls.
    """
    steps: List[RewriteStep] = []
    if where is None:
        return None, steps
    node = where
    for _ in range(_MAX_PASSES):
        before = len(steps)
        new = _rewrite(node, steps)
        if new == node and len(steps) == before:
            break
        node = new
    if isinstance(node, BoolLiteral) and node.value:
        steps.append(
            RewriteStep("RW407", "WHERE clause reduced to TRUE; dropped")
        )
        return None, steps
    return node, steps


class Rewrite:
    """The canonical form of one resolved query, memoized on the query.

    :func:`rewrite_of` attaches one to the :class:`Query` it rewrote, so
    every later consumer of the same submission (result-cache keying,
    planning, a subsumption re-filter) finds the canonical form in O(1)
    instead of re-running the fixpoint.  It snapshots what it was
    derived from; a caller that mutates the query afterwards gets a
    fresh rewrite, never a stale one.  The query-text cache
    (:mod:`repro.sql.textcache`) keeps one per text and hands out copies
    of the query it snapshots (:meth:`written`).

    ``steps`` are the applied :class:`RewriteStep` records.  ``columns``
    is free for the planner: ``(dataset token, needed, output, aggregate
    spec)``.  ``bound`` is free for the dataset that bound ``where``
    (:func:`~repro.sql.typecheck.bind_where`): ``(dataset token,
    verdicts)``, so it need not bind it again and RT306/RT307 can read
    what binding decided.  ``analysis`` is free for the query pipeline:
    ``(key, findings)`` of the static analysis it ran on this query.
    """

    __slots__ = (
        "where", "table", "select", "group_by", "canonical_where",
        "steps", "columns", "bound", "analysis",
    )

    def __init__(
        self,
        query: Query,
        canonical_where: Optional[Node],
        steps: Tuple[RewriteStep, ...],
    ):
        self.where = query.where
        self.table = query.table
        self.select = _copy(query.select)
        self.group_by = _copy(query.group_by)
        self.canonical_where = canonical_where
        self.steps = steps
        self.columns = None
        self.bound = None
        self.analysis = None

    def matches(self, query: Query) -> bool:
        """Whether ``query`` is still what this rewrite was derived from
        (the WHERE tree is immutable, so identity settles it)."""
        return (
            query.where is self.where
            and query.table == self.table
            and query.select == self.select
            and query.group_by == self.group_by
        )

    def written(self) -> Query:
        """A fresh copy of the query this rewrite was derived from,
        carrying this memo (callers may mutate it)."""
        query = Query(
            table=self.table,
            select=_copy(self.select),
            where=self.where,
            group_by=_copy(self.group_by),
        )
        query.__dict__["_rewrite"] = self
        return query

    def canonical(self, query: Query) -> Query:
        """The rewritten query: ``query`` itself when no step applied,
        else a fresh :class:`Query` (callers may mutate it)."""
        if not self.steps:
            return query
        canonical = Query(
            table=query.table,
            select=_copy(query.select),
            where=self.canonical_where,
            group_by=_copy(query.group_by),
        )
        # The output is taken as its own canonical form (the pass ran to
        # a fixpoint, or for _MAX_PASSES), so keying or planning it again
        # rewrites nothing.
        canonical.__dict__["_rewrite"] = Rewrite(
            canonical, self.canonical_where, ()
        )
        return canonical


def _copy(items: Optional[List]) -> Optional[List]:
    return None if items is None else list(items)


def rewrite_of(query: Query) -> Rewrite:
    """The memoized :class:`Rewrite` of ``query``; rewrites (and
    memoizes) it the first time, or again after the query changed."""
    memo = query.__dict__.get("_rewrite")
    if memo is not None and memo.matches(query):
        return memo
    where, steps = rewrite_where(query.where)
    memo = Rewrite(query, where, tuple(steps))
    query.__dict__["_rewrite"] = memo
    return memo


def rewrite_query(query: Query) -> Tuple[Query, List[RewriteStep]]:
    """Normalize a query's WHERE clause.

    Returns the original object untouched when no rewrite applies, so
    identity checks and object reuse keep working for already-canonical
    queries.  The result is memoized on ``query`` (:func:`rewrite_of`):
    asking again for the same, unmutated query does not re-run the
    fixpoint.
    """
    memo = rewrite_of(query)
    return memo.canonical(query), list(memo.steps)
