"""Normalized query fingerprints and the subsumption rule.

The semantic result cache must recognise two queries as "the same" (or
one as strictly broader than the other) even when their SQL texts differ.
The normal form is a :class:`QueryKey`:

* the **descriptor digest** — the compiled dataset's content hash of
  the full meta-data description
  (:func:`~repro.core.codegen.descriptor_digest`), so a cache can never
  serve results across datasets;
* the **output columns**, in SELECT order;
* the **canonical range map** — the WHERE conjuncts that are *exactly*
  representable as per-attribute interval sets (``TIME > 100``,
  ``REL IN (0, 2)``, ``X BETWEEN 1 AND 5``, …), intersected per
  attribute, sorted by attribute name.  Each set says whether NaN rows
  satisfy it, so ``X != 7`` and ``X < 7 OR X > 7`` key apart;
* the **residual fingerprint** — the remaining conjuncts (function
  calls, column-to-column comparisons, OR trees spanning several
  attributes), rendered canonically and sorted.

Splitting only top-level AND conjuncts keeps the decomposition *exact*:
``WHERE == AND(range part) AND AND(residual part)`` always holds, which
is what makes subsumption sound.  A cached entry A may answer a new
query B by re-filtering when ``B implies A``::

    residual(A) is a subset of residual(B)       (B filters at least as much)
    and for every attribute A constrains,
        ranges(B)[attr] is contained in ranges(A)[attr]

Every row satisfying B then satisfies A, so B's rows are a subset of the
cached table and re-applying B's full WHERE to it is exact.  Anything
not provably exact lands in the residual, which can only *disable*
subsumption — never produce a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..sql.ast import And, BoolLiteral, Node, Not, Or, Query
from ..sql.ranges import IntervalSet, RangeMap, leaf_range
from ..sql.rewrite import rewrite_of

#: Sorted ((attribute, set), ...) — the hashable form of a RangeMap.
CanonicalRanges = Tuple[Tuple[str, IntervalSet], ...]


@dataclass(frozen=True)
class QueryKey:
    """The normalized identity of one query against one dataset."""

    dataset: str
    output: Tuple[str, ...]
    ranges: CanonicalRanges
    residual: Tuple[str, ...]
    #: ``()`` for plain row queries.  Aggregate queries carry
    #: ``("BY", <group attrs...>)`` — the marker separates an aggregate
    #: from a row query with the same projection (GROUP BY alone has
    #: DISTINCT semantics, so identical output columns do not imply
    #: identical results), and for aggregate keys ``output`` holds the
    #: *final result labels* (e.g. ``SUM(SOIL)``), because the cached
    #: value is the finalised result table, not base rows.
    aggregate: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Exact single-attribute interval form of one conjunct
# ---------------------------------------------------------------------------


def _flatten_and(node: Node) -> List[Node]:
    if isinstance(node, And):
        out: List[Node] = []
        for term in node.terms:
            out.extend(_flatten_and(term))
        return out
    return [node]


def exact_range(term: Node, negated: bool = False) -> Optional[Tuple[str, IntervalSet]]:
    """``(attribute, intervals)`` when ``term`` is *exactly* an interval
    condition on one attribute; ``None`` otherwise.

    Unlike :func:`repro.sql.ranges.extract_ranges` — which returns a safe
    over-approximation for pruning — this refuses anything inexact, so a
    returned set is logically equivalent to the term, not merely implied
    by it.  Its leaves are :func:`~repro.sql.ranges.leaf_range`'s, which
    is exact over a bound WHERE, NaN rows included.
    """
    if isinstance(term, Not):
        return exact_range(term.term, not negated)
    if isinstance(term, (And, Or)):
        # AND/OR over exact conditions on ONE shared attribute stays exact
        # (intersection/union); across attributes it does not.
        combine_union = isinstance(term, Or) != negated
        parts = [exact_range(t, negated) for t in term.terms]
        if any(p is None for p in parts):
            return None
        names = {name for name, _ in parts}  # type: ignore[misc]
        if len(names) != 1:
            return None
        acc = parts[0][1]  # type: ignore[index]
        for _, ivs in parts[1:]:  # type: ignore[misc]
            acc = acc.union(ivs) if combine_union else acc.intersect(ivs)
        return names.pop(), acc
    return leaf_range(term, negated)


def split_where(where: Optional[Node]) -> Tuple[RangeMap, Tuple[str, ...]]:
    """Exact decomposition of a WHERE into (range map, residual prints).

    The conjunction of the returned range conditions and residual
    conjuncts is logically equivalent to ``where``.  ``TRUE`` conjuncts
    are dropped; everything not exactly interval-representable goes into
    the residual as its canonical string rendering, sorted.
    """
    if where is None:
        return {}, ()
    ranges: RangeMap = {}
    residual: List[str] = []
    for term in _flatten_and(where):
        if isinstance(term, BoolLiteral) and term.value:
            continue
        exact = exact_range(term)
        if exact is None:
            residual.append(str(term))
        else:
            name, ivs = exact
            ranges[name] = ranges[name].intersect(ivs) if name in ranges else ivs
    return ranges, tuple(sorted(residual))


# ---------------------------------------------------------------------------
# Keys and containment
# ---------------------------------------------------------------------------


def query_key(
    fingerprint: str,
    query: Query,
    output: Sequence[str],
    aggregate: Sequence[str] = (),
) -> QueryKey:
    """The normalized cache key of a resolved query.

    The WHERE clause is canonicalized by the equivalence-preserving
    rewrite pass first (idempotent, so pre-rewritten queries key the
    same), which is what collapses commuted conjuncts, flipped
    comparisons and foldable constants onto one key.  The rewrite is
    memoized on ``query`` (:func:`~repro.sql.rewrite.rewrite_of`).
    """
    where = rewrite_of(query).canonical_where
    ranges, residual = split_where(where)
    canonical: CanonicalRanges = tuple(sorted(ranges.items()))
    return QueryKey(
        fingerprint, tuple(output), canonical, residual, tuple(aggregate)
    )


def key_subsumes(cached: QueryKey, new: QueryKey) -> bool:
    """Whether a result cached under ``cached`` can answer ``new``.

    True when ``new``'s predicate implies ``cached``'s: the cached
    residual conjuncts all appear in the new query, and every attribute
    the cached query constrains is constrained at least as tightly by
    the new one.  Column availability (projection) is checked by the
    cache itself, not here.
    """
    if cached.dataset != new.dataset:
        return False
    if cached.aggregate or new.aggregate:
        # Aggregate results are reduced tables: re-filtering them cannot
        # answer a narrower query (the per-group sums already folded rows
        # the narrower predicate would exclude).  Exact hits only.
        return False
    if not set(cached.residual) <= set(new.residual):
        return False
    new_ranges = dict(new.ranges)
    for name, wide in cached.ranges:
        narrow = new_ranges.get(name)
        if narrow is None or narrow.intersect(wide) != narrow:
            return False
    return True
