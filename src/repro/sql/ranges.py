"""Interval algebra: turning WHERE clauses into per-attribute ranges.

The index function prunes aligned file chunks using *necessary* range
conditions derived from the query: for every attribute, a set of intervals
that must contain the attribute's value in any qualifying row.  The
generated index tests them against loop hulls and persisted chunk
summaries, and each node's extractor against the chunk bounds its segment
cache taught it (``ExtractionPlan.ranges``).  Pruning with an
over-approximation is always safe because the full predicate is still
applied to extracted rows by the filtering service.

The ranges are derived from a WHERE *bound* to the schema
(:func:`~repro.sql.typecheck.bind_where`): every literal there is
written exactly in its column's dtype, so comparing range ends in Python
orders them as the column's own comparison does, and intersections,
hulls and emptiness need no second guess.

Derivation rules (:func:`leaf_range` translates one leaf):

* ``attr op literal``      -> a single (half-)interval,
* ``attr IN (v1, ...)``    -> union of points,
* ``attr BETWEEN lo AND hi`` -> one closed interval,
* ``AND``                  -> per-attribute intersection,
* ``OR``                   -> per-attribute union; an attribute
  unconstrained on either branch becomes unconstrained,
* ``NOT``                  -> pushed inward through connectives and
  leaves (De Morgan); a negated ``NOT IN`` falls back to "no
  constraint", which is conservative and therefore safe,
* function calls and column-to-column comparisons contribute nothing.

Each set also says whether NaN rows satisfy it
(:attr:`IntervalSet.nan`): a NaN row fails every comparison but ``!=``,
so a negated leaf and ``!=`` admit it, and a set whose intervals are
empty still selects the NaN rows then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .ast import (
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
    MIRROR_OP,
    NEGATE_OP,
)

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A numeric interval with independently open/closed endpoints."""

    lo: float = -_INF
    hi: float = _INF
    lo_open: bool = False
    hi_open: bool = False

    def is_empty(self) -> bool:
        return self.lo > self.hi or self.lo == self.hi and (
            self.lo_open or self.hi_open
        )

    def contains(self, value: float) -> bool:
        if value < self.lo or (value == self.lo and self.lo_open):
            return False
        if value > self.hi or (value == self.hi and self.hi_open):
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def overlaps(self, other: "Interval") -> bool:
        return not self.intersect(other).is_empty()

    def touches_or_overlaps(self, other: "Interval") -> bool:
        """True when the union with ``other`` is a single interval."""
        if self.overlaps(other):
            return True
        # Adjacent like [a, b) and [b, c]: closed meets open at b.
        if self.hi == other.lo and not (self.hi_open and other.lo_open):
            return True
        if other.hi == self.lo and not (other.hi_open and self.lo_open):
            return True
        return False

    def hull(self, other: "Interval") -> "Interval":
        """The smallest interval holding both."""
        if self.lo < other.lo or (self.lo == other.lo and not self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi > other.hi or (self.hi == other.hi and not self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    @staticmethod
    def point(value: float) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def from_comparison(op: str, value: float) -> "Interval":
        if op in ("=", "=="):
            return Interval(value, value)
        if op == "<":
            return Interval(hi=value, hi_open=True)
        if op == "<=":
            return Interval(hi=value)
        if op == ">":
            return Interval(lo=value, lo_open=True)
        if op == ">=":
            return Interval(lo=value)
        raise ValueError(f"operator {op!r} has no interval form")

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


class IntervalSet:
    """A normalised union of intervals (sorted, disjoint), and whether
    NaN rows satisfy it (``nan``).

    Immutable; ``FULL`` means "no constraint" and ``EMPTY`` means
    "no value can qualify" (the chunk/file can be skipped outright).
    """

    __slots__ = ("intervals", "nan")

    def __init__(self, intervals: Iterable[Interval] = (), nan: bool = False):
        self.intervals: Tuple[Interval, ...] = _normalise(intervals)
        self.nan = nan

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def full() -> "IntervalSet":
        return _FULL

    @staticmethod
    def empty() -> "IntervalSet":
        return _EMPTY

    @staticmethod
    def of(lo: float, hi: float, lo_open: bool = False, hi_open: bool = False):
        return IntervalSet([Interval(lo, hi, lo_open, hi_open)])

    @staticmethod
    def points(values: Iterable[float]) -> "IntervalSet":
        return IntervalSet([Interval.point(v) for v in values])

    # -- predicates --------------------------------------------------------------

    def is_full(self) -> bool:
        return self.nan and self.intervals == _FULL.intervals

    def is_empty(self) -> bool:
        return not (self.intervals or self.nan)

    def contains(self, value: float) -> bool:
        if value != value:
            return self.nan
        return any(iv.contains(value) for iv in self.intervals)

    def overlaps_interval(self, interval: Interval) -> bool:
        """Whether a value of ``interval`` may satisfy the set; an
        interval with a NaN end (a chunk holding NaN) may hold any."""
        if interval.lo != interval.lo or interval.hi != interval.hi:
            return not self.is_empty()
        return any(iv.overlaps(interval) for iv in self.intervals)

    def overlaps_range(self, lo: float, hi: float) -> bool:
        """Whether the set intersects the closed range [lo, hi]."""
        return self.overlaps_interval(Interval(lo, hi))

    # -- algebra -------------------------------------------------------------------

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_full():
            return other
        if other.is_full():
            return self
        out: List[Interval] = []
        for a in self.intervals:
            for b in other.intervals:
                c = a.intersect(b)
                if not c.is_empty():
                    out.append(c)
        return IntervalSet(out, self.nan and other.nan)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_full() or other.is_full():
            return _FULL
        return IntervalSet(self.intervals + other.intervals, self.nan or other.nan)

    @property
    def bounds(self) -> Tuple[float, float]:
        """(min, max) hull of the set's intervals; (+inf, -inf) when it
        has none."""
        if not self.intervals:
            return (_INF, -_INF)
        return (self.intervals[0].lo, max(iv.hi for iv in self.intervals))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals and self.nan == other.nan

    def __hash__(self) -> int:
        return hash((self.intervals, self.nan))

    def __str__(self) -> str:
        parts = [str(iv) for iv in self.intervals] + ["{NaN}"] * self.nan
        return " u ".join(parts) or "{}"

    def __repr__(self) -> str:
        return f"IntervalSet({self})"


def _normalise(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Non-empty intervals sorted by their lower end, touching ones
    merged into their hull."""
    live = [iv for iv in intervals if not iv.is_empty()]
    live.sort(key=lambda iv: (iv.lo, iv.lo_open))
    merged: List[Interval] = []
    for iv in live:
        if merged and merged[-1].touches_or_overlaps(iv):
            merged[-1] = merged[-1].hull(iv)
        else:
            merged.append(iv)
    return tuple(merged)


_FULL = IntervalSet.__new__(IntervalSet)
_FULL.intervals = (Interval(),)
_FULL.nan = True
_EMPTY = IntervalSet.__new__(IntervalSet)
_EMPTY.intervals = ()
_EMPTY.nan = False


# ---------------------------------------------------------------------------
# Extraction from WHERE expressions
# ---------------------------------------------------------------------------

RangeMap = Dict[str, IntervalSet]


def extract_ranges(node: Optional[Node]) -> RangeMap:
    """Per-attribute necessary ranges implied by a WHERE expression.

    Attributes absent from the result are unconstrained.  An attribute
    mapped to an empty set means the whole query selects nothing.
    """
    if node is None:
        return {}
    return _extract(node, negated=False)


def _extract(node: Node, negated: bool) -> RangeMap:
    if isinstance(node, Not):
        return _extract(node.term, not negated)

    if isinstance(node, And):
        branches = [_extract(t, negated) for t in node.terms]
        return _merge(branches, all_of=not negated)

    if isinstance(node, Or):
        branches = [_extract(t, negated) for t in node.terms]
        return _merge(branches, all_of=negated)

    if isinstance(node, BoolLiteral):
        value = node.value != negated
        if value:
            return {}
        # FALSE constrains every attribute to nothing; represent with a
        # sentinel on the empty attribute name, handled by callers via
        # query_is_unsatisfiable().
        return {_FALSE_KEY: IntervalSet.empty()}

    leaf = leaf_range(node, negated)
    return {} if leaf is None else {leaf[0]: leaf[1]}


_FALSE_KEY = "\x00unsatisfiable"


def query_is_unsatisfiable(ranges: RangeMap) -> bool:
    """Whether the derived ranges prove the query selects no rows."""
    return any(s.is_empty() for s in ranges.values())


def _is_number(value: object) -> bool:
    """A numeric literal usable as a range end (bools and NaN are not)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value == value
    )


def _outside(lo: float, hi: float) -> IntervalSet:
    """The numbers below ``lo`` or above ``hi``, and NaN."""
    return IntervalSet(
        [Interval(hi=lo, hi_open=True), Interval(lo=hi, lo_open=True)], nan=True
    )


def leaf_range(node: Node, negated: bool = False) -> Optional[Tuple[str, IntervalSet]]:
    """``(attribute, set)``: exactly the values of one attribute (NaN
    included, :attr:`IntervalSet.nan`) that satisfy the leaf ``node``,
    or its negation; None when it is not a column compared with number
    literals, or a negated IN.  Shared by :func:`extract_ranges` and the
    result cache's keys (:func:`repro.cache.keys.exact_range`)."""
    if isinstance(node, Comparison):
        op = node.op
        if isinstance(node.left, Column) and isinstance(node.right, Literal):
            column, value = node.left, node.right.value
        elif isinstance(node.right, Column) and isinstance(node.left, Literal):
            column, value = node.right, node.left.value
            op = MIRROR_OP[op]
        else:
            return None
        if not _is_number(value):
            return None
        nan = (op in ("!=", "<>")) != negated
        op = NEGATE_OP[op] if negated else op
        if op in ("!=", "<>"):
            return column.name, _outside(value, value)
        return column.name, IntervalSet([Interval.from_comparison(op, value)], nan)
    if isinstance(node, Between):
        lo, hi = node.lo, node.hi
        if not (
            isinstance(node.operand, Column) and _is_number(lo) and _is_number(hi)
        ):
            return None
        return node.operand.name, (
            _outside(lo, hi) if negated else IntervalSet.of(lo, hi)
        )
    if isinstance(node, InList):
        if negated or not isinstance(node.operand, Column):
            return None
        if not all(_is_number(v) for v in node.values):
            return None
        return node.operand.name, IntervalSet.points(node.values)
    return None


def _merge(branches: List[RangeMap], all_of: bool) -> RangeMap:
    """Combine branch range maps: intersection (AND) or union (OR)."""
    if not branches:
        return {}
    if all_of:
        out: RangeMap = {}
        for branch in branches:
            for name, ivs in branch.items():
                out[name] = out[name].intersect(ivs) if name in out else ivs
        return out
    # OR: an attribute must be constrained in EVERY branch to stay constrained.
    common = set(branches[0])
    for branch in branches[1:]:
        common &= set(branch)
    out = {}
    for name in common:
        acc = branches[0][name]
        for branch in branches[1:]:
            acc = acc.union(branch[name])
        out[name] = acc
    return out
