"""Interval algebra: turning WHERE clauses into per-attribute ranges.

The index function prunes aligned file chunks using *necessary* range
conditions derived from the query: for every attribute, a set of intervals
that must contain the attribute's value in any qualifying row.  The
generated index tests them against loop hulls and persisted chunk
summaries, and each node's extractor against the chunk bounds its segment
cache taught it (``ExtractionPlan.ranges``).  Pruning with an
over-approximation is always safe because the full predicate is still
applied to extracted rows by the filtering service.

Derivation rules:

* ``attr op literal``      -> a single (half-)interval,
* ``attr IN (v1, ...)``    -> union of points,
* ``attr BETWEEN lo AND hi`` -> one closed interval,
* ``AND``                  -> per-attribute intersection; ends that
  cross in Python but may tie as a column compares them keep a
  non-empty interval (:meth:`Interval.is_empty`),
* ``OR``                   -> per-attribute union; an attribute
  unconstrained on either branch becomes unconstrained,
* ``NOT``                  -> pushed inward through connectives and
  comparisons (De Morgan); unsupported negations fall back to "no
  constraint", which is conservative and therefore safe,
* function calls and column-to-column comparisons contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

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
        """Whether no column compares inside it as the kernel compares.
        Ends that cross in Python (``lo > hi``, or equal with an open
        end) may still admit a value: a float32 column compares both
        rounded, so ``[0.10000000149011612, 0.1]`` holds float32(0.1),
        and an int64 one compares an int end exactly and a float end in
        float64, so ``(2**53, 2**53.0]`` holds 2**53 + 1."""
        if not (self.lo > self.hi or self.lo == self.hi and (
            self.lo_open or self.hi_open
        )):
            return False
        if not _float32_equal(self.lo, self.hi):
            return True
        closed = not (self.lo_open or self.hi_open)
        return not (closed or _exact_apart((self.lo, self.hi)))

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
        """The smallest interval holding both.  An end stays open only
        if the other interval's end on that side is open too, or the two
        differ as float32: a float32 column compares both literals
        rounded, so ``V > 0.1 OR V >= 0.10000000149011612`` admits the
        float32 nearest 0.1."""
        if self.lo < other.lo or (self.lo == other.lo and not self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if lo_open and not (self.lo_open and other.lo_open):
            lo_open = not _float32_equal(self.lo, other.lo)
        if self.hi > other.hi or (self.hi == other.hi and not self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        if hi_open and not (self.hi_open and other.hi_open):
            hi_open = not _float32_equal(self.hi, other.hi)
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
    """A normalised union of intervals: sorted, and disjoint unless
    int and float ends past 2**53 kept two apart (:func:`_normalise`).

    Immutable; ``FULL`` means "no constraint" and ``EMPTY`` means
    "no value can qualify" (the chunk/file can be skipped outright).
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self.intervals: Tuple[Interval, ...] = _normalise(intervals)

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
        return (
            len(self.intervals) == 1
            and self.intervals[0].lo == -_INF
            and self.intervals[0].hi == _INF
        )

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, value: float) -> bool:
        return any(iv.contains(value) for iv in self.intervals)

    def overlaps_interval(self, interval: Interval) -> bool:
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
        return IntervalSet(out)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_full() or other.is_full():
            return _FULL
        return IntervalSet(self.intervals + other.intervals)

    @property
    def bounds(self) -> Tuple[float, float]:
        """(min, max) hull of the set; (+inf, -inf) when empty."""
        if not self.intervals:
            return (_INF, -_INF)
        return (self.intervals[0].lo, max(iv.hi for iv in self.intervals))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __str__(self) -> str:
        if self.is_empty():
            return "{}"
        return " u ".join(str(iv) for iv in self.intervals)

    def __repr__(self) -> str:
        return f"IntervalSet({self})"


def _float32_equal(a: float, b: float) -> bool:
    """Whether ``a`` and ``b`` round to one float32."""
    try:
        with np.errstate(over="ignore"):
            return bool(np.float32(a) == np.float32(b))
    except OverflowError:  # an int past float64's range
        return False


#: From this magnitude on, an int end and a float end may order one way
#: in Python and the other way against an integer column: numpy compares
#: such a column with an int literal exactly and with a float literal in
#: float64, where ``2**53 + 1`` is ``2**53``.
_EXACT = 2 ** 53


def _exact_apart(ends: Iterable[float]) -> bool:
    """Whether the finite ``ends`` mix ints and floats and one of them
    is at least 2**53 in magnitude: then an integer column may order
    them unlike Python does."""
    ends = [v for v in ends if v == v and abs(v) != _INF]
    kinds = {isinstance(v, (float, np.floating)) for v in ends}
    return len(kinds) == 2 and any(abs(v) >= _EXACT for v in ends)


def _hullable(a: Interval, b: Interval) -> bool:
    """Whether the hull of ``a`` and ``b`` admits every value either
    admits as the kernel compares: unless their ends are
    :func:`_exact_apart`."""
    return not _exact_apart((a.lo, a.hi, b.lo, b.hi))


def _normalise(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Non-empty intervals sorted by their lower end, touching ones
    merged into their hull — except where :func:`_hullable` says the
    hull would lose a value: those are kept side by side, so a set's
    intervals may then overlap."""
    live = [iv for iv in intervals if not iv.is_empty()]
    live.sort(key=lambda iv: (iv.lo, iv.lo_open))
    merged: List[Interval] = []
    for iv in live:
        if (
            merged and merged[-1].touches_or_overlaps(iv)
            and _hullable(merged[-1], iv)
        ):
            merged[-1] = merged[-1].hull(iv)
        else:
            merged.append(iv)
    return tuple(merged)


_FULL = IntervalSet.__new__(IntervalSet)
_FULL.intervals = (Interval(),)
_EMPTY = IntervalSet.__new__(IntervalSet)
_EMPTY.intervals = ()


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

    if isinstance(node, Comparison):
        return _from_comparison(node, negated)

    if isinstance(node, InList):
        if negated or not isinstance(node.operand, Column):
            return {}
        numeric = [v for v in node.values if isinstance(v, (int, float))]
        if len(numeric) != len(node.values):
            return {}
        if any(isinstance(v, float) for v in numeric):
            # One float makes the kernel compare every value as a float
            # (``in_list_mask``): 2**53 + 1 matches 2**53 there.
            numeric = [float(v) for v in numeric]
        return {node.operand.name: IntervalSet.points(numeric)}

    if isinstance(node, Between):
        if not isinstance(node.operand, Column):
            return {}
        lo, hi = node.lo, node.hi
        if not isinstance(lo, (int, float)) or not isinstance(hi, (int, float)):
            return {}
        if negated:
            return {
                node.operand.name: IntervalSet(
                    [Interval(hi=lo, hi_open=True), Interval(lo=hi, lo_open=True)]
                )
            }
        return {node.operand.name: IntervalSet.of(lo, hi)}

    # Function calls or anything else: no derivable constraint.
    return {}


_FALSE_KEY = "\x00unsatisfiable"


def query_is_unsatisfiable(ranges: RangeMap) -> bool:
    """Whether the derived ranges prove the query selects no rows."""
    return any(s.is_empty() for s in ranges.values())


def _from_comparison(node: Comparison, negated: bool) -> RangeMap:
    column: Optional[Column] = None
    value = None
    op = node.op
    if isinstance(node.left, Column) and isinstance(node.right, Literal):
        column, value = node.left, node.right.value
    elif isinstance(node.right, Column) and isinstance(node.left, Literal):
        column, value = node.right, node.left.value
        op = MIRROR_OP[op]
    if column is None or not isinstance(value, (int, float)):
        return {}
    if negated:
        from .ast import NEGATE_OP

        op = NEGATE_OP[op]
    if op in ("!=", "<>"):
        return {
            column.name: IntervalSet(
                [Interval(hi=value, hi_open=True), Interval(lo=value, lo_open=True)]
            )
        }
    return {column.name: IntervalSet([Interval.from_comparison(op, value)])}


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
