"""Small runtime support library for generated index functions.

Generated modules (see :mod:`repro.core.codegen`) bake every file group
into a :class:`~repro.core.afc.GroupLayout` literal — member offsets and
byte strides, loop bounds, binding constants, hulls, all constant-folded
— and make one call into this library per query, exactly like a compiler
emitting calls into a runtime library.  Keeping the helpers here
(instead of duplicating their bodies in every generated module) also
means bug fixes apply to already-generated code on re-import.

A group's AFCs come out as columns: each chunk loop's allowed values
are found by interval arithmetic on the query ranges (no per-value
membership test), their product is formed with ``repeat``/``tile``,
member offsets are one integer matrix product, and chunk-summary
pruning is a row mask.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Mapping, NamedTuple, Optional,
    Protocol, Sequence, Tuple, Union,
)

import numpy as np

from ..sql.ranges import Interval, IntervalSet, RangeMap
from .afc import AfcTable, GroupLayout, GroupTable, OuterLoop

if TYPE_CHECKING:
    from ..index.summaries import MinMaxSummaries

Bound = Union[int, float]


def _above(value: int, lo: Bound, lo_open: bool) -> bool:
    return value > lo or (value == lo and not lo_open)


def _below(value: int, hi: Bound, hi_open: bool) -> bool:
    return value < hi or (value == hi and not hi_open)


def _first_ordinal(
    iv: Interval, start: int, step: int, count: int
) -> int:
    """Smallest ordinal in ``0..count`` whose value ``start + step*k``
    clears the interval's lower end (``count``: none does)."""
    lo = iv.lo
    if lo != lo or lo == -math.inf:  # NaN never excludes, as in contains()
        return 0
    if lo == math.inf:
        return count
    if isinstance(lo, int):
        k = -((start - lo) // step)
    else:
        k = math.ceil((lo - start) / step)
    k = min(max(k, 0), count)
    # Exact correction of a float estimate: integer-vs-float comparisons
    # in Python are exact, the division above is not.
    while k < count and not _above(start + step * k, lo, iv.lo_open):
        k += 1
    while k > 0 and _above(start + step * (k - 1), lo, iv.lo_open):
        k -= 1
    return k


def _last_ordinal(iv: Interval, start: int, step: int, count: int) -> int:
    """Largest ordinal in ``-1..count-1`` whose value is under the
    interval's upper end (``-1``: none is)."""
    hi = iv.hi
    if hi != hi or hi == math.inf:
        return count - 1
    if hi == -math.inf:
        return -1
    if isinstance(hi, int):
        k = (hi - start) // step
    else:
        k = math.floor((hi - start) / step)
    k = min(max(k, -1), count - 1)
    while k >= 0 and not _below(start + step * k, hi, iv.hi_open):
        k -= 1
    while k < count - 1 and _below(start + step * (k + 1), hi, iv.hi_open):
        k += 1
    return k


def allowed_ordinals(
    allowed: Optional[IntervalSet],
    start: int,
    stop: int,
    step: int,
    pin: Optional[int] = None,
) -> np.ndarray:
    """Ordinals ``k`` of the loop values ``start + step*k`` (``start ..
    stop``) that the query ranges permit, ascending.

    Each interval of ``allowed`` maps to one run of ordinals — a ceiling
    and a floor, open ends honoured.  ``pin`` (a binding constant shared
    with the loop variable) restricts the loop to a single value.
    """
    count = max(0, (stop - start) // step + 1)
    if pin is not None:
        on_lattice = start <= pin <= stop and (pin - start) % step == 0
        if not on_lattice or (allowed is not None and not allowed.contains(pin)):
            return np.empty(0, dtype=np.int64)
        return np.array([(pin - start) // step], dtype=np.int64)
    if allowed is None:
        return np.arange(count, dtype=np.int64)
    runs: List[np.ndarray] = []
    for iv in allowed.intervals:
        lo = _first_ordinal(iv, start, step, count)
        hi = _last_ordinal(iv, start, step, count)
        if lo <= hi:
            runs.append(np.arange(lo, hi + 1, dtype=np.int64))
    if len(runs) == 1:
        return runs[0]
    # Normalised intervals are disjoint and sorted, their runs too.
    return np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)


def ranges_match(ranges: RangeMap, implicit: Sequence[Tuple[str, int, int]]) -> bool:
    """Group-level match: every constrained implicit attribute must overlap.

    ``implicit`` is a tuple of (name, lo, hi) hulls baked in at generation
    time from the group's binding constants and loop ranges.
    """
    for name, lo, hi in implicit:
        allowed = ranges.get(name)
        if allowed is not None and not allowed.overlaps_interval(Interval(lo, hi)):
            return False
    return True


def enumerate_group(
    layout: GroupLayout,
    ranges: RangeMap,
    axes: Optional[Dict[OuterLoop, Tuple[np.ndarray, np.ndarray]]] = None,
) -> GroupTable:
    """Every AFC of one group the query ranges admit, as columns.

    Rows follow the chunk loops in canonical order (the first loop
    outermost), exactly the order nested ``for`` loops would produce.
    ``axes`` memoizes each loop's (ordinals, values) across the groups
    of one lookup — groups of a layout share their loops.
    """
    if axes is None:
        axes = {}
    loops = []
    for loop in layout.outer:
        axis = axes.get(loop)
        if axis is None:
            var, start, stop, step, pin = loop
            ordinals = allowed_ordinals(ranges.get(var), start, stop, step, pin)
            axis = axes[loop] = (ordinals, start + step * ordinals)
        loops.append(axis)
    n = 1
    for ordinals, _ in loops:
        n *= len(ordinals)
    if len(loops) == 1:
        ordinals, values = (column[:, None] for column in loops[0])
    else:
        # The product, first loop outermost: each loop's column repeats
        # every value once per combination of the inner loops, tiled once
        # per combination of the outer ones.
        ordinals, values = np.empty((2, n, len(loops)), dtype=np.int64)
        inner, outer = n, 1
        for j, axis in enumerate(loops):
            if n:
                inner //= len(axis[0])
                for plane, column in zip((ordinals, values), axis):
                    column = np.repeat(column, inner)
                    plane[:, j] = np.tile(column, outer)
                outer *= len(axis[0])
    return GroupTable(
        layout,
        values[:, layout.varying],
        layout.base + ordinals @ layout.strides,
        np.zeros(n, dtype=np.int64),
        np.full(n, layout.num_rows, dtype=np.int64),
    )


class Zone(NamedTuple):
    """Per-chunk min/max of one field in one file, as columns: the
    chunks' sorted int64 byte offsets, each chunk's min and max in the
    field's dtype (native byte order), and, for bounds a node learned
    from decoded extents, each chunk's length in bytes."""

    offsets: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray
    nbytes: Optional[np.ndarray] = None


def gather_zones(
    zones: Mapping[tuple, Zone],
    file: tuple,
    attrs: Iterable[str],
    offsets: np.ndarray,
    nbytes: Optional[np.ndarray] = None,
) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per field of ``attrs`` with a zone at ``(*file, field)``, for
    each chunk at ``offsets`` (``nbytes`` long): whether the zone holds
    it — its offset, and its length where the zone records lengths —
    and its min and max (meaningless where it does not).  One
    ``searchsorted`` per distinct offsets column."""
    out = {}
    searched: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    for attr in attrs:
        zone = zones.get((*file, attr))
        if zone is None:
            continue
        if searched is None or searched[0] is not zone.offsets:
            at = np.searchsorted(zone.offsets, offsets)
            at = np.minimum(at, len(zone.offsets) - 1)
            searched = (zone.offsets, at, zone.offsets[at] == offsets)
        _, at, found = searched
        if zone.nbytes is not None:
            found = found & (zone.nbytes[at] == nbytes)
        out[attr] = (found, zone.mins[at], zone.maxs[at])
    return out


class ChunkBounds(Protocol):
    """Per-chunk min/max a row mask can test: the persisted summaries
    (:class:`~repro.index.summaries.MinMaxSummaries`) or the bounds a
    node's segment cache taught its extractor."""

    def member_bounds(
        self, part: GroupTable, j: int, attrs: Sequence[str]
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per attribute of ``attrs`` it holds bounds for, for each row
        of ``part``: whether member ``j``'s chunk has bounds, and its
        min and max (meaningless where it has none)."""


def summary_mask(
    part: GroupTable,
    ranges: RangeMap,
    summaries: ChunkBounds,
    relevant: Sequence[str],
) -> np.ndarray:
    """Rows of ``part`` no member chunk's bounds rule out: per member
    storing a relevant attribute, one lookup of its chunks, then per
    attribute one test of the gathered bounds (:func:`zone_overlaps`).
    A chunk without bounds never rules its row out."""
    keep = np.ones(len(part), dtype=bool)
    for j, member in enumerate(part.layout.members):
        attrs = [a for a in relevant if a in member.strip.attrs]
        if not attrs:
            continue
        gathered = summaries.member_bounds(part, j, attrs)
        for attr, (found, mins, maxs) in gathered.items():
            keep &= ~found | zone_overlaps(ranges[attr], mins, maxs)
    return keep


def zone_overlaps(
    allowed: IntervalSet, mins: np.ndarray, maxs: np.ndarray
) -> np.ndarray:
    """Per chunk, whether its ``[min, max]`` meets ``allowed``: ORed
    over the set's intervals, ``maxs >= lo`` (``>`` when open) and
    ``mins <= hi`` (``<`` when open).  These are numpy comparisons of
    the field-dtype bounds with the range ends as Python scalars, as
    :class:`~repro.core.kernels.CompiledPredicate` compares the column
    with its literal, so a chunk fails only if the kernel would keep
    none of its rows.  A NaN bound (the chunk holds a NaN) and a NaN
    range end rule nothing out, as in the interval algebra."""
    keep: np.ndarray = np.zeros(len(mins), dtype=bool)
    if mins.dtype.kind == "f":
        keep |= np.isnan(mins) | np.isnan(maxs)
    for iv in allowed.intervals:
        meets: np.ndarray = np.ones(len(mins), dtype=bool)
        if iv.lo == iv.lo:
            meets &= maxs > iv.lo if iv.lo_open else maxs >= iv.lo
        if iv.hi == iv.hi:
            meets &= mins < iv.hi if iv.hi_open else mins <= iv.hi
        keep |= meets
    return keep


def index_groups(
    groups: Sequence[GroupLayout],
    ranges: RangeMap,
    summaries: Optional[MinMaxSummaries] = None,
    node: Optional[str] = None,
    summary_attrs: Sequence[str] = (),
) -> AfcTable:
    """The generated ``index`` function's body: every admitted AFC of
    the groups homed on ``node`` (all groups when None), pruned by the
    group hulls and, given ``summaries``, by per-chunk min/max."""
    relevant = (
        [a for a in summary_attrs if a in ranges] if summaries is not None else []
    )
    parts: List[GroupTable] = []
    axes: Dict[OuterLoop, Tuple[np.ndarray, np.ndarray]] = {}
    for layout in groups:
        if node is not None and layout.home != node:
            continue
        if not ranges_match(ranges, layout.hulls):
            continue
        part = enumerate_group(layout, ranges, axes)
        if summaries is not None and relevant and len(part):
            part = part.take(summary_mask(part, ranges, summaries, relevant))
        parts.append(part)
    return AfcTable(parts)
