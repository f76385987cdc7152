"""The two-step data-extraction analysis of the paper (Figure 5).

``find_file_groups`` implements *Find_File_Groups*: files are matched
against the query's per-attribute ranges via their implicit attributes,
classified by leaf dataset (equivalently, by the set of attributes they
store), and combined across leaves with a consistency check on shared
implicit attributes.

``compute_alignment`` and ``enumerate_afcs`` implement
*Process_File_Groups*: for every surviving file group, determine the
aligned chunk geometry (which loop variables vary within a chunk and which
enumerate chunks), then walk the chunk space — pruning with implicit
attribute values and, when available, persisted chunk summaries — and emit
:class:`~repro.core.afc.AlignedFileChunkSet` objects.

The alignment is *static*: it depends only on the descriptor (DESIGN.md
decision 3), so the code generator can bake it in and the paper's
"no expensive runtime processing per query" property holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set,
    Tuple,
)

from ..errors import PlanningError
from ..sql.ranges import Interval, IntervalSet, RangeMap
from .afc import AlignedFileChunkSet, ChunkRef, InnerVar
from .strips import LoopDim, PhysicalFile, Strip

if TYPE_CHECKING:
    from ..index.summaries import MinMaxSummaries


# ---------------------------------------------------------------------------
# Step 1: Find_File_Groups
# ---------------------------------------------------------------------------


def match_file(file: PhysicalFile, ranges: RangeMap) -> bool:
    """Whether a file can contain rows satisfying the query ranges.

    A file is excluded when any constrained attribute's implicit interval
    (binding constant or loop hull) misses the query's interval set —
    the paper's example excludes DATA2/DATA3 for ``REL in (0, 1)``.
    """
    if not ranges:
        return True
    implicit = file.implicit_intervals()
    for name, allowed in ranges.items():
        interval = implicit.get(name)
        if interval is not None and not allowed.overlaps_interval(interval):
            return False
    return True


def classify_files(
    files: Sequence[PhysicalFile], leaf_order: Sequence[str]
) -> List[List[PhysicalFile]]:
    """Partition files by leaf dataset, in layout order (the sets S_1..S_m)."""
    by_leaf: Dict[str, List[PhysicalFile]] = {name: [] for name in leaf_order}
    for file in files:
        by_leaf[file.leaf_name].append(file)
    return [by_leaf[name] for name in leaf_order]


def consistent_group(
    files: Sequence[PhysicalFile],
) -> Optional[Dict[str, int]]:
    """Check implicit-attribute consistency of a candidate file group.

    Returns the merged binding environment when the group is consistent,
    else ``None``.  Rules:

    * a binding variable shared by two files must have equal values;
    * a loop variable shared by two files must iterate with identical
      geometry (start, stop, step) — COORDS on DIR[0] cannot pair with
      DATA0 on DIR[1] because their GRID ranges differ;
    * a variable that is a binding constant in one file and a loop in
      another is consistent when the constant lies inside the loop range
      (the constant then pins that chunk variable during enumeration).
    """
    env: Dict[str, int] = {}
    geometry: Dict[str, Tuple[int, int, int]] = {}
    for file in files:
        for name, value in file.env.items():
            if name in env and env[name] != value:
                return None
            env[name] = value
        for name, geo in file.loop_geometry().items():
            if name in geometry and geometry[name] != geo:
                return None
            geometry[name] = geo
    for name, value in env.items():
        geo = geometry.get(name)
        if geo is not None:
            start, stop, step = geo
            if not (start <= value <= stop and (value - start) % step == 0):
                return None
    return env


def find_file_groups(
    files: Sequence[PhysicalFile],
    leaf_order: Sequence[str],
    ranges: RangeMap,
) -> List[Tuple[Tuple[PhysicalFile, ...], Dict[str, int]]]:
    """Find the set T of consistent file groups matching the query.

    Returns ``(group, merged_env)`` pairs; each group has exactly one file
    per leaf, in ``leaf_order``.
    """
    surviving = [f for f in files if match_file(f, ranges)]
    classes = classify_files(surviving, leaf_order)
    for leaf_name, cls in zip(leaf_order, classes):
        if not cls:
            return []  # one leaf fully pruned -> no rows at all
    groups = []
    for combo in product(*classes):
        env = consistent_group(combo)
        if env is not None:
            groups.append((tuple(combo), env))
    return groups


# ---------------------------------------------------------------------------
# Step 2: alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alignment:
    """The static chunk geometry of a file group shape.

    ``inner`` is the common suffix of loop dimensions that varies *within*
    a chunk (the paper's aligned-chunk extent); every strip of the group
    carries exactly these dims innermost, densely.  ``num_rows`` is the
    product of their counts.
    """

    inner: Tuple[Tuple[str, int, int, int], ...]  # (var, start, stop, step)

    @property
    def inner_vars(self) -> Tuple[str, ...]:
        return tuple(g[0] for g in self.inner)

    @property
    def num_rows(self) -> int:
        n = 1
        for _, start, stop, step in self.inner:
            n *= (stop - start) // step + 1
        return n

    def make_inner_vars(self) -> Tuple[InnerVar, ...]:
        """Row-major tile/repeat pattern for each inner variable."""
        out: List[InnerVar] = []
        repeat = 1
        for var, start, stop, step in reversed(self.inner):
            count = (stop - start) // step + 1
            out.append(InnerVar(var, start, step, count, repeat))
            repeat *= count
        out.reverse()
        return tuple(out)


def compute_alignment(
    strips: Sequence[Strip],
    index_attrs: Iterable[str],
    stored_index_leaves: Iterable[str] = (),
) -> Alignment:
    """Maximal common dense loop suffix usable as the aligned chunk extent.

    Constraints:

    * the suffix must be a *dense* suffix of every strip (records
      contiguous in file order);
    * the dimension geometries must be identical across strips;
    * variables named in DATAINDEX stay *outside* the suffix so the
      indexing service can prune at chunk granularity (a declared index
      is what buys sub-file pruning — without one, a dense file is one
      big chunk and every query scans it);
    * strips of leaves with a stored-attribute index keep at least one
      dimension outside the suffix (the chunking dimension the paper's
      Titan dataset partitions on).
    """
    if not strips:
        raise PlanningError("cannot align an empty strip set")
    index_set = set(index_attrs)
    stored_leaves = set(stored_index_leaves)
    limits: List[int] = []
    for strip in strips:
        limit = strip.dense_suffix_length()
        if strip.leaf_name in stored_leaves:
            limit = min(limit, max(len(strip.dims) - 1, 0))
        limits.append(limit)

    max_len = min(
        (min(limit, len(s.dims)) for limit, s in zip(limits, strips)),
        default=0,
    )
    length = 0
    while length < max_len:
        geo = strips[0].dims[len(strips[0].dims) - 1 - length].geometry()
        if geo[0] in index_set:
            break
        if any(
            s.dims[len(s.dims) - 1 - length].geometry() != geo for s in strips[1:]
        ):
            break
        length += 1
    if length == 0:
        return Alignment(())
    inner = tuple(
        strips[0].dims[len(strips[0].dims) - length + i].geometry()
        for i in range(length)
    )
    return Alignment(inner)


# ---------------------------------------------------------------------------
# Step 2: chunk enumeration
# ---------------------------------------------------------------------------


def enumerate_afcs(
    group: Sequence[PhysicalFile],
    env: Dict[str, int],
    alignment: Alignment,
    row_var_order: Sequence[str],
    ranges: RangeMap,
    summaries: Optional[MinMaxSummaries] = None,
    summary_attrs: Iterable[str] = (),
) -> List[AlignedFileChunkSet]:
    """Enumerate the aligned file chunk sets of one file group.

    Chunk (outer) variables are every loop variable of the group that is
    not in the alignment's inner suffix; they are enumerated in the
    dataset's canonical row-variable order, pruned against the query
    ranges (and pinned by binding constants where applicable).
    """
    inner_vars = set(alignment.inner_vars)
    # Collect outer variables with their geometry, ordered canonically.
    geometry: Dict[str, Tuple[int, int, int]] = {}
    for file in group:
        for strip in file.strips:
            for dim in strip.dims:
                if dim.var not in inner_vars:
                    geometry.setdefault(dim.var, (dim.start, dim.stop, dim.step))
    outer = [v for v in row_var_order if v in geometry]
    stray = [v for v in geometry if v not in outer]
    outer.extend(sorted(stray))

    # Allowed values per outer variable, after range pruning / env pinning.
    axes: List[Tuple[str, List[int]]] = []
    for var in outer:
        start, stop, step = geometry[var]
        values = list(range(start, stop + 1, step))
        if var in env:
            values = [v for v in values if v == env[var]]
        allowed = ranges.get(var)
        if allowed is not None:
            values = [v for v in values if allowed.contains(v)]
        if not values:
            return []
        axes.append((var, values))

    base_inner = alignment.make_inner_vars()
    num_rows = alignment.num_rows
    summary_attrs = [a for a in summary_attrs if a in ranges]

    # Per-strip per-outer-var byte strides, resolved once.
    strip_layouts: List[Tuple[PhysicalFile, Strip, Dict[str, Tuple[int, int, int]]]]
    strip_layouts = []
    for file in group:
        for strip in file.strips:
            strides = {
                dim.var: (dim.start, dim.step, dim.byte_stride)
                for dim in strip.dims
                if dim.var not in inner_vars
            }
            strip_layouts.append((file, strip, strides))

    env_constants = tuple(sorted(env.items()))
    afcs: List[AlignedFileChunkSet] = []
    axis_names = [a[0] for a in axes]
    axis_values = [a[1] for a in axes]
    for combo in product(*axis_values) if axes else [()]:
        sigma = dict(zip(axis_names, combo))
        chunks: List[ChunkRef] = []
        for file, strip, strides in strip_layouts:
            offset = strip.base_offset
            for var, (start, step, stride) in strides.items():
                offset += ((sigma[var] - start) // step) * stride
            chunks.append(
                ChunkRef(
                    node=file.node,
                    path=file.relpath,
                    offset=offset,
                    bytes_per_row=strip.record_size,
                    strip=strip,
                )
            )
        constants = env_constants + tuple(
            (name, value) for name, value in sigma.items() if name not in env
        )
        afc = AlignedFileChunkSet(
            num_rows=num_rows,
            chunks=tuple(chunks),
            constants=constants,
            inner_vars=base_inner,
        )
        if _pruned_by_inner_bounds(afc, ranges):
            continue
        if summaries is not None and summary_attrs:
            if _pruned_by_summaries(afc, ranges, summaries, summary_attrs):
                continue
        afcs.append(afc)
    return afcs


def _pruned_by_inner_bounds(afc: AlignedFileChunkSet, ranges: RangeMap) -> bool:
    """Prune via implicit hull bounds of inner variables.

    Outer variables were already pruned value-by-value; inner variables can
    only be pruned when the whole chunk misses the query range.
    """
    for iv in afc.inner_vars:
        allowed = ranges.get(iv.name)
        if allowed is None:
            continue
        lo, hi = iv.interval
        if not allowed.overlaps_interval(Interval(lo, hi)):
            return True
    return False


def _pruned_by_summaries(
    afc: AlignedFileChunkSet,
    ranges: RangeMap,
    summaries: MinMaxSummaries,
    summary_attrs: Sequence[str],
) -> bool:
    """Prune via persisted per-chunk min/max of stored indexed attributes."""
    for chunk in afc.chunks:
        relevant = [a for a in summary_attrs if a in chunk.strip.attrs]
        if relevant and chunk_pruned(
            summaries.bounds(chunk.key), relevant, ranges
        ):
            return True
    return False


def chunk_pruned(
    bounds: Optional[Mapping[str, Tuple[Any, Any]]],
    attrs: Sequence[str],
    ranges: RangeMap,
) -> bool:
    """Whether one chunk's summary ``bounds`` (None: unknown) rule it out
    on any of ``attrs``: the reference the generated index's row mask
    (:func:`~repro.core.codegen_runtime.summary_mask`) is tested against.
    The bounds are scalars of the field's dtype, so the interval algebra
    compares them with the range ends as the compiled kernel compares
    the column with its literals; a NaN bound never rules a chunk out."""
    if bounds is None:
        return False
    for attr in attrs:
        if attr not in bounds:
            continue
        lo, hi = bounds[attr]
        if not ranges[attr].overlaps_interval(Interval(lo, hi)):
            return True
    return False
