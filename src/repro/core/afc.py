"""Aligned file chunks — the paper's central runtime data structure.

Section 4 of the paper defines an aligned file chunk set as::

    {num_rows, {File_1, Offset_1, Num_Bytes_1}, ...,
               {File_m, Offset_m, Num_Bytes_m}}

``num_rows`` rows of the virtual table are produced by reading, for each
member chunk ``i``, ``num_rows * Num_Bytes_i`` bytes starting at
``Offset_i`` and zipping the resulting record streams.  We generalise
"file" to "strip" (see DESIGN.md decision 1) so that layouts storing each
variable as an array contribute one chunk per variable from the *same*
file; for the paper's example layouts the two notions coincide.

In addition to the byte geometry, our AFCs carry the information needed to
materialise *implicit attributes* as row values: constants (from binding
variables and chunk variables) and inner loop variables that vary within
the chunk in a known repeat/tile pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .strips import Strip

if TYPE_CHECKING:  # pragma: no cover - avoid import at module load
    from ..sql.ast import Query
    from .aggregate import AggregateSpec


@dataclass(frozen=True)
class ChunkRef:
    """One member chunk of an AFC: a contiguous slice of one strip."""

    node: str
    path: str  # dataset-relative path (resolved against a mount at read time)
    offset: int
    bytes_per_row: int  # the paper's Num_Bytes_i
    strip: Strip

    @property
    def key(self) -> Tuple[str, str, int]:
        """Stable identity used by persistent chunk summaries."""
        return (self.node, self.path, self.offset)

    def total_bytes(self, num_rows: int) -> int:
        return num_rows * self.bytes_per_row

    def __str__(self) -> str:
        return f"{{{self.path}, {self.offset}, {self.bytes_per_row}}}"


@dataclass(frozen=True)
class InnerVar:
    """A loop variable that varies *within* a chunk.

    Row ``r`` (0-based) of the chunk has value::

        start + step * ((r // repeat) % count)

    i.e. values repeat in blocks of ``repeat`` rows and cycle every
    ``repeat * count`` rows — the standard row-major tile/repeat pattern.
    """

    name: str
    start: int
    step: int
    count: int
    repeat: int

    def materialise(self, num_rows: int) -> np.ndarray:
        ordinals = (np.arange(num_rows) // self.repeat) % self.count
        return self.start + self.step * ordinals

    @property
    def interval(self) -> Tuple[int, int]:
        return (self.start, self.start + self.step * (self.count - 1))


@dataclass(frozen=True)
class AlignedFileChunkSet:
    """One aligned file chunk set (an "AFC" in the paper's terminology)."""

    num_rows: int
    chunks: Tuple[ChunkRef, ...]
    constants: Tuple[Tuple[str, int], ...] = ()
    inner_vars: Tuple[InnerVar, ...] = ()

    @property
    def constant_map(self) -> Dict[str, int]:
        return dict(self.constants)

    def implicit_columns(
        self,
        needed: Sequence[str],
        dtypes: Optional[Dict[str, np.dtype]] = None,
    ) -> Dict[str, np.ndarray]:
        """Materialise requested implicit attributes as full columns.

        Values are integers; ``dtypes`` narrows a column to its
        schema-declared type so results match stored layouts.
        """
        out: Dict[str, np.ndarray] = {}
        constants = self.constant_map
        inner = {iv.name: iv for iv in self.inner_vars}
        for name in needed:
            want = dtypes.get(name) if dtypes else None
            if name in constants:
                try:
                    out[name] = np.full(self.num_rows, constants[name], want)
                except OverflowError:
                    # A too-narrow declared type (lint RV124) wraps, as
                    # the int64 -> ``want`` cast always has.
                    out[name] = np.full(
                        self.num_rows, constants[name]
                    ).astype(want)
            elif name in inner:
                col = inner[name].materialise(self.num_rows)
                out[name] = col if want is None else col.astype(want, copy=False)
        return out

    def implicit_bounds(self) -> Dict[str, Tuple[int, int]]:
        """(min, max) of every implicit attribute of this AFC."""
        out = {name: (v, v) for name, v in self.constants}
        for iv in self.inner_vars:
            out[iv.name] = iv.interval
        return out

    def total_bytes(self) -> int:
        return sum(c.total_bytes(self.num_rows) for c in self.chunks)

    def __str__(self) -> str:
        members = ", ".join(str(c) for c in self.chunks)
        return f"{{num_rows={self.num_rows}, {members}}}"


def split_afc(
    afc: AlignedFileChunkSet, max_rows: int
) -> List[AlignedFileChunkSet]:
    """Split an AFC into sub-chunks of at most ``max_rows`` rows.

    Splitting happens along the outermost inner variable: each of its
    value segments maps to a contiguous run of records in every member
    chunk, so sub-chunk offsets advance by ``rows * bytes_per_row`` and
    correctness is unaffected.  When a single outer value still exceeds
    the cap, that value is pinned as a constant and the next inner
    variable is split recursively.

    Use cases: bounding extraction buffer sizes, finer-grained chunk
    summaries, and overlapping I/O with filtering in streaming clients.
    """
    if max_rows < 1:
        raise ValueError("max_rows must be positive")
    if afc.num_rows <= max_rows or not afc.inner_vars:
        return [afc]

    outer = afc.inner_vars[0]
    rest = afc.inner_vars[1:]

    if outer.repeat > max_rows:
        # Even one outer value is too big: pin each value, recurse inward.
        out: List[AlignedFileChunkSet] = []
        for ordinal in range(outer.count):
            value = outer.start + outer.step * ordinal
            sub = AlignedFileChunkSet(
                num_rows=outer.repeat,
                chunks=tuple(
                    ChunkRef(
                        c.node,
                        c.path,
                        c.offset + ordinal * outer.repeat * c.bytes_per_row,
                        c.bytes_per_row,
                        c.strip,
                    )
                    for c in afc.chunks
                ),
                constants=afc.constants + ((outer.name, value),),
                inner_vars=rest,
            )
            out.extend(split_afc(sub, max_rows))
        return out

    values_per_piece = max(1, max_rows // outer.repeat)
    out = []
    for first in range(0, outer.count, values_per_piece):
        count = min(values_per_piece, outer.count - first)
        rows = count * outer.repeat
        piece_outer = InnerVar(
            outer.name,
            outer.start + outer.step * first,
            outer.step,
            count,
            outer.repeat,
        )
        out.append(
            AlignedFileChunkSet(
                num_rows=rows,
                chunks=tuple(
                    ChunkRef(
                        c.node,
                        c.path,
                        c.offset + first * outer.repeat * c.bytes_per_row,
                        c.bytes_per_row,
                        c.strip,
                    )
                    for c in afc.chunks
                ),
                constants=afc.constants,
                inner_vars=(piece_outer,) + rest,
            )
        )
    return out


def home_node(afc: AlignedFileChunkSet) -> str:
    """The node that processes ``afc``: the one hosting its first chunk.

    STORM processes data where it lives; chunks of the same AFC on other
    nodes are remote reads (rare — groups normally live on one node).
    The coordinator's fan-out and a node server's own index function
    must agree on this rule, so it has exactly one definition.
    """
    return afc.chunks[0].node if afc.chunks else "local"


def group_by_home_node(
    afcs: Sequence[AlignedFileChunkSet],
) -> Dict[str, List[AlignedFileChunkSet]]:
    """``afcs`` grouped by :func:`home_node`, plan order kept per node."""
    by_node: Dict[str, List[AlignedFileChunkSet]] = {}
    for afc in afcs:
        by_node.setdefault(home_node(afc), []).append(afc)
    return by_node


def split_afcs(
    afcs: List[AlignedFileChunkSet], chunk_row_cap: Optional[int]
) -> List[AlignedFileChunkSet]:
    """Every AFC split to at most ``chunk_row_cap`` rows (None: as is)."""
    if chunk_row_cap is None:
        return afcs
    return [
        piece for afc in afcs for piece in split_afc(afc, chunk_row_cap)
    ]


@dataclass
class ExtractionPlan:
    """Everything the extractor needs to answer one query.

    For aggregate queries ``output`` lists the *base row* columns (group
    keys plus aggregate arguments) and ``aggregate`` carries the
    reduction to fold them through; data-source services then return
    partial state frames instead of rows (see :mod:`repro.core.aggregate`).

    ``query`` and ``chunk_row_cap`` are the plan's provenance: what
    ``dataset.plan()`` enumerated ``afcs`` from.  A node server holding
    the same descriptor re-derives its share of ``afcs`` from them, so
    the ``tcp://`` transport ships these instead of the AFC list;
    ``dataclasses.replace`` variants of a plan keep them.
    """

    afcs: List[AlignedFileChunkSet]
    needed: List[str]  # columns to materialise (projection + WHERE refs)
    output: List[str]  # final projection, in SELECT order
    where: Optional[object] = None  # residual predicate AST (applied to all rows)
    dtypes: Dict[str, np.dtype] = field(default_factory=dict)
    aggregate: Optional["AggregateSpec"] = None
    query: Optional["Query"] = None  # the rewritten query ``afcs`` came from
    chunk_row_cap: Optional[int] = None

    @property
    def planned_rows(self) -> int:
        return sum(a.num_rows for a in self.afcs)

    @property
    def planned_bytes(self) -> int:
        """Bytes the extractor will actually read: chunks storing no
        needed attribute are skipped (projection pushdown)."""
        needed = set(self.needed)
        total = 0
        for afc in self.afcs:
            for chunk in afc.chunks:
                if needed.intersection(chunk.strip.attrs):
                    total += chunk.total_bytes(afc.num_rows)
        return total
