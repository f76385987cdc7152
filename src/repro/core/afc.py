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

An AFC *set* is a table, not a list of objects: every AFC of one file
group shares its member files, strips, binding constants and inner
variables, and differs only in a few numbers.  :class:`AfcTable` stores
exactly that — one :class:`GroupLayout` record per group beside numpy
columns of the per-row numbers (chunk-loop values, member offsets, first
row, row count) — and is a ``Sequence`` whose items are
:class:`AlignedFileChunkSet` objects built on demand, for the consumers
that want one AFC at a time (``explain``, the hand-written baselines,
the interpreted oracle, plan encoding).  Planning, fan-out, coalescing,
extraction and costing read the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, groupby
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np

from .strips import Strip

if TYPE_CHECKING:  # pragma: no cover - avoid import at module load
    from ..sql.ast import Query
    from ..sql.ranges import RangeMap
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

    def materialise(self, num_rows: int, first: int = 0) -> np.ndarray:
        """Values of rows ``first .. first + num_rows - 1``."""
        rows = np.arange(first, first + num_rows)
        return self.start + self.step * ((rows // self.repeat) % self.count)

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
                out[name] = constant_column(self.num_rows, constants[name], want)
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


def constant_column(num_rows: int, value: int, want: Any = None) -> np.ndarray:
    """``num_rows`` copies of an implicit constant, in the declared type."""
    try:
        return np.full(num_rows, value, want)
    except OverflowError:
        # A too-narrow declared type (lint RV124) wraps, as the
        # int64 -> ``want`` cast always has.
        return np.full(num_rows, value).astype(want)


def home_node(afc: AlignedFileChunkSet) -> str:
    """The node that processes ``afc``: the one hosting its first chunk.

    STORM processes data where it lives; chunks of the same AFC on other
    nodes are remote reads (rare — groups normally live on one node).
    The coordinator's fan-out and a node server's own index function
    must agree on this rule, so it has exactly one definition
    (:attr:`GroupLayout.home` is the same rule for a whole group).
    """
    return afc.chunks[0].node if afc.chunks else "local"


def group_by_home_node(
    afcs: Sequence[AlignedFileChunkSet],
) -> Dict[str, "AfcTable"]:
    """``afcs`` grouped by :func:`home_node` — for a table, by each
    group's :attr:`GroupLayout.home` — plan order kept per node."""
    by_node: Dict[str, List[GroupTable]] = {}
    for part in AfcTable.of(afcs).parts:
        by_node.setdefault(part.layout.home, []).append(part)
    return {node: AfcTable(parts) for node, parts in by_node.items()}


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


class Member(NamedTuple):
    """One member chunk of every AFC of a group: a strip of one file.

    ``base`` and ``strides`` give the chunk's byte offset for the group's
    chunk-loop ordinals ``k``: ``base + sum(k_j * strides[j])``.
    """

    node: str
    path: str
    strip: Strip
    bytes_per_row: int
    base: int = 0
    strides: Tuple[int, ...] = ()


#: A chunk loop of a group: ``(var, start, stop, step, pin)`` — ``pin`` is
#: the binding constant that restricts it to one value, or None.
OuterLoop = Tuple[str, int, int, int, Optional[int]]


class GroupLayout:
    """One file group's shared layout record.

    What every AFC of the group has in common: its member chunks, the
    binding constants (``env``), the alignment's inner variables and
    ``num_rows``; for a generated index also the chunk loops (``outer``)
    the AFCs are enumerated over and the group's implicit-attribute
    hulls.  ``const_names`` name the per-row constant columns of a
    :class:`GroupTable` — the chunk loops ``env`` does not pin.
    ``record_fields`` are the attributes of its members' record strips
    (more than one attribute: the chunks an extractor caches decoded).
    """

    __slots__ = (
        "members", "env", "inner_vars", "num_rows", "outer", "hulls",
        "const_names", "home", "bytes_per_row", "base", "strides", "varying",
        "record_fields",
    )

    def __init__(
        self,
        members: Sequence[Member],
        env: Sequence[Tuple[str, int]] = (),
        inner_vars: Sequence[InnerVar] = (),
        num_rows: int = 1,
        outer: Sequence[OuterLoop] = (),
        hulls: Sequence[Tuple[str, int, int]] = (),
        const_names: Optional[Sequence[str]] = None,
    ):
        self.members = tuple(members)
        self.env = tuple(env)
        self.inner_vars = tuple(inner_vars)
        self.num_rows = num_rows
        self.outer = tuple(outer)
        self.hulls = tuple(hulls)
        if const_names is None:
            pinned = {name for name, _ in self.env}
            const_names = [o[0] for o in self.outer if o[0] not in pinned]
        self.const_names = tuple(const_names)
        self.home = self.members[0].node if self.members else "local"
        self.record_fields = frozenset(
            a for m in self.members if len(m.strip.attrs) > 1 for a in m.strip.attrs
        )
        self.bytes_per_row = np.array(
            [m.bytes_per_row for m in self.members], dtype=np.int64
        )
        # The chunk-loop arithmetic in array form: member offsets are
        # ``base + ordinals @ strides``.
        self.base = np.array([m.base for m in self.members], dtype=np.int64)
        self.strides = np.array(
            [m.strides for m in self.members], dtype=np.int64
        ).reshape(len(self.members), len(self.outer)).T
        varying = [
            j for j, loop in enumerate(self.outer) if loop[0] in self.const_names
        ]
        #: Which chunk loops' values are constant columns (a slice when all).
        self.varying: Union[slice, List[int]] = (
            slice(None) if len(varying) == len(self.outer) else varying
        )

    def __repr__(self) -> str:
        files = ", ".join(m.path for m in self.members)
        return f"<GroupLayout home={self.home} [{files}] env={dict(self.env)}>"


def _int_matrix(rows: List[list], width: int) -> np.ndarray:
    if not width:
        return np.empty((len(rows), 0), dtype=np.int64)
    return np.array(rows)


class GroupTable:
    """The AFCs of one :class:`GroupLayout`, as columns.

    ``values`` (rows x ``layout.const_names``) holds each AFC's chunk-loop
    values, ``offsets`` (rows x members) each member chunk's byte offset,
    ``first``/``rows`` the AFC's row span within the group's natural
    ``num_rows`` (``0``/``num_rows`` unless ``chunk_row_cap`` split it).
    Nothing writes a column once the table exists: the plan cache shares
    plans between queries.
    """

    __slots__ = ("layout", "values", "offsets", "first", "rows", "_lists")

    def __init__(
        self,
        layout: GroupLayout,
        values: np.ndarray,
        offsets: np.ndarray,
        first: np.ndarray,
        rows: np.ndarray,
    ):
        self.layout = layout
        self.values = values
        self.offsets = offsets
        self.first = first
        self.rows = rows
        self._lists: Optional[Tuple[list, list, list, list]] = None

    def __len__(self) -> int:
        return len(self.rows)

    def lists(self) -> Tuple[list, list, list, list]:
        """``(values, offsets, first, rows)`` as Python lists, for the
        consumers that walk rows one at a time (built once)."""
        if self._lists is None:
            self._lists = (
                self.values.tolist(), self.offsets.tolist(),
                self.first.tolist(), self.rows.tolist(),
            )
        return self._lists

    def take(self, index: Any) -> "GroupTable":
        """The rows selected by a slice, mask or index array."""
        return GroupTable(
            self.layout, self.values[index], self.offsets[index],
            self.first[index], self.rows[index],
        )

    def afc(self, i: int) -> AlignedFileChunkSet:
        """Row ``i`` as the object the paper's notation describes."""
        layout = self.layout
        values, offsets, first, rows = self.lists()
        num_rows, start = rows[i], first[i]
        constants = layout.env + tuple(zip(layout.const_names, values[i]))
        inner = layout.inner_vars
        if start or num_rows != layout.num_rows:
            pinned, inner = _piece_vars(inner, start, num_rows)
            constants += pinned
        return AlignedFileChunkSet(
            num_rows=num_rows,
            chunks=tuple(
                ChunkRef(m.node, m.path, offset, m.bytes_per_row, m.strip)
                for m, offset in zip(layout.members, offsets[i])
            ),
            constants=constants,
            inner_vars=inner,
        )

    def split(self, cap: int) -> "GroupTable":
        """Every row split to at most ``cap`` rows (see :meth:`AfcTable.split`)."""
        inner = self.layout.inner_vars
        if not inner or int(self.rows.max()) <= cap:
            return self
        _, _, first, rows = self.lists()
        cut: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        pieces = []
        for span in zip(first, rows):
            if span not in cut:
                cut[span] = _split_span(inner, span[0], span[1], cap)
            pieces.append(cut[span])
        # Each row repeated once per piece; the pieces' spans beside them.
        source = np.repeat(np.arange(len(self)), [len(p) for p in pieces])
        spans = np.array([piece for p in pieces for piece in p], dtype=np.int64)
        shift = spans[:, 0] - self.first[source]
        return GroupTable(
            self.layout,
            self.values[source],
            self.offsets[source] + shift[:, None] * self.layout.bytes_per_row,
            spans[:, 0],
            spans[:, 1],
        )

    def implicit_bounds(self, name: str) -> Optional[Tuple[int, int]]:
        """(min, max) of implicit attribute ``name`` over every row, or
        None when it is not implicit here.

        The hull of exactly the values extraction materialises, with the
        same precedence (binding constant, then chunk-loop column, then
        inner variable), before any narrowing to the declared dtype.  The
        planner decides WHERE conjuncts with it on every query, so
        constants and chunk-loop columns stay plain Python.
        """
        layout = self.layout
        for env_name, value in layout.env:
            if env_name == name:
                return value, value
        if name in layout.const_names:
            column = self.values[:, layout.const_names.index(name)].tolist()
            return min(column), max(column)
        for iv in layout.inner_vars:
            if iv.name == name:
                last = self.first + self.rows - 1
                whole = (self.rows >= iv.repeat * iv.count) | (
                    (self.first == 0) & (self.rows == layout.num_rows)
                )
                lo = np.where(whole, 0, (self.first // iv.repeat) % iv.count)
                hi = np.where(
                    whole, iv.count - 1, (last // iv.repeat) % iv.count
                )
                ends = (
                    iv.start + iv.step * int(lo.min()),
                    iv.start + iv.step * int(hi.max()),
                )
                return min(ends), max(ends)
        return None


def _first_varying(inner: Tuple[InnerVar, ...], num_rows: int) -> int:
    """Index of the outermost inner variable that varies within a span of
    ``num_rows`` rows; the ones before it were pinned by a split."""
    level = 0
    while level < len(inner) and inner[level].repeat > num_rows:
        level += 1
    return level


def _piece_vars(
    inner: Tuple[InnerVar, ...], first: int, num_rows: int
) -> Tuple[Tuple[Tuple[str, int], ...], Tuple[InnerVar, ...]]:
    """The constants and inner variables of rows ``first ..`` of a split
    AFC, exactly as :meth:`AfcTable.split` cut it: the inner variables
    whose value blocks are larger than the piece are pinned (constants,
    outermost first), the next one is narrowed to the piece's values and
    the rest stay whole."""
    level = _first_varying(inner, num_rows)

    def value(iv: InnerVar) -> int:
        return iv.start + iv.step * ((first // iv.repeat) % iv.count)

    pinned = tuple((iv.name, value(iv)) for iv in inner[:level])
    if level == len(inner):
        return pinned, ()
    iv = inner[level]
    narrowed = InnerVar(
        iv.name, value(iv), iv.step, num_rows // iv.repeat, iv.repeat
    )
    return pinned, (narrowed,) + inner[level + 1:]


def _split_span(
    inner: Tuple[InnerVar, ...],
    first: int,
    num_rows: int,
    cap: int,
    level: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """``(first, num_rows)`` pieces of at most ``cap`` rows.

    Splitting happens along the outermost inner variable still varying
    in the span (``level``, by default :func:`_first_varying`): each of
    its value segments is a contiguous run of records in every member
    chunk.  When a single value still exceeds the cap, each value is
    pinned and the next inner variable is split.
    """
    if level is None:
        level = _first_varying(inner, num_rows)
    if num_rows <= cap or level == len(inner):
        return [(first, num_rows)]
    repeat = inner[level].repeat
    count = num_rows // repeat
    if repeat > cap:
        return [
            piece
            for ordinal in range(count)
            for piece in _split_span(
                inner, first + ordinal * repeat, repeat, cap, level + 1
            )
        ]
    step = max(1, cap // repeat)
    return [
        (first + lo * repeat, min(step, count - lo) * repeat)
        for lo in range(0, count, step)
    ]


class AfcTable(Sequence[AlignedFileChunkSet]):
    """A plan's aligned file chunk sets, one :class:`GroupTable` per
    file group, concatenated in plan order.

    Indexing and iteration yield :class:`AlignedFileChunkSet` objects
    equal to the ones the paper's notation describes (built on demand);
    slicing yields a table.  The execution path reads the columns of
    its ``parts``: the extractor's runs of rows, the fan-out
    (:func:`group_by_home_node`), coalescing and costing.
    """

    __slots__ = ("parts", "_ends", "__weakref__")

    def __init__(self, parts: Iterable[GroupTable] = ()):
        self.parts: Tuple[GroupTable, ...] = tuple(p for p in parts if len(p))
        self._ends = list(accumulate(len(p) for p in self.parts))

    @classmethod
    def of(
        cls, afcs: Union["AfcTable", Iterable[AlignedFileChunkSet]]
    ) -> "AfcTable":
        """``afcs`` as a table: a table as is, any other AFC sequence
        with one part per run of same-shaped AFCs."""
        if isinstance(afcs, AfcTable):
            return afcs
        parts: List[GroupTable] = []
        run: List[AlignedFileChunkSet] = []
        shape: Any = None
        for afc in afcs:
            key = (
                afc.num_rows,
                tuple(
                    (c.node, c.path, c.bytes_per_row, id(c.strip))
                    for c in afc.chunks
                ),
                tuple(name for name, _ in afc.constants),
                afc.inner_vars,
            )
            if key != shape and run:
                parts.append(_part_of(run))
                run = []
            shape = key
            run.append(afc)
        if run:
            parts.append(_part_of(run))
        return cls(parts)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    @overload
    def __getitem__(self, index: int) -> AlignedFileChunkSet: ...

    @overload
    def __getitem__(self, index: slice) -> "AfcTable": ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[AlignedFileChunkSet, "AfcTable"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                # Each run of picked rows within one part is one take.
                picked = range(start, stop, step)
                which = np.searchsorted(self._ends, picked, side="right")
                firsts = [0, *self._ends]
                return AfcTable(
                    self.parts[p].take([i - firsts[p] for _, i in run])
                    for p, run in groupby(
                        zip(which.tolist(), picked), key=itemgetter(0)
                    )
                )
            parts = []
            lo = 0
            for part, hi in zip(self.parts, self._ends):
                a, b = max(start, lo) - lo, min(stop, hi) - lo
                if a < b:
                    parts.append(part if b - a == len(part) else part.take(slice(a, b)))
                lo = hi
            return AfcTable(parts)
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("AFC index out of range")
        lo = 0
        for part, hi in zip(self.parts, self._ends):
            if index < hi:
                return part.afc(index - lo)
            lo = hi
        raise AssertionError("unreachable")  # pragma: no cover

    def __iter__(self) -> Iterator[AlignedFileChunkSet]:
        for part in self.parts:
            for i in range(len(part)):
                yield part.afc(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (AfcTable, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<AfcTable {len(self)} AFC(s) in {len(self.parts)} part(s)>"

    @property
    def total_rows(self) -> int:
        return sum(int(part.rows.sum()) for part in self.parts)

    def needed_bytes(self, needed: Iterable[str]) -> int:
        """Bytes of the member chunks storing a ``needed`` attribute."""
        wanted = set(needed)
        total = 0
        for part in self.parts:
            width = sum(
                m.bytes_per_row
                for m in part.layout.members
                if wanted.intersection(m.strip.attrs)
            )
            total += width * int(part.rows.sum())
        return total

    def split(self, cap: Optional[int]) -> "AfcTable":
        """Every AFC split into pieces of at most ``cap`` rows (None: as is).

        Splitting happens along the outermost inner variable: each of its
        value segments maps to a contiguous run of records in every
        member chunk, so piece offsets advance by ``rows * bytes_per_row``
        and correctness is unaffected.  When a single outer value still
        exceeds the cap, that value is pinned as a constant and the next
        inner variable is split.  Uses: bounding extraction buffers,
        finer-grained chunk summaries, overlapping I/O with filtering in
        streaming clients.
        """
        if cap is None:
            return self
        if cap < 1:
            raise ValueError("max_rows must be positive")
        return AfcTable(part.split(cap) for part in self.parts)


def _part_of(run: List[AlignedFileChunkSet]) -> GroupTable:
    """One part holding a run of same-shaped AFC objects."""
    head = run[0]
    layout = GroupLayout(
        [
            Member(c.node, c.path, c.strip, c.bytes_per_row)
            for c in head.chunks
        ],
        inner_vars=head.inner_vars,
        num_rows=head.num_rows,
        const_names=[name for name, _ in head.constants],
    )
    n = len(run)
    return GroupTable(
        layout,
        _int_matrix([[v for _, v in a.constants] for a in run],
                    len(head.constants)),
        _int_matrix([[c.offset for c in a.chunks] for a in run],
                    len(head.chunks)),
        np.zeros(n, dtype=np.int64),
        np.full(n, head.num_rows, dtype=np.int64),
    )


@dataclass
class ExtractionPlan:
    """Everything the extractor needs to answer one query.

    ``afcs`` is an :class:`AfcTable`; any other AFC sequence passed in is
    converted (:meth:`AfcTable.of`).

    For aggregate queries ``output`` lists the *base row* columns (group
    keys plus aggregate arguments) and ``aggregate`` carries the
    reduction to fold them through; data-source services then return
    partial state frames instead of rows (see :mod:`repro.core.aggregate`).

    ``query`` and ``chunk_row_cap`` are the plan's provenance: what
    ``dataset.plan()`` enumerated ``afcs`` from.  A node server holding
    the same descriptor re-derives its share of ``afcs`` from them, so
    the ``tcp://`` transport ships these instead of the AFC list;
    ``dataclasses.replace`` variants of a plan keep them.

    ``where`` is the *residual*: the top-level conjuncts of
    ``query.where`` the index function did not decide.  ``decided``
    holds the ones it did — each true of every row of ``afcs`` (see
    :meth:`~repro.core.planner.CompiledDataset.plan`) — so applying
    ``query.where`` instead of ``where`` yields the same rows.

    ``ranges`` are the per-attribute ranges the planner derived from
    ``query.where`` (:func:`~repro.sql.ranges.extract_ranges`): what a
    node tests its learned chunk bounds against
    (:meth:`~repro.core.extractor.Extractor.prune`).  Empty: prune
    nothing.
    """

    afcs: AfcTable
    needed: List[str]  # every column the query references (SELECT + WHERE)
    output: List[str]  # final projection, in SELECT order
    where: Optional[object] = None  # residual predicate AST (applied to all rows)
    dtypes: Dict[str, np.dtype] = field(default_factory=dict)
    aggregate: Optional["AggregateSpec"] = None
    query: Optional["Query"] = None  # the rewritten query ``afcs`` came from
    chunk_row_cap: Optional[int] = None
    decided: Tuple[object, ...] = ()  # conjuncts settled by the index
    ranges: "RangeMap" = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.afcs = AfcTable.of(self.afcs)

    @property
    def extracted(self) -> List[str]:
        """The columns extraction materialises: ``output`` plus what the
        residual ``where`` reads, in ``needed`` order.  An attribute only
        a decided conjunct referenced is never built."""
        wanted = set(self.output)
        if self.where is not None:
            wanted.update(self.where.referenced_columns())
        return [name for name in self.needed if name in wanted]

    @property
    def planned_rows(self) -> int:
        return self.afcs.total_rows

    @property
    def planned_bytes(self) -> int:
        """Bytes the extractor will actually read: chunks storing no
        needed attribute are skipped (projection pushdown)."""
        return self.afcs.needed_bytes(self.needed)
