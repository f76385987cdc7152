"""Chunk extraction: turning aligned file chunks into table rows.

This is the runtime half of the paper's extraction function: given an
:class:`~repro.core.afc.ExtractionPlan`, read every member chunk of every
AFC, decode the packed records with precomputed numpy dtypes, materialise
implicit attributes, apply the residual WHERE predicate vectorised, and
emit the projected columns.

There is one loop over a plan's AFCs: :meth:`Extractor.execute_blocks`
walks the plan's :class:`~repro.core.afc.AfcTable` in runs of adjacent
rows (one AFC each), decodes each run with one :meth:`AfcReader.columns`
call and hands each finished :class:`~repro.core.kernels.BlockPipeline`
block to its consumer.  A run is the rows that fill one kernel block, or
a single row wherever AFC boundaries matter or no kernel runs.
Every front door runs it through one driver,
:meth:`Extractor.execute_parts`: it prunes the AFCs, builds the reader
and hands back a row plan's blocks, or an aggregate plan's per-AFC
partial state frames, serially or on ``intra_node_workers`` threads one
AFC per job.  :func:`combine_parts` makes them one table; a stream cuts
them into ``batch_rows`` pieces (:func:`~repro.core.table.cut_blocks`).

Two small caches make repeated-chunk workloads efficient without changing
semantics:

* an LRU of open file handles (files are opened once per query, not once
  per chunk — the paper's L0 layout opens 18 files per AFC set otherwise);
* an LRU of chunks keyed by (node, path, offset, length) and bounded by
  their payload bytes, which pays off when one chunk participates in
  many AFCs (the COORDS file of the paper's example appears in all 500
  TIME chunks) or queries.  A chunk of a record strip — more than one
  field — is decoded once, as it enters: transposed into one
  contiguous read-only column per field, the chunks of one coalesced
  read sharing their columns as row ranges, so a fused block over
  cached record chunks is a slice per field, not a join and a strided
  copy.  A single-field chunk is cached as read.

Beside the segment cache sits what it taught: per decoded chunk extent
and per field some query's WHERE constrained, the chunk's min and max
(:class:`_LearnedZones`).  Before a call builds its reader, each part
of its AFCs is masked once by those bounds against the plan's ranges
(:meth:`Extractor.prune`, through
:func:`~repro.core.codegen_runtime.summary_mask`): an AFC they refute
is never read, charged, counted or filtered.  Like the cached chunks,
learned bounds assume the files do not change under a running process.

Both caches are thread safe and all chunk I/O uses positional reads
(``pread``), so one extractor can serve several query threads — and
several intra-node worker threads of one query — concurrently.  Within
one call a miss is single-flight: a worker missing on a chunk another
worker is reading waits for that read and takes its entry, so a chunk
the call's AFCs share is read once whatever the thread timing.

On top of the caches sits **I/O coalescing**: chunk reads against one
file that are adjacent, or separated by at most a configurable gap, are
merged into a single ``read()`` call whose payload is sliced back into
per-chunk segments (:meth:`Extractor.plan_coalesce`, planned over the
table's offset columns: one sort, then a greedy merge per file).  A
call plans at its first chunk miss, not before: a call whose every
chunk is cached never plans at all.
Interleaved layouts like the paper's L0 otherwise pay a read
call and a simulated seek per chunk; coalescing restores
near-sequential I/O at the cost of reading the gap bytes (charged as
``readahead_waste_bytes``).
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import accumulate
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple, Union,
)

import numpy as np

from ..errors import ExtractionError
from ..obs.tracer import NULL_TRACER
from .afc import (
    AfcTable,
    AlignedFileChunkSet,
    ExtractionPlan,
    GroupLayout,
    GroupTable,
    constant_column,
)
from .aggregate import merge_partials, partial_aggregate
from .codegen_runtime import Zone, gather_zones, summary_mask
from .options import DEFAULT_OPTIONS, ExecOptions
from .kernels import (
    Block,
    BlockPipeline,
    Evaluator,
    assemble_table,
    block_rows_for,
)
from .stats import IOStats
from .table import VirtualTable

#: Resolves (node, dataset-relative path) to an absolute filesystem path.
Mount = Callable[[str, str], str]

#: A chunk read request: (node, path, offset, nbytes) — the segment-cache key.
ReadKey = Tuple[str, str, int, int]

#: One AFC's decoded columns, by attribute name.
Columns = Dict[str, np.ndarray]

#: Upper bound on one coalesced read's span.  Merging an entire file into
#: one read would be ideal for the read_calls count but holds the whole
#: payload in memory at once; 8 MiB keeps buffers bounded while still
#: folding thousands of KB-scale chunks into few syscalls.
MAX_COALESCED_BYTES = 8 * 1024 * 1024

_HAS_PREAD = hasattr(os, "pread")


class _Handle:
    """One cached open file, pinned while a read is in flight."""

    __slots__ = ("file", "pins", "dropped", "lock")

    def __init__(self, file):
        self.file = file
        self.pins = 0
        #: Evicted/dropped while pinned: the last unpin closes the file.
        self.dropped = False
        #: Serialises seek+read on platforms without ``os.pread``.
        self.lock = threading.Lock()


def _positional_read(entry: _Handle, nbytes: int, offset: int) -> bytes:
    """Read up to ``nbytes`` at ``offset`` without a shared file position.

    Two threads reading one handle never race each other's ``seek``:
    ``pread`` is positionless by construction, and the seek+read fallback
    holds the handle's own lock.
    """
    if _HAS_PREAD:
        fd = entry.file.fileno()
        pieces = []
        remaining, pos = nbytes, offset
        while remaining > 0:
            block = os.pread(fd, remaining, pos)
            if not block:
                break
            pieces.append(block)
            pos += len(block)
            remaining -= len(block)
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)
    with entry.lock:
        entry.file.seek(offset)
        return entry.file.read(nbytes)


class _HandleCache:
    """LRU cache of open binary file handles; thread safe.

    ``pin``/``unpin`` bracket every read.  A pinned handle is never closed
    out from under a reader: eviction skips pinned entries, and
    ``close``/``drop_caches`` mark them dropped so the last unpin closes
    them instead.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._handles: "OrderedDict[str, _Handle]" = OrderedDict()

    def __contains__(self, path: str) -> bool:
        with self._lock:
            return path in self._handles

    def __len__(self) -> int:
        with self._lock:
            return len(self._handles)

    def pin(self, path: str, stats: IOStats) -> _Handle:
        with self._lock:
            entry = self._handles.get(path)
            if entry is not None:
                self._handles.move_to_end(path)
                entry.pins += 1
                return entry
        # Open outside the lock: disk latency must not serialise other
        # threads' cache hits.
        try:
            file = open(path, "rb")
        except OSError as exc:
            raise ExtractionError(f"cannot open {path!r}: {exc}") from exc
        victims: List[_Handle] = []
        with self._lock:
            entry = self._handles.get(path)
            if entry is not None:
                # Lost an open race; adopt the winner's handle.
                file.close()
                self._handles.move_to_end(path)
                entry.pins += 1
                return entry
            stats.files_opened += 1
            entry = _Handle(file)
            entry.pins = 1
            self._handles[path] = entry
            while len(self._handles) > self.capacity:
                victim = next(
                    (p for p, e in self._handles.items() if e.pins == 0), None
                )
                if victim is None:  # everything pinned: run over capacity
                    break
                victims.append(self._handles.pop(victim))
        for v in victims:
            v.file.close()
        return entry

    def unpin(self, entry: _Handle) -> None:
        with self._lock:
            entry.pins -= 1
            close_it = entry.dropped and entry.pins == 0
        if close_it:
            entry.file.close()

    def close(self) -> None:
        victims: List[_Handle] = []
        with self._lock:
            for entry in self._handles.values():
                if entry.pins == 0:
                    victims.append(entry)
                else:
                    entry.dropped = True
            self._handles.clear()
        for v in victims:
            v.file.close()


class _Group:
    """Adjacent chunks of one strip that were read together, decoded
    once into one contiguous read-only column per field: each chunk
    cached from it is a row range (:class:`_Decoded`).  Per numeric
    field, the member chunks' min and max are computed the first time
    the learned zone map asks for them (:meth:`bounds`)."""

    __slots__ = ("file", "columns", "nbytes", "keys", "live", "starts",
                 "_bounds")

    def __init__(self, file: Tuple[str, str], columns: Columns, keys: list,
                 starts: Sequence[int] = (0,)):
        #: (node, path) the chunks were read from.
        self.file = file
        self.columns = columns
        self.nbytes = sum(column.nbytes for column in columns.values())
        #: The member chunks' segment-cache keys.
        self.keys = keys
        #: Members not yet dropped from the segment cache (evicted,
        #: replaced, refused or cleared); kept under the cache's lock.
        self.live = len(keys)
        #: Each member's first row.
        self.starts = starts
        #: field -> (mins, maxs) per member, or None: no bounds.
        self._bounds: Dict[str, Optional[Tuple[np.ndarray, np.ndarray]]] = {}

    def bounds(self, name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Per member chunk, the min and the max of field ``name``, in
        the field's own dtype: one ``reduceat`` each, on first use — or
        None for a non-numeric field or a group with an empty member.
        A member holding a NaN has NaN bounds.  Computing twice under a
        race is harmless: both results are equal."""
        try:
            return self._bounds[name]
        except KeyError:
            pass
        bounds = run_bounds(self.columns[name], self.starts)
        self._bounds[name] = bounds
        return bounds


def run_bounds(
    column: np.ndarray, starts: Sequence[int]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Per run of ``column`` beginning at each of ``starts`` (the last
    run ends with the column), its min and its max, in the column's own
    dtype: one ``reduceat`` each — or None for a non-numeric column or
    an empty run.  A run holding a NaN has NaN bounds.  The chunk
    bounds the segment cache teaches and the persisted chunk summaries
    both come from here."""
    starts = np.asarray(starts, dtype=np.intp)
    if (
        column.dtype.kind not in "iuf"
        or starts[-1] >= len(column)
        or (len(starts) > 1 and not (np.diff(starts) > 0).all())
    ):
        return None
    return (
        np.minimum.reduceat(column, starts).astype(column.dtype, copy=False),
        np.maximum.reduceat(column, starts).astype(column.dtype, copy=False),
    )


class _Decoded:
    """A segment-cache entry holding a chunk as rows ``start .. stop -
    1`` of its group's columns, decoded with the full record dtype of
    its strip; ``member`` is its index among the group's chunks.
    ``len`` is the payload's byte count, as for raw bytes."""

    __slots__ = ("group", "start", "stop", "nbytes", "dtype", "member")

    def __init__(self, group: _Group, start: int, stop: int, nbytes: int,
                 dtype: np.dtype, member: int = 0):
        self.group = group
        self.start = start
        self.stop = stop
        self.nbytes = nbytes
        self.dtype = dtype
        self.member = member

    def __len__(self) -> int:
        return self.nbytes

    def detached(self, key: tuple) -> "_Decoded":
        """This chunk, cached under ``key``, with columns of its own,
        copied out of its group."""
        columns = {}
        for name, column in self.group.columns.items():
            columns[name] = column[self.start:self.stop].copy()
            columns[name].flags.writeable = False
        group = _Group(self.group.file, columns, [key])
        return _Decoded(group, 0, self.stop - self.start, self.nbytes, self.dtype)


#: A segment-cache entry: a chunk's payload as read, or decoded.
Entry = Union[bytes, _Decoded]

#: Bytes of records per transpose tile: a tile stays in L2 while each
#: of its fields is copied out.
_TILE_BYTES = 256 * 1024


def _transpose(data, start: int, rows: int, dtype: np.dtype) -> Columns:
    """``rows`` records of ``dtype`` at byte ``start`` of ``data`` as
    one contiguous read-only array per field, copied a cache-sized
    tile at a time."""
    records = np.frombuffer(data, dtype=dtype, count=rows, offset=start)
    columns = {
        name: np.empty(rows, dtype=dtype.fields[name][0]) for name in dtype.names
    }
    step = max(1, _TILE_BYTES // dtype.itemsize)
    for lo in range(0, rows, step):
        tile = records[lo:lo + step]
        for name, column in columns.items():
            column[lo:lo + step] = tile[name]
    for column in columns.values():
        column.flags.writeable = False
    return columns


class _Flight:
    """A chunk one thread is reading after a miss: ``lock`` is held
    until the read ends (a lock, not an event: a miss creates one)."""

    __slots__ = ("lock", "entry")

    def __init__(self):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.entry: Optional[Entry] = None


class _Flights:
    """The chunks one call's threads are reading after a miss, so that a
    thread missing on a chunk another is reading waits for that read and
    takes its entry instead of reading the chunk again (single-flight).
    Scoped to one call (:class:`AfcReader`): a retry never waits on a
    read its abandoned attempt left hanging.  ``generation`` is the
    segment cache's when the call began: what the call reads after a
    ``drop_caches`` is not cached (:meth:`_SegmentCache.put`)."""

    def __init__(self, generation: Optional[int] = None):
        self.generation = generation
        self._lock = threading.Lock()
        self._reading: Dict[tuple, _Flight] = {}

    def claim(self, key: tuple) -> Optional[_Flight]:
        """None when this thread is the one to read ``key`` (it then
        calls :meth:`release`), else the flight to wait on."""
        with self._lock:
            flight = self._reading.get(key)
            if flight is None:
                self._reading[key] = _Flight()
            return flight

    def release(self, key: tuple, entry: Optional[Entry]) -> None:
        """End a claim, handing waiters ``entry`` (None: the read failed,
        and each waiter reads for itself)."""
        with self._lock:
            flight = self._reading.pop(key)
        flight.entry = entry
        flight.lock.release()


class _SegmentCache:
    """LRU cache of chunk entries, bounded by total payload size; thread
    safe.

    An entry is a payload as read, or a :class:`_Decoded` row range of
    a group shared with the chunks read alongside it.  A group's
    columns live while any of its chunks is cached, so at most one group
    per file is kept with some of its chunks dropped: when a second
    group of a file loses a chunk, the first one's survivors are copied
    out of it (:meth:`_detach`).  Memory held is therefore bounded by
    ``capacity`` plus one group per file.
    """

    def __init__(self, capacity_bytes: int = 32 * 1024 * 1024):
        self.capacity = capacity_bytes
        self.size = 0
        self._lock = threading.Lock()
        self._segments: "OrderedDict[tuple, Entry]" = OrderedDict()
        #: Per file, the group that has dropped some chunks but not all.
        self._ragged: Dict[Tuple[str, str], _Group] = {}
        #: Bumped by every :meth:`clear`.
        self.generation = 0

    def get(self, key: tuple) -> Optional[Entry]:
        with self._lock:
            data = self._segments.get(key)
            if data is not None:
                self._segments.move_to_end(key)
            return data

    def get_run(
        self, keys: Sequence[tuple], dtypes: Sequence[Optional[np.dtype]]
    ) -> Optional[List[Entry]]:
        """Every key's entry, each promoted in turn as :meth:`get`
        would, under one lock — or None, promoting nothing, if any key
        is absent or its entry does not fit its dtype (see
        :meth:`Extractor._entry`)."""
        with self._lock:
            segments = self._segments
            try:
                entries = [segments[key] for key in keys]
            except KeyError:
                return None
            for entry, dtype in zip(entries, dtypes):
                if type(entry) is _Decoded and entry.dtype is not dtype:
                    return None
            promote = segments.move_to_end
            for key in keys:
                promote(key)
            return entries

    def peek(self, keys: Sequence[tuple]) -> List[Optional[Entry]]:
        """Per key, its entry or None — no LRU promotion, one lock
        (coalesce planning, and what the learned zone map learns
        from)."""
        with self._lock:
            get = self._segments.get
            return [get(key) for key in keys]

    def put(
        self, key: tuple, data: Entry, generation: Optional[int] = None
    ) -> None:
        """Cache ``data`` — unless it is larger than the cache, or was
        read by a call that began before the last :meth:`clear` (its
        ``generation``): a query still running when the caches were
        dropped leaves nothing behind for the next one."""
        with self._lock:
            if len(data) > self.capacity or generation not in (
                None, self.generation
            ):
                if type(data) is _Decoded:
                    self._dropped(data)
                return
            old = self._segments.pop(key, None)
            if old is not None:
                self.size -= len(old)
                if type(old) is _Decoded:
                    self._dropped(old)
            self._segments[key] = data
            self.size += len(data)
            while self.size > self.capacity:
                _, evicted = self._segments.popitem(last=False)
                self.size -= len(evicted)
                if type(evicted) is _Decoded:
                    self._dropped(evicted)

    def _dropped(self, entry: _Decoded) -> None:
        """Account a decoded chunk leaving (or refused by) the cache;
        lock held."""
        group = entry.group
        group.live -= 1
        ragged = self._ragged.get(group.file)
        if group.live == 0:
            if ragged is group:
                del self._ragged[group.file]
        elif ragged is not group:
            if ragged is not None:
                self._detach(ragged)
            self._ragged[group.file] = group

    def _detach(self, group: _Group) -> None:
        """Give ``group``'s cached chunks columns of their own, in place
        in the LRU order, so its columns are no longer held; lock held."""
        for key in group.keys:
            entry = self._segments.get(key)
            if type(entry) is _Decoded and entry.group is group:
                self._segments[key] = entry.detached(key)
        group.live = 0

    def clear(self) -> None:
        with self._lock:
            self._segments.clear()
            self._ragged.clear()
            self.size = 0
            self.generation += 1


class _LearnedZones:
    """The chunk bounds an extractor's segment cache taught it: per
    decoded chunk extent (``(node, path, offset, length)`` and the
    dtype it was decoded with) and per field some query's WHERE
    constrained, the chunk's min and max (:meth:`_Group.bounds`).

    :meth:`member_bounds` learns lazily: the decoded chunks the cache
    holds of those it has no bounds for teach it the fields asked
    about.  Published copy on write, so readers take no lock.  Cleared
    with the cache; what was peeked before a clear is not published
    after it.  Past the cache's capacity in bytes, it restarts empty.
    It holds no reference to its extractor, which frees at once."""

    def __init__(self, segments: _SegmentCache):
        self._segments = segments
        self._lock = threading.Lock()
        #: (node, path, decoded dtype, field) -> its zone, whose
        #: lengths a lookup matches too: only an exact extent has bounds.
        self._zones: Dict[Tuple[str, str, np.dtype, str], Zone] = {}
        self._size = 0

    def clear(self) -> None:
        with self._lock:
            self._zones, self._size = {}, 0

    def member_bounds(
        self, part: GroupTable, j: int, attrs: Sequence[str],
        dtype: Optional[np.dtype],
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per numeric field of ``attrs``, for each row of ``part``:
        whether member ``j``'s chunk, decoded with ``dtype``, has
        bounds, and its min and max."""
        if dtype is None:  # cached as read: never decoded
            return {}
        member = part.layout.members[j]
        attrs = [a for a in attrs if dtype.fields[a][0].kind in "iuf"]
        if not attrs:
            return {}
        file = (member.node, member.path, dtype)
        offsets = part.offsets[:, j]
        nbytes = part.rows * member.bytes_per_row
        found = gather_zones(self._zones, file, attrs, offsets, nbytes)
        if len(found) < len(attrs):
            lacking = np.ones(len(offsets), dtype=bool)
        else:
            lacking = ~np.logical_and.reduce([k for k, _, _ in found.values()])
        if lacking.any() and self._learn(
            file, attrs, offsets[lacking], nbytes[lacking]
        ):
            found = gather_zones(self._zones, file, attrs, offsets, nbytes)
        return found

    def _learn(self, file, attrs, offsets, nbytes) -> bool:
        """Learn ``attrs`` of the extents ``offsets``/``nbytes`` of
        ``file`` the cache holds decoded with its dtype; whether a new
        map was published."""
        if not self._segments.size:  # a cold cache teaches nothing
            return False
        node, path, dtype = file
        offsets, first = np.unique(offsets, return_index=True)
        nbytes = nbytes[first]
        generation = self._segments.generation
        entries = self._segments.peek([
            (node, path, o, n) for o, n in zip(offsets.tolist(), nbytes.tolist())
        ])
        taught, bounds = [], []
        for k, entry in enumerate(entries):
            if type(entry) is _Decoded and entry.dtype is dtype:
                found = [entry.group.bounds(attr) for attr in attrs]
                if None not in found:
                    taught.append(k)
                    m = entry.member
                    bounds.append([(lo[m], hi[m]) for lo, hi in found])
        if not taught:
            return False
        at = np.array(taught)
        with self._lock:
            if self._segments.generation != generation:
                return False
            for zones, size in ((dict(self._zones), self._size), ({}, 0)):
                for i, attr in enumerate(attrs):
                    native = dtype.fields[attr][0].newbyteorder("=")
                    key = (*file, attr)
                    size -= sum(c.nbytes for c in zones.get(key, ()))
                    zones[key] = _merged(
                        zones.get(key), offsets[at], nbytes[at],
                        np.array([row[i][0] for row in bounds], dtype=native),
                        np.array([row[i][1] for row in bounds], dtype=native),
                    )
                    size += sum(c.nbytes for c in zones[key])
                if size <= self._segments.capacity:
                    self._zones, self._size = zones, size
                    return True
        return False


def _merged(old: Optional[Zone], offsets, nbytes, mins, maxs) -> Zone:
    """``old`` with these extents' bounds merged in, sorted by offset: a
    new extent replaces an old one at its offset."""
    if old is not None:
        kept = ~np.isin(old.offsets, offsets)
        offsets = np.concatenate([old.offsets[kept], offsets])
        nbytes = np.concatenate([old.nbytes[kept], nbytes])
        mins = np.concatenate([old.mins[kept], mins])
        maxs = np.concatenate([old.maxs[kept], maxs])
    order = np.argsort(offsets, kind="stable")
    return Zone(offsets[order], mins[order], maxs[order], nbytes[order])


class _CoalesceRun:
    """One merged read: a contiguous span of a file covering ≥2 chunks."""

    __slots__ = ("node", "path", "start", "end", "members", "decoded", "lock",
                 "results", "failed")

    def __init__(
        self,
        node: str,
        path: str,
        start: int,
        end: int,
        members: Tuple[Tuple[int, int], ...],
        decoded: Optional[Tuple[Optional[np.dtype], ...]] = None,
    ):
        self.node = node
        self.path = path
        self.start = start
        self.end = end
        #: (offset, nbytes) per member chunk, sorted by offset.
        self.members = members
        #: Per member, the dtype it is cached decoded with, or None;
        #: None: every member is cached as read.
        self.decoded = decoded
        self.lock = threading.Lock()
        #: key -> entry once the merged read happened; members pop
        #: their entry exactly once (the segment cache serves repeats).
        self.results: Optional[Dict[ReadKey, Entry]] = None
        self.failed = False

    @property
    def span(self) -> int:
        return self.end - self.start

    def covered_bytes(self) -> int:
        """Bytes of the span belonging to at least one member chunk."""
        total = 0
        end = self.start
        for off, nb in self.members:
            hi = off + nb
            lo = max(off, end)
            if hi > lo:
                total += hi - lo
                end = hi
        return total


class CoalescePlan:
    """Maps chunk-read keys to the merged runs that will satisfy them."""

    def __init__(self, runs: Dict[ReadKey, _CoalesceRun]):
        self._runs = runs

    def run_for(self, key: ReadKey) -> Optional[_CoalesceRun]:
        return self._runs.get(key)

    @property
    def num_runs(self) -> int:
        return len({id(r) for r in self._runs.values()})

    @property
    def num_members(self) -> int:
        return len(self._runs)


class _PlanOnMiss:
    """One call's :class:`CoalescePlan`, built by ``build`` when a chunk
    first misses, under a lock the call's intra-node workers share.

    Until its first miss a call has only hit, and hits promote entries
    but never add or drop one, so the plan is the one the call would
    have built at its start."""

    __slots__ = ("_build", "_plan", "_lock")

    def __init__(self, build: Callable[[], Optional[CoalescePlan]]):
        self._build: Optional[Callable[[], Optional[CoalescePlan]]] = build
        self._plan: Optional[CoalescePlan] = None
        self._lock = threading.Lock()

    def run_for(self, key: ReadKey) -> Optional[_CoalesceRun]:
        if self._build is not None:
            with self._lock:
                if self._build is not None:
                    self._plan = self._build()
                    self._build = None
        plan = self._plan
        return None if plan is None else plan.run_for(key)


class _Resolved:
    """What one :class:`AfcReader` needs of a group layout, resolved
    once per call: per needed member its read geometry and projected
    record dtype, the needed implicit attributes, and what the layout
    cannot supply."""

    __slots__ = ("reads", "env", "consts", "inner", "missing",
                 "remote_bytes_per_row", "geometry", "decoded")

    def __init__(self, layout: GroupLayout, reader: "AfcReader"):
        extractor = reader.extractor
        needed = reader.needed_set
        dtypes = reader.dtypes or {}
        #: (member index, node, path, bytes/row, record dtype, names,
        #: decoded dtype or None — see :meth:`Extractor._decoded_dtype`)
        self.reads: List[tuple] = []
        for j, member in enumerate(layout.members):
            wanted = [a for a in member.strip.attrs if a in needed]
            if wanted:
                decoded = extractor._decoded_dtype(member.strip)
                self.reads.append((
                    j, member.node, member.path, member.bytes_per_row,
                    extractor._record_dtype(member.strip)
                    if decoded is None else decoded,
                    wanted, decoded,
                ))
        env = dict(layout.env)
        consts = layout.const_names
        self.env = [(n, env[n], dtypes.get(n)) for n in reader.needed if n in env]
        self.consts = [
            (consts.index(n), n, dtypes.get(n))
            for n in reader.needed
            if n in consts and n not in env
        ]
        self.inner = [
            (iv, dtypes.get(iv.name))
            for iv in layout.inner_vars
            if iv.name in needed and iv.name not in env and iv.name not in consts
        ]
        supplied = set(env).union(consts, (iv.name for iv in layout.inner_vars))
        for read in self.reads:
            supplied.update(read[5])
        self.missing = sorted(needed.difference(supplied))
        #: Per read, (member index, node, path, bytes/row) and its
        #: decoded dtype: a run's keys, and what its lookup must find.
        self.geometry = [read[:4] for read in self.reads]
        self.decoded = [read[6] for read in self.reads]
        self.remote_bytes_per_row = sum(
            bpr for _, node, _, bpr, _, _, _ in self.reads
            if reader.node is not None and node != reader.node
        )


class AfcReader:
    """One driver call's table rows -> columns decoder.

    Holds what is invariant across the call's AFCs — the needed set, the
    implicit attributes' target dtypes and, per group layout, the needed
    member chunks with their projected record dtypes — so decoding
    rebuilds none of it.  Deliberately scoped to one call, never cached
    on the extractor or the layout: layouts tabulated from AFC objects
    are per-query, so a memo that outlives the call only pins dead plans.

    :meth:`columns` decodes a run of adjacent rows of one group table
    (one AFC per row).  Reads are per AFC whatever the run: one
    segment-cache entry (``Extractor._entry``) per needed member, in
    plan order, so the segment cache, coalescing and every I/O counter
    see the same reads; a longer run whose entries are all cached is
    looked up under one lock instead, with the same LRU promotions and
    counts, traced or not.  A record strip's entry is decoded columns
    (``_Decoded``), a single-field strip's its payload as read.  A
    one-row run returns each field as a view: a slice of the decoded
    columns, or of one ``frombuffer`` of the payload;
    constants come from the row's values and the inner variables'
    columns are computed once per distinct row span and shared
    (read-only, so ``assemble_table`` copies what it emits of them).  A
    longer run decodes as one table: a record strip's fields are one
    slice of a group's columns where the run's chunks are consecutive
    rows of it, else one concatenation of such slices; a single-field
    strip's payloads are joined once into a fresh buffer; constants are
    repeated from the ``values`` column and the inner variables' span
    columns concatenated — so a kernel block gets contiguous columns,
    read-only where they are the cache's own.

    ``node`` is the executing node of a data-source service: chunks
    homed elsewhere are charged as ``remote_bytes_read`` and each run
    gets an ``extract_afc`` span.  One call's intra-node worker threads
    may share a reader (the memos are idempotent, ``stats`` per call site).
    """

    def __init__(
        self,
        extractor: "Extractor",
        needed: Sequence[str],
        dtypes: Optional[Dict[str, np.dtype]] = None,
        tracer=NULL_TRACER,
        coalesce: Optional[Union[CoalescePlan, _PlanOnMiss]] = None,
        node: Optional[str] = None,
    ):
        self.extractor = extractor
        self.needed = needed
        self.needed_set = set(needed)
        self.dtypes = dtypes
        self.tracer = tracer
        self.coalesce = coalesce
        self.node = node
        #: The call's chunk reads in progress (single-flight misses).
        self.flights = _Flights(extractor._segments.generation)
        self._resolved: Dict[GroupLayout, _Resolved] = {}
        #: (resolved layout, first, rows) -> the span's inner columns.
        self._inner: Dict[Tuple[_Resolved, int, int], Columns] = {}

    def _resolve(self, layout: GroupLayout) -> _Resolved:
        resolved = self._resolved.get(layout)
        if resolved is None:
            resolved = self._resolved[layout] = _Resolved(layout, self)
        return resolved

    def _inner_columns(
        self, resolved: _Resolved, first: int, num_rows: int
    ) -> Columns:
        key = (resolved, first, num_rows)
        columns = self._inner.get(key)
        if columns is None:
            columns = {}
            for iv, want in resolved.inner:
                col = iv.materialise(num_rows, first)
                if want is not None:
                    col = col.astype(want, copy=False)
                col.flags.writeable = False
                columns[iv.name] = col
            self._inner[key] = columns
        return columns

    def columns(
        self,
        part: GroupTable,
        lo: int,
        hi: int,
        stats: IOStats,
        meter=None,
    ) -> Columns:
        """The needed columns of rows ``lo .. hi - 1`` of ``part``, in
        row order, with the per-AFC accounting every driver call shares
        (AFC, chunk and row counts, remote bytes) and one ``extract_afc``
        span per run, tagged ``views`` when every stored column is a
        slice of a decoded cache entry.  ``meter`` (see
        :meth:`Extractor.execute_blocks`) is charged each AFC's bytes
        once that AFC is read, so its quota and cancel bounds stay one
        AFC inside a run."""
        resolved = self._resolve(part.layout)
        if resolved.missing:
            raise ExtractionError(
                f"plan cannot supply columns {resolved.missing}; "
                "they are neither stored in any chunk nor implicit"
            )
        decode = self._row if hi - lo == 1 else self._run
        if self.node is not None and self.tracer.enabled:
            rows = sum(part.lists()[3][lo:hi])
            with self.tracer.span(
                "extract_afc", node=self.node, afcs=hi - lo, rows=rows
            ) as span:
                columns, views = decode(resolved, part, lo, hi, stats, meter)
                span.tag(views=views)
                return columns
        return decode(resolved, part, lo, hi, stats, meter)[0]

    def _read(
        self, resolved: _Resolved, offsets, num_rows: int, stats: IOStats,
        meter,
    ) -> List[Entry]:
        """One AFC's needed members' entries, in plan order, with its
        accounting: AFC, chunk and row counts, remote bytes, and the
        meter charged the bytes it read."""
        before = stats.bytes_read
        stats.afcs_processed += 1
        stats.remote_bytes_read += num_rows * resolved.remote_bytes_per_row
        read = self.extractor._entry
        entries: List[Entry] = []
        for j, node, path, bpr, _, _, decoded in resolved.reads:
            entries.append(read(
                node, path, offsets[j], num_rows * bpr, stats,
                self.tracer, self.coalesce, decoded, self.flights,
            ))
            stats.chunks_read += 1
        stats.rows_extracted += num_rows
        if meter is not None:
            meter.charge(nbytes=stats.bytes_read - before)
        return entries

    def _row(
        self, resolved: _Resolved, part: GroupTable, i: int, _: int,
        stats: IOStats, meter,
    ) -> Tuple[Columns, bool]:
        """Row ``i`` alone: its fields as views of its entries."""
        values, offsets, first, counts = part.lists()
        num_rows = counts[i]
        entries = self._read(resolved, offsets[i], num_rows, stats, meter)
        columns: Columns = {}
        for name, value, want in resolved.env:
            columns[name] = constant_column(num_rows, value, want)
        if resolved.consts:
            row_values = values[i]
            for pos, name, want in resolved.consts:
                columns[name] = constant_column(num_rows, row_values[pos], want)
        if resolved.inner:
            columns.update(self._inner_columns(resolved, first[i], num_rows))
        views = True
        for entry, (_, _, _, _, dtype, wanted, _) in zip(entries, resolved.reads):
            if type(entry) is _Decoded:
                start, stop = entry.start, entry.stop
                group = entry.group.columns
                for name in wanted:
                    columns[name] = group[name][start:stop]
            else:
                views = False
                records = np.frombuffer(entry, dtype=dtype)
                for name in wanted:
                    columns[name] = records[name]
        return columns, views

    def _run(
        self, resolved: _Resolved, part: GroupTable, lo: int, hi: int,
        stats: IOStats, meter,
    ) -> Tuple[Columns, bool]:
        """Rows ``lo .. hi - 1`` — looked up at once when every chunk is
        cached, else read AFC by AFC — decoded as one table: a column
        per attribute, contiguous."""
        _, offsets, first, counts = part.lists()
        reads = resolved.reads
        # Every needed member's entry, AFC by AFC: member m's entries
        # are entries[m::len(reads)].  A run of hits is looked up under
        # one lock and its hits counted in bulk; the meter is still
        # charged once per AFC.
        entries = self.extractor._segments.get_run(
            [
                (node, path, offsets[k][j], counts[k] * bpr)
                for k in range(lo, hi)
                for j, node, path, bpr in resolved.geometry
            ],
            resolved.decoded * (hi - lo),
        )
        if entries is not None:
            stats.cache_hits += len(entries)
            stats.chunks_read += len(entries)
            stats.afcs_processed += hi - lo
            rows = sum(counts[lo:hi])
            stats.rows_extracted += rows
            stats.remote_bytes_read += rows * resolved.remote_bytes_per_row
            if meter is not None:
                for _ in range(lo, hi):
                    meter.charge(nbytes=0)
        else:
            entries = []
            for k in range(lo, hi):
                entries += self._read(
                    resolved, offsets[k], counts[k], stats, meter
                )
        # The run decoded AFC by AFC from its needed members' entries.
        columns: Columns = {}
        run_rows = part.rows[lo:hi]
        for name, value, want in resolved.env:
            columns[name] = constant_column(int(run_rows.sum()), value, want)
        for pos, name, want in resolved.consts:
            # One cast of the run's values, wrapping a too-narrow
            # declared type (RV124) exactly like constant_column.
            run_values = part.values[lo:hi, pos].astype(
                np.int64 if want is None else want
            )
            columns[name] = np.repeat(run_values, run_rows)
        if resolved.inner:
            spans = [
                self._inner_columns(resolved, first[k], counts[k])
                for k in range(lo, hi)
            ]
            for iv, _ in resolved.inner:
                columns[iv.name] = np.concatenate(
                    [span[iv.name] for span in spans]
                )
        views = True
        for m, (_, _, _, _, dtype, wanted, decoded) in enumerate(reads):
            member = entries[m::len(reads)]
            if decoded is None:
                views = False
                records = np.frombuffer(bytearray().join(member), dtype=dtype)
                for name in wanted:
                    columns[name] = np.ascontiguousarray(records[name])
            else:
                views &= _stitch(member, dtype, wanted, columns)
        return columns, views

def _stitch(
    entries: Sequence[Entry], dtype: np.dtype, wanted: Sequence[str],
    columns: Columns,
) -> bool:
    """Set ``columns``' wanted fields of consecutive chunks of one strip:
    one view of a group's columns where the chunks are consecutive rows
    of it (True), else one concatenation of the views of such stretches
    and of the fields of payloads cached as read (False)."""
    spans: List = []
    for entry in entries:
        if type(entry) is not _Decoded:
            spans.append(np.frombuffer(entry, dtype=dtype))
            continue
        last = spans[-1] if spans else None
        if (
            type(last) is list and last[0] is entry.group
            and last[2] == entry.start
        ):
            last[2] = entry.stop
        else:
            spans.append([entry.group, entry.start, entry.stop])
    if len(spans) == 1 and type(spans[0]) is list:
        group, start, stop = spans[0]
        for name in wanted:
            columns[name] = group.columns[name][start:stop]
        return True
    for name in wanted:
        # The field's own dtype: concatenate would swap big-endian bytes.
        columns[name] = np.concatenate([
            span[0].columns[name][span[1]:span[2]]
            if type(span) is list else span[name]
            for span in spans
        ], dtype=dtype.fields[name][0])
    return False


def _runs(
    counts: Sequence[int], pipeline: BlockPipeline
) -> Iterator[Tuple[int, int, int]]:
    """``(lo, hi, rows)`` runs covering AFCs of ``counts`` rows each:
    each run the AFCs that fill the pipeline's pending count up to its
    block size, read as the caller adds each run (one AFC per run when
    every AFC closes its own block)."""
    if pipeline.block_rows == 1:
        for i, num_rows in enumerate(counts):
            yield i, i + 1, num_rows
        return
    ends = list(accumulate(counts))
    lo = done = 0
    while lo < len(ends):
        want = done + pipeline.block_rows - pipeline.pending_rows
        hi = min(bisect_left(ends, want, lo) + 1, len(ends))
        yield lo, hi, ends[hi - 1] - done
        lo, done = hi, ends[hi - 1]


def combine_parts(
    plan: ExtractionPlan, parts: Iterable, stats: IOStats
) -> VirtualTable:
    """What :meth:`Extractor.execute_parts` produced, as one table: the
    blocks of a row plan concatenated, or the partial state frames of an
    aggregate plan merged into this executor's single state frame."""
    if plan.aggregate is None:
        return assemble_table(plan.output, plan.dtypes, parts)
    merged = merge_partials(plan.aggregate, list(parts), plan.dtypes)
    stats.groups_emitted += merged.num_rows
    return merged


def empty_result(plan: ExtractionPlan) -> VirtualTable:
    """The zero-row result of ``plan``: every output column of a row
    plan, the zero-row state frame of an aggregate plan.  What a node
    that answered nothing, or a query that lost every node, yields."""
    return combine_parts(plan, (), IOStats())


class Extractor:
    """Executes extraction plans against a filesystem mount.

    Thread safe: the handle and segment caches carry their own locks, all
    chunk I/O is positional, and the simulated disk-head bookkeeping is
    guarded — one extractor may serve concurrent queries and intra-node
    worker threads.  (Under concurrency the per-node ``seeks`` count
    depends on thread interleaving; every other counter is exact.)
    """

    def __init__(
        self,
        mount: Mount,
        segment_cache_bytes: int = 32 * 1024 * 1024,
        handle_cache: int = 64,
    ):
        self.mount = mount
        #: A FaultyMount (repro.faults) carries its injector here; plain
        #: mounts leave it None and the hot path pays one is-None check.
        self._injector = getattr(mount, "injector", None)
        self._handles = _HandleCache(handle_cache)
        self._segments = _SegmentCache(segment_cache_bytes)
        #: Chunk bounds the segment cache taught (:meth:`prune`).
        self._zones = _LearnedZones(self._segments)
        #: Simulated disk-head position per node: (path, next offset).
        #: A read is charged a seek only when it repositions the head —
        #: consecutive chunks of one file scan sequentially for free,
        #: while layouts that interleave many files (the paper's L0)
        #: pay a seek per switch.  Updated only after a *successful* full
        #: read: a failed read never moved the physical head.
        self._head: Dict[str, tuple] = {}
        self._head_lock = threading.Lock()
        #: One dtype object per distinct record layout, so cache entries
        #: and requests compare by identity.
        self._dtypes: Dict[np.dtype, np.dtype] = {}
        #: id(strip) -> (strip, its record dtype): asked per member of
        #: every planned layout, where hashing a strip costs more.
        self._strip_dtypes: Dict[int, tuple] = {}

    def close(self) -> None:
        self._handles.close()

    def drop_caches(self) -> None:
        """Forget cached handles, segments, the chunk bounds they taught,
        and head positions (cold runs).

        Safe against in-flight reads: pinned handles are closed by their
        last unpin, not here, so a concurrent query never reads a closed
        file.
        """
        self._handles.close()
        self._segments.clear()
        self._zones.clear()
        with self._head_lock:
            self._head.clear()

    def __enter__(self) -> "Extractor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- chunk I/O ---------------------------------------------------------------

    def _record_dtype(self, strip) -> np.dtype:
        """``strip.record_dtype()`` — every field of its records, which
        decodes any projection of them — memoised per strip, interned."""
        known = self._strip_dtypes.get(id(strip))
        if known is not None and known[0] is strip:
            return known[1]
        dtype = strip.record_dtype()
        dtype = self._dtypes.setdefault(dtype, dtype)
        if len(self._strip_dtypes) >= 4096:
            self._strip_dtypes.clear()
        self._strip_dtypes[id(strip)] = (strip, dtype)
        return dtype

    def _decoded_dtype(self, strip) -> Optional[np.dtype]:
        """The dtype a chunk of ``strip`` is cached decoded with — its
        :meth:`_record_dtype` — or None for a single-field strip, whose
        payload is cached as read (its field is contiguous already)."""
        return self._record_dtype(strip) if len(strip.attrs) > 1 else None

    def _read_span(
        self, node: str, path: str, offset: int, nbytes: int, stats: IOStats
    ) -> bytes:
        """One positional read of ``nbytes`` at ``offset``, fully charged."""
        full_path = self.mount(node, path)
        if self._injector is not None and full_path not in self._handles:
            self._injector.on_open(node, path)
        entry = self._handles.pin(full_path, stats)
        try:
            data = _positional_read(entry, nbytes, offset)
        finally:
            self._handles.unpin(entry)
        stats.read_calls += 1
        stats.bytes_read += len(data)
        if self._injector is not None:
            data = self._injector.on_read(node, path, offset, data)
        if len(data) != nbytes:
            raise ExtractionError(
                f"short read from {path!r}: wanted {nbytes} bytes at "
                f"offset {offset}, got {len(data)} "
                "(layout descriptor larger than the actual file?)"
            )
        # Charge the seek only now: a failed read must not advance the
        # simulated head to bytes that were never delivered.
        with self._head_lock:
            if self._head.get(node) != (path, offset):
                stats.seeks += 1
            self._head[node] = (path, offset + nbytes)
        return data

    def plan_coalesce(
        self,
        reads: Iterable[ReadKey],
        gap_bytes: int,
        max_run_bytes: int = MAX_COALESCED_BYTES,
    ) -> Optional[CoalescePlan]:
        """Plan merged reads for a batch of chunk requests.

        ``reads`` are (node, path, offset, nbytes) keys in any order.
        Per file, requests sorted by offset are merged while the next one
        starts within ``gap_bytes`` of the current span's end and the
        merged span stays under ``max_run_bytes``.  Only runs covering at
        least two chunks are kept; already-cached chunks are skipped.
        ``gap_bytes <= 0`` disables coalescing (returns None).
        """
        if gap_bytes <= 0:
            return None
        files: Dict[Tuple[str, str], int] = {}
        fids, offsets, sizes = [], [], []
        for node, path, offset, nbytes in reads:
            fids.append(files.setdefault((node, path), len(files)))
            offsets.append(offset)
            sizes.append(nbytes)
        return self._coalesce(
            list(files),
            np.array(fids, dtype=np.int64),
            np.array(offsets, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            gap_bytes,
            max_run_bytes,
        )

    def coalesce_for(
        self,
        afcs: Sequence[AlignedFileChunkSet],
        needed: Sequence[str],
        gap_bytes: int,
    ) -> Optional[CoalescePlan]:
        """Coalesce plan for every needed chunk read of a batch of AFCs,
        read off the table's offset and row-count columns; each member
        carries its strip's decoded dtype (see :meth:`_decoded_dtype`)."""
        if gap_bytes <= 0:
            return None
        wanted = set(needed)
        per_file: Dict[
            Tuple[str, str], List[Tuple[np.ndarray, np.ndarray, Optional[np.dtype]]]
        ] = {}
        # Per file, the dtype its chunks are cached decoded with — by
        # chunk offset where strips of several dtypes share the file.
        decoded: Dict[Tuple[str, str], object] = {}
        mixed = set()
        for part in AfcTable.of(afcs).parts:
            for j, member in enumerate(part.layout.members):
                if wanted.intersection(member.strip.attrs):
                    file = (member.node, member.path)
                    dtype = self._decoded_dtype(member.strip)
                    read = (
                        part.offsets[:, j], part.rows * member.bytes_per_row,
                        dtype,
                    )
                    if file in per_file:
                        per_file[file].append(read)
                        if decoded[file] is not dtype:
                            mixed.add(file)
                    else:
                        per_file[file] = [read]
                        decoded[file] = dtype
        for file in mixed:
            decoded[file] = {
                off: d for o, _, d in per_file[file] for off in o.tolist()
            }
        # A file read once cannot coalesce: leave it out of the sort.
        files = [
            (file, reads) for file, reads in per_file.items()
            if len(reads) > 1 or len(reads[0][0]) > 1
        ]
        if not files:
            return None
        return self._coalesce(
            [file for file, _ in files],
            np.repeat(
                np.arange(len(files)),
                [sum(len(o) for o, _, _ in reads) for _, reads in files],
            ),
            np.concatenate([o for _, reads in files for o, _, _ in reads]),
            np.concatenate([n for _, reads in files for _, n, _ in reads]),
            gap_bytes,
            MAX_COALESCED_BYTES,
            decoded,
        )

    def _coalesce(
        self,
        files: List[Tuple[str, str]],
        fids: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
        gap_bytes: int,
        max_run_bytes: int,
        decoded: Optional[Dict[Tuple[str, str], object]] = None,
    ) -> Optional[CoalescePlan]:
        """:meth:`plan_coalesce` over requests as columns (file index,
        offset, bytes): one sort, distinct uncached requests, then runs
        merged greedily in file-and-offset order.  ``decoded`` maps a
        file to the dtype its chunks are cached decoded with, or to a
        dict of them by chunk offset (absent: cached as read)."""
        if len(offsets) < 2:
            return None
        order = np.lexsort((sizes, offsets, fids))
        fids, offsets, sizes = fids[order], offsets[order], sizes[order]
        distinct = np.ones(len(offsets), dtype=bool)
        distinct[1:] = (
            (fids[1:] != fids[:-1])
            | (offsets[1:] != offsets[:-1])
            | (sizes[1:] != sizes[:-1])
        )
        if not distinct.all():
            fids, offsets, sizes = fids[distinct], offsets[distinct], sizes[distinct]
        keys = [
            (*files[f], o, n)
            for f, o, n in zip(fids.tolist(), offsets.tolist(), sizes.tolist())
        ]
        keys = [
            key for key, entry in zip(keys, self._segments.peek(keys))
            if entry is None
        ]
        if len(keys) < 2:
            return None
        runs: Dict[ReadKey, _CoalesceRun] = {}
        decoded = decoded or {}

        def register(group: List[ReadKey], end: int) -> None:
            if len(group) < 2:
                return
            node, path, start, _ = group[0]
            dtype = decoded.get((node, path))
            if type(dtype) is dict:
                dtype = tuple(dtype[k[2]] for k in group)
            elif dtype is not None:
                dtype = (dtype,) * len(group)
            run = _CoalesceRun(
                node, path, start, end, tuple((k[2], k[3]) for k in group),
                dtype,
            )
            for key in group:
                runs[key] = run

        group = [keys[0]]
        end = keys[0][2] + keys[0][3]
        for key in keys[1:]:
            new_end = max(end, key[2] + key[3])
            if (
                key[:2] == group[0][:2]
                and key[2] <= end + gap_bytes
                and new_end - group[0][2] <= max_run_bytes
            ):
                group.append(key)
                end = new_end
            else:
                register(group, end)
                group, end = [key], key[2] + key[3]
        register(group, end)
        return CoalescePlan(runs) if runs else None

    def _read_coalesced(
        self, key: ReadKey, run: _CoalesceRun, stats: IOStats, tracer,
        generation: Optional[int] = None,
    ) -> Optional[Entry]:
        """Satisfy one chunk request by executing (or joining) a merged read.

        Returns None when this chunk's entry is no longer available (its
        run failed in another thread, or the entry was consumed and then
        evicted from the segment cache) — the caller falls back to a
        plain read.
        """
        with run.lock:
            if run.results is None and not run.failed:
                try:
                    self._fill_run(run, stats, tracer, generation)
                except Exception:
                    run.failed = True
                    raise
            if run.results is None:
                return None
            return run.results.pop(key, None)

    def _fill_run(
        self, run: _CoalesceRun, stats: IOStats, tracer,
        generation: Optional[int] = None,
    ) -> None:
        """One merged read, cut into its members' entries: a payload
        slice per single-field member, and one :class:`_Group` per
        stretch of adjacent members of one multi-field strip."""
        node, path, start = run.node, run.path, run.start
        data = self._read_span(node, path, start, run.span, stats)
        results: Dict[ReadKey, Entry] = {}
        members, decoded = run.members, run.decoded
        i = 0
        while i < len(members):
            off, nb = members[i]
            dtype = decoded[i] if decoded else None
            j, end = i + 1, off + nb
            if dtype is None or nb % dtype.itemsize:
                results[(node, path, off, nb)] = data[off - start : end - start]
            else:
                while (
                    j < len(members) and decoded[j] is dtype
                    and members[j][0] == end
                    and not members[j][1] % dtype.itemsize
                ):
                    end += members[j][1]
                    j += 1
                results.update(self._decode(
                    node, path, data, off - start, members[i:j], dtype, tracer
                ))
            i = j
        put = self._segments.put
        for member_key, entry in results.items():
            put(member_key, entry, generation)
        saved = len(run.members) - 1
        waste = run.span - run.covered_bytes()
        stats.reads_coalesced += saved
        stats.readahead_waste_bytes += waste
        if tracer.enabled:
            tracer.metrics.record("reads.coalesced", saved)
            if waste:
                tracer.metrics.record("bytes.readahead_waste", waste)
            tracer.event(
                "coalesced_read",
                node=run.node,
                path=run.path,
                offset=run.start,
                bytes=run.span,
                chunks=len(run.members),
                waste=waste,
            )
        run.results = results

    def _decode(
        self,
        node: str,
        path: str,
        data,
        start: int,
        members: Sequence[Tuple[int, int]],
        dtype: np.dtype,
        tracer,
    ) -> Dict[ReadKey, _Decoded]:
        """Adjacent chunks ``(offset, nbytes)`` of one strip, read as
        ``data[start:]``, as one group of columns decoded with
        ``dtype``: an entry per chunk, keyed like the cache."""
        rows = sum(nb for _, nb in members) // dtype.itemsize
        if tracer.enabled:
            tracer.metrics.record("segments.transposed_bytes", rows * dtype.itemsize)
        keys = [(node, path, off, nb) for off, nb in members]
        starts = [0]
        for key in keys[:-1]:
            starts.append(starts[-1] + key[3] // dtype.itemsize)
        group = _Group(
            (node, path), _transpose(data, start, rows, dtype), keys, starts
        )
        entries: Dict[ReadKey, _Decoded] = {}
        for member, key in enumerate(keys):
            row = starts[member]
            entries[key] = _Decoded(
                group, row, row + key[3] // dtype.itemsize, key[3], dtype, member
            )
        return entries

    def _entry(
        self,
        node: str,
        path: str,
        offset: int,
        nbytes: int,
        stats: IOStats,
        tracer=NULL_TRACER,
        coalesce: Optional[Union[CoalescePlan, _PlanOnMiss]] = None,
        dtype: Optional[np.dtype] = None,
        flights: Optional[_Flights] = None,
    ) -> Entry:
        """One chunk's segment-cache entry, read on a miss.

        ``dtype`` is the chunk's :meth:`_decoded_dtype`: a chunk of a
        multi-field strip is cached decoded, a single-field one (and any
        raw request, ``dtype=None``) as read.  With a
        :class:`CoalescePlan` (or a :class:`_PlanOnMiss`, asked only
        here, on a miss), a chunk that belongs to a merged run
        triggers (or joins) the run's single wide read; sibling chunks
        then come out of the segment cache.  An entry fits a request
        if it is a payload as read (a decoded request takes views of
        its records) or was decoded with the request's dtype; one that
        does not — a raw request of a decoded chunk — is left cached as
        it is and the payload read again, uncached.  With ``flights``
        (one call's), a miss is single-flight: a thread missing on a
        chunk another thread of the call is reading waits for that read
        and takes its entry, counted as a hit, so how often a chunk is
        read does not depend on thread timing; and what it reads is
        cached only while the cache has not been dropped since the call
        began.  Nothing is traced per chunk: hits and misses are counted
        in ``stats`` (``cache_hits``), which a node's ``extract`` span
        carries as its ``cache_hits`` tag.
        """
        key = (node, path, offset, nbytes)
        generation = None if flights is None else flights.generation
        cached = self._segments.get(key)
        if cached is not None and (
            type(cached) is not _Decoded or cached.dtype is dtype
        ):
            stats.cache_hits += 1
            return cached
        if coalesce is not None and cached is None:
            run = coalesce.run_for(key)
            if run is not None:
                cached = self._read_coalesced(
                    key, run, stats, tracer, generation
                )
                if cached is not None and (
                    type(cached) is not _Decoded or cached.dtype is dtype
                ):
                    return cached
        if cached is not None:
            return self._read_span(node, path, offset, nbytes, stats)
        if flights is None:
            return self._fill(key, stats, tracer, dtype)
        flight = flights.claim(key)
        if flight is not None:
            # Another thread of the call is reading this chunk: take its
            # entry, as a hit — a serial run would find it cached.
            with flight.lock:
                cached = flight.entry
            if cached is not None and (
                type(cached) is not _Decoded or cached.dtype is dtype
            ):
                stats.cache_hits += 1
                return cached
            return self._read_span(node, path, offset, nbytes, stats)
        entry: Optional[Entry] = None
        try:
            # A thread that finished reading it between our miss and
            # our claim.
            entry = self._segments.get(key)
            if entry is None:
                entry = self._fill(key, stats, tracer, dtype, generation)
            elif type(entry) is not _Decoded or entry.dtype is dtype:
                stats.cache_hits += 1
            else:
                return self._read_span(node, path, offset, nbytes, stats)
            return entry
        finally:
            flights.release(key, entry)

    def _fill(
        self, key: ReadKey, stats: IOStats, tracer, dtype: Optional[np.dtype],
        generation: Optional[int] = None,
    ) -> Entry:
        """Read a missing chunk and cache it: decoded with ``dtype``
        when it is a whole number of its records, else as read."""
        node, path, offset, nbytes = key
        data = self._read_span(node, path, offset, nbytes, stats)
        entry: Entry = data
        if dtype is not None and not nbytes % dtype.itemsize:
            entry = self._decode(
                node, path, data, 0, ((offset, nbytes),), dtype, tracer
            )[key]
        self._segments.put(key, entry, generation)
        return entry

    def read_chunk(
        self,
        node: str,
        path: str,
        offset: int,
        nbytes: int,
        stats: IOStats,
        tracer=NULL_TRACER,
        coalesce: Optional[CoalescePlan] = None,
    ) -> bytes:
        """Read one chunk's payload, via the segment cache: always the
        bytes of the file (see :meth:`_entry`)."""
        return self._entry(node, path, offset, nbytes, stats, tracer, coalesce)

    # -- AFC decoding -------------------------------------------------------------

    # -- plan execution ---------------------------------------------------------

    def prune(
        self, plan: ExtractionPlan, afcs: AfcTable, tracer=NULL_TRACER
    ) -> AfcTable:
        """``afcs`` less those whose learned chunk bounds
        (:class:`_LearnedZones`) refute the plan's ranges, each part
        masked once by :func:`~repro.core.codegen_runtime.summary_mask`
        before a call builds its reader: a refuted AFC is never read,
        charged, counted or filtered.  A plan with no residual WHERE or
        no ranges keeps them all.  The AFC count a node reports stays
        the plan's.  Traced, the innermost open span (the node's
        ``extract``) is tagged ``learned_pruned`` and the
        ``index.learned_pruned_afcs`` metric counts them."""
        ranges = plan.ranges
        if plan.where is None or not ranges:
            return afcs
        parts: List[GroupTable] = []
        pruned = 0
        for part in afcs.parts:
            # Only record strips are cached decoded, and so learned.
            if not part.layout.record_fields.isdisjoint(ranges):
                keep = summary_mask(part, ranges, self, ranges)
                kept = int(np.count_nonzero(keep))
                if kept < len(part):
                    pruned += len(part) - kept
                    part = part.take(keep)
            if len(part):
                parts.append(part)
        if not pruned:
            return afcs
        if tracer.enabled:
            span = tracer.current()
            if span is not None:
                span.tag(learned_pruned=pruned)
            tracer.metrics.record("index.learned_pruned_afcs", pruned)
        return AfcTable(parts)

    def member_bounds(
        self, part: GroupTable, j: int, attrs: Sequence[str]
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The learned bounds :meth:`prune`'s mask asks for (a
        :class:`~repro.core.codegen_runtime.ChunkBounds`)."""
        strip = part.layout.members[j].strip
        return self._zones.member_bounds(part, j, attrs, self._decoded_dtype(strip))

    def reader_for(
        self,
        plan: ExtractionPlan,
        afcs: Sequence[AlignedFileChunkSet],
        tracer=NULL_TRACER,
        coalesce_gap_bytes: int = 0,
        node: Optional[str] = None,
    ) -> AfcReader:
        """One call's decoder of ``plan.extracted`` for ``afcs``, their
        nearby chunk reads merged into wide reads when
        ``coalesce_gap_bytes > 0`` — planned at the call's first chunk
        miss (:class:`_PlanOnMiss`)."""
        columns = plan.extracted
        coalesce = None
        if coalesce_gap_bytes > 0:
            coalesce = _PlanOnMiss(
                partial(self.coalesce_for, afcs, columns, coalesce_gap_bytes)
            )
        return AfcReader(self, columns, plan.dtypes, tracer, coalesce, node)

    def execute_blocks(
        self,
        plan: ExtractionPlan,
        afcs: AfcTable,
        evaluator: Evaluator,
        reader: AfcReader,
        stats: IOStats,
        fuse: bool = True,
        meter=None,
    ) -> Iterator[Block]:
        """The table -> block driver: walk the table's parts in runs of
        adjacent rows (one AFC each), decode each run with one
        :meth:`AfcReader.columns` call and hand every finished
        :class:`~repro.core.kernels.BlockPipeline` block to the
        consumer, in serial AFC order.

        A run is the rows that fill the pipeline's pending count up to
        its block size.  With ``fuse`` and a compiled kernel that is
        :func:`block_rows_for` rows (a cache-sized block of the plan's
        needed columns), decoded straight into contiguous block columns
        — same rows, same order as per-AFC filtering, one
        interpreter-free pass per block; only a run cut short by the end
        of its part is concatenated with the next part's.  ``fuse=False``
        and every other evaluator step one AFC at a time: the aggregate
        fold, whose float sums depend on AFC boundaries, the
        interpreted oracle, and scans with no
        residual WHERE, whose blocks stay views of the chunks read.

        ``meter`` is the scheduler's cooperative cancel/quota state
        (``ExecOptions.run_state``; anything with ``checkpoint()`` and
        ``charge(rows, nbytes)``).  It is checked before every AFC read
        and charged each AFC's bytes as they are read — inside a run, by
        the reader — so a byte quota trips at the first AFC boundary
        past it; rows are charged when their block is filtered, so a row
        quota is overshot by at most one block or one AFC, whichever is
        larger.
        """
        pipeline = BlockPipeline(
            evaluator, reader.needed, plan.output,
            block_rows_for(reader.needed, plan.dtypes) if fuse else 1,
            stats, reader.tracer,
        )
        if meter is not None:
            meter.checkpoint()
        for part in afcs.parts:
            for lo, hi, num_rows in _runs(part.lists()[3], pipeline):
                # A lone AFC's bytes are charged with its block's rows.
                run_meter = meter if hi - lo > 1 else None
                before = stats.bytes_read
                block = pipeline.add(
                    reader.columns(part, lo, hi, stats, run_meter), num_rows
                )
                if meter is not None:
                    # charge() ends in a checkpoint: the one before the
                    # next read.
                    meter.charge(
                        rows=block[1] if block else 0,
                        nbytes=0 if run_meter else stats.bytes_read - before,
                    )
                if block is not None:
                    yield block
        block = pipeline.finish()
        if block is not None:
            if meter is not None:
                meter.charge(rows=block[1])
            yield block

    def execute_parts(
        self,
        plan: ExtractionPlan,
        afcs: AfcTable,
        evaluator: Evaluator,
        stats: IOStats,
        tracer=NULL_TRACER,
        options: Optional[ExecOptions] = None,
        node: Optional[str] = None,
    ) -> Iterable:
        """The one AFC -> part driver every front door runs: a row plan's
        fused blocks, an aggregate plan's per-AFC partial state frames,
        in AFC order.  :func:`combine_parts` finishes either.

        The AFCs the learned chunk bounds refute are dropped first
        (:meth:`prune`), before the reader and its coalescing plan
        (``coalesce_gap_bytes``) are built.  ``evaluator`` filters: the
        caller's kernel cache resolves it, as the extractor compiles no
        predicate.  ``run_state`` meters the run
        (:meth:`execute_blocks`); ``node`` is the executing node of a
        data-source service (:class:`AfcReader`).  Serially, parts are
        produced as they are consumed, which is how a node server
        streams a reply while its next block is still being read.  With
        ``intra_node_workers > 1`` that many threads run the block
        driver one AFC per job, into per-job stats merged in AFC order,
        so rows and stats totals are a serial run's whatever the thread
        interleaving; the parts are then returned as one list.
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        afcs = self.prune(plan, afcs, tracer)
        reader = self.reader_for(
            plan, afcs, tracer, opts.coalesce_gap_bytes, node
        )
        meter = opts.run_state
        workers = min(opts.intra_node_workers, len(afcs) or 1)
        if workers == 1:
            return self._parts(plan, afcs, evaluator, reader, stats, meter)

        def job(i: int):
            local = IOStats()
            parts = self._parts(
                plan, afcs[i:i + 1], evaluator, reader, local, meter
            )
            return list(parts), local

        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"intra-{node or 'local'}"
        ) as pool:
            outcomes = list(pool.map(job, range(len(afcs))))
        for _, local in outcomes:
            stats.merge(local)
        return [part for parts, _ in outcomes for part in parts]

    def _parts(
        self,
        plan: ExtractionPlan,
        afcs: AfcTable,
        evaluator: Evaluator,
        reader: AfcReader,
        stats: IOStats,
        meter,
    ) -> Iterator:
        """:meth:`execute_blocks`, consumed the way the plan asks: a row
        plan's fused blocks as they are, an aggregate plan's per-AFC
        blocks each folded into a partial state frame — extracted rows
        die here.  The fold stays per AFC: folding per fused block would
        re-associate float ``SUM``/``AVG`` and break bit-identity with
        ``vectorize="off"``.
        """
        spec = plan.aggregate
        blocks = self.execute_blocks(
            plan, afcs, evaluator, reader, stats,
            fuse=spec is None, meter=meter,
        )
        if spec is None:
            return blocks
        return self._fold(plan, blocks, stats)

    @staticmethod
    def _fold(plan: ExtractionPlan, blocks: Iterable[Block], stats: IOStats):
        for columns, count in blocks:
            stats.rows_aggregated += count
            yield partial_aggregate(plan.aggregate, columns, count, plan.dtypes)


def local_mount(root: Union[str, "os.PathLike"]) -> Mount:
    """A mount mapping every node to ``root/<node>`` on the local disk.

    This is how a virtual cluster lives in one directory tree: node
    ``osu0``'s files sit under ``root/osu0/``.  ``root`` may be a ``str``
    or any ``os.PathLike`` (``pathlib.Path``).
    """
    root = os.fspath(root)

    def resolve(node: str, path: str) -> str:
        return os.path.join(root, node, path)

    return resolve
