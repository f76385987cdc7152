"""Per-chunk min/max summaries for stored DATAINDEX attributes.

When a descriptor declares ``DATAINDEX`` on attributes that are physically
stored in the files (Titan's spatial coordinates, as opposed to IPARS's
implicit REL/TIME), value-based chunk pruning needs per-chunk statistics.
This module builds them with a single scan over the dataset's chunks —
the moral equivalent of the paper's pre-built spatial index — and
persists them in a sidecar JSON file next to the data so the scan happens
once per dataset, not once per process.

:class:`MinMaxSummaries` is a columnar zone map: per summarised
``(node, path, attr)``, the chunks' sorted byte offsets and, beside
them, each chunk's min and max of ``attr`` in the field's own dtype —
the :class:`~repro.core.codegen_runtime.Zone` columns, read by the same
:func:`~repro.core.codegen_runtime.gather_zones`, that hold the chunk
bounds a node's segment cache teaches its extractor
(:func:`~repro.core.extractor.run_bounds` computes both).  The
generated index prunes a part's AFCs with one lookup of an offsets
column and one comparison of the gathered bounds with the query range
(:func:`~repro.core.codegen_runtime.summary_mask`).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Mapping,
    Optional, Sequence, Tuple,
)

import numpy as np

from ..core.codegen_runtime import Zone, gather_zones
from ..core.extractor import Extractor, Mount, run_bounds
from ..core.planner import CompiledDataset
from ..core.stats import IOStats
from ..errors import ExtractionError, ReproError

if TYPE_CHECKING:
    from ..core.afc import GroupTable

ChunkKey = Tuple[str, str, int]  # (node, path, offset)
ZoneKey = Tuple[str, str, str]  # (node, path, attr)


class MinMaxSummaries:
    """Per-chunk min/max of stored attributes, as columns."""

    def __init__(self, zones: Mapping[ZoneKey, Zone]):
        self.zones: Dict[ZoneKey, Zone] = {}
        #: (node, path) -> every summarised chunk's offset, sorted.
        self._chunks: Dict[Tuple[str, str], np.ndarray] = {}
        #: attr -> the dtype of its bounds.
        self.dtypes: Dict[str, np.dtype] = {}
        for key in sorted(zones):
            zone = zones[key]
            if not len(zone.offsets):
                continue
            file = key[:2]
            dtype = self.dtypes.setdefault(key[2], zone.mins.dtype)
            if zone.mins.dtype != dtype:
                raise ReproError(
                    f"attribute {key[2]!r} summarised as {dtype} and "
                    f"{zone.mins.dtype}"
                )
            known = self._chunks.get(file)
            if known is not None and np.array_equal(known, zone.offsets):
                # One offsets array per file when its attributes cover
                # the same chunks: a lookup searches it once.
                zone = zone._replace(offsets=known)
            else:
                known = zone.offsets if known is None else np.union1d(
                    known, zone.offsets
                )
                self._chunks[file] = known
            self.zones[key] = zone

    @classmethod
    def of(
        cls,
        bounds: Mapping[ChunkKey, Mapping[str, Sequence[Any]]],
        dtypes: Mapping[str, Any] = {},
    ) -> "MinMaxSummaries":
        """From per-chunk ``{attr: (min, max)}`` entries; an attribute's
        bounds are cast to ``dtypes[attr]``, float64 when absent."""
        columns: Dict[ZoneKey, Tuple[List[int], List[Any], List[Any]]] = {}
        for (node, path, offset), entry in bounds.items():
            for attr, (lo, hi) in entry.items():
                column = columns.setdefault((node, path, attr), ([], [], []))
                column[0].append(offset)
                column[1].append(lo)
                column[2].append(hi)
        zones = {}
        for key, (offsets, lows, highs) in columns.items():
            dtype = np.dtype(dtypes.get(key[2], np.float64))
            at = np.array(offsets, dtype=np.int64)
            order = np.argsort(at, kind="stable")
            zones[key] = Zone(
                at[order],
                np.array(lows, dtype=dtype)[order],
                np.array(highs, dtype=dtype)[order],
            )
        return cls(zones)

    # -- lookups -------------------------------------------------------------------

    def gather(
        self, node: str, path: str, attrs: Iterable[str], offsets: np.ndarray
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per attribute of ``attrs`` summarised in file ``(node, path)``,
        for each chunk offset of ``offsets``: whether the chunk has a
        summary, and its min and max (:func:`gather_zones`)."""
        return gather_zones(self.zones, (node, path), attrs, offsets)

    def member_bounds(
        self, part: "GroupTable", j: int, attrs: Sequence[str]
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """:meth:`gather` over member ``j``'s offsets column of ``part``
        (what :func:`~repro.core.codegen_runtime.summary_mask` asks)."""
        member = part.layout.members[j]
        return self.gather(member.node, member.path, attrs, part.offsets[:, j])

    def bounds(self, key: ChunkKey) -> Optional[Dict[str, Tuple[Any, Any]]]:
        """One chunk's ``{attr: (min, max)}`` as scalars of each field's
        dtype, or None when the chunk has no summary."""
        node, path, offset = key
        entry = {
            attr: (mins[0], maxs[0])
            for attr, (found, mins, maxs) in self.gather(
                node, path, self.dtypes, np.array([offset], dtype=np.int64)
            ).items()
            if found[0]
        }
        return entry or None

    def keys(self) -> Iterator[ChunkKey]:
        """Every summarised chunk, file by file, in offset order."""
        for (node, path), offsets in sorted(self._chunks.items()):
            for offset in offsets.tolist():
                yield node, path, offset

    def digest(self) -> str:
        """Content hash: equal digests prune every query identically.

        Only the ``tcp://`` path needs it — a coordinator and its node
        servers compare digests at connect time, because each plans its
        own share of a query and must prune alike.
        """
        sha = hashlib.sha256()
        for key in sorted(self.zones):
            sha.update(json.dumps(key).encode())
            for column in self.zones[key][:3]:
                little = column.dtype.newbyteorder("<")
                sha.update(little.str.encode())
                sha.update(column.astype(little, copy=False).tobytes())
        return sha.hexdigest()[:24]

    def __len__(self) -> int:
        return sum(len(offsets) for offsets in self._chunks.values())

    def __contains__(self, key: Any) -> bool:
        node, path, offset = key
        offsets = self._chunks.get((node, path))
        if offsets is None:
            return False
        at = int(np.searchsorted(offsets, offset))
        return at < len(offsets) and int(offsets[at]) == offset

    @property
    def attrs(self) -> Tuple[str, ...]:
        """Every summarised attribute, sorted: chunks of different
        layouts may store different attribute subsets."""
        return tuple(sorted(self.dtypes))

    # -- persistence ----------------------------------------------------------------

    def save(self, path: str) -> None:
        """Version 1 JSON: one entry per chunk, and each attribute's
        dtype.  Integer bounds are JSON integers: they round-trip
        exactly, as float bounds do through ``repr``."""
        rows: Dict[ChunkKey, Dict[str, List[Any]]] = {}
        for (node, path_, attr), zone in sorted(self.zones.items()):
            for offset, lo, hi in zip(
                zone.offsets.tolist(), zone.mins.tolist(), zone.maxs.tolist()
            ):
                rows.setdefault((node, path_, offset), {})[attr] = [lo, hi]
        payload = [
            {"node": k[0], "path": k[1], "offset": k[2], "bounds": v}
            for k, v in rows.items()
        ]
        dtypes = {attr: dtype.str for attr, dtype in self.dtypes.items()}
        with open(path, "w") as handle:
            json.dump({"version": 1, "dtypes": dtypes, "chunks": payload}, handle)

    @classmethod
    def load(cls, path: str) -> "MinMaxSummaries":
        """A saved file.  One written without ``dtypes`` holds float64
        bounds and loads as such."""
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("version") != 1:
            raise ReproError(f"unsupported summary file version in {path!r}")
        bounds = {
            (entry["node"], entry["path"], int(entry["offset"])): entry["bounds"]
            for entry in payload["chunks"]
        }
        return cls.of(bounds, payload.get("dtypes", {}))


def build_summaries(
    dataset: CompiledDataset,
    mount: Mount,
    attrs: Optional[Iterable[str]] = None,
) -> MinMaxSummaries:
    """Scan the dataset once and compute per-chunk min/max summaries.

    ``attrs`` defaults to the dataset's stored DATAINDEX attributes.  The
    scan walks the member chunks of the table the index function returns
    for an unconstrained query, so summary keys always line up with the
    chunks being pruned; each distinct chunk is read once.
    """
    attr_list = list(attrs) if attrs is not None else list(dataset.stored_index_attrs)
    if not attr_list:
        raise ReproError(
            "no stored indexed attributes to summarise; declare DATAINDEX "
            "on stored attributes in the descriptor or pass attrs=..."
        )
    for attr in attr_list:
        if attr not in dataset.schema:
            raise ReproError(f"cannot summarise unknown attribute {attr!r}")

    columns: Dict[ZoneKey, Tuple[List[np.ndarray], ...]] = {}
    seen = set()
    stats = IOStats()
    with Extractor(mount) as extractor:
        for part in dataset.index({}).parts:
            for j, member in enumerate(part.layout.members):
                stored = [a for a in attr_list if a in member.strip.attrs]
                if not stored:
                    continue
                dtype = member.strip.record_dtype(stored)
                offsets, chunks = [], []
                for offset, rows in zip(
                    part.offsets[:, j].tolist(), part.rows.tolist()
                ):
                    key = (member.node, member.path, offset)
                    if key in seen:
                        continue
                    seen.add(key)
                    data = _read_whole_records(
                        extractor, mount, key, rows * member.bytes_per_row,
                        dtype.itemsize, stats,
                    )
                    if data:
                        offsets.append(offset)
                        chunks.append(np.frombuffer(data, dtype=dtype))
                if not chunks:
                    continue
                records = np.concatenate(chunks)
                starts = np.cumsum([0] + [len(c) for c in chunks[:-1]])
                for attr in stored:
                    found = run_bounds(records[attr], starts)
                    if found is None:
                        continue
                    native = found[0].dtype.newbyteorder("=")
                    column = columns.setdefault(
                        (member.node, member.path, attr), ([], [], [])
                    )
                    column[0].append(np.array(offsets, dtype=np.int64))
                    column[1].append(found[0].astype(native))
                    column[2].append(found[1].astype(native))
    zones = {}
    for key, (offsets, mins, maxs) in columns.items():
        at = np.concatenate(offsets)
        order = np.argsort(at, kind="stable")
        zones[key] = Zone(
            at[order], np.concatenate(mins)[order], np.concatenate(maxs)[order]
        )
    return MinMaxSummaries(zones)


def _read_whole_records(
    extractor: Extractor, mount: Mount, key: ChunkKey, want: int,
    itemsize: int, stats: IOStats,
) -> bytes:
    """A chunk's bytes, clamped to whole records: a short final chunk
    (file truncated, or still being written) gives the whole records
    actually on disk."""
    node, path, offset = key
    try:
        data = extractor.read_chunk(node, path, offset, want, stats)
    except ExtractionError:
        avail = os.path.getsize(mount(node, path)) - offset
        if avail <= 0:
            return b""
        data = extractor.read_chunk(node, path, offset, min(want, avail), stats)
    return data[: len(data) // itemsize * itemsize]


def summaries_path(root: str, dataset_name: str) -> str:
    """Conventional sidecar location for a dataset's summary file."""
    return os.path.join(root, f"{dataset_name}.chunk-summaries.json")


def load_sidecar_summaries(
    root: str, dataset_name: str
) -> Optional[MinMaxSummaries]:
    """The dataset's persisted summaries, or None when never built.

    Every process that plans over ``root`` — ``repro query``, a node
    server, the coordinator of a process cluster — loads them this way,
    so they all prune alike.
    """
    path = summaries_path(root, dataset_name)
    return MinMaxSummaries.load(path) if os.path.exists(path) else None
