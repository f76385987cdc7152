"""Per-chunk min/max summaries for stored DATAINDEX attributes.

When a descriptor declares ``DATAINDEX`` on attributes that are physically
stored in the files (Titan's spatial coordinates, as opposed to IPARS's
implicit REL/TIME), value-based chunk pruning needs per-chunk statistics.
This module builds them with a single scan over the dataset's aligned
chunks — the moral equivalent of the paper's pre-built spatial index — and
persists them in a sidecar JSON file next to the data so the scan happens
once per dataset, not once per process.

:class:`MinMaxSummaries` satisfies the planner's
:class:`~repro.core.analysis.ChunkSummaries` interface and additionally
exposes an R-tree over chunk bounding boxes for direct spatial lookups.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.analysis import ChunkSummaries
from ..core.extractor import Extractor, Mount
from ..core.planner import CompiledDataset
from ..core.stats import IOStats
from ..errors import ExtractionError, ReproError
from .rtree import Box, RTree

ChunkKey = Tuple[str, str, int]  # (node, path, offset)


class MinMaxSummaries(ChunkSummaries):
    """Chunk key -> {attr: (min, max)} with optional R-tree acceleration."""

    def __init__(self, bounds: Dict[ChunkKey, Dict[str, Tuple[float, float]]]):
        self._bounds = bounds
        #: One R-tree per attribute tuple: queries over (X, Y) and over
        #: (X, Y, Z) alternate freely without rebuilding either tree.
        self._rtrees: Dict[Tuple[str, ...], RTree[ChunkKey]] = {}

    def bounds(self, key: ChunkKey) -> Optional[Dict[str, Tuple[float, float]]]:
        return self._bounds.get(tuple(key))

    def digest(self) -> str:
        payload = json.dumps(
            sorted(
                (list(key), sorted(entry.items()))
                for key, entry in self._bounds.items()
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def __len__(self) -> int:
        return len(self._bounds)

    def __contains__(self, key: ChunkKey) -> bool:
        return tuple(key) in self._bounds

    @property
    def attrs(self) -> Tuple[str, ...]:
        """Every summarised attribute, sorted.

        The union across chunks, not an arbitrary first entry's keys:
        chunks may store different attribute subsets (multi-layout
        datasets), and pruning logic keying off this property must see
        all of them.
        """
        names = set()
        for entry in self._bounds.values():
            names.update(entry)
        return tuple(sorted(names))

    # -- spatial lookups ---------------------------------------------------------

    def rtree(self, attrs: Sequence[str]) -> RTree[ChunkKey]:
        """R-tree over chunk boxes in the given attribute dimensions."""
        attrs = tuple(attrs)
        tree = self._rtrees.get(attrs)
        if tree is None:
            entries: List[Tuple[Box, ChunkKey]] = []
            for key, bounds in self._bounds.items():
                try:
                    box = tuple(bounds[a] for a in attrs)
                except KeyError as exc:
                    raise ReproError(
                        f"chunk {key} has no summary for attribute {exc}"
                    ) from None
                entries.append((box, key))
            tree = RTree.bulk_load(entries)
            self._rtrees[attrs] = tree
        return tree

    def chunks_overlapping(
        self, attrs: Sequence[str], box: Box
    ) -> List[ChunkKey]:
        return list(self.rtree(attrs).search(box))

    # -- persistence ----------------------------------------------------------------

    def save(self, path: str) -> None:
        payload = [
            {"node": k[0], "path": k[1], "offset": k[2], "bounds": v}
            for k, v in self._bounds.items()
        ]
        with open(path, "w") as handle:
            json.dump({"version": 1, "chunks": payload}, handle)

    @classmethod
    def load(cls, path: str) -> "MinMaxSummaries":
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("version") != 1:
            raise ReproError(f"unsupported summary file version in {path!r}")
        bounds: Dict[ChunkKey, Dict[str, Tuple[float, float]]] = {}
        for entry in payload["chunks"]:
            key = (entry["node"], entry["path"], int(entry["offset"]))
            bounds[key] = {
                attr: (float(lo), float(hi))
                for attr, (lo, hi) in entry["bounds"].items()
            }
        return cls(bounds)


def build_summaries(
    dataset: CompiledDataset,
    mount: Mount,
    attrs: Optional[Iterable[str]] = None,
) -> MinMaxSummaries:
    """Scan the dataset once and compute per-chunk min/max summaries.

    ``attrs`` defaults to the dataset's stored DATAINDEX attributes.  The
    scan walks the same static aligned chunks the planner will enumerate,
    so summary keys always line up with the chunks being pruned.
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

    bounds: Dict[ChunkKey, Dict[str, Tuple[float, float]]] = {}
    stats = IOStats()
    with Extractor(mount) as extractor:
        for afc in dataset.index({}):
            for chunk in afc.chunks:
                stored = [a for a in attr_list if a in chunk.strip.attrs]
                if not stored:
                    continue
                if chunk.key in bounds:
                    continue
                want = afc.num_rows * chunk.bytes_per_row
                try:
                    data = extractor.read_chunk(
                        chunk.node, chunk.path, chunk.offset, want, stats
                    )
                except ExtractionError:
                    # Short tail chunk (file truncated, or still being
                    # written): re-read just the bytes actually on disk
                    # and summarise the whole records among them.
                    avail = (
                        os.path.getsize(mount(chunk.node, chunk.path))
                        - chunk.offset
                    )
                    if avail <= 0:
                        continue
                    data = extractor.read_chunk(
                        chunk.node, chunk.path, chunk.offset,
                        min(want, avail), stats,
                    )
                dtype = chunk.strip.record_dtype(stored)
                # A short final chunk (file truncated or still being
                # written) returns fewer bytes than requested; clamp to
                # whole records so frombuffer never sees a partial one.
                usable = (len(data) // dtype.itemsize) * dtype.itemsize
                if usable == 0:
                    continue
                if usable != len(data):
                    data = data[:usable]
                records = np.frombuffer(data, dtype=dtype)
                bounds[chunk.key] = {
                    attr: (
                        float(records[attr].min()),
                        float(records[attr].max()),
                    )
                    for attr in stored
                }
    return MinMaxSummaries(bounds)


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


def load_or_build_summaries(
    dataset: CompiledDataset, mount: Mount, root: str
) -> MinMaxSummaries:
    """Load persisted summaries, or build and persist them on first use."""
    summaries = load_sidecar_summaries(root, dataset.descriptor.name)
    if summaries is None:
        summaries = build_summaries(dataset, mount)
        summaries.save(summaries_path(root, dataset.descriptor.name))
    return summaries
