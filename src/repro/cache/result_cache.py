"""Thread-safe, byte-budgeted LRU caches for query results and plans.

:class:`ResultCache` stores finished query result tables keyed by their
normalized :class:`~repro.cache.keys.QueryKey` and serves two kinds of
hits: **exact** (same key) and **subsumption** (the new query's predicate
implies a cached one's, so the answer is a re-filter of the cached
superset — see :func:`~repro.cache.keys.key_subsumes`).

:class:`PlanCache` memoizes extraction plans on the same keys, so
Find_File_Groups / chunk enumeration is paid once per query shape.

Concurrency contract: entries are built fully — table copied, frozen,
measured — before they are linked into the map under the lock, so a
concurrent reader can never observe a partially-populated entry.  Stored
arrays are marked read-only; serving shares them zero-copy and a caller
that tries to mutate a served column gets an immediate ``ValueError``
instead of silently corrupting the cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from ..core.table import VirtualTable
from .keys import QueryKey, key_subsumes


def _freeze(table: VirtualTable) -> VirtualTable:
    """An immutable private copy of a result table, safe to share."""
    columns: Dict[str, np.ndarray] = {}
    for name in table.column_names:
        col = np.ascontiguousarray(table.column(name)).copy()
        col.setflags(write=False)
        columns[name] = col
    return VirtualTable(columns, order=list(table.column_names))


class CacheEntry:
    """One cached result with the metadata needed to serve and evict it."""

    __slots__ = (
        "key",
        "table",
        "columns",
        "nbytes",
        "source_bytes_read",
        "afc_count",
        "hits",
    )

    def __init__(
        self,
        key: QueryKey,
        table: VirtualTable,
        source_bytes_read: int,
        afc_count: int,
    ):
        self.key = key
        self.table = table
        self.columns: FrozenSet[str] = frozenset(table.column_names)
        self.nbytes = table.nbytes
        #: Bytes the cold execution read to produce this table — what a
        #: hit saves (``bytes.cache_saved`` / ``cache_saved_bytes``).
        self.source_bytes_read = source_bytes_read
        self.afc_count = afc_count
        self.hits = 0


class ResultCache:
    """LRU map of normalized query keys to frozen result tables."""

    def __init__(self, max_bytes: int = 64 * 1024 * 1024):
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._entries: "OrderedDict[QueryKey, CacheEntry]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.subsumption_hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lookup ---------------------------------------------------------------

    def lookup(
        self,
        key: QueryKey,
        needed_columns: FrozenSet[str],
        subsume: bool,
    ) -> Tuple[Optional[CacheEntry], str]:
        """``(entry, kind)`` for a query; kind is exact/subsume/miss.

        A subsumption candidate must also physically store every column
        the new query projects or filters on (``needed_columns``) — the
        re-filter cannot reference columns the cached table dropped.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                entry.hits += 1
                return entry, "exact"
            if subsume:
                # Most-recently-used first: recency correlates with reuse.
                for candidate in reversed(self._entries.values()):
                    if not needed_columns <= candidate.columns:
                        continue
                    if key_subsumes(candidate.key, key):
                        self._entries.move_to_end(candidate.key)
                        self.subsumption_hits += 1
                        candidate.hits += 1
                        return candidate, "subsume"
            self.misses += 1
            return None, "miss"

    # -- population -----------------------------------------------------------

    def put(
        self,
        key: QueryKey,
        table: VirtualTable,
        source_bytes_read: int = 0,
        afc_count: int = 0,
    ) -> int:
        """Insert a finished result; returns how many entries it evicted.

        The table is copied and frozen *before* the lock is taken, so the
        entry is complete the instant it becomes visible.  Results larger
        than the whole budget are not cached at all.
        """
        entry = CacheEntry(key, _freeze(table), source_bytes_read, afc_count)
        if entry.nbytes > self.max_bytes:
            return 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old.nbytes
            self._entries[key] = entry
            self.current_bytes += entry.nbytes
            evicted = 0
            while self.current_bytes > self.max_bytes and len(self._entries) > 1:
                _, victim = self._entries.popitem(last=False)
                self.current_bytes -= victim.nbytes
                evicted += 1
            self.evictions += evicted
            return evicted

    # -- maintenance ----------------------------------------------------------

    def resize(self, max_bytes: int) -> int:
        """Change the byte budget, evicting LRU entries that overflow."""
        with self._lock:
            self.max_bytes = max_bytes
            evicted = 0
            while self.current_bytes > self.max_bytes and self._entries:
                _, victim = self._entries.popitem(last=False)
                self.current_bytes -= victim.nbytes
                evicted += 1
            self.evictions += evicted
            return evicted

    def clear(self) -> None:
        """Drop every entry and reset all counters to zero."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0
            self.hits = 0
            self.subsumption_hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "subsumption_hits": self.subsumption_hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class PlanCache:
    """Count-bounded LRU of normalized query keys to extraction plans.

    Plans are shared, not copied: every consumer treats
    :class:`~repro.core.afc.ExtractionPlan` as read-only (the planner
    builds it once and the extractor / services only iterate it).
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._plans: "OrderedDict[QueryKey, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get(self, key: QueryKey):
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: QueryKey, plan) -> int:
        if self.max_entries == 0:
            return 0
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            evicted = 0
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            return evicted

    def resize(self, max_entries: int) -> int:
        with self._lock:
            self.max_entries = max_entries
            evicted = 0
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            return evicted

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._plans),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
