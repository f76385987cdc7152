"""Secondary index of the baseline row store.

A read-only B-tree equivalent: the (key, tid) pairs are kept fully sorted
and queried with binary search.  For a bulk-loaded, never-updated index
this is exactly what a B-tree's leaf level looks like, and the page-count
arithmetic (how many 8 KiB index pages a range scan touches) matches a
real B-tree with the same fanout — which is all the cost model needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.stats import IOStats
from ..errors import RowStoreError
from ..sql.ranges import Interval, IntervalSet
from .pages import PAGE_SIZE

#: (key f8 + tid u8) = 16 bytes; ~8 KiB pages minus header.
_ENTRIES_PER_PAGE = (PAGE_SIZE - 24) // 16


@dataclass
class BTreeIndex:
    """Sorted (key, tid) arrays standing in for a bulk-loaded B-tree."""

    column: str
    keys: np.ndarray  # float64, ascending
    tids: np.ndarray  # uint64, aligned with keys

    @classmethod
    def build(cls, column: str, values: np.ndarray, tids: np.ndarray) -> "BTreeIndex":
        values = np.asarray(values, dtype=np.float64)
        tids = np.asarray(tids, dtype=np.uint64)
        if values.shape != tids.shape:
            raise RowStoreError("index keys and tids must align")
        order = np.argsort(values, kind="stable")
        return cls(column, values[order], tids[order])

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def height(self) -> int:
        """Levels of the equivalent B-tree (for seek accounting)."""
        n = max(len(self.keys), 1)
        leaves = max(1, -(-n // _ENTRIES_PER_PAGE))
        return max(1, 1 + math.ceil(math.log(leaves, max(_ENTRIES_PER_PAGE, 2))))

    @property
    def size_bytes(self) -> int:
        leaves = -(-max(len(self.keys), 1) // _ENTRIES_PER_PAGE)
        internal = max(1, leaves // _ENTRIES_PER_PAGE)
        return (leaves + internal) * PAGE_SIZE

    # -- queries -------------------------------------------------------------

    def _interval_slice(self, interval: Interval) -> Tuple[int, int]:
        lo_side = "right" if interval.lo_open else "left"
        hi_side = "left" if interval.hi_open else "right"
        start = (
            0
            if interval.lo == -math.inf
            else int(np.searchsorted(self.keys, interval.lo, side=lo_side))
        )
        stop = (
            len(self.keys)
            if interval.hi == math.inf
            else int(np.searchsorted(self.keys, interval.hi, side=hi_side))
        )
        return start, max(start, stop)

    def estimate_selectivity(self, allowed: IntervalSet) -> float:
        """Fraction of entries inside the interval set (exact, since we
        hold the sorted keys — a real planner's histogram estimates this)."""
        if not len(self.keys):
            return 0.0
        total = 0
        for interval in allowed.intervals:
            start, stop = self._interval_slice(interval)
            total += stop - start
        return min(1.0, total / len(self.keys))

    def search(
        self, allowed: IntervalSet, stats: Optional[IOStats] = None
    ) -> np.ndarray:
        """Tids of entries within the interval set, sorted by tid.

        Sorting by tid converts the random fetch list into an ascending
        page walk (PostgreSQL's bitmap heap scan does the same).
        """
        hits: List[np.ndarray] = []
        pages_touched = 0
        for interval in allowed.intervals:
            start, stop = self._interval_slice(interval)
            if stop > start:
                hits.append(self.tids[start:stop])
                pages_touched += -(-(stop - start) // _ENTRIES_PER_PAGE)
        if stats is not None:
            descents = max(1, len(allowed.intervals))
            stats.seeks += self.height * descents
            stats.read_calls += pages_touched + self.height
            stats.bytes_read += (pages_touched + self.height) * PAGE_SIZE
        if not hits:
            return np.empty(0, dtype=np.uint64)
        out = np.concatenate(hits) if len(hits) > 1 else hits[0].copy()
        out.sort()
        return out
