"""Heap-page storage format of the baseline relational row store.

The layout mimics the storage characteristics of a 2004-era PostgreSQL
heap, because those characteristics — not the query optimiser — produce
Figure 6's shape:

* fixed 8 KiB pages with a 24-byte page header;
* a 4-byte line pointer per tuple;
* a 24-byte tuple header (transaction visibility fields we fake);
* every attribute stored as an 8-byte datum (pass-by-value widening),
  so a packed 36-byte Titan record becomes a ~100-byte heap tuple.

The resulting ~3x blow-up over the raw flat files matches the paper's
measurement (6 GB raw -> 18 GB loaded).  All encode/decode paths are
vectorised with strided numpy views; per-tuple CPU overhead is charged by
the *cost model*, not burned in Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..errors import RowStoreError

PAGE_SIZE = 8192
PAGE_HEADER = 24
LINE_POINTER = 4
TUPLE_HEADER = 24
DATUM = 8

#: Fake transaction id written into every tuple header's xmin field.
FROZEN_XID = 2


@dataclass(frozen=True)
class HeapLayout:
    """Derived geometry of a table's heap pages."""

    num_columns: int

    @property
    def tuple_bytes(self) -> int:
        return TUPLE_HEADER + DATUM * self.num_columns

    @property
    def tuples_per_page(self) -> int:
        usable = PAGE_SIZE - PAGE_HEADER
        per_tuple = self.tuple_bytes + LINE_POINTER
        count = usable // per_tuple
        if count < 1:
            raise RowStoreError(
                f"{self.num_columns} columns do not fit in one page"
            )
        return count

    @property
    def data_start(self) -> int:
        """Offset of the first tuple within a page."""
        return PAGE_HEADER + LINE_POINTER * self.tuples_per_page

    def num_pages(self, num_rows: int) -> int:
        return -(-num_rows // self.tuples_per_page) if num_rows else 0

    def heap_bytes(self, num_rows: int) -> int:
        return self.num_pages(num_rows) * PAGE_SIZE

    def tuple_dtype(self, names: Sequence[str]) -> np.dtype:
        """Structured dtype decoding one heap tuple (datums are f8/i8)."""
        return np.dtype(
            {
                "names": list(names),
                "formats": ["<f8"] * len(names),
                "offsets": [TUPLE_HEADER + DATUM * i for i in range(len(names))],
                "itemsize": self.tuple_bytes,
            }
        )


def tid(page: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Tuple identifier packing (page number, slot)."""
    return (np.asarray(page, dtype=np.uint64) << np.uint64(16)) | np.asarray(
        slot, dtype=np.uint64
    )


def tid_page(tids: np.ndarray) -> np.ndarray:
    return (np.asarray(tids, dtype=np.uint64) >> np.uint64(16)).astype(np.int64)


def tid_slot(tids: np.ndarray) -> np.ndarray:
    return (np.asarray(tids, dtype=np.uint64) & np.uint64(0xFFFF)).astype(np.int64)


def encode_pages(
    columns: Dict[str, np.ndarray], names: Sequence[str]
) -> bytes:
    """Pack columns into heap pages; returns the heap file payload."""
    layout = HeapLayout(len(names))
    num_rows = len(columns[names[0]]) if names else 0
    num_pages = layout.num_pages(num_rows)
    buf = bytearray(num_pages * PAGE_SIZE)
    per_page = layout.tuples_per_page

    # Page headers: lower/upper pointers + checksum placeholder.
    header = np.ndarray(
        shape=(num_pages, 3),
        dtype="<u4",
        buffer=buf,
        strides=(PAGE_SIZE, 4),
    )
    if num_pages:
        header[:, 0] = layout.data_start
        header[:, 1] = PAGE_SIZE
        header[:, 2] = FROZEN_XID

    # Column datums, written with one strided assignment per column: the
    # global row index r lives on page r // per_page at slot r % per_page.
    full_rows = (num_rows // per_page) * per_page
    for ci, name in enumerate(names):
        data = np.asarray(columns[name], dtype=np.float64)
        offset = layout.data_start + TUPLE_HEADER + DATUM * ci
        if full_rows:
            view = np.ndarray(
                shape=(num_rows // per_page, per_page),
                dtype="<f8",
                buffer=buf,
                offset=offset,
                strides=(PAGE_SIZE, layout.tuple_bytes),
            )
            view[...] = data[:full_rows].reshape(-1, per_page)
        tail = num_rows - full_rows
        if tail:
            view = np.ndarray(
                shape=(tail,),
                dtype="<f8",
                buffer=buf,
                offset=(num_rows // per_page) * PAGE_SIZE + offset,
                strides=(layout.tuple_bytes,),
            )
            view[...] = data[full_rows:]

    # Tuple headers: xmin field for every live tuple.
    if num_pages:
        xmin = np.ndarray(
            shape=(num_pages, per_page),
            dtype="<u4",
            buffer=buf,
            offset=layout.data_start,
            strides=(PAGE_SIZE, layout.tuple_bytes),
        )
        xmin[...] = FROZEN_XID
    return bytes(buf)
