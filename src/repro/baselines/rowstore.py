"""The baseline relational engine standing in for PostgreSQL (Figure 6).

A minimal read-only row store with the pieces that determine the paper's
comparison:

* a *loader* that converts a virtual table into heap pages (~3x storage
  blow-up, measured and reported — the paper loaded 6 GB of Titan data
  into 18 GB of database);
* optional B-tree secondary indexes;
* a planner choosing between a sequential heap scan and a bitmap-style
  index scan by estimated selectivity;
* operation counting compatible with the STORM cost model, plus the
  row-store cost model's higher per-tuple CPU constants.

The SQL dialect is the same SELECT/WHERE subset, so identical query
strings run against both systems (only the table name differs).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.stats import IOStats
from ..core.table import VirtualTable
from ..errors import RowStoreError
from ..sql.ast import Query
from ..sql.functions import DEFAULT_REGISTRY, FunctionRegistry
from ..sql.parser import parse_query
from ..sql.ranges import extract_ranges, query_is_unsatisfiable
from ..sql.typecheck import bind_where
from .btree import BTreeIndex
from .pages import PAGE_SIZE, HeapLayout, encode_pages, tid, tid_page, tid_slot

#: Index scans win only for selective predicates; beyond this fraction the
#: random page fetches cost more than one sequential pass.
INDEX_SCAN_THRESHOLD = 0.08

#: Sequential scans stream this many pages per read call.
SCAN_BATCH_PAGES = 512


@dataclass
class TableInfo:
    name: str
    columns: List[str]
    num_rows: int
    heap_path: str
    layout: HeapLayout
    indexes: Dict[str, BTreeIndex] = field(default_factory=dict)

    @property
    def heap_bytes(self) -> int:
        return self.layout.heap_bytes(self.num_rows)

    @property
    def total_bytes(self) -> int:
        return self.heap_bytes + sum(i.size_bytes for i in self.indexes.values())


@dataclass
class ScanChoice:
    """The planner's decision for one query (reported by EXPLAIN)."""

    method: str  # 'seqscan' | 'indexscan' | 'empty'
    index_column: Optional[str] = None
    estimated_selectivity: float = 1.0

    def __str__(self) -> str:
        if self.method == "indexscan":
            return (
                f"Index Scan on {self.index_column} "
                f"(selectivity {self.estimated_selectivity:.4f})"
            )
        return {"seqscan": "Seq Scan", "empty": "Result (no rows)"}[self.method]


class MiniRowStore:
    """A directory of heap files + index files, queryable with the SQL subset."""

    def __init__(
        self, root: str, functions: Optional[FunctionRegistry] = None
    ):
        self.root = root
        self.functions = functions or DEFAULT_REGISTRY
        self.tables: Dict[str, TableInfo] = {}
        os.makedirs(root, exist_ok=True)
        self._load_catalog()

    # -- loading ----------------------------------------------------------------

    def create_table(
        self,
        name: str,
        table: VirtualTable,
        indexes: Sequence[str] = (),
    ) -> TableInfo:
        """Load a table; returns its info (including on-disk size)."""
        if name in self.tables:
            raise RowStoreError(f"table {name!r} already exists")
        columns = list(table.column_names)
        layout = HeapLayout(len(columns))
        heap_path = os.path.join(self.root, f"{name}.heap")
        payload = encode_pages(
            {c: table.column(c) for c in columns}, columns
        )
        with open(heap_path, "wb") as handle:
            handle.write(payload)
        info = TableInfo(name, columns, table.num_rows, heap_path, layout)
        per_page = layout.tuples_per_page
        rows = np.arange(table.num_rows)
        tids = tid(rows // per_page, rows % per_page)
        for column in indexes:
            if column not in columns:
                raise RowStoreError(
                    f"cannot index unknown column {column!r} on {name!r}"
                )
            index = BTreeIndex.build(column, table.column(column), tids)
            info.indexes[column] = index
            np.savez(
                os.path.join(self.root, f"{name}.{column}.idx"),
                keys=index.keys,
                tids=index.tids,
            )
        self.tables[name] = info
        self._save_catalog()
        return info

    def drop_table(self, name: str) -> None:
        info = self.tables.pop(name, None)
        if info is None:
            return
        if os.path.exists(info.heap_path):
            os.remove(info.heap_path)
        for column in info.indexes:
            path = os.path.join(self.root, f"{name}.{column}.idx.npz")
            if os.path.exists(path):
                os.remove(path)
        self._save_catalog()

    # -- catalog persistence -------------------------------------------------------

    def _catalog_path(self) -> str:
        return os.path.join(self.root, "catalog.json")

    def _save_catalog(self) -> None:
        payload = {
            name: {
                "columns": info.columns,
                "num_rows": info.num_rows,
                "indexes": list(info.indexes),
            }
            for name, info in self.tables.items()
        }
        with open(self._catalog_path(), "w") as handle:
            json.dump(payload, handle)

    def _load_catalog(self) -> None:
        path = self._catalog_path()
        if not os.path.exists(path):
            return
        with open(path) as handle:
            payload = json.load(handle)
        for name, meta in payload.items():
            info = TableInfo(
                name,
                list(meta["columns"]),
                int(meta["num_rows"]),
                os.path.join(self.root, f"{name}.heap"),
                HeapLayout(len(meta["columns"])),
            )
            for column in meta["indexes"]:
                data = np.load(os.path.join(self.root, f"{name}.{column}.idx.npz"))
                info.indexes[column] = BTreeIndex(
                    column, data["keys"], data["tids"]
                )
            self.tables[name] = info

    # -- planning ----------------------------------------------------------------

    def table(self, name: str) -> TableInfo:
        try:
            return self.tables[name]
        except KeyError:
            raise RowStoreError(
                f"no table {name!r}; have {sorted(self.tables)}"
            ) from None

    def choose_scan(self, info: TableInfo, query: Query) -> ScanChoice:
        ranges = extract_ranges(query.where)
        if query_is_unsatisfiable(ranges):
            return ScanChoice("empty")
        best: Optional[Tuple[float, str]] = None
        for column, allowed in ranges.items():
            index = info.indexes.get(column)
            if index is None or allowed.nan:  # the index holds no NaN key
                continue
            selectivity = index.estimate_selectivity(allowed)
            if best is None or selectivity < best[0]:
                best = (selectivity, column)
        if best is not None and best[0] <= INDEX_SCAN_THRESHOLD:
            return ScanChoice("indexscan", best[1], best[0])
        return ScanChoice("seqscan")

    def explain(self, sql: Union[Query, str]) -> str:
        query, info = self._resolve(sql)
        return str(self.choose_scan(info, query))

    def _resolve(self, sql: Union[Query, str]) -> Tuple[Query, TableInfo]:
        """The query, its WHERE bound to the table's float64 datums,
        and its table."""
        query = parse_query(sql) if isinstance(sql, str) else sql
        info = self.table(query.table)
        dtypes = dict.fromkeys(info.columns, np.dtype("<f8"))
        return replace(query, where=bind_where(query.where, dtypes)[0]), info

    # -- execution ------------------------------------------------------------------

    def query(
        self, sql: Union[Query, str], stats: Optional[IOStats] = None
    ) -> VirtualTable:
        query, info = self._resolve(sql)
        stats = stats if stats is not None else IOStats()
        output = query.projected_names(info.columns)
        needed = list(output)
        for name in query.referenced_columns():
            if name not in info.columns:
                raise RowStoreError(
                    f"unknown column {name!r} in WHERE "
                    f"(table has {info.columns})"
                )
            if name not in needed:
                needed.append(name)
        choice = self.choose_scan(info, query)
        if choice.method == "empty":
            return VirtualTable(
                {n: np.empty(0, dtype=np.float64) for n in output}, order=output
            )
        if choice.method == "indexscan":
            columns = self._index_scan(info, query, needed, choice, stats)
        else:
            columns = self._seq_scan(info, needed, stats)
        return self._finish(query, columns, output, stats)

    def _seq_scan(
        self, info: TableInfo, needed: List[str], stats: IOStats
    ) -> Dict[str, np.ndarray]:
        layout = info.layout
        per_page = layout.tuples_per_page
        pieces: Dict[str, List[np.ndarray]] = {n: [] for n in needed}
        stats.files_opened += 1
        stats.seeks += 1
        remaining = info.num_rows
        with open(info.heap_path, "rb") as handle:
            page_no = 0
            while remaining > 0:
                payload = handle.read(SCAN_BATCH_PAGES * PAGE_SIZE)
                if not payload:
                    raise RowStoreError(
                        f"heap file {info.heap_path!r} truncated"
                    )
                stats.read_calls += 1
                stats.bytes_read += len(payload)
                batch_pages = len(payload) // PAGE_SIZE
                rows_here = min(remaining, batch_pages * per_page)
                decoded = _decode_batch(payload, layout, info.columns, needed, rows_here)
                for name in needed:
                    pieces[name].append(decoded[name])
                remaining -= rows_here
                page_no += batch_pages
        stats.rows_extracted += info.num_rows
        return {
            n: (
                np.concatenate(pieces[n])
                if pieces[n]
                else np.empty(0, dtype=np.float64)
            )
            for n in needed
        }

    def _index_scan(
        self,
        info: TableInfo,
        query: Query,
        needed: List[str],
        choice: ScanChoice,
        stats: IOStats,
    ) -> Dict[str, np.ndarray]:
        ranges = extract_ranges(query.where)
        index = info.indexes[choice.index_column]
        tids = index.search(ranges[choice.index_column], stats)
        pages = tid_page(tids)
        slots = tid_slot(tids)
        layout = info.layout
        stats.files_opened += 1
        pieces: Dict[str, List[np.ndarray]] = {n: [] for n in needed}
        with open(info.heap_path, "rb") as handle:
            # Bitmap-style fetch: ascending distinct pages, decode only the
            # tuples the index matched.
            unique_pages, page_starts = np.unique(pages, return_index=True)
            for i, page in enumerate(unique_pages):
                start = page_starts[i]
                stop = page_starts[i + 1] if i + 1 < len(unique_pages) else len(tids)
                handle.seek(int(page) * PAGE_SIZE)
                payload = handle.read(PAGE_SIZE)
                stats.seeks += 1
                stats.read_calls += 1
                stats.bytes_read += len(payload)
                rows_on_page = min(
                    layout.tuples_per_page,
                    info.num_rows - int(page) * layout.tuples_per_page,
                )
                decoded = _decode_batch(payload, layout, info.columns, needed, rows_on_page)
                page_slots = slots[start:stop]
                for name in needed:
                    pieces[name].append(decoded[name][page_slots])
        stats.rows_extracted += len(tids)
        if not tids.size:
            return {n: np.empty(0, dtype=np.float64) for n in needed}
        return {n: np.concatenate(pieces[n]) for n in needed}

    def _finish(
        self,
        query: Query,
        columns: Dict[str, np.ndarray],
        output: List[str],
        stats: IOStats,
    ) -> VirtualTable:
        if query.where is not None:
            mask = np.asarray(query.where.evaluate(columns, self.functions))
            if mask.ndim == 0:
                if not bool(mask):
                    columns = {n: columns[n][:0] for n in output}
            else:
                columns = {n: columns[n][mask] for n in output}
        selected = {n: columns[n] for n in output}
        stats.rows_output += len(selected[output[0]]) if output else 0
        return VirtualTable(selected, order=output)


def _decode_batch(
    payload: bytes,
    layout: HeapLayout,
    all_columns: List[str],
    needed: List[str],
    num_rows: int,
) -> Dict[str, np.ndarray]:
    """Decode needed columns from a run of pages (strided views + copy).

    Datum offsets are positional in the table's stored column order.
    """
    from .pages import DATUM, TUPLE_HEADER

    num_pages = len(payload) // PAGE_SIZE
    per_page = layout.tuples_per_page
    out: Dict[str, np.ndarray] = {}
    if num_pages == 0 or num_rows == 0:
        return {name: np.empty(0, dtype=np.float64) for name in needed}
    for name in needed:
        ci = all_columns.index(name)
        offset = layout.data_start + TUPLE_HEADER + DATUM * ci
        view = np.ndarray(
            shape=(num_pages, per_page),
            dtype="<f8",
            buffer=payload,
            offset=offset,
            strides=(PAGE_SIZE, layout.tuple_bytes),
        )
        out[name] = view.reshape(-1)[:num_rows].copy()
    return out
