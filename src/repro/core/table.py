"""The virtual relational table produced by a query.

A :class:`VirtualTable` is a thin, immutable wrapper around a dict of
column-name -> numpy array.  It is the "relational table view" the paper's
data virtualization exposes; all columns have equal length and rows are
materialised lazily only when callers iterate.
"""

from __future__ import annotations

from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from ..errors import ExtractionError, ReproError


class VirtualTable:
    """Columnar query result."""

    def __init__(self, columns: Mapping[str, np.ndarray], order: Optional[Sequence[str]] = None):
        names = list(order) if order is not None else list(columns)
        self._columns: Dict[str, np.ndarray] = {}
        length = None
        for name in names:
            col = np.asarray(columns[name])
            if length is None:
                length = len(col)
            elif len(col) != length:
                raise ReproError(
                    f"column {name!r} has {len(col)} values, expected {length}"
                )
            self._columns[name] = col
        self._length = length or 0

    # -- shape -----------------------------------------------------------------

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(self._columns)

    @property
    def num_rows(self) -> int:
        return self._length

    @property
    def nbytes(self) -> int:
        """Total payload bytes across columns (the result-cache charge)."""
        return sum(col.nbytes for col in self._columns.values())

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    # -- access ------------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise ReproError(
                f"no column {name!r}; have {list(self._columns)}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def rows(self) -> Iterator[tuple]:
        """Iterate rows as tuples in column order."""
        cols = list(self._columns.values())
        for i in range(self._length):
            yield tuple(col[i] for col in cols)

    def to_structured(self) -> np.ndarray:
        """Convert to a numpy structured array (copies)."""
        dtype = np.dtype(
            [(name, col.dtype) for name, col in self._columns.items()]
        )
        out = np.empty(self._length, dtype=dtype)
        for name, col in self._columns.items():
            out[name] = col
        return out

    def sort_key(self) -> np.ndarray:
        """Row indices of the lexicographic sort over all columns.

        Used by tests to compare results as multisets regardless of the
        producing implementation's row order.
        """
        keys = [self._columns[name] for name in reversed(list(self._columns))]
        return np.lexsort(keys) if keys else np.arange(0)

    def canonical(self) -> "VirtualTable":
        """Rows sorted lexicographically — canonical form for comparisons."""
        idx = self.sort_key()
        return VirtualTable(
            {name: col[idx] for name, col in self._columns.items()},
            order=list(self._columns),
        )

    def head(self, n: int = 10) -> List[tuple]:
        return [row for _, row in zip(range(n), self.rows())]

    # -- export -------------------------------------------------------------------

    def to_csv(self, stream, header: bool = True, limit: Optional[int] = None) -> int:
        """Write rows as CSV to a text stream; returns rows written."""
        if header:
            stream.write(",".join(self._columns) + "\n")
        count = 0
        for row in self.rows():
            if limit is not None and count >= limit:
                break
            stream.write(",".join(_csv_cell(v) for v in row) + "\n")
            count += 1
        return count

    def save_npz(self, path: str) -> None:
        """Persist to a compressed .npz archive (column order preserved)."""
        np.savez_compressed(
            path, __order__=np.array(list(self._columns)), **self._columns
        )

    @classmethod
    def load_npz(cls, path: str) -> "VirtualTable":
        data = np.load(path, allow_pickle=False)
        order = [str(n) for n in data["__order__"]]
        return cls({n: data[n] for n in order}, order=order)

    def __repr__(self) -> str:
        return (
            f"<VirtualTable {self._length} rows x "
            f"{len(self._columns)} cols {list(self._columns)}>"
        )


def _csv_cell(value) -> str:
    if isinstance(value, (bytes, np.bytes_)):
        return value.decode("latin1")
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def own_column(arr: np.ndarray) -> np.ndarray:
    """A contiguous column in native byte order that is safe to hand to
    callers.

    ``np.frombuffer`` decodes over cached chunk payloads are read-only,
    and for single-attribute strips ``np.ascontiguousarray`` passes such
    views through unchanged — emitting them would hand out immutable
    aliases of segment-cache memory.  This copies exactly when that
    happens (the array is still read-only after the contiguity pass) or
    when the column is big-endian, and is otherwise as cheap as
    ``np.ascontiguousarray``.
    """
    if not arr.dtype.isnative:
        return arr.astype(arr.dtype.newbyteorder("="))
    out = np.ascontiguousarray(arr)
    if not out.flags.writeable:
        out = out.copy()
    return out


def concat_tables(tables: Sequence[VirtualTable]) -> VirtualTable:
    """Concatenate tables with identical column sets, preserving order;
    a lone table is returned as it is."""
    tables = [t for t in tables if t is not None]
    if not tables:
        return VirtualTable({})
    if len(tables) == 1:
        return tables[0]
    names = tables[0].column_names
    for t in tables[1:]:
        if t.column_names != names:
            raise ReproError(
                f"cannot concatenate tables with columns {t.column_names} "
                f"and {names}"
            )
    return VirtualTable(
        {n: np.concatenate([t.column(n) for t in tables]) for n in names},
        order=list(names),
    )


#: One finished block: the output columns of its surviving rows, and how
#: many survived (pure ``COUNT(*)`` plans have no columns).  The columns
#: may be views of extracted chunks, shared and read-only; whoever hands
#: them out takes ownership (``kernels.assemble_table``).
Block = Tuple[Dict[str, np.ndarray], int]


def cut_blocks(
    names: Sequence[str], blocks: Iterable[Block], batch_rows: int
) -> Iterator[List[Block]]:
    """``blocks`` cut into pieces of exactly ``batch_rows`` rows (the
    last one shorter), each the zero-copy slices of ``names`` of the
    blocks it spans, yielded as soon as its last block has been
    produced — the one batching rule of every stream: wire frames
    (``wire.table_frames``), :func:`batched` and
    ``Virtualizer.query_iter``.

    Every piece is in native byte order, the first block's dtypes, like
    the one table ``assemble_table`` would make of the blocks: a
    big-endian column is copied, the rest are views.  Blocks with no
    column, like a table with none, carry no rows.
    """
    if batch_rows < 1:
        raise ExtractionError("batch_rows must be positive")
    if not names:
        return
    dtypes: List[np.dtype] = []
    piece: List[Block] = []
    held = 0
    for columns, count in blocks:
        if not dtypes:
            dtypes = [columns[name].dtype.newbyteorder("=") for name in names]
        start = 0
        while start < count:
            take = min(count - start, batch_rows - held)
            piece.append(({
                name: np.asarray(columns[name][start:start + take], dtype)
                for name, dtype in zip(names, dtypes)
            }, take))
            start += take
            held += take
            if held == batch_rows:
                yield piece
                piece, held = [], 0
    if piece:
        yield piece


def batched(table: VirtualTable, batch_rows: int) -> Iterator[VirtualTable]:
    """Slice a materialised table into ``batch_rows``-sized tables: the
    table as one block through :func:`cut_blocks`.

    The streaming contract for results that already exist (cache hits,
    aggregates, shipped partials): nothing yielded for an empty table.
    The slices are zero-copy views of ``table``'s arrays, hence
    read-only wherever it is (a frozen cached result).
    """
    names = list(table.column_names)
    block = ({name: table.column(name) for name in names}, table.num_rows)
    for [(columns, _)] in cut_blocks(names, [block], batch_rows):
        yield VirtualTable(columns, order=names)


def empty_table(names: Sequence[str], dtypes: Mapping[str, np.dtype]) -> VirtualTable:
    return VirtualTable(
        {n: np.empty(0, dtype=dtypes[n]) for n in names}, order=list(names)
    )
