"""Wire encoding: queries out as JSON, result batches back as raw columns.

The paper's compiler emits index and extractor functions *that run at
the data source*, and node servers load the descriptor themselves — so
an EXECUTE request ships the query, not the plan: the canonical text of
the rewritten query (``str(Query)`` re-parses bit-identically), the
needed/output column lists and aggregate spec of the plan variant being
run (widened for the result cache, stripped for the pushdown ablation),
the ``chunk_row_cap`` to split by, the node-side options, and the number
of AFCs the coordinator expects the node to plan.  A few hundred bytes,
whatever the AFC count; the node runs its own index function over its
own file groups (:mod:`repro.net.server`).  The coordinator still plans
every query in full — for the summary fast path, ``afc_count``, and to
know which nodes a result must cover — and the expected count (checked
by the node before it reads, and again by the coordinator against the
DONE frame) turns any disagreement between the two plans into a typed
:class:`~repro.errors.PlanMismatchError`, never a silently short table.

Result batches go the other way as raw bytes: a small JSON header (names,
dtypes, row count) followed by the concatenated C-contiguous column
buffers.  There is one encoder and one decoder.  :func:`table_frames`
cuts a node's finished blocks into BATCH payloads, each a list of
buffers — the length-prefixed header, then every column's pieces as
zero-copy byte views of the blocks — that the server hands to
``sendmsg`` unjoined; :func:`encode_table` is the join of that list for
a whole table.  :class:`TableReceiver` validates each header and reads
every column straight into preallocated result columns — from a socket
on the coordinator, from a bytes payload in :func:`decode_table`.
IOStats travel as their counter dict; errors as ``{etype, message,
retryable}`` and are re-raised as the closest coordinator-side type so
the retry machinery cannot tell a remote disk failure from a local one.

``encode_plan``/``decode_plan`` (a whole AFC list as JSON, strips
deduplicated into a side table) are what EXECUTE carried through
protocol rev 1.  Nothing in ``src/`` calls them any more; they stay
importable for the ledger's ``wire.plan_*`` probes until a benchmark PR
retires both.
"""

from __future__ import annotations

import json
import operator
import struct
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.afc import (
    AfcTable,
    AlignedFileChunkSet,
    ChunkRef,
    ExtractionPlan,
    InnerVar,
)
from ..core.aggregate import AggregateSpec
from ..core.kernels import Block
from ..core.options import ExecOptions
from ..core.stats import IOStats
from ..core.strips import LoopDim, Strip
from ..core.table import VirtualTable, cut_blocks
from ..errors import (
    ExtractionError,
    InjectedFault,
    PlanMismatchError,
    QueryValidationError,
    RemoteError,
    TransportError,
)
from ..sql import ast

# -- WHERE AST --------------------------------------------------------------


def encode_where(node: Optional[ast.Node]) -> Optional[Dict[str, Any]]:
    """A residual predicate AST as tagged JSON dicts (None passes through)."""
    if node is None:
        return None
    if isinstance(node, ast.Column):
        return {"t": "col", "name": node.name}
    if isinstance(node, ast.Literal):
        return {"t": "lit", "value": node.value}
    if isinstance(node, ast.BoolLiteral):
        return {"t": "bool", "value": node.value}
    if isinstance(node, ast.FunctionCall):
        return {
            "t": "call",
            "name": node.name,
            "args": [encode_where(a) for a in node.args],
        }
    if isinstance(node, ast.Comparison):
        return {
            "t": "cmp",
            "op": node.op,
            "left": encode_where(node.left),
            "right": encode_where(node.right),
        }
    if isinstance(node, ast.InList):
        return {
            "t": "in",
            "operand": encode_where(node.operand),
            "values": list(node.values),
        }
    if isinstance(node, ast.Between):
        return {
            "t": "between",
            "operand": encode_where(node.operand),
            "lo": node.lo,
            "hi": node.hi,
        }
    if isinstance(node, ast.And):
        return {"t": "and", "terms": [encode_where(t) for t in node.terms]}
    if isinstance(node, ast.Or):
        return {"t": "or", "terms": [encode_where(t) for t in node.terms]}
    if isinstance(node, ast.Not):
        return {"t": "not", "term": encode_where(node.term)}
    raise TransportError(f"cannot encode AST node {type(node).__name__}")


def decode_where(data: Optional[Dict[str, Any]]) -> Optional[ast.Node]:
    if data is None:
        return None
    tag = data.get("t")
    if tag == "col":
        return ast.Column(data["name"])
    if tag == "lit":
        return ast.Literal(data["value"])
    if tag == "bool":
        return ast.BoolLiteral(data["value"])
    if tag == "call":
        return ast.FunctionCall(
            data["name"], tuple(decode_where(a) for a in data["args"])
        )
    if tag == "cmp":
        return ast.Comparison(
            data["op"], decode_where(data["left"]), decode_where(data["right"])
        )
    if tag == "in":
        return ast.InList(decode_where(data["operand"]), tuple(data["values"]))
    if tag == "between":
        return ast.Between(decode_where(data["operand"]), data["lo"], data["hi"])
    if tag == "and":
        return ast.And(tuple(decode_where(t) for t in data["terms"]))
    if tag == "or":
        return ast.Or(tuple(decode_where(t) for t in data["terms"]))
    if tag == "not":
        return ast.Not(decode_where(data["term"]))
    raise TransportError(f"unknown AST tag {tag!r} in wire plan")


# -- strips / AFCs / plans --------------------------------------------------


def _encode_strip(strip: Strip) -> Dict[str, Any]:
    return {
        "leaf": strip.leaf_name,
        "index": strip.strip_index,
        "attrs": list(strip.attrs),
        "offsets": list(strip.attr_offsets),
        "formats": list(strip.attr_formats),
        "record_size": strip.record_size,
        "base_offset": strip.base_offset,
        "dims": [
            {
                "var": d.var,
                "start": d.start,
                "stop": d.stop,
                "step": d.step,
                "stride": d.byte_stride,
            }
            for d in strip.dims
        ],
    }


def _decode_strip(data: Dict[str, Any]) -> Strip:
    return Strip(
        leaf_name=data["leaf"],
        strip_index=data["index"],
        attrs=tuple(data["attrs"]),
        attr_offsets=tuple(data["offsets"]),
        attr_formats=tuple(data["formats"]),
        record_size=data["record_size"],
        base_offset=data["base_offset"],
        dims=tuple(
            LoopDim(d["var"], d["start"], d["stop"], d["step"], d["stride"])
            for d in data["dims"]
        ),
    )


def encode_plan(
    plan: ExtractionPlan, afcs: List[AlignedFileChunkSet]
) -> Dict[str, Any]:
    """One node's share of a plan: ``afcs`` only, strips deduplicated."""
    strips: List[Strip] = []
    strip_ids: Dict[int, int] = {}

    def strip_index(strip: Strip) -> int:
        idx = strip_ids.get(id(strip))
        if idx is None:
            idx = len(strips)
            strips.append(strip)
            strip_ids[id(strip)] = idx
        return idx

    encoded_afcs = []
    for afc in afcs:
        encoded_afcs.append(
            {
                "rows": afc.num_rows,
                "chunks": [
                    {
                        "node": c.node,
                        "path": c.path,
                        "offset": c.offset,
                        "bpr": c.bytes_per_row,
                        "strip": strip_index(c.strip),
                    }
                    for c in afc.chunks
                ],
                "constants": [[name, value] for name, value in afc.constants],
                "inner": [
                    {
                        "name": iv.name,
                        "start": iv.start,
                        "step": iv.step,
                        "count": iv.count,
                        "repeat": iv.repeat,
                    }
                    for iv in afc.inner_vars
                ],
            }
        )
    encoded = {
        "needed": list(plan.needed),
        "output": list(plan.output),
        "where": encode_where(plan.where),
        "dtypes": {name: np.dtype(dt).str for name, dt in plan.dtypes.items()},
        "strips": [_encode_strip(s) for s in strips],
        "afcs": encoded_afcs,
    }
    spec = getattr(plan, "aggregate", None)
    if spec is not None:
        encoded["agg"] = _encode_aggregate(spec)
    return encoded


def decode_plan(data: Dict[str, Any]) -> ExtractionPlan:
    strips = [_decode_strip(s) for s in data["strips"]]
    afcs = []
    for entry in data["afcs"]:
        afcs.append(
            AlignedFileChunkSet(
                num_rows=entry["rows"],
                chunks=tuple(
                    ChunkRef(
                        node=c["node"],
                        path=c["path"],
                        offset=c["offset"],
                        bytes_per_row=c["bpr"],
                        strip=strips[c["strip"]],
                    )
                    for c in entry["chunks"]
                ),
                constants=tuple(
                    (name, value) for name, value in entry["constants"]
                ),
                inner_vars=tuple(
                    InnerVar(
                        iv["name"], iv["start"], iv["step"], iv["count"],
                        iv["repeat"],
                    )
                    for iv in entry["inner"]
                ),
            )
        )
    return ExtractionPlan(
        afcs=AfcTable.of(afcs),
        needed=list(data["needed"]),
        output=list(data["output"]),
        where=decode_where(data["where"]),
        dtypes={name: np.dtype(s) for name, s in data["dtypes"].items()},
        aggregate=_decode_aggregate(data.get("agg")),
    )


# -- EXECUTE requests -------------------------------------------------------


def _encode_aggregate(spec: Optional[AggregateSpec]) -> Optional[Dict[str, Any]]:
    # Aggregate pushdown rides the request: the node folds its rows into
    # a partial state frame and the result batches carry state columns,
    # not base rows.
    if spec is None:
        return None
    return {
        "group_by": list(spec.group_by),
        "items": [[item.func, item.column] for item in spec.items],
        "output": list(spec.output),
    }


def _decode_aggregate(agg: Optional[Dict[str, Any]]) -> Optional[AggregateSpec]:
    if agg is None:
        return None
    return AggregateSpec(
        group_by=tuple(agg["group_by"]),
        items=tuple(
            ast.Aggregate(func, column) for func, column in agg["items"]
        ),
        output=tuple(agg["output"]),
    )


@dataclass(frozen=True)
class ExecuteRequest:
    """One decoded EXECUTE frame: a node's share of a query, unplanned."""

    query: str  # canonical text of the rewritten query
    needed: List[str]
    output: List[str]
    aggregate: Optional[AggregateSpec]
    chunk_row_cap: Optional[int]
    afcs: int  # how many AFCs the coordinator planned for this node
    options: ExecOptions


def encode_execute(
    plan: ExtractionPlan, afc_count: int, options: ExecOptions
) -> Dict[str, Any]:
    """The EXECUTE payload for one node: the query, not its AFCs."""
    query = getattr(plan, "query", None)
    if query is None:
        raise TransportError(
            "this plan does not record the query it was planned from "
            "(ExtractionPlan.query), so it cannot run over tcp://: node "
            "servers re-plan their share from the query text.  Plans "
            "from CompiledDataset/GeneratedDataset.plan() carry it; a "
            "hand-written planner must set it or run over local://"
        )
    return {
        "query": str(query),
        "needed": list(plan.needed),
        "output": list(plan.output),
        "agg": _encode_aggregate(plan.aggregate),
        "chunk_row_cap": plan.chunk_row_cap,
        "afcs": afc_count,
        "options": encode_options(options),
    }


def decode_execute(data: Any) -> ExecuteRequest:
    """Validate an EXECUTE payload; anything off is a TransportError."""

    def field(name: str, ok, what: str):
        value = data.get(name)
        if not ok(value):
            raise TransportError(
                f"malformed EXECUTE: {name!r} must be {what}, got {value!r}"
            )
        return value

    def is_names(value) -> bool:
        return isinstance(value, list) and all(
            isinstance(name, str) for name in value
        )

    def is_count(value) -> bool:
        return type(value) is int and value >= 0

    if not isinstance(data, dict):
        raise TransportError("malformed EXECUTE: payload is not an object")
    try:
        aggregate = _decode_aggregate(data.get("agg"))
    except (KeyError, TypeError, ValueError, QueryValidationError) as exc:
        raise TransportError(
            f"malformed EXECUTE: bad aggregate spec ({exc!r})"
        ) from None
    return ExecuteRequest(
        query=field("query", lambda v: isinstance(v, str), "query text"),
        needed=field("needed", is_names, "a list of attribute names"),
        output=field("output", is_names, "a list of attribute names"),
        aggregate=aggregate,
        chunk_row_cap=field(
            "chunk_row_cap",
            lambda v: v is None or (is_count(v) and v > 0),
            "null or a positive integer",
        ),
        afcs=field("afcs", is_count, "a non-negative integer"),
        options=decode_options(
            field("options", lambda v: isinstance(v, dict), "an object")
        ),
    )


# -- execution options ------------------------------------------------------

#: The only fields a node server acts on; everything else (retries,
#: caching, partitioning, admission control) is coordinator business.
_NODE_OPTION_FIELDS = (
    "coalesce_gap_bytes", "intra_node_workers", "batch_rows", "vectorize",
)


def encode_options(options: ExecOptions) -> Dict[str, Any]:
    """The node fields as plain JSON values: an integer field may hold
    any ``Integral`` (a NumPy scalar, say), which ``json`` cannot write,
    so each crosses as the ``int`` it stands for."""
    return {
        "coalesce_gap_bytes": operator.index(options.coalesce_gap_bytes),
        "intra_node_workers": operator.index(options.intra_node_workers),
        "batch_rows": operator.index(options.batch_rows),
        "vectorize": options.vectorize,
    }


def decode_options(data: Dict[str, Any]) -> ExecOptions:
    """The node fields of an EXECUTE's options (others are ignored),
    judged by :data:`~repro.core.options.OPTION_RULES` like any
    ExecOptions; a value it refuses is a TransportError, raised before
    anything is planned."""
    known = {name: data[name] for name in _NODE_OPTION_FIELDS if name in data}
    try:
        return ExecOptions(remote=False, parallel=False, **known)
    except ValueError as exc:
        raise TransportError(f"malformed EXECUTE: {exc}") from None


# -- result tables ----------------------------------------------------------

_HEADER_LEN = struct.Struct("!I")

#: A batch header's columns: ``(name, dtype)`` in wire order.
Schema = List[Tuple[str, np.dtype]]


def _buffers(
    rows: int,
    names: Sequence[str],
    pieces: Sequence[Sequence[np.ndarray]],
    dtypes: Sequence[np.dtype],
) -> list:
    """One table payload as the buffers it is sent from: the
    length-prefixed JSON header, then each column's ``pieces`` in order
    as byte views — copied only where a piece is strided (or not yet in
    its column's wire ``dtype``)."""
    arrays = [
        [np.ascontiguousarray(piece, dtype=dtype) for piece in column]
        for column, dtype in zip(pieces, dtypes)
    ]
    header = {
        "rows": int(rows),
        "columns": [
            {"name": name, "dtype": dtype.str, "nbytes": int(rows) * dtype.itemsize}
            for name, dtype in zip(names, dtypes)
        ],
    }
    blob = json.dumps(header).encode("utf-8")
    return [
        _HEADER_LEN.pack(len(blob)) + blob,
        *(a.view(np.uint8) for column in arrays for a in column),
    ]


def encode_table(table: VirtualTable) -> bytes:
    """JSON header + concatenated C-contiguous column buffers: the join
    of the buffers a node sends for ``table`` as one BATCH."""
    names = list(table.column_names)
    columns = [table.column(n) for n in names]
    return b"".join(
        _buffers(
            table.num_rows, names, [[c] for c in columns],
            [c.dtype for c in columns],
        )
    )


def table_frames(
    names: Sequence[str], blocks: Iterable[Block], batch_rows: int
) -> Iterator[Tuple[int, list]]:
    """``(rows, buffers)`` of each BATCH payload of a node's reply:
    ``blocks`` cut by :func:`~repro.core.table.cut_blocks` into frames of
    exactly ``batch_rows`` rows (the last one shorter), each frame built
    as soon as its last block has been produced.

    Byte for byte, the frames are :func:`encode_table` of the one table
    ``assemble_table`` would have made of the blocks, sliced
    ``batch_rows`` at a time — dtypes included: native byte order.
    """
    for piece in cut_blocks(names, blocks, batch_rows):
        rows = sum(count for _, count in piece)
        yield rows, _buffers(
            rows, names,
            [[columns[name] for columns, _ in piece] for name in names],
            [piece[0][0][name].dtype for name in names],
        )


def _malformed(what: str) -> TransportError:
    return TransportError(f"malformed table batch header: {what}")


def _schema(header: Any) -> Tuple[int, Schema]:
    """A batch header's row count and columns, each checked against what
    a table can be."""
    if not isinstance(header, dict):
        raise _malformed(f"not an object: {header!r}")
    rows, columns = header.get("rows"), header.get("columns")
    if type(rows) is not int or rows < 0:
        raise _malformed(f"rows must be a non-negative integer, got {rows!r}")
    if not isinstance(columns, list) or (rows and not columns):
        raise _malformed(f"no columns for {rows} row(s): {columns!r}")
    schema: Schema = []
    for column in columns:
        if not (
            isinstance(column, dict)
            and isinstance(column.get("name"), str)
            and isinstance(column.get("dtype"), str)
            and type(column.get("nbytes")) is int
        ):
            raise _malformed(f"bad column entry {column!r}")
        name = column["name"]
        try:
            dtype = np.dtype(column["dtype"])
        except (TypeError, ValueError, SyntaxError):
            raise _malformed(
                f"column {name!r} has unknown dtype {column['dtype']!r}"
            ) from None
        if dtype.hasobject or not dtype.itemsize or dtype.shape:
            raise _malformed(
                f"column {name!r} has dtype {dtype.str!r}: not a flat "
                "fixed-width scalar"
            )
        if column["nbytes"] != rows * dtype.itemsize:
            raise _malformed(
                f"column {name!r} declares {column['nbytes']} bytes for "
                f"{rows} row(s) of {dtype.itemsize}"
            )
        schema.append((name, dtype))
    names = [name for name, _ in schema]
    if len(set(names)) != len(names):
        raise _malformed(f"duplicate column names in {names}")
    return rows, schema


def _native(schema: Schema) -> Schema:
    return [(name, dtype.newbyteorder("=")) for name, dtype in schema]


class TableReceiver:
    """One reply's BATCH payloads, each validated, then read straight
    into the result's columns — the one decoder, fed by a socket on the
    coordinator and by a bytes payload in :func:`decode_table`.

    ``expected`` is the table every payload must match column for column
    (names, order, and dtypes up to byte order: see
    :func:`table_frames`); without it the first payload's columns are
    the schema.  Later payloads repeat the first one's exactly.
    ``bound`` caps the total rows — a row plan's planned rows — and
    sizes the columns once; without it they start at the first
    payload's rows and double as needed.  Every departure — a header
    that is not an object, a missing or mistyped field, an unknown,
    object or zero-width dtype, a column whose bytes are not its rows,
    duplicate names, bytes missing or left over — is a
    :class:`~repro.errors.TransportError`, raised before any column
    byte of that payload is read.

    ``landing`` is where the columns go instead of buffers of the
    receiver's own: per ``expected`` column, in its order, a writable
    byte view of ``bound`` rows in native byte order (a node's region of
    the coordinator's result buffer).  A reply whose first payload's
    dtypes are those lands there (:attr:`landed`); one that sends a
    column big-endian (no node of this version does: see
    :func:`table_frames`) is read into buffers of its own, as without
    it.
    """

    def __init__(
        self,
        expected: Optional[VirtualTable] = None,
        bound: Optional[int] = None,
        landing: Optional[Sequence[np.ndarray]] = None,
    ):
        self._expected = None if expected is None else _native(
            [(name, expected.column(name).dtype)
             for name in expected.column_names]
        )
        #: The rows the reply may carry at most, or None: no cap.
        self.bound = bound
        self._landing = landing
        #: True once the reply's columns are ``landing``.
        self.landed = False
        #: The first payload's columns, and each one's bytes so far.
        self._schema: Optional[Schema] = None
        self._raw: List[np.ndarray] = []
        self._capacity = 0
        self.rows = 0
        self.frames = 0
        #: Payload bytes received, table headers included.
        self.nbytes = 0

    def receive(self, read_into: Callable[[Any], None], length: int) -> None:
        """Read one ``length``-byte payload through ``read_into``, which
        fills the writable buffer it is handed."""
        rows, schema = self._header(read_into, length)
        if self._schema is None:
            if self._expected is not None and _native(schema) != self._expected:
                raise TransportError(
                    f"table batch columns {schema} differ from the "
                    f"planned {self._expected}"
                )
            self._schema = schema
            if self._landing is not None and schema == self._expected:
                self._raw = list(self._landing)
                self._capacity = self.bound
                self.landed = True
            else:
                self._raw = [np.empty(0, np.uint8) for _ in schema]
        elif schema != self._schema:
            raise TransportError(
                f"table batch columns {schema} differ from the reply's "
                f"first batch {self._schema}"
            )
        end = self.rows + rows
        if self.bound is not None and end > self.bound:
            raise TransportError(
                f"table batches carry {end} rows, more than the "
                f"{self.bound} planned"
            )
        self._reserve(schema, end)
        for (_, dtype), raw in zip(schema, self._raw):
            width = dtype.itemsize
            read_into(memoryview(raw)[self.rows * width:end * width])
        self.rows = end
        self.frames += 1
        self.nbytes += length

    @staticmethod
    def _header(
        read_into: Callable[[Any], None], length: int
    ) -> Tuple[int, Schema]:
        if length < _HEADER_LEN.size:
            raise TransportError("truncated table batch: missing header")
        prefix = bytearray(_HEADER_LEN.size)
        read_into(prefix)
        (header_len,) = _HEADER_LEN.unpack(prefix)
        body = length - _HEADER_LEN.size - header_len
        if body < 0:
            raise TransportError(
                f"truncated table batch: a {header_len}-byte header in a "
                f"{length}-byte payload"
            )
        blob = bytearray(header_len)
        read_into(blob)
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _malformed(str(exc)) from None
        rows, schema = _schema(header)
        declared = rows * sum(dtype.itemsize for _, dtype in schema)
        if declared > body:
            raise TransportError(
                f"truncated table batch: columns want {declared} bytes, "
                f"{body} remain"
            )
        if declared < body:
            raise TransportError(
                f"malformed table batch: {body - declared} trailing bytes"
            )
        return rows, schema

    def _reserve(self, schema: Schema, rows: int) -> None:
        if rows <= self._capacity:
            return
        capacity = self.bound if self.bound is not None else max(
            rows, 2 * self._capacity
        )
        grown = []
        for (_, dtype), raw in zip(schema, self._raw):
            new = np.empty(capacity * dtype.itemsize, np.uint8)
            kept = self.rows * dtype.itemsize
            new[:kept] = raw[:kept]
            grown.append(new)
        self._raw = grown
        self._capacity = capacity

    def table(self) -> VirtualTable:
        """The rows received so far, as zero-copy prefix views of the
        columns."""
        schema = self._schema or []
        return VirtualTable(
            {
                name: raw[:self.rows * dtype.itemsize].view(dtype)
                for (name, dtype), raw in zip(schema, self._raw)
            },
            order=[name for name, _ in schema],
        )


def decode_table(payload: bytes) -> VirtualTable:
    """One encoded table, through :class:`TableReceiver`."""
    view = memoryview(payload)
    pos = 0

    def read_into(buffer) -> None:
        nonlocal pos
        target = memoryview(buffer)
        target[:] = view[pos:pos + target.nbytes]
        pos += target.nbytes

    receiver = TableReceiver()
    receiver.receive(read_into, view.nbytes)
    return receiver.table()


# -- stats and errors -------------------------------------------------------


def encode_stats(stats: IOStats) -> Dict[str, int]:
    return stats.as_dict()


def decode_stats(data: Dict[str, int]) -> IOStats:
    known = {
        k: v for k, v in data.items() if k in IOStats.__dataclass_fields__
    }
    return IOStats(**known)


def encode_error(exc: BaseException) -> Dict[str, Any]:
    """A server-side failure as a typed, retryability-tagged payload."""
    return {
        "etype": type(exc).__name__,
        "message": str(exc),
        "retryable": isinstance(exc, (ExtractionError, OSError)),
    }


def decode_error(data: Dict[str, Any], node: str) -> Exception:
    """The closest coordinator-side exception for a remote failure.

    Injected faults keep their type (chaos accounting and tests see the
    same errors as in-process runs); other retryable failures collapse to
    :class:`ExtractionError`; everything else becomes a non-retryable
    :class:`RemoteError` carrying the remote type name.
    """
    etype = data.get("etype", "Exception")
    message = data.get("message", "")
    if etype == "InjectedFault":
        return InjectedFault(f"node {node!r}: {message}")
    if etype == "PlanMismatchError":
        return PlanMismatchError(f"node {node!r}: {message}")
    if data.get("retryable"):
        return ExtractionError(f"node {node!r}: {etype}: {message}")
    return RemoteError(etype, message, node)


__all__ = [
    "ExecuteRequest",
    "TableReceiver",
    "decode_error",
    "decode_execute",
    "decode_options",
    "decode_plan",
    "decode_stats",
    "decode_table",
    "decode_where",
    "encode_error",
    "encode_execute",
    "encode_options",
    "encode_plan",
    "encode_stats",
    "encode_table",
    "encode_where",
    "table_frames",
]
