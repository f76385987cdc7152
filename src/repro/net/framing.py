"""Length-prefixed frames: the unit of the node wire protocol.

Every message on a coordinator<->node connection is one frame::

    +------+----------------------+------------------+
    | kind | payload length (u32) | payload bytes    |
    | 1 B  | big-endian           | length bytes     |
    +------+----------------------+------------------+

Frames are self-delimiting, so both ends can read exactly one message
without lookahead or sentinels; the 1-byte kind dispatches it.  Payloads
are either UTF-8 JSON (control messages, queries, stats) or the binary
columnar encoding of :func:`repro.net.wire.encode_table` (BATCH frames).

The same framing is exposed twice: blocking-socket helpers for the
threaded :class:`~repro.net.server.NodeServer`, and asyncio helpers for
the coordinator's pooled :class:`~repro.net.client.TcpTransport`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Tuple

from ..errors import TransportError

#: Protocol revision; bumped on any incompatible framing/payload change.
#: Rev 2: EXECUTE ships the query text (the node plans its own share),
#: WELCOME carries descriptor/summaries digests, DONE an AFC count.
PROTOCOL_VERSION = 2

# -- frame kinds ------------------------------------------------------------

HELLO = 1        #: client -> server: identify and negotiate the protocol
WELCOME = 2      #: server -> client: node, protocol, pid, plan identity
EXECUTE = 3      #: client -> server: one query to plan and run (JSON)
BATCH = 4        #: server -> client: one columnar result batch (binary)
DONE = 5         #: server -> client: end of stream: AFC count + IOStats
ERROR = 6        #: server -> client: typed failure for the last request
PING = 7         #: liveness probe
PONG = 8         #: liveness reply
DROP_CACHES = 9  #: client -> server: forget handles/segments (cold runs)
OK = 10          #: generic acknowledgement
SHUTDOWN = 11    #: client -> server: acknowledge and exit the process

KIND_NAMES = {
    HELLO: "HELLO", WELCOME: "WELCOME", EXECUTE: "EXECUTE", BATCH: "BATCH",
    DONE: "DONE", ERROR: "ERROR", PING: "PING", PONG: "PONG",
    DROP_CACHES: "DROP_CACHES", OK: "OK", SHUTDOWN: "SHUTDOWN",
}

_HEADER = struct.Struct("!BI")

#: Upper bound on one frame's payload; a desynchronised stream otherwise
#: shows up as a multi-gigabyte bogus length and an OOM instead of an
#: error.  Result batches are bounded by ``ExecOptions.batch_rows``.
MAX_FRAME_BYTES = 1 << 29  # 512 MiB


def kind_name(kind: int) -> str:
    return KIND_NAMES.get(kind, f"kind#{kind}")


def _check_length(kind: int, length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"oversized {kind_name(kind)} frame: {length} bytes "
            f"(limit {MAX_FRAME_BYTES}); stream out of sync?"
        )


# -- blocking-socket side (server) ------------------------------------------


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes; raise ConnectionError on EOF."""
    parts = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                "bytes read)"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def read_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one frame; raises ConnectionError when the peer hung up."""
    kind, length = _HEADER.unpack(recv_exact(sock, _HEADER.size))
    _check_length(kind, length)
    payload = recv_exact(sock, length) if length else b""
    return kind, payload


def write_frame(sock: socket.socket, kind: int, payload: bytes = b"") -> None:
    sock.sendall(_HEADER.pack(kind, len(payload)) + payload)


def write_json(sock: socket.socket, kind: int, obj: Any) -> None:
    write_frame(sock, kind, json.dumps(obj).encode("utf-8"))


# -- asyncio side (coordinator) ---------------------------------------------


async def read_frame_async(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """Read one frame; raises ConnectionError on a truncated stream."""
    try:
        header = await reader.readexactly(_HEADER.size)
        kind, length = _HEADER.unpack(header)
        _check_length(kind, length)
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError(
            "connection closed mid-frame "
            f"({len(exc.partial)}/{exc.expected} bytes read)"
        ) from None
    return kind, payload


async def write_frame_async(
    writer: asyncio.StreamWriter, kind: int, payload: bytes = b""
) -> None:
    writer.write(_HEADER.pack(kind, len(payload)) + payload)
    await writer.drain()


def decode_json(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed JSON frame payload: {exc}") from None
