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

Both ends speak it through the same blocking-socket helpers: the
threaded :class:`~repro.net.server.NodeServer` and the coordinator's
pooled :class:`~repro.net.client.TcpTransport` call :func:`read_frame`
and :func:`write_frame` from whichever thread owns the connection.
"""

from __future__ import annotations

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


def _recv_exact(sock: socket.socket, count: int) -> bytearray:
    """Receive exactly ``count`` bytes, straight into the one buffer
    they need (a multi-megabyte BATCH is never held twice); raise
    ConnectionError on EOF."""
    buf = bytearray(count)
    view = memoryview(buf)
    read = 0
    while read < count:
        got = sock.recv_into(view[read:])
        if not got:
            raise ConnectionError(
                f"connection closed mid-frame ({read}/{count} bytes read)"
            )
        read += got
    return buf


def read_frame(sock: socket.socket) -> Tuple[int, bytearray]:
    """Read one frame; raises ConnectionError when the peer hung up."""
    kind, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    _check_length(kind, length)
    return kind, _recv_exact(sock, length)


def write_frame(sock: socket.socket, kind: int, payload: bytes = b"") -> None:
    sock.sendall(_HEADER.pack(kind, len(payload)) + payload)


def write_json(sock: socket.socket, kind: int, obj: Any) -> None:
    write_frame(sock, kind, json.dumps(obj).encode("utf-8"))


def decode_json(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed JSON frame payload: {exc}") from None
