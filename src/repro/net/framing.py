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
pooled :class:`~repro.net.client.TcpTransport` call :func:`write_frame`
and :func:`read_frame` (or :func:`read_header` and :func:`recv_into`,
to receive a BATCH payload straight into result columns) from whichever
thread owns the connection.  :func:`write_frame` is the one writer: a
payload given as several buffers — a BATCH's header and column arrays —
goes to the kernel by ``sendmsg`` without being joined first.
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


#: Most buffers one ``sendmsg`` call may carry: the kernel refuses a
#: longer iovec array (``IOV_MAX``, 1024 on Linux and macOS), so
#: :func:`write_frame` sends longer lists in turns.
IOV_MAX = 1024


def kind_name(kind: int) -> str:
    return KIND_NAMES.get(kind, f"kind#{kind}")


def _check_length(kind: int, length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"oversized {kind_name(kind)} frame: {length} bytes "
            f"(limit {MAX_FRAME_BYTES}); stream out of sync?"
        )


def recv_into(sock: socket.socket, buffer) -> None:
    """Fill the writable ``buffer`` from ``sock``, however many receives
    that takes; raise ConnectionError on EOF."""
    view = memoryview(buffer)
    count = view.nbytes
    read = 0
    while read < count:
        got = sock.recv_into(view[read:])
        if not got:
            raise ConnectionError(
                f"connection closed mid-frame ({read}/{count} bytes read)"
            )
        read += got


def recv_exact(sock: socket.socket, count: int) -> bytearray:
    """Receive exactly ``count`` bytes into the one buffer they need."""
    buf = bytearray(count)
    recv_into(sock, buf)
    return buf


def read_header(sock: socket.socket) -> Tuple[int, int]:
    """The next frame's kind and payload length, payload left unread;
    raises ConnectionError when the peer hung up."""
    kind, length = _HEADER.unpack(recv_exact(sock, _HEADER.size))
    _check_length(kind, length)
    return kind, length


def read_frame(sock: socket.socket) -> Tuple[int, bytearray]:
    """Read one frame; raises ConnectionError when the peer hung up."""
    kind, length = read_header(sock)
    return kind, recv_exact(sock, length)


def write_frame(sock: socket.socket, kind: int, *buffers) -> int:
    """Send one frame whose payload is ``buffers`` back to back; returns
    the payload length.

    Each buffer is a bytes-like object whose ``len`` is its size in
    bytes (``bytes``, ``bytearray``, a 1-D ``uint8`` array).  They reach
    the kernel as they are: ``sendmsg`` gathers at most :data:`IOV_MAX`
    of them per call, and a partial send resumes inside the buffer where
    it stopped.
    """
    pending = [b for b in buffers if len(b)]
    length = sum(len(b) for b in pending)
    pending.insert(0, _HEADER.pack(kind, length))
    unsent = _HEADER.size + length
    while True:
        sent = sock.sendmsg(pending[:IOV_MAX])
        unsent -= sent
        if not unsent:
            return length
        done = 0
        while sent >= len(pending[done]):
            sent -= len(pending[done])
            done += 1
        del pending[:done]
        if sent:
            pending[0] = memoryview(pending[0])[sent:]


def write_json(sock: socket.socket, kind: int, obj: Any) -> None:
    write_frame(sock, kind, json.dumps(obj).encode("utf-8"))


def decode_json(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed JSON frame payload: {exc}") from None
