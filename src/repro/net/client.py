"""Coordinator-side network transport: pooled blocking node clients.

One :class:`TcpTransport` serves a whole cluster.  It starts no thread
and runs no event loop: the query service already dedicates a worker
thread to every node of a query, and that thread speaks the node
protocol itself — :meth:`TcpTransport.execute_node` takes a pooled
socket, writes EXECUTE and reads BATCH.../DONE with the blocking
helpers of :mod:`~repro.net.framing` (the same ones the node server
uses), releasing the GIL in ``recv`` so several nodes' replies arrive
in parallel.  A BATCH is never held as a payload: after its header,
every column is received by ``recv_into`` straight into that node's
result columns (:class:`~repro.net.wire.TableReceiver`, sized once by
the planned rows of a row plan), and the node's table is a zero-copy
view of them.  Where the plan fixes every node's rows (no residual
WHERE, several nodes, no ``node_timeout``), those columns are the
node's region of the query's one result buffer
(:meth:`TcpTransport.node_blocks`): replies that fill their regions are
the result, and the coordinator copies nothing; otherwise the query
service's one merge of the nodes' replies is the one copy.  Each node
has a small connection pool (``ExecOptions.max_connections_per_node``:
a semaphore plus an idle list) and a cluster-wide semaphore
(``ExecOptions.inflight_limit``) is admission control — per-node
backpressure comes from the pool, cluster-wide backpressure from the
semaphore.  Retries, timeouts, and
degraded results stay coordinator business, in
``QueryService._extract_nodes``, untouched: an attempt abandoned by
``node_timeout`` keeps its pool and in-flight slot until the node
answers or the socket dies.

Failure mapping keeps the chaos/retry semantics of the in-process path:
dials and resets surface as :class:`~repro.errors.NodeConnectionError`
(an :class:`~repro.errors.ExtractionError`, hence retryable); typed
ERROR frames are re-raised via :func:`repro.net.wire.decode_error`; a
coordinator-side :class:`~repro.faults.FaultInjector` is consulted
before every request (``node-down`` over sockets).  Each request is
traced as an ``rpc`` span tagged with round-trip time and payload sizes.

Requests ship the query, not the plan (:mod:`repro.net.wire`): the
``afcs`` handed to :meth:`TcpTransport.execute_node` only tell the node
how many AFCs to expect from its own index function.  The transport
therefore refuses, at connect time, a server that plans from a different
descriptor or different chunk summaries than the coordinator
(``expected`` vs the WELCOME identity), and raises
:class:`~repro.errors.PlanMismatchError` when a reply covers a different
number of AFCs than were planned for that node.
"""

from __future__ import annotations

import functools
import json
import select
import socket
import threading
import time
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.afc import AfcTable, ExtractionPlan
from ..core.extractor import empty_result
from ..core.kernels import Block
from ..core.options import DEFAULT_OPTIONS, ExecOptions
from ..core.stats import IOStats
from ..core.table import VirtualTable
from ..errors import NodeConnectionError, PlanMismatchError, TransportError
from ..obs.tracer import NULL_TRACER
from ..storm.transport import Transport
from . import framing, wire


def _dial(
    address: Tuple[str, int], expected: Dict[str, object],
    timeout: Optional[float],
) -> Tuple[socket.socket, dict]:
    """The one way a connection is made: TCP dial, HELLO/WELCOME, checks.

    ``timeout`` bounds the dial and each send/receive of the handshake,
    then is cleared (a request blocks for as long as the node works).
    Raises ``OSError`` when the address does not answer in time or hangs
    up, :class:`TransportError` when its WELCOME differs from
    ``expected`` on any key (protocol revision, node name, what the
    node plans from).
    """
    host, port = address
    try:
        sock = socket.create_connection(address, timeout=timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            framing.write_frame(
                sock, framing.HELLO,
                b'{"protocol": %d}' % framing.PROTOCOL_VERSION,
            )
            kind, payload = framing.read_frame(sock)
            if kind != framing.WELCOME:
                raise TransportError(
                    f"expected WELCOME, got {framing.kind_name(kind)}"
                )
            welcome = framing.decode_json(payload)
            for key, want in expected.items():
                if welcome.get(key) != want:
                    raise TransportError(
                        f"node server at {host}:{port} announces {key} "
                        f"{welcome.get(key)!r}, the coordinator expects "
                        f"{want!r}; both must speak the same protocol "
                        "revision and load the same descriptor and "
                        "chunk summaries"
                    )
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
    except socket.timeout:
        raise OSError(
            f"{host}:{port} did not finish dial + HELLO/WELCOME: "
            f"timed out after {timeout}s"
        ) from None
    return sock, welcome


def _hang_up(sock: socket.socket) -> None:
    """Close, waking any thread blocked in ``recv`` on it with EOF."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


def _readable(sock: socket.socket) -> bool:
    """Would ``recv`` return at once?  Asked of idle connections, which
    are owed nothing: readable means the node hung up (EOF) or the
    stream is out of sync — dead either way, and told without I/O."""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):  # closed, or past select's fd range
        return True


class _NodePool:
    """Bounded connection pool for one node, shared by caller threads."""

    def __init__(
        self, node: str, address: Tuple[str, int], limit: int,
        expected: Dict[str, object], first: socket.socket,
    ):
        self.node = node
        self.address = address
        #: What every later dial must hear in its WELCOME, too.
        self._expected = {**expected, "node": node}
        #: One slot per connection that may exist; a request holds its
        #: slot throughout, so waiting here is per-node backpressure.
        self._slots = threading.BoundedSemaphore(limit)
        #: Guards everything below.
        self._lock = threading.Lock()
        self._idle: deque = deque([first])
        #: Every live connection, idle or carrying a request, so that
        #: ``close`` can hang up on the ones blocked in ``recv``.
        self._open: Set[socket.socket] = {first}
        self._closed = False
        #: Connections ever made (the discovery probe's is the first).
        self.dials = 1

    def request(
        self,
        kind: int,
        payload: bytes,
        want: int,
        connect_timeout: Optional[float],
        batches: Optional[wire.TableReceiver] = None,
    ) -> bytearray:
        """One request/reply on a pooled connection, on this thread.

        Returns the payload of the ``want`` frame that closed the reply;
        its BATCH payloads are received into ``batches``, column by
        column, as they arrive.  An ERROR frame — after some batches or
        none — is raised as what it encodes.  No timeout on the reply: a
        hung node is the query service's business
        (``ExecOptions.node_timeout`` abandons the attempt).
        """
        try:
            with self._slots:
                sock = self._checkout(connect_timeout)
                # Reusable only once its whole reply has been read: a
                # connection that failed mid-reply is out of sync.
                reusable = False
                try:
                    framing.write_frame(sock, kind, payload)
                    read_into = functools.partial(framing.recv_into, sock)
                    while True:
                        got, length = framing.read_header(sock)
                        if got != framing.BATCH or batches is None:
                            data = framing.recv_exact(sock, length)
                            break
                        batches.receive(read_into, length)
                    reusable = True
                finally:
                    self._checkin(sock, reusable)
        except OSError as exc:
            raise NodeConnectionError(self.node, exc) from None
        if got == framing.ERROR:
            raise wire.decode_error(framing.decode_json(data), self.node)
        if got != want:
            raise TransportError(
                f"expected {framing.kind_name(want)}, got "
                f"{framing.kind_name(got)}"
            )
        return data

    def _checkout(self, connect_timeout: Optional[float]) -> socket.socket:
        """A connection fit to carry a request: idle if any, else new."""
        while True:
            with self._lock:
                if self._closed:
                    raise OSError("transport is closed")
                sock = self._idle.popleft() if self._idle else None
            if sock is None:
                sock, _ = _dial(
                    self.address, self._expected, connect_timeout
                )
                with self._lock:
                    self.dials += 1
                    self._open.add(sock)
                    if not self._closed:
                        return sock
            elif not _readable(sock):
                return sock
            self._checkin(sock, reusable=False)

    def _checkin(self, sock: socket.socket, reusable: bool) -> None:
        with self._lock:
            if reusable and not self._closed:
                self._idle.append(sock)
                return
            self._open.discard(sock)
        _hang_up(sock)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            socks = list(self._open)
            self._open.clear()
            self._idle.clear()
        for sock in socks:
            _hang_up(sock)


class TcpTransport(Transport):
    """Fan out extraction over real sockets to node server processes."""

    scheme = "tcp"
    lands_replies = True

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        options: ExecOptions = DEFAULT_OPTIONS,
        fault_injector=None,
        expected: Optional[Dict[str, Optional[str]]] = None,
    ):
        """Connect to node servers and learn which node each serves.

        Pool shape (``max_connections_per_node``, ``inflight_limit``)
        is fixed from ``options`` here, at connect time; per-call
        options still govern dial timeouts, batching, and I/O shape.
        ``expected`` is the coordinator dataset's
        :func:`~repro.core.codegen.plan_identity`; a server whose
        WELCOME differs on any of its keys is refused.
        """
        self.fault_injector = fault_injector
        self._options = options
        self._inflight = threading.BoundedSemaphore(options.inflight_limit)
        self._pools: Dict[str, _NodePool] = {}
        self.addresses: Dict[str, Tuple[str, int]] = {}
        wanted = {"protocol": framing.PROTOCOL_VERSION, **(expected or {})}
        try:
            for host, port in addresses:
                self._discover((host, port), wanted)
        except BaseException:
            self.close()
            raise

    # -- connect-time discovery ---------------------------------------------

    def _discover(
        self, address: Tuple[str, int], expected: Dict[str, object]
    ) -> None:
        """One HELLO to an address: which node, which rev, planning from
        what (dataset, descriptor, chunk summaries).  The probing
        connection becomes the first of that node's pool."""
        try:
            sock, welcome = _dial(
                address, expected, self._options.connect_timeout
            )
        except OSError as exc:
            raise TransportError(
                "no node server at {}:{}: {}".format(*address, exc)
            ) from None
        node = welcome.get("node")
        if not node or node in self.addresses:
            sock.close()
            raise TransportError(
                f"node server at {address} reported no node name"
                if not node else
                f"two servers ({self.addresses[node]} and {address}) "
                f"both claim node {node!r}"
            )
        self.addresses[node] = address
        self._pools[node] = _NodePool(
            node, address, self._options.max_connections_per_node,
            expected, sock,
        )

    @property
    def node_names(self) -> List[str]:
        return list(self.addresses)

    def _pool(self, node: str) -> _NodePool:
        try:
            return self._pools[node]
        except KeyError:
            raise TransportError(
                f"no server for node {node!r}; cluster has "
                f"{sorted(self._pools)}"
            ) from None

    # -- the Transport surface ----------------------------------------------

    def execute_node(
        self,
        node: str,
        plan: ExtractionPlan,
        afcs: AfcTable,
        stats: IOStats,
        tracer=NULL_TRACER,
        options=None,
    ) -> VirtualTable:
        batches = self._execute(node, plan, afcs, stats, tracer, options)
        return batches.table() if batches.frames else empty_result(plan)

    def node_blocks(
        self,
        node: str,
        plan: ExtractionPlan,
        afcs: AfcTable,
        stats: IOStats,
        tracer=NULL_TRACER,
        options=None,
        landing: Optional[Mapping[str, np.ndarray]] = None,
    ) -> List[Block]:
        """The reply as one block, received into ``landing`` when one is
        offered and the reply's dtypes are native (see
        :meth:`Transport.node_blocks`)."""
        if landing is None:
            return super().node_blocks(node, plan, afcs, stats, tracer, options)
        batches = self._execute(
            node, plan, afcs, stats, tracer, options,
            [column.view(np.uint8) for column in landing.values()],
        )
        if batches.landed and batches.rows == batches.bound:
            return [(landing, batches.rows)]
        return [(batches.table(), batches.rows)] if batches.rows else []

    def _execute(
        self,
        node: str,
        plan: ExtractionPlan,
        afcs: AfcTable,
        stats: IOStats,
        tracer,
        options,
        landing: Optional[List[np.ndarray]] = None,
    ) -> wire.TableReceiver:
        """One EXECUTE: the node's BATCH frames received, its DONE
        checked and its stats merged into ``stats``."""
        opts = options if options is not None else DEFAULT_OPTIONS
        if self.fault_injector is not None:
            # node-down over sockets: unreachable before any bytes move.
            self.fault_injector.on_connect(node)
        payload = json.dumps(
            wire.encode_execute(plan, len(afcs), opts)
        ).encode("utf-8")
        # A row plan's reply is at most its planned rows: the columns are
        # allocated once, at that size, on the first BATCH — or are the
        # landing region, which has that size.
        batches = wire.TableReceiver(
            empty_result(plan),
            AfcTable.of(afcs).total_rows if plan.aggregate is None else None,
            landing,
        )
        start = time.perf_counter()
        with tracer.span(
            "rpc", node=node, afcs=len(afcs), request_bytes=len(payload)
        ) as span:
            with self._inflight:
                data = self._pool(node).request(
                    framing.EXECUTE, payload, framing.DONE,
                    opts.connect_timeout, batches,
                )
            done = framing.decode_json(data)
            if tracer.enabled:
                span.tag(
                    rtt_seconds=round(time.perf_counter() - start, 6),
                    response_bytes=batches.nbytes,
                    batches=batches.frames,
                )
                tracer.metrics.record("net.requests")
                tracer.metrics.record("net.bytes_received", batches.nbytes)
        if done.get("afcs") != len(afcs):
            raise PlanMismatchError(
                f"node {node!r} answered for {done.get('afcs')} AFC(s), "
                f"the coordinator planned {len(afcs)} for it"
            )
        stats.merge(wire.decode_stats(done.get("stats", {})))
        return batches

    # -- cluster-wide control ------------------------------------------------

    def _control(self, node: str, kind: int, want: int) -> None:
        self._pool(node).request(
            kind, b"", want, self._options.connect_timeout
        )

    def drop_caches(self) -> None:
        """Tell every node server to forget handles/segments (cold runs)."""
        for node in self.addresses:
            self._control(node, framing.DROP_CACHES, framing.OK)

    def ping(self, node: str) -> None:
        self._control(node, framing.PING, framing.PONG)

    def close(self) -> None:
        """Hang up on every node; requests still on the wire fail with a
        :class:`~repro.errors.NodeConnectionError`."""
        for pool in self._pools.values():
            pool.close()

    def __repr__(self) -> str:
        addrs = ", ".join(
            f"{node}={host}:{port}"
            for node, (host, port) in self.addresses.items()
        )
        return f"<TcpTransport {addrs}>"
