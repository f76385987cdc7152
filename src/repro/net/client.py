"""Coordinator-side network transport: pooled asyncio node clients.

One :class:`TcpTransport` serves a whole cluster: it runs a private
asyncio event loop on a background thread and keeps a small connection
pool per node (``ExecOptions.max_connections_per_node``), with a global
in-flight semaphore (``ExecOptions.inflight_limit``) as admission
control — per-node backpressure comes from the pool, cluster-wide
backpressure from the semaphore.  The query service's worker threads
call the blocking :meth:`TcpTransport.execute_node`, which bridges onto
the loop with ``run_coroutine_threadsafe``; retries, timeouts, and
degraded results stay coordinator business, in
``QueryService._extract_nodes``, untouched.

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

import asyncio
import json
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.afc import AlignedFileChunkSet, ExtractionPlan
from ..core.options import DEFAULT_OPTIONS, ExecOptions
from ..core.stats import IOStats
from ..core.table import VirtualTable, concat_tables
from ..errors import NodeConnectionError, PlanMismatchError, TransportError
from ..obs.tracer import NULL_TRACER
from ..storm.transport import Transport
from . import framing, wire


class _Connection:
    """One open coordinator->node stream with its HELLO identity."""

    __slots__ = ("reader", "writer", "node", "broken")

    def __init__(self, reader, writer, node: str):
        self.reader = reader
        self.writer = writer
        self.node = node
        self.broken = False

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:
            pass


class _NodePool:
    """Bounded connection pool for one node (lives on the loop thread)."""

    def __init__(self, node: str, host: str, port: int, limit: int):
        self.node = node
        self.host = host
        self.port = port
        self._sem = asyncio.Semaphore(max(1, limit))
        self._idle: deque = deque()
        self._all: List[_Connection] = []
        self.dials = 0

    async def acquire(self, connect_timeout: float) -> _Connection:
        await self._sem.acquire()
        try:
            while self._idle:
                conn = self._idle.popleft()
                if not conn.broken and not conn.writer.is_closing():
                    return conn
                conn.close()
            return await self._dial(connect_timeout)
        except BaseException:
            self._sem.release()
            raise

    def release(self, conn: _Connection) -> None:
        if conn.broken or conn.writer.is_closing():
            conn.close()
        else:
            self._idle.append(conn)
        self._sem.release()

    async def _dial(self, connect_timeout: float) -> _Connection:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=connect_timeout,
            )
        except asyncio.TimeoutError:
            raise NodeConnectionError(
                self.node,
                OSError(f"dial {self.host}:{self.port} timed out "
                        f"after {connect_timeout:g}s"),
            ) from None
        except OSError as exc:
            raise NodeConnectionError(self.node, exc) from None
        self.dials += 1
        conn = _Connection(reader, writer, self.node)
        try:
            welcome = await _hello(reader, writer)
        except (ConnectionError, OSError) as exc:
            conn.close()
            raise NodeConnectionError(self.node, exc) from None
        if welcome.get("node") != self.node:
            conn.close()
            raise TransportError(
                f"address {self.host}:{self.port} answered as node "
                f"{welcome.get('node')!r}, expected {self.node!r}"
            )
        self._all.append(conn)
        return conn

    def close_all(self) -> None:
        for conn in self._all:
            conn.close()
        self._idle.clear()


async def _hello(reader, writer) -> dict:
    """HELLO/WELCOME handshake; validates the protocol revision."""
    await framing.write_frame_async(
        writer,
        framing.HELLO,
        b'{"protocol": %d}' % framing.PROTOCOL_VERSION,
    )
    kind, payload = await framing.read_frame_async(reader)
    if kind != framing.WELCOME:
        raise TransportError(
            f"expected WELCOME, got {framing.kind_name(kind)}"
        )
    welcome = framing.decode_json(payload)
    if welcome.get("protocol") != framing.PROTOCOL_VERSION:
        raise TransportError(
            f"protocol mismatch: node speaks rev {welcome.get('protocol')}, "
            f"coordinator speaks rev {framing.PROTOCOL_VERSION}"
        )
    return welcome


class TcpTransport(Transport):
    """Fan out extraction over real sockets to node server processes."""

    scheme = "tcp"

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
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="tcp-transport", daemon=True
        )
        self._thread.start()
        self._inflight = self._call(self._make_semaphore(options))
        self._pools: Dict[str, _NodePool] = {}
        self.addresses: Dict[str, Tuple[str, int]] = {}
        try:
            self._discover(list(addresses), options, expected or {})
        except BaseException:
            self.close()
            raise

    @staticmethod
    async def _make_semaphore(options: ExecOptions) -> asyncio.Semaphore:
        # Created on the loop so it binds the right event loop on 3.9.
        return asyncio.Semaphore(max(1, options.inflight_limit))

    def _call(self, coro):
        """Run a coroutine on the transport loop, blocking this thread."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # -- connect-time discovery ---------------------------------------------

    def _discover(
        self,
        addresses: List[Tuple[str, int]],
        options: ExecOptions,
        expected: Dict[str, Optional[str]],
    ) -> None:
        """One HELLO per address: which node, which rev, planning from
        what (dataset, descriptor, chunk summaries)."""

        async def probe(host: str, port: int) -> dict:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    timeout=options.connect_timeout,
                )
            except asyncio.TimeoutError:
                raise TransportError(
                    f"no node server at {host}:{port} "
                    f"(dial timed out after {options.connect_timeout:g}s)"
                ) from None
            except OSError as exc:
                raise TransportError(
                    f"no node server at {host}:{port}: {exc}"
                ) from None
            try:
                return await _hello(reader, writer)
            finally:
                writer.close()

        for host, port in addresses:
            welcome = self._call(probe(host, port))
            node = welcome.get("node")
            if not node:
                raise TransportError(
                    f"node server at {host}:{port} reported no node name"
                )
            if node in self.addresses:
                raise TransportError(
                    f"two servers ({self.addresses[node]} and "
                    f"{(host, port)}) both claim node {node!r}"
                )
            for key, want in expected.items():
                if welcome.get(key) != want:
                    raise TransportError(
                        f"node {node!r} at {host}:{port} plans from "
                        f"{key} {welcome.get(key)!r}, the coordinator "
                        f"from {want!r}; both must load the same "
                        "descriptor and chunk summaries"
                    )
            self.addresses[node] = (host, port)
            self._pools[node] = _NodePool(
                node, host, port, self._options.max_connections_per_node
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
        afcs: List[AlignedFileChunkSet],
        stats: IOStats,
        tracer=NULL_TRACER,
        options=None,
    ) -> VirtualTable:
        opts = options if options is not None else DEFAULT_OPTIONS
        if self.fault_injector is not None:
            # node-down over sockets: unreachable before any bytes move.
            self.fault_injector.on_connect(node)
        payload = json.dumps(
            wire.encode_execute(plan, len(afcs), opts)
        ).encode("utf-8")
        start = time.perf_counter()
        if tracer.enabled:
            with tracer.span(
                "rpc", node=node, afcs=len(afcs),
                request_bytes=len(payload),
            ) as span:
                batches, done = self._submit(node, payload, opts)
                rtt = time.perf_counter() - start
                span.tag(
                    rtt_seconds=round(rtt, 6),
                    response_bytes=sum(len(b) for b in batches),
                    batches=len(batches),
                )
                tracer.metrics.record("net.requests")
                tracer.metrics.record(
                    "net.bytes_received", sum(len(b) for b in batches)
                )
        else:
            batches, done = self._submit(node, payload, opts)
        if done.get("afcs") != len(afcs):
            raise PlanMismatchError(
                f"node {node!r} answered for {done.get('afcs')} AFC(s), "
                f"the coordinator planned {len(afcs)} for it"
            )
        stats.merge(wire.decode_stats(done.get("stats", {})))
        if not batches:
            return wire.empty_table(plan)
        tables = [wire.decode_table(b) for b in batches]
        return tables[0] if len(tables) == 1 else concat_tables(tables)

    def _submit(self, node, payload, opts):
        future = asyncio.run_coroutine_threadsafe(
            self._execute(node, payload, opts), self._loop
        )
        # No timeout here: a hung node is the query service's business
        # (ExecOptions.node_timeout abandons the whole attempt).
        return future.result()

    async def _execute(self, node: str, payload: bytes, opts: ExecOptions):
        async with self._inflight:
            pool = self._pool(node)
            conn = await pool.acquire(opts.connect_timeout)
            try:
                try:
                    await framing.write_frame_async(
                        conn.writer, framing.EXECUTE, payload
                    )
                    batches: List[bytes] = []
                    while True:
                        kind, data = await framing.read_frame_async(
                            conn.reader
                        )
                        if kind == framing.BATCH:
                            batches.append(data)
                        elif kind == framing.DONE:
                            return batches, framing.decode_json(data)
                        elif kind == framing.ERROR:
                            raise wire.decode_error(
                                framing.decode_json(data), node
                            )
                        else:
                            raise TransportError(
                                f"unexpected {framing.kind_name(kind)} "
                                "frame in result stream"
                            )
                except (ConnectionError, OSError) as exc:
                    conn.broken = True
                    raise NodeConnectionError(node, exc) from None
            finally:
                pool.release(conn)

    # -- cluster-wide control ------------------------------------------------

    async def _simple_request(self, node: str, kind: int, want: int) -> None:
        pool = self._pool(node)
        conn = await pool.acquire(self._options.connect_timeout)
        try:
            try:
                await framing.write_frame_async(conn.writer, kind)
                got, _ = await framing.read_frame_async(conn.reader)
            except (ConnectionError, OSError) as exc:
                conn.broken = True
                raise NodeConnectionError(node, exc) from None
            if got != want:
                raise TransportError(
                    f"expected {framing.kind_name(want)}, got "
                    f"{framing.kind_name(got)}"
                )
        finally:
            pool.release(conn)

    def drop_caches(self) -> None:
        """Tell every node server to forget handles/segments (cold runs)."""
        for node in self.addresses:
            self._call(
                self._simple_request(node, framing.DROP_CACHES, framing.OK)
            )

    def ping(self, node: str) -> None:
        self._call(self._simple_request(node, framing.PING, framing.PONG))

    def close(self) -> None:
        if self._loop.is_closed():
            return

        async def _shutdown():
            for pool in self._pools.values():
                pool.close_all()

        try:
            self._call(_shutdown())
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._loop.close()

    def __repr__(self) -> str:
        addrs = ", ".join(
            f"{node}={host}:{port}"
            for node, (host, port) in self.addresses.items()
        )
        return f"<TcpTransport {addrs}>"
