"""The data-source node server: one STORM node as an OS process.

"Data source services provide a view of a dataset to other services"
(paper Section 2.3) — here as a standalone TCP server wrapping one
:class:`~repro.storm.data_source.DataSourceService`.  The server holds
the compiled descriptor and plans its own share of every query: an
EXECUTE frame carries the query text (:mod:`~repro.net.wire`), the
server runs the same ``resolve -> rewrite -> ranges -> index`` pipeline
as the coordinator, restricted to the file groups homed on its node —
the paper's generated index function running at the data source —
executes the resulting AFCs, streams the filtered rows back as columnar
BATCH frames of exactly the request's ``batch_rows`` rows (the last one
shorter), and closes the request with a DONE frame carrying the AFC
count it planned and the node's IOStats.  Nothing planned for a request
outlives its reply: there is no node-side plan cache.

The reply is written from the blocks the extractor finishes
(:meth:`~repro.storm.data_source.DataSourceService.parts`), while the
next block is still being read: each frame is the table header plus
zero-copy slices of the blocks' columns, handed to ``sendmsg`` unjoined
(:func:`~repro.net.wire.table_frames`, :func:`~repro.net.framing.
write_frame`).  The node copies a result byte only where a block column
is a strided view — L0's X/Y/Z fields of ``COORDS`` records — into a
contiguous piece.  An aggregate plan's parts are still combined into
one state frame first and sent the same way.  A failure after some
BATCH frames went out (a disk dying mid-scan) is answered with ERROR in
place of DONE; the coordinator drops what it received.

Coordinator and node must plan alike, so WELCOME announces what the
server plans from (:func:`~repro.core.codegen.plan_identity`: dataset
name, descriptor digest, chunk-summary digest) for the coordinator to
refuse at connect time, and a request whose planned AFC count differs
from the coordinator's is refused before any data is read.

Concurrency is thread-per-connection over the one shared service; the
extractor's handle/segment caches are internally locked, exactly as in
the in-process path.  A server-side
:class:`~repro.faults.FaultInjector` wraps the mount (disk chaos) and is
consulted before every reply frame, BATCH or DONE (``conn-reset``
chaos): fault injection travels with the process that owns the disk.

Entry point: ``repro serve DESC --root R --node osu0`` (see
:mod:`repro.cli`), or programmatic embedding via :class:`NodeServer`.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import struct
import threading
from typing import Optional, Tuple

from ..core.afc import ExtractionPlan
from ..core.codegen import plan_identity
from ..core.extractor import combine_parts, local_mount
from ..core.planner import CompiledDataset
from ..core.stats import IOStats
from ..errors import InjectedFault, PlanMismatchError, TransportError
from ..obs.tracer import NULL_TRACER
from ..sql.functions import FunctionRegistry
from ..storm.data_source import DataSourceService
from ..storm.filtering import FilteringService
from . import framing, wire


class NodeServer:
    """Serve one node's extraction service over the wire protocol."""

    def __init__(
        self,
        node: str,
        root: str,
        dataset: CompiledDataset,
        functions: Optional[FunctionRegistry] = None,
        fault_injector=None,
        segment_cache_bytes: int = 32 * 1024 * 1024,
        handle_cache: int = 64,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        """``dataset`` is the compiled descriptor this node plans from
        (with the chunk summaries the coordinator prunes by, if any);
        its own ``chunk_row_cap`` must be unset — each request ships
        the cap to split by."""
        self.node = node
        self.dataset = dataset
        self._identity = plan_identity(dataset)
        self.fault_injector = fault_injector
        mount = local_mount(root)
        if fault_injector is not None:
            mount = fault_injector.wrap(mount)
        self.source = DataSourceService(
            node,
            mount,
            FilteringService(functions),
            segment_cache_bytes=segment_cache_bytes,
            handle_cache=handle_cache,
        )
        self._sock = socket.create_server((host, port))
        self._shutdown = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); port is concrete even when 0 was asked."""
        addr = self._sock.getsockname()
        return (addr[0], addr[1])

    def write_port_file(self, path: str) -> None:
        """Atomically publish the bound address for process discovery."""
        host, port = self.address
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            handle.write(f"{host} {port}\n")
        os.replace(tmp, path)

    # -- serving ------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown` (or a SHUTDOWN
        frame), then :meth:`close`.  ``accept`` blocks with no timeout:
        the loop wakes for a connection or for :meth:`shutdown`, never
        for a clock."""
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _ = self._sock.accept()
                except OSError:
                    break  # shut down (EINVAL) or closed under us
                # Daemon threads, deliberately untracked: each ends with
                # its connection, and a list of them would grow with
                # every probe and redial for the life of the server.
                threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"node-{self.node}-conn",
                    daemon=True,
                ).start()
        finally:
            self.close()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` now, from any thread or a signal
        handler, before or while it runs.  Shutting the listening socket
        down makes a blocked ``accept`` fail at once (``EINVAL`` on
        Linux) and every later one too, so no wake-up is lost."""
        self._shutdown.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed

    def close(self) -> None:
        self._shutdown.set()
        try:
            self._sock.close()
        except OSError:
            pass
        self.source.close()

    # -- one connection ------------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while not self._shutdown.is_set():
                    try:
                        kind, payload = framing.read_frame(conn)
                    except ConnectionError:
                        return  # peer hung up between requests
                    if not self._dispatch(conn, kind, payload):
                        return
        except ConnectionError:
            return  # peer vanished mid-reply; nothing to answer to
        except Exception as exc:  # keep the server alive for other clients
            try:
                framing.write_json(
                    conn, framing.ERROR, wire.encode_error(exc)
                )
            except OSError:
                pass

    def _dispatch(self, conn, kind: int, payload: bytes) -> bool:
        """Handle one frame; returns False to end the connection."""
        if kind == framing.HELLO:
            framing.write_json(
                conn,
                framing.WELCOME,
                {
                    "node": self.node,
                    "protocol": framing.PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    **self._identity,
                },
            )
            return True
        if kind == framing.PING:
            framing.write_frame(conn, framing.PONG)
            return True
        if kind == framing.DROP_CACHES:
            self.source.drop_caches()
            framing.write_frame(conn, framing.OK)
            return True
        if kind == framing.SHUTDOWN:
            framing.write_frame(conn, framing.OK)
            self.shutdown()
            return False
        if kind == framing.EXECUTE:
            return self._execute(conn, payload)
        framing.write_json(
            conn,
            framing.ERROR,
            {
                "etype": "TransportError",
                "message": f"unexpected {framing.kind_name(kind)} frame",
                "retryable": False,
            },
        )
        return True

    def _plan(self, request: wire.ExecuteRequest) -> ExtractionPlan:
        """This node's share of the shipped query, planned here."""
        plan = self.dataset.plan(request.query, node=self.node)
        unknown = [
            name
            for name in (*request.needed, *request.output)
            if name not in plan.dtypes
        ]
        if unknown:
            raise TransportError(
                f"malformed EXECUTE: unknown attribute(s) {unknown}"
            )
        afcs = plan.afcs.split(request.chunk_row_cap)
        if len(afcs) != request.afcs:
            raise PlanMismatchError(
                f"planned {len(afcs)} AFC(s) for {request.query!r}, the "
                f"coordinator expected {request.afcs}; the two sides "
                "disagree on the dataset's layout or index"
            )
        # The coordinator may run a variant of the plan the text alone
        # yields (widened for the result cache, aggregate stripped for
        # the pushdown ablation): its column lists and spec win.
        return dataclasses.replace(
            plan,
            afcs=afcs,
            needed=request.needed,
            output=request.output,
            aggregate=request.aggregate,
        )

    def _execute(self, conn, payload: bytes) -> bool:
        """Plan and run one shipped query: BATCH frames, then DONE.  A
        failure anywhere before DONE — even after some BATCH frames went
        out — is answered with ERROR, which the coordinator reads in
        place of DONE."""
        try:
            request = wire.decode_execute(framing.decode_json(payload))
            plan = self._plan(request)
            stats = IOStats()
            rows, batches = self._reply(conn, plan, request.options, stats)
            self._chaos()
            framing.write_json(
                conn,
                framing.DONE,
                {
                    "rows": rows,
                    "batches": batches,
                    "afcs": len(plan.afcs),
                    "stats": wire.encode_stats(stats),
                },
            )
        except _HangUp:
            try:
                # Linger 0: RST on close, not a graceful FIN — the
                # coordinator must see a *reset*, mid-stream.
                conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
            except OSError:
                pass
            return False
        except ConnectionError:
            raise  # the peer is gone: there is no one to answer
        except Exception as exc:
            framing.write_json(conn, framing.ERROR, wire.encode_error(exc))
        return True

    def _reply(
        self, conn, plan: ExtractionPlan, options, stats: IOStats
    ) -> Tuple[int, int]:
        """Extract ``plan`` and write its rows as BATCH frames, each sent
        from the blocks' own columns as soon as its last block is
        finished; returns the rows and frames sent."""
        parts = self.source.parts(plan, plan.afcs, stats, NULL_TRACER, options)
        names = plan.output
        if plan.aggregate is not None:
            state = combine_parts(plan, parts, stats)
            names = list(state.column_names)
            parts = [({n: state.column(n) for n in names}, state.num_rows)]
        rows = batches = 0
        for count, buffers in wire.table_frames(
            names, parts, options.batch_rows
        ):
            self._chaos()
            # This node's share of the response traffic: with aggregate
            # pushdown these are tiny state frames, in the ablation every
            # filtered base row — the difference the pushdown benchmark
            # measures.
            stats.bytes_sent += framing.write_frame(
                conn, framing.BATCH, *buffers
            )
            rows += count
            batches += 1
        return rows, batches

    def _chaos(self) -> None:
        """``conn-reset`` chaos, consulted before every reply frame."""
        if self.fault_injector is not None:
            try:
                self.fault_injector.on_response(self.node)
            except InjectedFault:
                raise _HangUp() from None


class _HangUp(Exception):
    """``conn-reset`` fired: drop the socket with no protocol-level
    goodbye, so the coordinator sees a raw connection reset.  Its own
    type, so an injected *disk* fault mid-reply still becomes ERROR."""
