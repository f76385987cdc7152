"""Query service: the client entry point of the STORM runtime.

"The query service is the entry point for clients to submit queries to the
database middleware" (paper Section 2.3).  ``submit`` is the cluster
front door of the shared query pipeline (:mod:`repro.core.pipeline`:
resolve -> diagnostics -> cache lookup -> plan -> aggregate strategy ->
cache fill -> project).  What this module adds is what is
service-specific: *how a plan is executed* — ``_extract_nodes``, the
per-node parallel fan-out over a transport (data source + filtering
services) and the one merge of the nodes' blocks into the result — and
what surrounds the pipeline call: the scheduler's
run-state checkpoint, partition generation -> data mover, per-node
operation counts and a deterministic simulated execution time from the
cost model, all returned as a :class:`QueryResult`.

Extraction is failure-aware: each node's work is retried with exponential
backoff (``ExecOptions.retries`` / ``retry_backoff``), an attempt that
exceeds ``node_timeout`` is abandoned as hung, and a node that is still
failing after every retry either fails the query with a typed
:class:`~repro.errors.NodeFailureError` or — under ``allow_partial`` —
is dropped from the result, which comes back flagged ``degraded`` with
the node listed in ``failed_nodes``.  Every retry, timeout, and
degradation is recorded through the tracer (spans ``retry`` and
``node_failure``; counters ``retries.attempted``, ``nodes.failed``,
``faults.injected``).
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple, Type, TypeVar, Union

import numpy as np

from ..core.afc import AfcTable, group_by_home_node
from ..core.extractor import empty_result
from ..core.kernels import Block, assemble_table
from ..core.options import DEFAULT_OPTIONS, ExecOptions, resolve_workers
from ..core.pipeline import (  # noqa: F401 - pseudo-node names re-exported
    CACHE_NODE,
    COORDINATOR_NODE,
    SUMMARY_NODE,
    QueryPipeline,
    sql_tag,
)
from ..core.planner import CompiledDataset
from ..core.stats import IOStats
from ..core.table import VirtualTable, concat_tables
from ..errors import (
    ExtractionError,
    InjectedFault,
    NodeFailureError,
    NodeTimeoutError,
    StormError,
)
from ..obs.tracer import TraceContext, Tracer
from ..sched.state import record_abandoned_thread
from ..sql.ast import Query
from ..sql.functions import FunctionRegistry
from .cluster import VirtualCluster
from .cost import CostModel, STORM_COST
from .data_source import DataSourceService
from .filtering import FilteringService
from .mover import DataMoverService, Delivery
from .partition import RoundRobinPartitioner
from .transport import LocalTransport, Transport

#: Failures worth retrying: real or injected I/O errors and per-attempt
#: timeouts.  Programming errors (planning bugs, bad SQL) propagate.
_RETRYABLE = (ExtractionError, NodeTimeoutError, OSError)

#: Pseudo-node name under which result-transfer failures are reported.
TRANSFER_NODE = "_transfer"

_T = TypeVar("_T")

#: Longest uninterrupted sleep of a retry backoff under a run state.
_BACKOFF_SLICE = 0.05


def _sleep(seconds: float, run_state) -> None:
    """Sleep ``seconds``; with a run state, in slices that end at its
    first stop condition (raised via ``checkpoint``)."""
    if run_state is None:
        if seconds > 0:
            time.sleep(seconds)
        return
    deadline = time.monotonic() + seconds
    while True:
        run_state.checkpoint()
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(remaining, _BACKOFF_SLICE))


@dataclass
class QueryResult:
    """Everything a submitted query produced."""

    table: VirtualTable
    deliveries: List[Delivery]
    per_node_stats: Dict[str, IOStats]
    simulated_seconds: float
    wall_seconds: float
    afc_count: int
    #: The span trace of this execution, when submitted with tracing on
    #: (``ExecOptions(trace=...)``); None otherwise.
    trace: Optional[Tracer] = None
    #: True when ``allow_partial`` dropped failing work: the table holds
    #: only the rows of the surviving nodes.
    degraded: bool = False
    #: Nodes whose extraction (or ``"_transfer"`` whose delivery) kept
    #: failing after every retry; empty for a full result.
    failed_nodes: List[str] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @cached_property
    def total_stats(self) -> IOStats:
        """Merged per-node counters, computed once and cached.

        ``summary()`` and the benchmarks read this in loops; per-node
        stats are fully written before the result is constructed, so the
        merge is safe to memoise.
        """
        total = IOStats()
        for stats in self.per_node_stats.values():
            total.merge(stats)
        return total

    def summary(self) -> str:
        stats = self.total_stats
        text = (
            f"{self.num_rows} rows, {self.afc_count} AFCs, "
            f"{stats.bytes_read / 1e6:.1f} MB read, "
            f"{stats.bytes_sent / 1e6:.2f} MB sent, "
            f"sim {self.simulated_seconds:.2f}s, wall {self.wall_seconds:.3f}s"
        )
        if self.degraded:
            text += f" [DEGRADED: lost {', '.join(self.failed_nodes)}]"
        return text


def _rows(blocks: List[Block]) -> int:
    return sum(rows for _, rows in blocks)


def _landing(
    plan, by_node: Dict[str, AfcTable]
) -> Tuple[Optional[Dict[str, np.ndarray]], Dict[str, Dict[str, np.ndarray]]]:
    """One native-order buffer per output column of ``plan``, sized to
    its planned rows, and per node its region: its planned rows at its
    offset in node order — or ``(None, {})`` unless the plan fixes
    every node's rows (a row plan with no residual WHERE) and spans
    several nodes."""
    if plan.aggregate is not None or plan.where is not None or len(by_node) < 2:
        return None, {}
    empty = empty_result(plan)
    counts = [afcs.total_rows for afcs in by_node.values()]
    buffers = {
        name: np.empty(sum(counts), empty.column(name).dtype)
        for name in empty.column_names
    }
    landing: Dict[str, Dict[str, np.ndarray]] = {}
    start = 0
    for node, count in zip(by_node, counts):
        landing[node] = {
            name: buffer[start:start + count]
            for name, buffer in buffers.items()
        }
        start += count
    return buffers, landing


def _merge(plan, partials: List[List[Block]]) -> VirtualTable:
    """The one concatenation of every node's blocks, in node order: a
    row plan's by ``assemble_table`` (a lone block is kept where it is
    writable and contiguous), an aggregate plan's state frames by
    ``concat_tables``."""
    blocks = [block for node_blocks in partials for block in node_blocks]
    if plan.aggregate is None:
        return assemble_table(plan.output, plan.dtypes, blocks)
    if not blocks:
        return empty_result(plan)
    return concat_tables([frame for frame, _ in blocks])


def _copied_bytes(table: VirtualTable, partials: List[List[Block]]) -> int:
    """Bytes of the columns of ``table`` that are none of the blocks'
    own: what the merge copied."""
    blocks = [columns for node_blocks in partials for columns, _ in node_blocks]
    copied = 0
    for name in table.column_names:
        column = table.column(name)
        if all(columns[name] is not column for columns in blocks):
            copied += column.nbytes
    return copied


class QueryService:
    """Front door of the STORM middleware for one dataset on one cluster."""

    def __init__(
        self,
        dataset: CompiledDataset,
        cluster: Optional[VirtualCluster] = None,
        functions: Optional[FunctionRegistry] = None,
        cost_model: CostModel = STORM_COST,
        segment_cache_bytes: int = 32 * 1024 * 1024,
        handle_cache: int = 64,
        fault_injector=None,
        transport: Optional[Transport] = None,
        max_sacrificial_threads: int = 16,
    ):
        self.dataset = dataset
        self.cluster = cluster
        self.cost_model = cost_model
        self.filtering = FilteringService(functions)
        #: Optional repro.faults.FaultInjector: wraps every node mount
        #: and gates mover deliveries (chaos testing).
        self.fault_injector = fault_injector
        self.mover = DataMoverService(injector=fault_injector)
        #: How extraction plans reach data-source services: in-process
        #: over a VirtualCluster by default, or any Transport (e.g. the
        #: TCP transport of repro.net) reaching real node processes.
        if transport is None:
            if cluster is None:
                raise StormError(
                    "QueryService needs a cluster or a transport"
                )
            transport = LocalTransport(
                cluster,
                self.filtering,
                segment_cache_bytes=segment_cache_bytes,
                handle_cache=handle_cache,
                fault_injector=fault_injector,
            )
        self.transport = transport
        self.segment_cache_bytes = segment_cache_bytes
        self.handle_cache = handle_cache
        #: The stages both front doors run (and the result/plan caches
        #: they share); this service supplies ``_extract_nodes``.
        self._pipeline = QueryPipeline(dataset, self.filtering)
        #: Long-lived node fan-out pool shared by every submit (built
        #: lazily by the first parallel extraction; threads spawn on
        #: demand, so an idle service costs nothing).  Replaces the old
        #: per-submit ThreadPoolExecutor churn.
        self._node_pool: Optional[ThreadPoolExecutor] = None
        self._node_pool_lock = threading.Lock()
        #: Cap on concurrent sacrificial timeout threads: a hung attempt
        #: is abandoned to finish on its own, but only this many may be
        #: in flight at once — a flaky node under retries can no longer
        #: grow threads without limit.
        self.max_sacrificial_threads = max_sacrificial_threads
        self._sacrificial_slots = threading.BoundedSemaphore(
            max_sacrificial_threads
        )

    @property
    def sources(self) -> Dict[str, DataSourceService]:
        """The local transport's per-node service map (same dict object).

        Remote transports have no in-process services; the map is empty.
        Kept as a live view for tests and tooling that reach into it.
        """
        return getattr(self.transport, "sources", {})

    def _pool(self, opts: ExecOptions) -> ThreadPoolExecutor:
        """The shared node fan-out pool, built on first parallel use.

        Sized once, by the first submit's ``scheduler_workers``
        auto-resolution; later submits reuse the same threads whatever
        their node count.
        """
        with self._node_pool_lock:
            if self._node_pool is None:
                self._node_pool = ThreadPoolExecutor(
                    max_workers=resolve_workers(opts.scheduler_workers),
                    thread_name_prefix="storm-node",
                )
            return self._node_pool

    def drop_caches(self) -> None:
        """Cold-cache mode: benchmarks call this between measured queries.

        Clears the per-node segment/handle caches *and* the shared
        result/plan caches (counters included) — after this, every
        query's I/O starts from a cold disk and a cold cache.
        """
        self.transport.drop_caches()
        self._pipeline.drop_cache()

    def cache_stats(self):
        """Result/plan cache counters, or None before any cached submit."""
        return self._pipeline.cache_stats()

    # -- execution ------------------------------------------------------------

    def submit(
        self,
        sql: Union[Query, str],
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """Run a query end-to-end.

        Execution knobs come from ``options`` (an :class:`ExecOptions`).
        ``remote=False`` models a client co-located with the server (no
        network transfer is charged); the paper's Query 5 uses
        ``remote=True``.  Failure handling is governed by the options'
        ``retries`` / ``retry_backoff`` / ``node_timeout`` /
        ``allow_partial`` fields.
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        run_state = opts.run_state
        if run_state is not None:
            # A query cancelled while queued must not start executing.
            run_state.checkpoint()
        tracer = opts.tracer()
        query = self._pipeline.admit(sql, opts, tracer)
        injector = self.fault_injector
        faults_before = injector.injected if injector is not None else 0
        attempts_allowed = opts.retries + 1
        start = time.perf_counter()

        with tracer.span("query", sql=sql_tag(query, tracer)) as query_span:
            ctx = TraceContext(tracer, query_span)
            answer = self._pipeline.run(
                query,
                opts,
                tracer,
                lambda plan: self._extract_nodes(
                    plan, opts, tracer, ctx, attempts_allowed
                ),
                healthy=None if injector is None else (
                    lambda: injector.injected == faults_before
                ),
            )
            table = answer.table
            per_node_stats = answer.per_node_stats
            failed_nodes = answer.failed_nodes

            transfer_stats = IOStats()
            deliveries: List[Delivery] = []
            if opts.remote:
                # The data mover runs under the same retry policy as
                # extraction, as the pseudo-node "_transfer".  It is
                # given no stats to write: what a failed attempt sent
                # must not count, so the transfer's bytes are read off
                # the deliveries that did arrive.
                try:
                    deliveries = self._retried(
                        TRANSFER_NODE,
                        functools.partial(
                            self.mover.move,
                            table,
                            opts.partitioner or RoundRobinPartitioner(),
                            opts.num_clients,
                            None,
                            tracer,
                        ),
                        InjectedFault,
                        opts,
                        ctx,
                        attempts_allowed,
                    )
                except NodeFailureError:
                    if not opts.allow_partial:
                        raise
                    failed_nodes.append(TRANSFER_NODE)
                transfer_stats.bytes_sent = sum(
                    d.bytes_sent for d in deliveries
                )
            messages = sum(d.messages for d in deliveries)

            simulated = self.cost_model.makespan(
                per_node_stats, transfer_stats.bytes_sent, messages
            )
            if opts.remote:
                # Local queries never ran the mover; giving them an
                # all-zero "_transfer" pseudo-node entry used to trip up
                # consumers iterating per_node_stats as "the nodes".
                per_node_stats.setdefault(TRANSFER_NODE, IOStats()).merge(
                    transfer_stats
                )
            query_span.tag(
                rows=table.num_rows,
                afcs=answer.afc_count,
                simulated_seconds=round(simulated, 6),
            )
            if failed_nodes:
                query_span.tag(degraded=True, failed_nodes=list(failed_nodes))
            if tracer.enabled:
                for node, stats in per_node_stats.items():
                    tracer.metrics.record_stats(stats, prefix=f"io.{node}.")
                if injector is not None:
                    tracer.metrics.record(
                        "faults.injected", injector.injected - faults_before
                    )

        wall = time.perf_counter() - start
        return QueryResult(
            table=table,
            deliveries=deliveries,
            per_node_stats=per_node_stats,
            simulated_seconds=simulated,
            wall_seconds=wall,
            afc_count=answer.afc_count,
            trace=tracer if tracer.enabled else None,
            degraded=bool(failed_nodes),
            failed_nodes=failed_nodes,
        )

    def _extract_nodes(
        self,
        plan,
        opts: ExecOptions,
        tracer,
        ctx: TraceContext,
        attempts_allowed: int,
    ):
        """Failure-aware parallel extraction of a plan across its nodes.

        The first node runs on the calling thread, the others on the
        shared fan-out pool; each hands back its partial as blocks
        (:meth:`~repro.storm.transport.Transport.node_blocks`), and one
        merge makes the table of them in node order (:func:`_merge`).
        Returns ``(table, per_node_stats, failed_nodes)``; raises
        :class:`~repro.errors.NodeFailureError` for the first exhausted
        node unless ``opts.allow_partial``.

        Where the plan fixes every node's rows in advance — a row plan
        keeping every row of its AFCs, over several nodes — and no
        attempt can be abandoned (``node_timeout`` unset), a transport
        that ``lands_replies`` gets each node's region of one result
        buffer: replies that fill theirs are the result, uncopied.
        Under ``node_timeout`` a hung attempt keeps writing after its
        retry starts, so every attempt writes memory of its own.
        """
        by_node = group_by_home_node(plan.afcs)
        buffers, landing = _landing(plan, by_node) if (
            opts.node_timeout is None
            and getattr(self.transport, "lands_replies", False)
        ) else (None, {})

        per_node_stats: Dict[str, IOStats] = {
            node: IOStats() for node in by_node
        }
        #: node -> terminal failure; distinct keys per worker thread.
        failures: Dict[str, NodeFailureError] = {}

        run_state = opts.run_state

        #: Attempts made per node; each key is written by one thread.
        attempts: Dict[str, int] = dict.fromkeys(by_node, 0)

        def attempt_node(node: str) -> List[Block]:
            """One extraction attempt, bounded by node_timeout; its
            counters join the node's unless it was abandoned as hung."""
            if run_state is not None:
                run_state.checkpoint()
            attempts[node] += 1
            attempt_stats = IOStats()
            try:
                if opts.node_timeout is None:
                    partial = self.transport.node_blocks(
                        node, plan, by_node[node], attempt_stats, tracer,
                        opts, landing.get(node),
                    )
                else:
                    partial = attempt_bounded(node, attempt_stats)
            except _RETRYABLE as exc:
                # A timed-out attempt was abandoned, not finished: its
                # sacrificial thread may still be mutating
                # attempt_stats, so merging it here would both race and
                # double-count the partial work on top of the retry's
                # counts.
                if not isinstance(exc, NodeTimeoutError):
                    per_node_stats[node].merge(attempt_stats)
                raise
            per_node_stats[node].merge(attempt_stats)
            if run_state is not None and not getattr(
                self.transport, "cooperative_quotas", False
            ):
                # Remote nodes never see the run state (it does not
                # cross the wire), so quotas are charged here, per node
                # partial, at the coordinator.
                run_state.charge(
                    rows=_rows(partial), nbytes=attempt_stats.bytes_read
                )
            return partial

        def attempt_bounded(node: str, attempt_stats: IOStats) -> List[Block]:
            # A hung attempt cannot be interrupted from outside, so it
            # runs on a sacrificial thread we abandon on timeout (it
            # ends when its blocking read does, still writing into an
            # attempt_stats that is discarded, never merged).  The
            # semaphore bounds how many abandoned threads can be in
            # flight at once: a slot is held from spawn until the
            # thread actually finishes, so a flaky node under retries
            # blocks on a slot instead of growing threads forever.
            if not self._sacrificial_slots.acquire(
                timeout=opts.node_timeout
            ):
                tracer.metrics.record("sched.sacrificial_saturated")
                raise NodeTimeoutError(node, opts.node_timeout) from None
            done = threading.Event()
            box: Dict[str, object] = {}

            def work() -> None:
                try:
                    box["result"] = self.transport.node_blocks(
                        node, plan, by_node[node], attempt_stats, tracer,
                        opts, landing.get(node),
                    )
                except BaseException as exc:  # noqa: BLE001 - relayed below
                    box["error"] = exc
                finally:
                    self._sacrificial_slots.release()
                    done.set()

            thread = threading.Thread(
                target=work, name=f"extract-{node}", daemon=True
            )
            thread.start()
            deadline = time.monotonic() + opts.node_timeout
            # Poll in short slices when a run state is attached so a
            # cancel/quota trip abandons the in-flight attempt through
            # this same machinery instead of waiting out the timeout.
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._abandon_thread(tracer)
                    raise NodeTimeoutError(node, opts.node_timeout) from None
                slice_ = remaining if run_state is None else min(
                    remaining, 0.05
                )
                if done.wait(slice_):
                    break
                if run_state is not None and run_state.should_stop:
                    self._abandon_thread(tracer)
                    run_state.checkpoint()
            error = box.get("error")
            if error is not None:
                raise error  # type: ignore[misc]
            return box["result"]  # type: ignore[return-value]

        def run_node(node: str) -> Optional[List[Block]]:
            """The node's blocks, or None once its failure is recorded."""
            try:
                # Pool threads have an empty span stack, so the context
                # parents the per-node span under the query root; on
                # the calling thread that root is the innermost span.
                with ctx.span(
                    "extract", node=node, afcs=len(by_node[node])
                ) as span:
                    partial = self._retried(
                        node,
                        functools.partial(attempt_node, node),
                        _RETRYABLE,
                        opts,
                        ctx.child(span),
                        attempts_allowed,
                    )
                    span.tag(
                        rows=_rows(partial),
                        bytes_read=per_node_stats[node].bytes_read,
                        cache_hits=per_node_stats[node].cache_hits,
                        attempts=attempts[node],
                    )
                    return partial
            except NodeFailureError as exc:
                failures[node] = exc
                return None

        nodes = list(by_node)
        if opts.parallel and len(nodes) > 1:
            # The calling thread extracts the first node itself while
            # the pool runs the rest: one handoff fewer per query.
            pool = self._pool(opts)
            futures = [pool.submit(run_node, node) for node in nodes[1:]]
            try:
                maybe_partials = [run_node(nodes[0])]
                maybe_partials += [future.result() for future in futures]
            finally:
                for future in futures:
                    future.cancel()
        else:
            maybe_partials = [run_node(node) for node in nodes]

        if run_state is not None:
            # A cancel or quota trip that raced the last node's
            # completion must win *before* any merge: a degraded or
            # partial table must never be half-assembled from work that
            # finished while the teardown was in flight.
            run_state.checkpoint()

        failed_nodes = [node for node in nodes if node in failures]
        if failed_nodes and not opts.allow_partial:
            raise failures[failed_nodes[0]]
        partials = [p for p in maybe_partials if p is not None]

        with tracer.span("merge", nodes=len(partials)) as span:
            tiled = buffers is not None and not failed_nodes and all(
                len(blocks) == 1 and blocks[0][0] is landing[node]
                for node, blocks in zip(nodes, maybe_partials)
            )
            if tiled:
                table = VirtualTable(buffers)
            else:
                table = _merge(plan, partials)
            if tracer.enabled:
                copied = 0 if tiled else _copied_bytes(table, partials)
                span.tag(rows=table.num_rows, tiled=tiled, copied_bytes=copied)
                tracer.metrics.record("merge.copied_bytes", copied)
        return table, per_node_stats, failed_nodes

    def _retried(
        self,
        node: str,
        attempt: Callable[[], _T],
        retryable: Union[Type[Exception], Tuple[Type[Exception], ...]],
        opts: ExecOptions,
        ctx: TraceContext,
        attempts_allowed: int,
    ) -> _T:
        """The one retry loop: ``attempt()`` under the options' policy.

        The first attempt runs plain; attempt *k* runs inside a ``retry``
        span after sleeping ``retry_backoff * 2**(k-1)``.  Returns the
        first result.  When every allowed attempt raised one of
        ``retryable``, records the failure of ``node`` (a real node or a
        pseudo-node such as ``"_transfer"``) and raises
        :class:`~repro.errors.NodeFailureError`; anything else
        propagates at once.  A cancel, quota trip or passed deadline of
        the options' run state ends a backoff within one 50 ms slice.
        """
        last_exc: Optional[Exception] = None
        for number in range(attempts_allowed):
            try:
                if number == 0:
                    return attempt()
                backoff = opts.retry_backoff * (2 ** (number - 1))
                with ctx.span(
                    "retry",
                    node=node,
                    attempt=number,
                    backoff=round(backoff, 6),
                    error=f"{type(last_exc).__name__}: {last_exc}",
                ):
                    ctx.tracer.metrics.record("retries.attempted")
                    _sleep(backoff, opts.run_state)
                    return attempt()
            except retryable as exc:
                last_exc = exc
        ctx.tracer.metrics.record("nodes.failed")
        ctx.event(
            "node_failure",
            node=node,
            attempts=attempts_allowed,
            error=f"{type(last_exc).__name__}: {last_exc}",
        )
        raise NodeFailureError(node, attempts_allowed, last_exc)

    def _abandon_thread(self, tracer) -> None:
        """Account one sacrificial thread left to die on its own."""
        record_abandoned_thread()
        tracer.metrics.record("sched.threads_abandoned")

    def close(self) -> None:
        with self._node_pool_lock:
            pool, self._node_pool = self._node_pool, None
        if pool is not None:
            # wait=False: a node hung mid-extraction must not hang close.
            pool.shutdown(wait=False)
        self.transport.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
