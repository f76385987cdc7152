"""Query service: the client entry point of the STORM runtime.

"The query service is the entry point for clients to submit queries to the
database middleware" (paper Section 2.3).  ``submit`` runs the full
pipeline: plan (generated or interpreted index function) -> per-node
parallel extraction (data source + filtering services) -> partition
generation -> data mover -> merged result, with per-node operation counts
and a deterministic simulated execution time from the cost model.

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

import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Union

from ..core.afc import group_by_home_node
from ..core.options import ExecOptions, resolve_workers
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
from .indexing_service import IndexingService
from .mover import DataMoverService, Delivery
from .partition import Partitioner, RoundRobinPartitioner
from .transport import LocalTransport, Transport

#: Failures worth retrying: real or injected I/O errors and per-attempt
#: timeouts.  Programming errors (planning bugs, bad SQL) propagate.
_RETRYABLE = (ExtractionError, NodeTimeoutError, OSError)

#: Pseudo-node name under which result-transfer failures are reported.
TRANSFER_NODE = "_transfer"

#: Pseudo-node name under which cache-served work is accounted: a hit
#: produces no per-node extraction stats, but its bookkeeping
#: (``result_cache_hits`` / ``subsumption_hits`` / ``rows_refiltered`` /
#: ``cache_saved_bytes``) still needs a home in ``per_node_stats``.
CACHE_NODE = "_cache"

#: Pseudo-node name for aggregate queries answered entirely from chunk
#: summaries / plan metadata (zero data-chunk reads).
SUMMARY_NODE = "_summary"

#: Pseudo-node name for coordinator-side aggregation work (the
#: ``agg_pushdown=False`` ablation folds all shipped rows here).
COORDINATOR_NODE = "_coordinator"


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


def _merge_legacy_kwargs(
    options: Optional[ExecOptions],
    **legacy,
) -> ExecOptions:
    """Fold deprecated per-call keywords into an :class:`ExecOptions`.

    Each keyword that is not None overrides the matching options field and
    emits a DeprecationWarning naming the replacement.
    """
    opts = options if options is not None else ExecOptions()
    overrides = {k: v for k, v in legacy.items() if v is not None}
    if overrides:
        names = ", ".join(f"{name}=..." for name in sorted(overrides))
        warnings.warn(
            f"passing {names} to QueryService.submit is deprecated; "
            f"use submit(sql, ExecOptions({names})) instead",
            DeprecationWarning,
            stacklevel=3,
        )
        opts = opts.replace(**overrides)
    return opts


class QueryService:
    """Front door of the STORM middleware for one dataset on one cluster."""

    def __init__(
        self,
        dataset: CompiledDataset,
        cluster: Optional[VirtualCluster] = None,
        functions: Optional[FunctionRegistry] = None,
        cost_model: CostModel = STORM_COST,
        max_workers: Optional[int] = None,
        segment_cache_bytes: int = 32 * 1024 * 1024,
        handle_cache: int = 64,
        fault_injector=None,
        transport: Optional[Transport] = None,
        max_sacrificial_threads: int = 16,
    ):
        self.dataset = dataset
        self.cluster = cluster
        self.cost_model = cost_model
        #: Built lazily: hand-written planners (duck-typed datasets with
        #: only a .plan()) can run through the same service pipeline.
        self._indexing: Optional[IndexingService] = None
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
        self.max_workers = max_workers
        self.segment_cache_bytes = segment_cache_bytes
        self.handle_cache = handle_cache
        #: Result/plan caches shared by every node and submitting thread,
        #: created lazily by the first submit whose options enable them.
        self._query_cache = None
        self._cache_unsupported = False
        self._cache_lock = threading.Lock()
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
    def indexing(self) -> IndexingService:
        if self._indexing is None:
            self._indexing = IndexingService(self.dataset)
        return self._indexing

    @property
    def sources(self) -> Dict[str, DataSourceService]:
        """The local transport's per-node service map (same dict object).

        Remote transports have no in-process services; the map is empty.
        Kept as a live view for tests and tooling that reach into it.
        """
        return getattr(self.transport, "sources", {})

    def _source(self, node: str) -> DataSourceService:
        """Deprecated internal accessor; kept for existing callers."""
        return self.transport.source(node)

    def _cache_for(self, opts: ExecOptions):
        """The shared QueryCache, or None when this query runs uncached."""
        if opts.cache_mode == "off" or self._cache_unsupported:
            return None
        with self._cache_lock:
            if self._query_cache is None:
                from ..cache import QueryCache

                self._query_cache = QueryCache.for_dataset(
                    self.dataset,
                    opts.result_cache_bytes,
                    opts.plan_cache_entries,
                )
                if self._query_cache is None:
                    # Duck-typed dataset without descriptor/needed_columns:
                    # caching cannot key its queries; stay off silently.
                    self._cache_unsupported = True
            else:
                self._query_cache.configure(
                    opts.result_cache_bytes, opts.plan_cache_entries
                )
            return self._query_cache

    def _pool(self, opts: ExecOptions) -> ThreadPoolExecutor:
        """The shared node fan-out pool, built on first parallel use.

        Sized once, by ``max_workers`` or the first submit's
        ``scheduler_workers`` auto-resolution; later submits reuse the
        same threads whatever their node count.
        """
        with self._node_pool_lock:
            if self._node_pool is None:
                size = self.max_workers or resolve_workers(
                    opts.scheduler_workers
                )
                self._node_pool = ThreadPoolExecutor(
                    max_workers=size, thread_name_prefix="storm-node"
                )
            return self._node_pool

    def drop_caches(self) -> None:
        """Cold-cache mode: benchmarks call this between measured queries.

        Clears the per-node segment/handle caches *and* the shared
        result/plan caches (counters included) — after this, every
        query's I/O starts from a cold disk and a cold cache.
        """
        self.transport.drop_caches()
        with self._cache_lock:
            cache = self._query_cache
        if cache is not None:
            cache.drop()

    def cache_stats(self):
        """Result/plan cache counters, or None before any cached submit."""
        with self._cache_lock:
            cache = self._query_cache
        return cache.stats() if cache is not None else None

    # -- execution ------------------------------------------------------------

    def submit(
        self,
        sql: Union[Query, str],
        options: Optional[ExecOptions] = None,
        *,
        num_clients: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
        remote: Optional[bool] = None,
        parallel: Optional[bool] = None,
    ) -> QueryResult:
        """Run a query end-to-end.

        Execution knobs come from ``options`` (an :class:`ExecOptions`).
        ``remote=False`` models a client co-located with the server (no
        network transfer is charged); the paper's Query 5 uses
        ``remote=True``.  Failure handling is governed by the options'
        ``retries`` / ``retry_backoff`` / ``node_timeout`` /
        ``allow_partial`` fields.  The per-method keywords
        (``num_clients``, ``partitioner``, ``remote``, ``parallel``) are
        deprecated shims that override the corresponding ``options``
        fields.
        """
        opts = _merge_legacy_kwargs(
            options,
            num_clients=num_clients,
            partitioner=partitioner,
            remote=remote,
            parallel=parallel,
        )
        run_state = opts.run_state
        if run_state is not None:
            # A query cancelled while queued must not start executing.
            run_state.checkpoint()
        tracer = opts.tracer()
        cache = self._cache_for(opts)
        resolved: Union[Query, str] = sql
        if cache is not None:
            # Resolve once: the same Query object feeds diagnostics,
            # keying, and planning (no repeated parse/validate).
            resolved = self.dataset.resolve_query(sql)
        self._run_diagnostics(resolved, opts, tracer)
        injector = self.fault_injector
        faults_before = injector.injected if injector is not None else 0
        attempts_allowed = max(0, opts.retries) + 1
        start = time.perf_counter()

        with tracer.span("query", sql=str(resolved)[:200]) as query_span:
            ctx = TraceContext(tracer, query_span)
            served = key = None
            if cache is not None:
                key, needed = cache.key_and_needed(resolved)
                cache_io = IOStats()
                served = cache.serve(
                    key, resolved, needed, self.filtering, cache_io,
                    tracer, opts.cache_mode,
                    vectorize=opts.vectorize == "on",
                )
            if served is not None:
                # Cache hit: no planning, no extraction, no node I/O.
                table = served.table
                per_node_stats: Dict[str, IOStats] = {CACHE_NODE: cache_io}
                failed_nodes: List[str] = []
                afc_count = served.afc_count
            else:
                if cache is not None:
                    from ..cache import project, widen_plan

                    plan = cache.plan_for(resolved, key, tracer)
                    # Emit every needed column (same reads, same filter)
                    # so the cached table can answer narrower queries
                    # filtering on WHERE-only attributes; callers get
                    # the projected SELECT list as always.  Aggregate
                    # plans are never widened: their cached value is the
                    # final labelled table, not a base-row superset.
                    exec_plan = (
                        plan if plan.aggregate is not None else widen_plan(plan)
                    )
                elif tracer.enabled and getattr(
                    self.dataset, "supports_tracing", False
                ):
                    plan = exec_plan = self.dataset.plan(resolved, tracer=tracer)
                else:
                    plan = exec_plan = self.dataset.plan(resolved)
                if getattr(exec_plan, "aggregate", None) is not None:
                    table, per_node_stats, failed_nodes = self._run_aggregate(
                        exec_plan, opts, tracer, ctx, attempts_allowed
                    )
                else:
                    table, per_node_stats, failed_nodes = self._extract_nodes(
                        exec_plan, opts, tracer, ctx, attempts_allowed
                    )
                afc_count = len(plan.afcs)
                if cache is not None:
                    if not failed_nodes and (
                        injector is None or injector.injected == faults_before
                    ):
                        # Only complete, healthy results enter the cache:
                        # degraded/partial tables and anything produced
                        # while faults fired would replay the damage
                        # forever.
                        cache.store(
                            key,
                            table,
                            sum(s.bytes_read for s in per_node_stats.values()),
                            afc_count,
                            tracer,
                        )
                    if plan.aggregate is None:
                        table = project(table, plan.output)

            transfer_stats = IOStats()
            deliveries: List[Delivery] = []
            messages = 0
            if opts.remote:
                deliveries, transfer_stats, transfer_exc = self._move_resilient(
                    table, opts, ctx, tracer, attempts_allowed
                )
                if transfer_exc is not None:
                    if not opts.allow_partial:
                        raise transfer_exc
                    failed_nodes.append(TRANSFER_NODE)
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
                afcs=afc_count,
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
            afc_count=afc_count,
            trace=tracer if tracer.enabled else None,
            degraded=bool(failed_nodes),
            failed_nodes=failed_nodes,
        )

    def _run_aggregate(
        self,
        exec_plan,
        opts: ExecOptions,
        tracer,
        ctx: TraceContext,
        attempts_allowed: int,
    ):
        """Execute an aggregate plan; returns ``(table, stats, failed)``.

        Three strategies, cheapest first:

        1. **Summary fast path** — a predicate-free ungrouped
           COUNT/MIN/MAX whose bounds are fully covered by plan metadata
           and chunk summaries is answered with zero data-chunk reads.
        2. **Pushdown** (``opts.agg_pushdown``, the default) — nodes
           return partial state frames; the coordinator merges and
           finalises them.  A node dropped under ``allow_partial`` drops
           its partial sums with it, so the result is marked degraded
           exactly like a row query — never a silent under-count.
        3. **Ablation** (``agg_pushdown=False``) — nodes ship full
           filtered rows and the coordinator aggregates them; the
           measurable difference is bytes moved, never the result.
        """
        from ..core import aggregate as agg

        spec = exec_plan.aggregate
        if opts.agg_pushdown:
            answer = agg.summary_answer(
                exec_plan, getattr(self.dataset, "summaries", None)
            )
            if answer is not None:
                stats = IOStats()
                stats.afcs_pruned += len(exec_plan.afcs)
                stats.groups_emitted += answer.num_rows
                if tracer.enabled:
                    tracer.metrics.record("agg.summary_answers")
                    tracer.event(
                        "summary_answer", afcs=len(exec_plan.afcs)
                    )
                return answer, {SUMMARY_NODE: stats}, []
            state, per_node_stats, failed_nodes = self._extract_nodes(
                exec_plan, opts, tracer, ctx, attempts_allowed
            )
            merged = agg.merge_partials(spec, [state], exec_plan.dtypes)
            table = agg.finalize(spec, merged, exec_plan.dtypes)
            return table, per_node_stats, failed_nodes
        # Ablation: strip the aggregate so nodes run the plain row path,
        # then fold everything at the coordinator (priced under its own
        # pseudo-node so the CPU shows up in the makespan).  A pure
        # COUNT(*) plan has no base output columns; client-side counting
        # has to ship *something* per row, so fall back to the WHERE
        # inputs or the first schema attribute — that honesty is exactly
        # what the pushdown ablation measures.
        from dataclasses import replace as dc_replace

        needed = list(exec_plan.needed)
        output = list(exec_plan.output)
        if not output:
            output = needed or (
                [next(iter(exec_plan.dtypes))] if exec_plan.dtypes else []
            )
            needed = list(dict.fromkeys(needed + output))
        row_plan = dc_replace(
            exec_plan, aggregate=None, needed=needed, output=output
        )
        rows, per_node_stats, failed_nodes = self._extract_nodes(
            row_plan, opts, tracer, ctx, attempts_allowed
        )
        coord = per_node_stats.setdefault(COORDINATOR_NODE, IOStats())
        coord.rows_aggregated += rows.num_rows
        table = agg.aggregate_rows(spec, rows, exec_plan.dtypes)
        coord.groups_emitted += table.num_rows
        return table, per_node_stats, failed_nodes

    def _extract_nodes(
        self,
        plan,
        opts: ExecOptions,
        tracer,
        ctx: TraceContext,
        attempts_allowed: int,
    ):
        """Failure-aware parallel extraction of a plan across its nodes.

        Returns ``(table, per_node_stats, failed_nodes)``; raises
        :class:`~repro.errors.NodeFailureError` for the first exhausted
        node unless ``opts.allow_partial``.
        """
        by_node = group_by_home_node(plan.afcs)

        per_node_stats: Dict[str, IOStats] = {
            node: IOStats() for node in by_node
        }
        #: node -> terminal failure; distinct keys per worker thread.
        failures: Dict[str, NodeFailureError] = {}

        run_state = opts.run_state

        def attempt_node(node: str, attempt_stats: IOStats) -> VirtualTable:
            """One extraction attempt, bounded by node_timeout."""
            if opts.node_timeout is None:
                return self.transport.execute_node(
                    node, plan, by_node[node], attempt_stats, tracer, opts
                )
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
                    box["result"] = self.transport.execute_node(
                        node, plan, by_node[node], attempt_stats, tracer, opts
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

        def run_node(node: str) -> VirtualTable:
            # Worker threads have an empty span stack; parent the
            # per-node span under the query root via the context.
            with ctx.span(
                "extract", node=node, afcs=len(by_node[node])
            ) as span:
                node_ctx = ctx.child(span)
                last_exc: Optional[Exception] = None
                for attempt in range(attempts_allowed):
                    if run_state is not None:
                        run_state.checkpoint()
                    attempt_stats = IOStats()
                    try:
                        if attempt == 0:
                            partial = attempt_node(node, attempt_stats)
                        else:
                            backoff = opts.retry_backoff * (2 ** (attempt - 1))
                            with node_ctx.span(
                                "retry",
                                node=node,
                                attempt=attempt,
                                backoff=round(backoff, 6),
                                error=f"{type(last_exc).__name__}: {last_exc}",
                            ):
                                tracer.metrics.record("retries.attempted")
                                if backoff > 0:
                                    time.sleep(backoff)
                                partial = attempt_node(node, attempt_stats)
                    except _RETRYABLE as exc:
                        # A timed-out attempt was abandoned, not
                        # finished: its sacrificial thread may still
                        # be mutating attempt_stats, so merging it
                        # here would both race and double-count the
                        # partial work on top of the retry's counts.
                        if not isinstance(exc, NodeTimeoutError):
                            per_node_stats[node].merge(attempt_stats)
                        last_exc = exc
                        continue
                    per_node_stats[node].merge(attempt_stats)
                    if run_state is not None and not getattr(
                        self.transport, "cooperative_quotas", False
                    ):
                        # Remote nodes never see the run state (it does
                        # not cross the wire), so quotas are charged
                        # here, per node partial, at the coordinator.
                        run_state.charge(
                            rows=partial.num_rows,
                            nbytes=attempt_stats.bytes_read,
                        )
                    span.tag(
                        rows=partial.num_rows,
                        bytes_read=per_node_stats[node].bytes_read,
                        attempts=attempt + 1,
                    )
                    return partial
                tracer.metrics.record("nodes.failed")
                node_ctx.event(
                    "node_failure",
                    node=node,
                    attempts=attempts_allowed,
                    error=f"{type(last_exc).__name__}: {last_exc}",
                )
                raise NodeFailureError(node, attempts_allowed, last_exc)

        def guarded(node: str) -> Optional[VirtualTable]:
            try:
                return run_node(node)
            except NodeFailureError as exc:
                failures[node] = exc
                return None

        nodes = list(by_node)
        if opts.parallel and len(nodes) > 1:
            maybe_partials = list(self._pool(opts).map(guarded, nodes))
        else:
            maybe_partials = [guarded(node) for node in nodes]

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

        if partials:
            table = concat_tables(partials)
        elif getattr(plan, "aggregate", None) is not None:
            # Aggregate plans return state frames, not base rows.
            table = plan.aggregate.empty_state(plan.dtypes)
        else:
            import numpy as np

            table = VirtualTable(
                {
                    n: np.empty(0, dtype=plan.dtypes.get(n, np.float64))
                    for n in plan.output
                },
                order=plan.output,
            )
        return table, per_node_stats, failed_nodes

    def _run_diagnostics(
        self,
        sql: Union[Query, str],
        opts: ExecOptions,
        tracer,
    ) -> None:
        """Static analysis at submit time.

        With tracing on, descriptor and query findings become ``diag``
        events plus a ``diag.warnings`` counter.  Under
        ``ExecOptions(strict=True)`` any error *or warning* refuses the
        query with a :class:`~repro.errors.QueryValidationError` — the
        strict mode escalation.  Datasets without a descriptor
        (hand-written planners) only get query analysis, and only when a
        descriptor is reachable.
        """
        if not (opts.strict or tracer.enabled):
            return
        from ..diag.options import analyze_options

        findings = []
        collector = getattr(self.dataset, "diagnostics", None)
        if collector is not None:
            findings.extend(collector)
        descriptor = getattr(self.dataset, "descriptor", None)
        if descriptor is not None:
            from ..diag.query import analyze_query

            findings.extend(
                analyze_query(descriptor, sql, self.filtering.functions)
            )
        findings.extend(analyze_options(opts))
        if tracer.enabled:
            for diag in findings:
                tracer.event(
                    "diag",
                    code=diag.code,
                    severity=str(diag.severity),
                    message=diag.message,
                )
                if str(diag.severity) == "warning":
                    tracer.metrics.record("diag.warnings")
        if opts.strict:
            blocking = [
                d for d in findings if str(d.severity) in ("error", "warning")
            ]
            if blocking:
                from ..errors import QueryValidationError

                details = "; ".join(d.format(show_source=False) for d in blocking)
                raise QueryValidationError(
                    f"strict mode: {len(blocking)} static-analysis finding(s) "
                    f"block execution: {details}"
                )

    def _move_resilient(
        self,
        table: VirtualTable,
        opts: ExecOptions,
        ctx: TraceContext,
        tracer,
        attempts_allowed: int,
    ):
        """Run the data mover with the same retry policy as extraction.

        Returns ``(deliveries, transfer_stats, failure)``; on exhausted
        retries the failure is a :class:`NodeFailureError` for the
        pseudo-node ``"_transfer"`` and the deliveries are empty.
        """
        partitioner = opts.partitioner or RoundRobinPartitioner()
        last_exc: Optional[Exception] = None
        for attempt in range(attempts_allowed):
            transfer_stats = IOStats()
            try:
                if attempt == 0:
                    deliveries = self.mover.move(
                        table, partitioner, opts.num_clients,
                        transfer_stats, tracer,
                    )
                else:
                    backoff = opts.retry_backoff * (2 ** (attempt - 1))
                    with ctx.span(
                        "retry",
                        node=TRANSFER_NODE,
                        attempt=attempt,
                        backoff=round(backoff, 6),
                        error=f"{type(last_exc).__name__}: {last_exc}",
                    ):
                        tracer.metrics.record("retries.attempted")
                        if backoff > 0:
                            time.sleep(backoff)
                        deliveries = self.mover.move(
                            table, partitioner, opts.num_clients,
                            transfer_stats, tracer,
                        )
            except InjectedFault as exc:
                last_exc = exc
                continue
            return deliveries, transfer_stats, None
        tracer.metrics.record("nodes.failed")
        ctx.event(
            "node_failure",
            node=TRANSFER_NODE,
            attempts=attempts_allowed,
            error=f"{type(last_exc).__name__}: {last_exc}",
        )
        return [], IOStats(), NodeFailureError(
            TRANSFER_NODE, attempts_allowed, last_exc
        )

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
