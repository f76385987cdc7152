"""The query pipeline: the stages every front door runs, written once.

The paper's runtime is one query service in front of a two-stage
pipeline (index function -> extractor, Section 4, Figure 5).  This
module is that pipeline above the extractor::

    admit:  resolve -> diagnostics
    run:    cache lookup -> plan (widened when the result will be
            cached) -> aggregate strategy (summary answer | partial
            state frames merged + finalized | row fold for
            ``agg_pushdown=False``) -> health-gated cache fill -> project

``Virtualizer`` and ``QueryService`` each own one :class:`QueryPipeline`
and differ in the single argument :meth:`QueryPipeline.run` takes: the
:data:`Executor`, *how a plan's AFCs are executed* — one ``Extractor``
in plan order, or a failure-aware fan-out over a transport's nodes.
What surrounds the call (the ``query`` span, stats accumulation, mover,
cost model) stays with the front door.

``core`` imports nothing from ``storm``: the front door's
:class:`~repro.core.kernels.KernelCache` (a query service's
``FilteringService`` is one), which re-filters subsumption hits, is
passed in.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import QueryValidationError
from ..sql.ast import Query
from . import aggregate as agg
from .afc import ExtractionPlan
from .kernels import KernelCache
from .options import ExecOptions
from .stats import IOStats
from .table import VirtualTable

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

#: How a plan's AFCs are executed: ``plan -> (table, per-node stats,
#: failed nodes)``.  An aggregate plan's table is its partial state
#: frame; ``failed nodes`` is non-empty only for a degraded result.
Executor = Callable[
    [ExtractionPlan], Tuple[VirtualTable, Dict[str, IOStats], List[str]]
]


def sql_tag(query, tracer) -> Optional[str]:
    """A bounded string form of the query for the ``query`` span's
    ``sql`` tag, rendered only when someone is tracing."""
    return str(query)[:200] if tracer.enabled else None


@dataclass
class Answer:
    """What :meth:`QueryPipeline.run` produced for one query."""

    #: The result — or, for a streamed row plan, its lazy batches.
    table: Union[VirtualTable, Iterator[VirtualTable]]
    #: Counters by executing node, plus the pseudo-nodes above.
    per_node_stats: Dict[str, IOStats]
    failed_nodes: List[str]
    afc_count: int


class QueryPipeline:
    """One dataset's query stages and the result/plan caches they share."""

    def __init__(self, dataset, kernels: KernelCache):
        self.dataset = dataset
        #: Re-filters subsumption hits; its function registry is the
        #: one static analysis checks calls against.
        self._kernels = kernels
        #: Result/plan caches, created lazily by the first query whose
        #: options enable caching and shared by every later query, node
        #: and submitting thread.
        self._cache = None
        self._cache_unsupported = False
        self._cache_lock = threading.Lock()

    # -- caches ---------------------------------------------------------------

    def _cache_for(self, opts: ExecOptions):
        """The shared QueryCache, or None when this query runs uncached."""
        if opts.cache_mode == "off" or self._cache_unsupported:
            return None
        with self._cache_lock:
            if self._cache is None:
                from ..cache import QueryCache

                self._cache = QueryCache.for_dataset(
                    self.dataset,
                    opts.result_cache_bytes,
                    opts.plan_cache_entries,
                )
                if self._cache is None:
                    # Duck-typed dataset without descriptor/needed_columns:
                    # caching cannot key its queries; stay off silently.
                    self._cache_unsupported = True
            else:
                self._cache.configure(
                    opts.result_cache_bytes, opts.plan_cache_entries
                )
            return self._cache

    def drop_cache(self) -> None:
        """Forget cached results and plans, counters included."""
        with self._cache_lock:
            cache = self._cache
        if cache is not None:
            cache.drop()

    def cache_stats(self) -> Optional[Dict[str, Dict[str, int]]]:
        """Result/plan cache counters, or None before any cached query."""
        with self._cache_lock:
            cache = self._cache
        return cache.stats() if cache is not None else None

    # -- stages ---------------------------------------------------------------

    def admit(self, sql: Union[Query, str], opts: ExecOptions, tracer):
        """Resolve -> diagnostics; the query every later stage shares.

        Resolving once means one Query object feeds diagnostics, keying
        and planning (no repeated parse/validate).  Hand-written
        planners exposing only ``plan(sql)`` get their text back.
        """
        resolve = getattr(self.dataset, "resolve_query", None)
        query = resolve(sql) if resolve is not None else sql
        if opts.strict or tracer.enabled:
            self._diagnose(query, opts, tracer)
        return query

    def _diagnose(self, query, opts: ExecOptions, tracer) -> None:
        """Static analysis before execution.

        With tracing on, descriptor, query and option findings become
        ``diag`` events plus a ``diag.warnings`` counter.  Under
        ``ExecOptions(strict=True)`` any error *or warning* refuses the
        query with a :class:`~repro.errors.QueryValidationError` — the
        strict mode escalation.  Datasets without a descriptor
        (hand-written planners) only get option analysis.
        """
        from ..diag.options import analyze_options

        findings = list(getattr(self.dataset, "diagnostics", None) or ())
        descriptor = getattr(self.dataset, "descriptor", None)
        if descriptor is not None:
            findings.extend(self._query_findings(descriptor, query))
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
                details = "; ".join(d.format(show_source=False) for d in blocking)
                raise QueryValidationError(
                    f"strict mode: {len(blocking)} static-analysis finding(s) "
                    f"block execution: {details}"
                )

    def _query_findings(self, descriptor, query):
        """:func:`~repro.diag.query.analyze_query` of ``query``, run once
        per text.  The findings depend only on the descriptor, the bound
        query and the function registry, so they are kept on the query's
        rewrite memo, which the query-text cache hands out with every
        copy of the text."""
        from ..diag.query import analyze_query

        functions = self._kernels.functions
        memo = query.__dict__.get("_rewrite") if isinstance(query, Query) else None
        if memo is None or not memo.matches(query):
            return analyze_query(descriptor, query, functions)
        key = (descriptor, functions, functions.generation)
        kept = memo.analysis
        if kept is None or kept[0] != key:
            kept = memo.analysis = (
                key, tuple(analyze_query(descriptor, query, functions))
            )
        return kept[1]

    def plan(self, query, opts: ExecOptions, tracer) -> ExtractionPlan:
        """The admitted query's plan, memoized when ``opts`` cache."""
        cache = self._cache_for(opts)
        key = cache.key_and_needed(query)[0] if cache is not None else None
        return self._plan(query, cache, key, tracer)

    def _plan(self, query, cache, key, tracer) -> ExtractionPlan:
        if cache is not None:
            return cache.plan_for(query, key, tracer)
        if tracer.enabled and getattr(self.dataset, "supports_tracing", False):
            return self.dataset.plan(query, tracer=tracer)
        return self.dataset.plan(query)

    def run(
        self,
        query,
        opts: ExecOptions,
        tracer,
        execute: Executor,
        healthy: Optional[Callable[[], bool]] = None,
        stream: Optional[Callable[[ExtractionPlan], Iterator]] = None,
    ) -> Answer:
        """Answer an admitted query: from the cache, or by planning it
        and handing the plan to ``execute``.

        Only complete, healthy results enter the cache: a degraded
        table (``execute`` reported failed nodes) or one produced while
        ``healthy()`` is false (faults fired) would replay the damage
        forever.  ``stream`` is the streaming mode: cache hits and
        aggregates (group-count sized) are answered as ever, but a row
        plan's answer is ``stream(plan)`` — lazy batches, returned
        untouched and never cached, since buffering a streamed result
        to store it would defeat the bounded-memory contract.
        """
        cache = self._cache_for(opts)
        key = None
        if cache is not None:
            key, needed = cache.key_and_needed(query)
            cache_io = IOStats()
            served = cache.serve(
                key, query, needed, self._kernels, cache_io,
                tracer, opts.cache_mode, vectorize=opts.vectorize == "on",
            )
            if served is not None:
                # Cache hit: no planning, no extraction, no node I/O.
                return Answer(
                    served.table, {CACHE_NODE: cache_io}, [], served.afc_count
                )
        plan = self._plan(query, cache, key, tracer)
        fill = cache is not None and stream is None
        if plan.aggregate is not None:
            # Aggregates cache the final labelled table verbatim (exact
            # hits only; no widening, nothing to project).
            table, stats, failed = self._aggregate(plan, opts, tracer, execute)
            stored = table
        elif stream is not None:
            table, stats, failed = stream(plan), {}, []
        elif fill:
            from ..cache import project, widen_plan

            # Emit every needed column (same reads, same filter) so the
            # cached table can answer narrower queries filtering on
            # WHERE-only attributes; callers get the SELECT list.
            stored, stats, failed = execute(widen_plan(plan))
            table = project(stored, plan.output)
        else:
            table, stats, failed = execute(plan)
        if fill and not failed and (healthy is None or healthy()):
            cache.store(
                key,
                stored,
                sum(s.bytes_read for s in stats.values()),
                len(plan.afcs),
                tracer,
            )
        return Answer(table, stats, failed, len(plan.afcs))

    def _aggregate(
        self, plan: ExtractionPlan, opts: ExecOptions, tracer, execute: Executor
    ):
        """Execute an aggregate plan; returns ``(table, stats, failed)``.

        Three strategies, cheapest first:

        1. **Summary fast path** — an ungrouped COUNT/MIN/MAX with no
           residual WHERE (none written, or all decided by the index)
           whose bounds are fully covered by plan metadata and chunk
           summaries is answered with zero data-chunk reads.
        2. **Pushdown** (``opts.agg_pushdown``, the default) — the
           executor returns partial state frames; they are merged and
           finalised here.  A node dropped under ``allow_partial`` drops
           its partial sums with it, so the result is marked degraded
           exactly like a row query — never a silent under-count.
        3. **Ablation** (``agg_pushdown=False``) — the executor ships
           full filtered rows and they are aggregated here; the
           measurable difference is bytes moved, never the result.
        """
        spec = plan.aggregate
        if opts.agg_pushdown:
            answer = agg.summary_answer(
                plan, getattr(self.dataset, "summaries", None)
            )
            if answer is not None:
                stats = IOStats()
                stats.afcs_pruned += len(plan.afcs)
                stats.groups_emitted += answer.num_rows
                if tracer.enabled:
                    tracer.metrics.record("agg.summary_answers")
                    tracer.event("summary_answer", afcs=len(plan.afcs))
                return answer, {SUMMARY_NODE: stats}, []
            state, per_node_stats, failed = execute(plan)
            merged = agg.merge_partials(spec, [state], plan.dtypes)
            return agg.finalize(spec, merged, plan.dtypes), per_node_stats, failed
        # Ablation: strip the aggregate so the executor runs the plain
        # row path, then fold everything here (priced under its own
        # pseudo-node so the CPU shows up in the makespan).  A pure
        # COUNT(*) plan has no base output columns; counting shipped
        # rows has to ship *something* per row, so fall back to the
        # WHERE inputs or the first schema attribute — that honesty is
        # exactly what the pushdown ablation measures.
        needed = list(plan.needed)
        output = list(plan.output)
        if not output:
            output = needed or (
                [next(iter(plan.dtypes))] if plan.dtypes else []
            )
            needed = list(dict.fromkeys(needed + output))
        rows, per_node_stats, failed = execute(
            dataclasses.replace(
                plan, aggregate=None, needed=needed, output=output
            )
        )
        coord = per_node_stats.setdefault(COORDINATOR_NODE, IOStats())
        coord.rows_aggregated += rows.num_rows
        table = agg.aggregate_rows(spec, rows, plan.dtypes)
        coord.groups_emitted += table.num_rows
        return table, per_node_stats, failed
