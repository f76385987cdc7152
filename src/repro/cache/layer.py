"""The query-facing cache layer: keying, serving, storing, observing.

:class:`QueryCache` binds one dataset's :class:`ResultCache` and
:class:`PlanCache` together with the keying logic of
:mod:`repro.cache.keys` and the observability surface (``cache.*``
metrics, ``cache_hit`` trace events, the cache fields of
:class:`~repro.core.stats.IOStats`).  ``Virtualizer`` and
``QueryService`` each own at most one instance, created lazily on the
first query whose :class:`~repro.core.options.ExecOptions` enables
caching (``cache_mode != "off"``) and shared by every node / submitting
thread thereafter.

This module deliberately imports nothing from :mod:`repro.storm` —
storm imports core, never the other way — so the re-filtering service
used for subsumption hits is passed in by the caller.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.afc import ExtractionPlan
from ..core.stats import IOStats
from ..core.table import VirtualTable
from ..obs.tracer import NULL_TRACER
from ..sql.ast import Query
from ..sql.rewrite import rewrite_of
from .keys import QueryKey, query_key
from .result_cache import PlanCache, ResultCache


def widen_plan(plan: ExtractionPlan) -> ExtractionPlan:
    """The same plan, emitting every *needed* column, not just the SELECT.

    WHERE-only columns are extracted either way (the predicate needs
    them); emitting them too is what lets the cached table answer later
    narrower queries that filter on attributes this query did not
    project.  Reads, pruning, and filtering are identical — only the
    result's column set widens, and callers project back down with
    :func:`project`.
    """
    if list(plan.needed) == list(plan.output):
        return plan
    return dataclasses.replace(plan, output=list(plan.needed))


def project(table: VirtualTable, output: Sequence[str]) -> VirtualTable:
    """Zero-copy projection of a table onto ``output`` in order."""
    names: List[str] = list(output)
    if list(table.column_names) == names:
        return table
    return VirtualTable({n: table.column(n) for n in names}, order=names)


@dataclass
class CacheServe:
    """One served cache hit: the answer plus its bookkeeping."""

    table: VirtualTable
    kind: str  # "exact" | "subsume"
    #: Bytes the original cold execution read — what this hit avoided.
    saved_bytes: int
    #: AFC count of the original execution (reported in QueryResult).
    afc_count: int


class QueryCache:
    """Result + plan caches for one dataset, shared across submitters."""

    def __init__(
        self,
        dataset,
        result_cache_bytes: int = 64 * 1024 * 1024,
        plan_cache_entries: int = 128,
    ):
        self.dataset = dataset
        #: The descriptor half of every key: the digest the dataset's
        #: compile hashed once (``CompiledDataset.digest``).
        self.fingerprint = dataset.digest
        self.results = ResultCache(result_cache_bytes)
        self.plans = PlanCache(plan_cache_entries)
        self._config_lock = threading.Lock()

    @classmethod
    def for_dataset(
        cls,
        dataset,
        result_cache_bytes: int,
        plan_cache_entries: int,
    ) -> Optional["QueryCache"]:
        """A cache for ``dataset``, or None when it cannot be keyed.

        Duck-typed datasets (hand-written planners exposing only
        ``plan(sql)``) have no descriptor digest to key on and no
        ``needed_columns`` to validate against, so caching silently
        stays off for them.
        """
        if getattr(dataset, "descriptor", None) is None:
            return None
        if not hasattr(dataset, "needed_columns") or not hasattr(
            dataset, "resolve_query"
        ):
            return None
        return cls(dataset, result_cache_bytes, plan_cache_entries)

    def configure(self, result_cache_bytes: int, plan_cache_entries: int) -> None:
        """Adopt new budgets from later ExecOptions (shrinking evicts)."""
        with self._config_lock:
            if result_cache_bytes != self.results.max_bytes:
                self.results.resize(result_cache_bytes)
            if plan_cache_entries != self.plans.max_entries:
                self.plans.resize(plan_cache_entries)

    # -- keying ---------------------------------------------------------------

    def key_and_needed(self, query: Query) -> Tuple[QueryKey, FrozenSet[str]]:
        """The normalized key of a resolved query, plus the columns any
        cached table must store to answer it (output + WHERE inputs).

        Aggregate queries cache their *final* labelled result table:
        the key's output is the result labels, the key carries the
        aggregate marker (so a GROUP-BY-only query can never collide
        with the row query projecting the same columns), and only exact
        hits serve it — subsumption stays row-query-only.
        """
        # Canonicalize first: commuted/flipped/folded spellings share one
        # key, and ``needed`` then matches the (also-rewritten) plan's
        # column set, so stored entries actually serve every spelling.
        # The rewrite is memoized on ``query``: planning reuses it.
        query = rewrite_of(query).canonical(query)
        needed, output = self.dataset.needed_columns(query)
        if query.is_aggregate:
            from ..core.aggregate import aggregate_spec

            spec = aggregate_spec(query, list(self.dataset.schema.names))
            key = query_key(
                self.fingerprint,
                query,
                spec.output,
                aggregate=("BY",) + spec.group_by,
            )
            return key, frozenset(spec.output)
        return query_key(self.fingerprint, query, output), frozenset(needed)

    # -- serving --------------------------------------------------------------

    def serve(
        self,
        key: QueryKey,
        query: Query,
        needed: FrozenSet[str],
        filtering,
        stats: IOStats,
        tracer=NULL_TRACER,
        mode: str = "exact",
        vectorize: bool = False,
    ) -> Optional[CacheServe]:
        """Answer from cache, or None on a miss.

        Exact hits share the frozen cached table zero-copy (its arrays
        are read-only), projected down to the query's SELECT list — the
        stored table may carry extra WHERE-only columns (see
        :func:`widen_plan`).  Subsumption hits re-run the query's full
        WHERE over the cached superset through ``filtering`` (its
        ``refilter``: a ``FilteringService``'s or a ``KernelCache``'s),
        which both charges the re-filter CPU to
        ``stats.rows_refiltered`` and hands back writable columns.
        """
        entry, kind = self.results.lookup(key, needed, subsume=mode == "subsume")
        if entry is None:
            if tracer.enabled:
                tracer.metrics.record("cache.misses")
            return None
        if kind == "exact":
            table = project(entry.table, key.output)
            stats.result_cache_hits += 1
            stats.rows_output += table.num_rows
        else:
            stats.subsumption_hits += 1
            stats.rows_refiltered += entry.table.num_rows
            # Re-filter with the canonical WHERE: it is equivalent to the
            # original but only references columns inside ``needed``, so a
            # contradiction-folded query can never read a column the
            # cached superset does not store.
            canonical = rewrite_of(query).canonical(query)
            table = filtering.refilter(
                canonical.where, entry.table, list(key.output), stats, tracer,
                vectorize=vectorize,
            )
        stats.cache_saved_bytes += entry.source_bytes_read
        if tracer.enabled:
            tracer.event(
                "cache_hit",
                kind=kind,
                rows=table.num_rows,
                saved_bytes=entry.source_bytes_read,
            )
            tracer.metrics.record(
                "cache.hits" if kind == "exact" else "cache.subsumption_hits"
            )
            tracer.metrics.record("bytes.cache_saved", entry.source_bytes_read)
        return CacheServe(table, kind, entry.source_bytes_read, entry.afc_count)

    def plan_for(self, query: Query, key: QueryKey, tracer=NULL_TRACER):
        """The extraction plan for ``query``, memoized on its key.

        Keys normalize away syntactic differences exactly (the residual
        is the canonical rendering, the range part is the interval
        algebra), so two queries sharing a key have logically equivalent
        WHERE clauses and one plan answers both.
        """
        plan = self.plans.get(key)
        if plan is not None:
            if tracer.enabled:
                tracer.event("cache_hit", kind="plan")
                tracer.metrics.record("cache.plan_hits")
            return plan
        if tracer.enabled and getattr(self.dataset, "supports_tracing", False):
            plan = self.dataset.plan(query, tracer=tracer)
        else:
            plan = self.dataset.plan(query)
        self.plans.put(key, plan)
        return plan

    # -- population -----------------------------------------------------------

    def store(
        self,
        key: QueryKey,
        table: VirtualTable,
        source_bytes_read: int,
        afc_count: int,
        tracer=NULL_TRACER,
    ) -> None:
        """Remember a *complete, healthy* result.

        Callers must not store degraded/partial results or results
        produced while faults were being injected — the cache would then
        replay the damage to every later query (the gating lives at the
        call sites, which can see ``failed_nodes`` and the injector).
        """
        evicted = self.results.put(key, table, source_bytes_read, afc_count)
        if evicted and tracer.enabled:
            tracer.metrics.record("cache.evictions", evicted)

    # -- maintenance ----------------------------------------------------------

    def drop(self) -> None:
        """Empty both caches and reset their counters (``drop_caches``)."""
        self.results.clear()
        self.plans.clear()

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {"result": self.results.stats(), "plan": self.plans.stats()}
