"""Data source service: per-node chunk extraction.

STORM's data source service "provides a view of a dataset to other
services ... an extraction function returns an ordered list of attribute
values for a tuple in the dataset, thus effectively creating a virtual
table" (paper Section 2.3).  One service instance runs per node, owns that
node's file handles and caches, and materialises the rows of the AFCs
assigned to it — by running its extractor's one AFC -> block driver
(``Extractor.execute_parts``) with this node's name on the reader, the
filtering service's predicate evaluator, and the options' I/O shape.
:meth:`DataSourceService.parts` hands out the driver's finished parts
as they are produced (a node server streams them);
:meth:`DataSourceService.execute` combines them into one table.

Concurrency: the extractor's handle/segment caches are internally locked
and all chunk I/O is positional, so there is no coarse per-node lock —
concurrent queries share one service, and within one query
``ExecOptions.intra_node_workers`` threads extract a node's AFCs in
parallel.  Output row order is always the AFC order of the plan,
regardless of worker count, and per-worker stats are merged
deterministically in that same order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Optional

from ..core.afc import AfcTable, ExtractionPlan
from ..core.extractor import Extractor, Mount, combine_parts
from ..core.options import DEFAULT_OPTIONS, ExecOptions
from ..core.stats import IOStats
from ..core.table import VirtualTable
from ..obs.tracer import NULL_TRACER
from .filtering import FilteringService


class DataSourceService:
    """Extraction executor for one node of the virtual cluster."""

    def __init__(
        self,
        node: str,
        mount: Mount,
        filtering: FilteringService,
        segment_cache_bytes: int = 32 * 1024 * 1024,
        handle_cache: int = 64,
    ):
        self.node = node
        self.extractor = Extractor(
            mount,
            filtering.functions,
            segment_cache_bytes=segment_cache_bytes,
            handle_cache=handle_cache,
        )
        self.filtering = filtering
        self.stats = IOStats()

    def drop_caches(self) -> None:
        """Cold-cache mode for benchmarks: forget handles and segments.

        Safe during in-flight queries: handles pinned by a concurrent
        read are closed by their last unpin, never mid-read.
        """
        self.extractor.drop_caches()

    def execute(
        self,
        plan: ExtractionPlan,
        afcs: AfcTable,
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
        options: Optional[ExecOptions] = None,
    ) -> VirtualTable:
        """Extract + filter the given AFCs; returns this node's partial
        table — for an aggregate plan, its partial state frame: the
        :meth:`parts` of the call, combined."""
        stats = stats if stats is not None else self.stats
        return combine_parts(
            plan, self.parts(plan, afcs, stats, tracer, options), stats
        )

    def parts(
        self,
        plan: ExtractionPlan,
        afcs: AfcTable,
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
        options: Optional[ExecOptions] = None,
    ) -> Iterable:
        """What :meth:`execute` combines: a row plan's finished blocks, an
        aggregate plan's per-AFC state frames, in AFC order — produced
        as they are consumed on one worker, which is how a node server
        streams a reply while its next block is still being read.

        ``options`` supplies the I/O shape: ``coalesce_gap_bytes`` merges
        nearby chunk reads across all of this node's AFCs into wide
        reads, ``vectorize`` picks the compiled kernel or the
        interpreted oracle, ``run_state`` meters the run (quota bounds:
        ``Extractor.execute_blocks``), and ``intra_node_workers`` runs
        the extractor's block driver on that many threads, one AFC per
        job.  The AFCs this node's segment cache taught it to rule out
        (``Extractor.prune``) are dropped first, before the reader and
        its coalescing plan are built.  ``afcs`` may also be a list of
        AFC objects (the ledger's layer calls pass one): it is
        tabulated here, the one boundary below the transports.
        """
        afcs = AfcTable.of(afcs)
        stats = stats if stats is not None else self.stats
        opts = options if options is not None else DEFAULT_OPTIONS
        afcs = self.extractor.prune(plan, afcs, tracer)
        reader = self.extractor.reader_for(
            plan, afcs, tracer, opts.coalesce_gap_bytes, self.node
        )
        # Resolved once per call: a per-AFC lookup re-hashes the whole
        # WHERE tree for every chunk set.
        evaluator = self.filtering.evaluator(
            plan.where, opts.vectorize == "on", tracer, plan.decided
        )
        workers = min(max(1, opts.intra_node_workers), len(afcs) or 1)
        if workers == 1:
            return self.extractor.execute_parts(
                plan, afcs, evaluator, reader, stats, opts.run_state
            )
        return self._per_afc(
            plan, afcs, evaluator, reader, stats, opts.run_state, workers
        )

    def _per_afc(
        self, plan, afcs: AfcTable, evaluator, reader,
        stats: IOStats, meter, workers,
    ) -> list:
        """The block driver over one AFC (a one-row slice of the table)
        per job on ``workers`` threads; every job's parts, in AFC order.
        Workers count into per-job stats merged in that same order, so
        row order and stats totals are identical to a serial run
        whatever the thread interleaving was.
        """

        def job(i: int):
            local = IOStats()
            parts = self.extractor.execute_parts(
                plan, afcs[i:i + 1], evaluator, reader, local, meter
            )
            return list(parts), local

        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"intra-{self.node}"
        ) as pool:
            outcomes = list(pool.map(job, range(len(afcs))))
        for _, local in outcomes:
            stats.merge(local)
        return [part for parts, _ in outcomes for part in parts]

    def close(self) -> None:
        self.extractor.close()
