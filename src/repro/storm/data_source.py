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

        ``options`` supplies the I/O shape the driver honours
        (``Extractor.execute_parts``: learned-bounds pruning,
        ``coalesce_gap_bytes``, ``run_state``, ``intra_node_workers``);
        ``vectorize`` picks the filtering service's compiled kernel or
        the interpreted oracle.  ``afcs`` may also be a list of AFC
        objects (the ledger's layer calls pass one): it is tabulated
        here, the one boundary below the transports.
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        # Resolved once per call: a per-AFC lookup re-hashes the whole
        # WHERE tree for every chunk set.
        evaluator = self.filtering.evaluator(
            plan.where, opts.vectorize == "on", tracer, plan.decided
        )
        return self.extractor.execute_parts(
            plan, AfcTable.of(afcs), evaluator,
            stats if stats is not None else self.stats,
            tracer, opts, self.node,
        )

    def close(self) -> None:
        self.extractor.close()
