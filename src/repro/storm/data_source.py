"""Data source service: per-node chunk extraction.

STORM's data source service "provides a view of a dataset to other
services ... an extraction function returns an ordered list of attribute
values for a tuple in the dataset, thus effectively creating a virtual
table" (paper Section 2.3).  One service instance runs per node, owns that
node's file handles and caches, and materialises the rows of the AFCs
assigned to it.

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
from typing import Dict, List, Optional

import numpy as np

from ..core.afc import AlignedFileChunkSet, ExtractionPlan
from ..core.aggregate import merge_partials, partial_aggregate
from ..core.extractor import AfcReader, Extractor, Mount, assemble_table
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
        afcs: List[AlignedFileChunkSet],
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
        options: Optional[ExecOptions] = None,
    ) -> VirtualTable:
        """Extract + filter the given AFCs; returns this node's partial table.

        ``options`` supplies the I/O shape: ``coalesce_gap_bytes`` merges
        nearby chunk reads across all of this node's AFCs into wide
        reads, and ``intra_node_workers`` extracts AFCs concurrently.
        A serial run with a compiled WHERE goes through the extractor's
        block driver whether or not the scheduler attached a
        ``run_state``; everything else filters per AFC.
        """
        stats = stats if stats is not None else self.stats
        opts = options if options is not None else DEFAULT_OPTIONS
        reader = AfcReader(
            self.extractor, plan.needed, plan.dtypes, tracer,
            self.extractor.coalesce_for(
                afcs, plan.needed, opts.coalesce_gap_bytes
            ),
            node=self.node,
        )
        # Resolved once per call: a per-AFC lookup re-hashes the whole
        # WHERE tree for every chunk set.
        kernel = None
        if opts.vectorize == "on" and plan.where is not None:
            kernel = self.filtering.kernel_for(plan.where, tracer)
        run_state = opts.run_state
        workers = min(max(1, opts.intra_node_workers), len(afcs) or 1)

        def one(afc: AlignedFileChunkSet, st: IOStats):
            return self._extract_one(plan, afc, reader, st, run_state, kernel)

        if plan.aggregate is not None:
            return self._execute_aggregate(plan, afcs, stats, workers, one)
        if workers == 1 and kernel is not None:
            # The serial driver, metered or not: small AFCs fuse into
            # cache-sized kernel blocks (quota bounds: execute_blocks).
            return self.extractor.execute_blocks(
                plan, afcs, kernel, reader, stats, meter=run_state
            )
        selected = self._per_afc(afcs, stats, workers, one)
        pieces = {
            name: [s[name] for s in selected if s is not None]
            for name in plan.output
        }
        return assemble_table(pieces, plan)

    def _per_afc(self, afcs, stats: IOStats, workers: int, one) -> list:
        """``one(afc, stats)`` for every AFC, serially or on ``workers``
        threads; results in AFC order.  Workers count into per-job stats
        merged in that same order, so row order and stats totals are
        identical to a serial run whatever the thread interleaving was.
        """
        if workers <= 1:
            return [one(afc, stats) for afc in afcs]

        def job(afc: AlignedFileChunkSet):
            local = IOStats()
            return one(afc, local), local

        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"intra-{self.node}"
        ) as pool:
            outcomes = list(pool.map(job, afcs))
        for _, local in outcomes:
            stats.merge(local)
        return [result for result, _ in outcomes]

    def _execute_aggregate(
        self,
        plan: ExtractionPlan,
        afcs: List[AlignedFileChunkSet],
        stats: IOStats,
        workers: int,
        extract_one,
    ) -> VirtualTable:
        """Aggregate pushdown: fold this node's AFCs into one state frame.

        Each AFC is extracted and filtered exactly as in the per-AFC row
        path, then reduced immediately via
        :func:`repro.core.aggregate.partial_aggregate`; per-AFC frames
        merge into a single per-node frame.  Extracted row blocks die
        here — only (group key, state) rows leave the node.  The fold
        stays per AFC: folding per fused block would re-associate float
        ``SUM``/``AVG`` and break bit-identity with ``vectorize="off"``.
        """
        spec = plan.aggregate

        def one(afc: AlignedFileChunkSet, st: IOStats):
            # filtering.apply adds the filtered row count to rows_output;
            # the delta recovers it even when the base plan materialises
            # no columns at all (pure COUNT(*)).  Safe: ``st`` is either
            # a per-job local or used strictly sequentially.
            before = st.rows_output
            selected = extract_one(afc, st)
            if selected is None:
                return None
            num_rows = st.rows_output - before
            st.rows_aggregated += num_rows
            return partial_aggregate(spec, selected, num_rows, plan.dtypes)

        partials = [
            frame
            for frame in self._per_afc(afcs, stats, workers, one)
            if frame is not None
        ]
        merged = merge_partials(spec, partials, plan.dtypes)
        stats.groups_emitted += merged.num_rows
        return merged

    def _extract_one(
        self,
        plan: ExtractionPlan,
        afc: AlignedFileChunkSet,
        reader: AfcReader,
        stats: IOStats,
        run_state,
        kernel,
    ) -> Optional[Dict[str, np.ndarray]]:
        """Extract + filter one AFC; returns owned columns or None if empty.

        The per-AFC path: intra-node workers, aggregate folds, the
        interpreted ``vectorize="off"`` oracle and WHERE-less scans.
        ``run_state`` is the scheduler's cooperative cancel/quota state
        (``ExecOptions.run_state``): checked before the read and charged
        with this AFC's row/byte deltas after the filter, so each AFC is
        one cooperative boundary — a trip raises here and the query
        overshoots its quota by at most one AFC.  The deltas are safe
        because ``stats`` is always owned by a single thread (a per-job
        local under ``intra_node_workers``, the per-attempt stats
        otherwise).  ``kernel`` is the call's pre-resolved compiled
        WHERE (None: interpreted, or no WHERE at all).
        """
        if run_state is not None:
            run_state.checkpoint()
        before_rows = stats.rows_output
        before_bytes = stats.bytes_read
        columns = reader.extract(afc, stats)
        selected = self.filtering.apply(
            plan.where, columns, plan.output, afc.num_rows, stats,
            reader.tracer, vectorize=kernel is not None, kernel=kernel,
        )
        if run_state is not None:
            run_state.charge(
                rows=stats.rows_output - before_rows,
                nbytes=stats.bytes_read - before_bytes,
            )
        return selected

    def close(self) -> None:
        self.extractor.close()
