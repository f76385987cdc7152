"""High-level automatic data virtualization API.

:class:`Virtualizer` is the user-facing entry point of the library: give
it a meta-data descriptor and a mount (where the dataset's nodes live on
disk), and it answers SQL queries with relational tables::

    from repro import Virtualizer, local_mount

    v = Virtualizer(descriptor_text, local_mount("/data/cluster"))
    table = v.query("SELECT X, Y, SOIL FROM IparsData WHERE TIME > 100")

By default the index function is *generated* (compiled Python specialised
to the descriptor, as in the paper) once per descriptor text per process
(:func:`~repro.core.codegen.compile_descriptor`); pass
``use_codegen=False`` to run the interpreted reference planner instead.

A ``Virtualizer`` is the single-process front door of the shared query
pipeline (:mod:`repro.core.pipeline`): ``query``, ``query_iter`` and
``plan`` admit the SQL, open the ``query`` span and hand the pipeline
the one thing that is theirs — *how a plan is executed*: the node
driver a data-source service runs (``Extractor.execute_parts``), over
one :class:`~repro.core.extractor.Extractor` on a bare mount, AFCs in
plan order, no retries, rows truly streamed by ``query_iter`` in
batches cut like the wire's (:func:`~repro.core.table.cut_blocks`).
Everything else (diagnostics, result/plan cache, aggregate strategy) is
the same code ``QueryService.submit`` runs.  It is not a one-node
``QueryService``: that would bring a mover, a cost model and a fan-out
pool to a single extractor, and no streaming.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Union

from ..metadata.descriptor import Descriptor
from ..metadata.schema import Schema
from ..sql.ast import Query
from ..sql.functions import DEFAULT_REGISTRY, FunctionRegistry
from .afc import ExtractionPlan
from .codegen import GeneratedDataset, compile_descriptor
from .extractor import Extractor, Mount, combine_parts, local_mount
from .kernels import KernelCache, assemble_table
from .options import DEFAULT_OPTIONS, ExecOptions
from .pipeline import Answer, QueryPipeline, sql_tag
from .planner import CompiledDataset
from .stats import IOStats
from .table import VirtualTable, batched, cut_blocks

if TYPE_CHECKING:
    from ..index.summaries import MinMaxSummaries

#: The name this single-extractor front door's work is accounted under
#: in :attr:`~repro.core.pipeline.Answer.per_node_stats`.
LOCAL_NODE = "_local"


class Virtualizer:
    """SQL over flat-file scientific datasets, from a meta-data descriptor."""

    def __init__(
        self,
        descriptor: Union[Descriptor, str],
        mount: Mount,
        functions: Optional[FunctionRegistry] = None,
        use_codegen: bool = True,
        summaries: Optional[MinMaxSummaries] = None,
        codegen_path: Optional[Union[str, "os.PathLike"]] = None,
        segment_cache_bytes: int = 32 * 1024 * 1024,
        chunk_row_cap: Optional[int] = None,
    ):
        if use_codegen and codegen_path is None:
            self.dataset: CompiledDataset = compile_descriptor(
                descriptor, summaries=summaries, chunk_row_cap=chunk_row_cap
            )
        elif use_codegen:
            self.dataset = GeneratedDataset(
                descriptor,
                summaries,
                source_path=codegen_path,
                chunk_row_cap=chunk_row_cap,
            )
        else:
            self.dataset = CompiledDataset(descriptor, summaries, chunk_row_cap)
        self.functions = functions or DEFAULT_REGISTRY
        self.extractor = Extractor(mount, segment_cache_bytes=segment_cache_bytes)
        #: The one kernel cache: it filters extracted blocks and
        #: re-filters subsumption hits.
        self._kernels = KernelCache(self.functions)
        self.stats = IOStats()
        self._pipeline = QueryPipeline(self.dataset, self._kernels)

    # -- caching --------------------------------------------------------------

    def drop_caches(self) -> None:
        """Cold-run mode: forget cached results, plans, and segments."""
        self._pipeline.drop_cache()
        self.extractor.drop_caches()

    def cache_stats(self) -> Optional[Dict[str, Dict[str, int]]]:
        """Result/plan cache counters, or None before any cached query."""
        return self._pipeline.cache_stats()

    # -- querying -------------------------------------------------------------

    def plan(
        self, sql: Union[Query, str], options: Optional[ExecOptions] = None
    ) -> ExtractionPlan:
        """Plan a query without executing it."""
        opts = options if options is not None else DEFAULT_OPTIONS
        tracer = opts.tracer()
        query = self._pipeline.admit(sql, opts, tracer)
        return self._pipeline.plan(query, opts, tracer)

    def query(
        self,
        sql: Union[Query, str],
        stats: Optional[IOStats] = None,
        options: Optional[ExecOptions] = None,
    ) -> VirtualTable:
        """Execute a query and return the virtual table.

        ``options`` carries the unified execution knobs.  Transport and
        scheduling options belong to ``QueryService.submit``; the rest
        apply here as on a node, I/O shape (``coalesce_gap_bytes``,
        ``intra_node_workers``, ``run_state``) included.
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        tracer = opts.tracer()
        query = self._pipeline.admit(sql, opts, tracer)
        with tracer.span("query", sql=sql_tag(query, tracer)):
            answer = self._pipeline.run(
                query, opts, tracer, self._executor(opts, tracer)
            )
        return self._account(answer, stats)

    def _parts(
        self, plan: ExtractionPlan, opts: ExecOptions, tracer, stats: IOStats
    ):
        """The node driver's parts of ``plan`` over this front door's
        one extractor, in plan order."""
        evaluator = self._kernels.evaluator(
            plan.where, opts.vectorize == "on", tracer, plan.decided
        )
        return self.extractor.execute_parts(
            plan, plan.afcs, evaluator, stats, tracer, opts
        )

    def _executor(self, opts: ExecOptions, tracer):
        """How this front door executes a plan: the driver's parts
        combined under an ``extract`` span, no retries."""

        def execute(plan: ExtractionPlan):
            run = IOStats()
            with tracer.span("extract", afcs=len(plan.afcs)) as span:
                table = combine_parts(
                    plan, self._parts(plan, opts, tracer, run), run
                )
                span.tag(
                    rows=table.num_rows, bytes_read=run.bytes_read,
                    cache_hits=run.cache_hits,
                )
            return table, {LOCAL_NODE: run}, []

        return execute

    def query_iter(
        self,
        sql: Union[Query, str],
        *,
        stats: Optional[IOStats] = None,
        options: Optional[ExecOptions] = None,
    ) -> Iterator[VirtualTable]:
        """Stream query results as VirtualTable batches (bounded memory).

        Every batch has exactly ``options.batch_rows`` rows but the
        last, which may be shorter, whatever the AFC or block
        boundaries: a row plan's blocks are cut by
        :func:`~repro.core.table.cut_blocks`, the rule the wire's frames
        follow, and cache hits and aggregates are sliced by
        :func:`~repro.core.table.batched`.  With
        ``intra_node_workers > 1`` the driver's parts are buffered
        before they are cut.  Streaming executions never *populate* the
        result cache — that would require buffering the whole result,
        defeating the bounded-memory contract.
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        tracer = opts.tracer()
        query = self._pipeline.admit(sql, opts, tracer)
        target = stats if stats is not None else self.stats

        def stream(plan: ExtractionPlan):
            blocks = self._parts(plan, opts, tracer, target)
            for piece in cut_blocks(plan.output, blocks, opts.batch_rows):
                yield assemble_table(plan.output, plan.dtypes, piece)

        def iterate():
            # The span wraps planning AND iteration: spanning only the
            # eager prefix would stop the clock before any extraction
            # happened.
            with tracer.span(
                "query", sql=sql_tag(query, tracer), streaming=True
            ):
                answer = self._pipeline.run(
                    query, opts, tracer, self._executor(opts, tracer),
                    stream=stream,
                )
                result = self._account(answer, stats)
                if isinstance(result, VirtualTable):
                    # A cache hit, or an aggregate: group-count sized, so
                    # the bounded-memory concern streaming exists for
                    # does not apply — materialised, then sliced.
                    result = batched(result, opts.batch_rows)
                yield from result

        return iterate()

    def _account(self, answer: Answer, stats: Optional[IOStats]):
        """The answer's table, its counters merged into the caller's
        stats (or the virtualizer's own running total)."""
        target = stats if stats is not None else self.stats
        for node_stats in answer.per_node_stats.values():
            target.merge(node_stats)
        return answer.table

    def explain(self, sql: Union[Query, str]) -> str:
        return self.dataset.explain(sql)

    # -- introspection -----------------------------------------------------------

    @property
    def schema(self) -> "Schema":
        return self.dataset.schema

    @property
    def generated_source(self) -> Optional[str]:
        """Source of the generated index module (None when interpreted)."""
        return getattr(self.dataset, "source", None)

    def close(self) -> None:
        self.extractor.close()

    def __enter__(self) -> "Virtualizer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_dataset(
    descriptor: Union[Descriptor, str],
    root: Union[str, "os.PathLike"],
    **kwargs,
) -> Virtualizer:
    """Convenience constructor: mount a virtual cluster rooted at ``root``.

    Node ``osu0``'s directories are expected under ``root/osu0/...``;
    ``root`` may be a ``str`` or a ``pathlib.Path``.
    """
    return Virtualizer(descriptor, local_mount(root), **kwargs)
