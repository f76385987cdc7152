"""Transports: how the query service reaches its data-source services.

The paper's STORM runtime separates the query service (coordinator) from
the per-node data source services; *where* those services run is a
transport decision.  :class:`Transport` is the seam: the query service
plans, retries, times out, degrades, and caches exactly the same whether
``execute_node`` calls a :class:`~repro.storm.data_source.
DataSourceService` in this process (:class:`LocalTransport`, the
``local://`` path — the original in-process simulation) or ships the
query over a socket to a node server process that plans its own share
(:class:`repro.net.client.TcpTransport`, the ``tcp://`` path).

The query service merges through :meth:`Transport.node_blocks`, the
internal seam under ``execute_node``: a node's partial as the blocks the
coordinator's one merge concatenates — a local node's finished blocks,
still views of its segment cache, or a remote reply that landed in the
region of a result buffer the coordinator allocated for it.  The base
implementation wraps ``execute_node``, so any other transport merges as
one block per node.

``LocalTransport`` owns what used to live directly on ``QueryService``:
the lazily-built per-node service map and its construction lock.  The
service keeps delegating ``sources`` so existing callers and tests see
the same objects.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..core.afc import AfcTable, ExtractionPlan
from ..core.kernels import Block
from ..core.stats import IOStats
from ..core.table import VirtualTable
from ..obs.tracer import NULL_TRACER
from .cluster import VirtualCluster
from .data_source import DataSourceService
from .filtering import FilteringService


class Transport:
    """Reaches data-source services for a fixed set of nodes."""

    #: URL scheme this transport answers to (for reprs and docs).
    scheme = "abstract"

    #: True when ``execute_node`` enforces ``ExecOptions.run_state``
    #: quota/cancel boundaries itself (per AFC; rows per kernel block on
    #: the fused path); False makes the query service charge quotas at
    #: the coordinator, per node partial — the run state never crosses
    #: a process boundary.
    cooperative_quotas = False

    #: True when ``node_blocks`` can land a row reply in a region of the
    #: coordinator's result buffer (``landing``); False makes the query
    #: service allocate none.
    lands_replies = False

    def execute_node(
        self,
        node: str,
        plan: ExtractionPlan,
        afcs: AfcTable,
        stats: IOStats,
        tracer=NULL_TRACER,
        options=None,
    ) -> VirtualTable:
        """Run one node's share of a plan (``afcs``: its
        :class:`~repro.core.afc.AfcTable`; a list of AFC objects is
        tabulated); returns its partial table.

        Must be thread-safe: the query service calls it concurrently
        from one worker thread per node (plus retry attempts).
        """
        raise NotImplementedError

    def node_blocks(
        self,
        node: str,
        plan: ExtractionPlan,
        afcs: AfcTable,
        stats: IOStats,
        tracer=NULL_TRACER,
        options=None,
        landing: Optional[Mapping[str, np.ndarray]] = None,
    ) -> List[Block]:
        """One node's partial as the ``(columns, rows)`` blocks the query
        service merges, in row order: a row plan's blocks, none when the
        node kept no row; an aggregate plan's one block, its partial
        state frame (a table).

        ``landing``, offered only to a transport that ``lands_replies``
        and only for a row plan whose every planned row is kept, maps
        each output column to this node's region of the result buffer:
        its planned rows, native byte order.  A transport that filled
        it returns ``[(landing, rows)]`` — the mapping itself — and the
        query service then copies nothing.  The base implementation
        ignores it and returns ``execute_node``'s table as one block.
        Thread-safety as for ``execute_node``.
        """
        table = self.execute_node(node, plan, afcs, stats, tracer, options)
        if table.num_rows or plan.aggregate is not None:
            return [(table, table.num_rows)]
        return []

    def drop_caches(self) -> None:
        """Forget per-node handle/segment caches (cold-run mode)."""

    def close(self) -> None:
        """Release connections/handles; the transport is done."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalTransport(Transport):
    """In-process data-source services over a directory-backed cluster."""

    scheme = "local"
    cooperative_quotas = True

    def __init__(
        self,
        cluster: VirtualCluster,
        filtering: FilteringService,
        segment_cache_bytes: int = 32 * 1024 * 1024,
        handle_cache: int = 64,
        fault_injector=None,
    ):
        self.cluster = cluster
        self.filtering = filtering
        self.segment_cache_bytes = segment_cache_bytes
        self.handle_cache = handle_cache
        self.fault_injector = fault_injector
        self.sources: Dict[str, DataSourceService] = {}
        #: Concurrent submits race to build per-node services; without
        #: this lock two threads can construct two DataSourceService
        #: instances for one node, doubling file handles and splitting
        #: the per-node cache/lock in two.
        self._sources_lock = threading.Lock()

    def source(self, node: str) -> DataSourceService:
        """The node's service, built lazily under the construction lock."""
        with self._sources_lock:
            source = self.sources.get(node)
            if source is None:
                mount = self.cluster.mount()
                if self.fault_injector is not None:
                    mount = self.fault_injector.wrap(mount)
                source = DataSourceService(
                    node,
                    mount,
                    self.filtering,
                    segment_cache_bytes=self.segment_cache_bytes,
                    handle_cache=self.handle_cache,
                )
                self.sources[node] = source
            return source

    def execute_node(
        self,
        node: str,
        plan: ExtractionPlan,
        afcs: AfcTable,
        stats: IOStats,
        tracer=NULL_TRACER,
        options=None,
    ) -> VirtualTable:
        return self.source(node).execute(plan, afcs, stats, tracer, options)

    def node_blocks(
        self,
        node: str,
        plan: ExtractionPlan,
        afcs: AfcTable,
        stats: IOStats,
        tracer=NULL_TRACER,
        options=None,
        landing=None,
    ) -> List[Block]:
        """A row plan's finished blocks as the node produced them —
        views of its segment-cache entries where every row was kept;
        the coordinator's merge is their one copy."""
        if plan.aggregate is not None:
            return super().node_blocks(node, plan, afcs, stats, tracer, options)
        return list(
            self.source(node).parts(plan, afcs, stats, tracer, options)
        )

    def drop_caches(self) -> None:
        with self._sources_lock:
            sources = list(self.sources.values())
        for source in sources:
            source.drop_caches()

    def close(self) -> None:
        with self._sources_lock:
            sources = list(self.sources.values())
        for source in sources:
            source.close()

    def __repr__(self) -> str:
        return (
            f"<LocalTransport {len(self.cluster)} node(s) at "
            f"{self.cluster.root!r}>"
        )
