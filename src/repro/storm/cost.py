"""Deterministic cost model: operation counts -> simulated seconds.

The paper's absolute numbers come from PIII-933 nodes with IDE disks on
switched Fast Ethernet.  A single modern machine cannot reproduce those
wall-clock values, but the *shapes* of the figures are determined by how
many bytes each system reads, how many files it opens, how many tuples it
touches, and how many bytes cross the network.  All extraction paths count
those operations (:class:`repro.core.stats.IOStats`); this module converts
the counts into simulated seconds with constants calibrated to the paper's
hardware (see EXPERIMENTS.md for the calibration).

Simulated time is exact and deterministic, so benchmark orderings never
depend on the load of the machine running them; wall-clock time is
reported alongside by the bench harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from ..core.stats import IOStats


@dataclass(frozen=True)
class CostModel:
    """Cost constants of one node of the 2004-era evaluation cluster."""

    #: Sequential disk bandwidth, bytes/second (IDE disk, ~25 MB/s).
    disk_bandwidth: float = 25e6
    #: Effective cost per repositioning read, seconds.  Raw IDE seek +
    #: rotational latency is ~9 ms, but OS readahead and elevator
    #: scheduling amortize interleaved chunk reads heavily; 1 ms matches
    #: the throughput the paper reports for multi-file layouts.  The
    #: extractor charges a seek only when a read (plain or coalesced)
    #: actually repositions the simulated head, so merged reads pay one
    #: seek for their whole span.
    seek_time: float = 0.001
    #: File open cost (directory lookup + inode fetch), seconds.
    open_time: float = 0.002
    #: CPU cost to decode/extract one tuple into table form, seconds.
    tuple_cpu: float = 12e-6
    #: CPU cost to evaluate the residual predicate per tuple, seconds.
    filter_cpu: float = 1.5e-6
    #: Per-tuple predicate cost when the residual WHERE runs through a
    #: compiled vectorized kernel (``repro.core.kernels``) instead of
    #: the interpreted AST walk — batch evaluation amortizes the
    #: per-node dispatch, roughly an order of magnitude per row.
    vector_filter_cpu: float = 0.15e-6
    #: CPU cost to fold one filtered tuple into partial aggregate state
    #: (group-key sort amortised into the per-row constant), seconds.
    agg_cpu: float = 2e-6
    #: Network bandwidth towards clients, bytes/second (Fast Ethernet).
    network_bandwidth: float = 11e6
    #: Per-message network latency, seconds.
    network_latency: float = 0.0005
    #: Fixed per-query startup (parse, plan dispatch), seconds.
    query_overhead: float = 0.05

    def node_time(self, stats: IOStats) -> float:
        """Simulated seconds one node spends producing its tuples.

        Coalesced reads are charged faithfully by the counters alone: a
        merged read that replaces k chunk reads contributes one
        ``read_calls``/at most one ``seeks`` repositioning, and its gap
        bytes (``readahead_waste_bytes``) are part of ``bytes_read``, so
        readahead waste is paid for at disk bandwidth — the model prices
        the seek-vs-waste trade that ``ExecOptions.coalesce_gap_bytes``
        tunes, with no extra constants.
        """
        io = (
            stats.files_opened * self.open_time
            + stats.seeks * self.seek_time
            + stats.bytes_read / self.disk_bandwidth
        )
        # Rows whose WHERE was settled without the per-row interpreter
        # (a compiled kernel, or a WHERE the index decided under
        # vectorize="on") pay the (much lower) vectorized rate;
        # everything else pays the interpreted rate.  ``rows_vectorized``
        # is a subset of extracted + refiltered rows, so with vectorize
        # off the formula reduces to the old one.
        interp_rows = max(
            0,
            stats.rows_extracted
            + stats.rows_refiltered
            - stats.rows_vectorized,
        )
        cpu = (
            stats.rows_extracted * self.tuple_cpu
            + interp_rows * self.filter_cpu
            # Subsumption hits re-filter cached rows instead of reading
            # them: no disk or tuple-decode cost, but the predicate pass
            # is real work and is priced like any other filtered row
            # (at the vectorized rate when a kernel ran it).
            + stats.rows_vectorized * self.vector_filter_cpu
            # Aggregate pushdown trades network for a little node CPU:
            # every row folded into partial state is priced here.
            + stats.rows_aggregated * self.agg_cpu
        )
        # Chunks pulled from other nodes cross the interconnect as well.
        remote = stats.remote_bytes_read / self.network_bandwidth
        return io + cpu + remote

    def estimate_plan(self, plan, remote: bool = False) -> float:
        """Predicted simulated seconds for a plan *before* running it.

        The a-priori counterpart of :meth:`makespan`, driving admission
        control: per node, planned chunk bytes (projection pushdown
        respected) at disk bandwidth plus an open per distinct file, a
        seek per chunk, and per-row decode+filter CPU; the slowest node
        plus query overhead is the estimate.  Deliberately an upper
        bound on the I/O side — it assumes no coalescing, no caches,
        and no summary fast path — because admission exists to protect
        the service from the worst case, not the lucky one.
        """
        needed = set(plan.needed)
        per_node_io: Dict[str, float] = {}
        per_node_rows: Dict[str, int] = {}
        afcs = plan.afcs
        for part in afcs.parts:
            node = part.layout.home
            members = [
                m for m in part.layout.members
                if needed.intersection(m.strip.attrs)
            ]
            rows = int(part.rows.sum())
            per_node_io[node] = per_node_io.get(node, 0.0) + (
                len(part) * (
                    len({(m.node, m.path) for m in members}) * self.open_time
                    + len(members) * self.seek_time
                )
                + rows * sum(m.bytes_per_row for m in members)
                / self.disk_bandwidth
            )
            per_node_rows[node] = per_node_rows.get(node, 0) + rows
        slowest = 0.0
        for node, io in per_node_io.items():
            cpu = per_node_rows[node] * (self.tuple_cpu + self.filter_cpu)
            slowest = max(slowest, io + cpu)
        transfer = 0.0
        if remote and len(afcs):
            # Upper-bound the shipped bytes: every planned row survives
            # the filter and carries the full output row width.
            row_bytes = 8 * max(1, len(plan.output))
            transfer = self.network_time(afcs.total_rows * row_bytes, 1)
        return self.query_overhead + slowest + transfer

    def network_time(self, bytes_sent: int, messages: int = 1) -> float:
        return messages * self.network_latency + bytes_sent / self.network_bandwidth

    def makespan(self, per_node: Mapping[str, IOStats], bytes_sent: int = 0,
                 messages: int = 0) -> float:
        """End-to-end simulated time: slowest node + transfer + startup.

        Nodes read their local disks concurrently (that is the point of
        declustering the dataset), so disk/CPU time is the max over nodes;
        the network serialises at the server's uplink, so transfer adds.
        """
        slowest = max(
            (self.node_time(stats) for stats in per_node.values()), default=0.0
        )
        return self.query_overhead + slowest + self.network_time(bytes_sent, messages)


#: Cost model used for the row-store baseline: same disk, but generic
#: row-at-a-time processing costs more CPU per tuple (heap-tuple header
#: decoding, generic datum dispatch), which is the second ingredient —
#: besides the 3x storage blow-up — of Figure 6's shape.
POSTGRES_COST = CostModel(tuple_cpu=45e-6, filter_cpu=6e-6, seek_time=0.004)

#: Cost model for STORM-side extraction (paper-calibrated defaults).
STORM_COST = CostModel()
