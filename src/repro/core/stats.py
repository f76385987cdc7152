"""I/O and processing statistics.

Every extraction path — interpreted, generated, hand-written, and the
row-store baseline — counts its work through an :class:`IOStats` object.
The STORM cost model converts these counts into deterministic simulated
time, which is what lets a single-machine reproduction exhibit the paper's
cluster-scale performance shapes (DESIGN.md, substitutions table).

``IOStats`` implements the :class:`repro.obs.metrics.StatsSink` protocol
(``record(name, value)``); the open-ended generalisation — named metrics
created on demand, gauges, histograms — is
:class:`repro.obs.metrics.MetricsRegistry`, which can ingest an
``IOStats`` via ``record_stats`` so flat counters surface in query traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union


@dataclass
class IOStats:
    """Mutable operation counters for one query execution on one node."""

    files_opened: int = 0
    seeks: int = 0
    read_calls: int = 0
    bytes_read: int = 0
    cache_hits: int = 0
    chunks_read: int = 0
    #: Chunk reads satisfied by a wider coalesced read instead of their
    #: own ``read()`` call (I/O coalescing; see docs/architecture.md).
    reads_coalesced: int = 0
    #: Gap bytes read by coalesced reads that belong to no requested
    #: chunk — the price paid for merging nearby reads.  Included in
    #: ``bytes_read`` (they did cross the disk interface).
    readahead_waste_bytes: int = 0
    #: Bytes of chunks that live on a different node than the one
    #: processing them (cross-node groups); the cost model charges these
    #: to the network instead of the local disk.
    remote_bytes_read: int = 0
    afcs_processed: int = 0
    afcs_pruned: int = 0
    rows_extracted: int = 0
    rows_output: int = 0
    #: Base rows folded into partial aggregate state (aggregate pushdown);
    #: the cost model charges these at ``agg_cpu``.  ``rows_output`` still
    #: counts the filtered base rows — that is what a non-pushdown run
    #: would have shipped, which makes the pushdown ablation measurable.
    rows_aggregated: int = 0
    #: State-frame rows this node (or the coordinator merge) emitted —
    #: one per (node, group); the rows that actually cross the wire under
    #: aggregate pushdown.
    groups_emitted: int = 0
    bytes_sent: int = 0
    #: Queries answered verbatim by the result cache (exact key match;
    #: no planning, extraction, or filtering ran at all).
    result_cache_hits: int = 0
    #: Queries answered by re-filtering a cached strictly-broader result
    #: (see docs/architecture.md, "Caching & reuse").
    subsumption_hits: int = 0
    #: Bytes the original cold execution read to produce a result this
    #: query got from the cache instead — the I/O a hit avoided.  NOT
    #: part of ``bytes_read`` (nothing crossed the disk interface).
    cache_saved_bytes: int = 0
    #: Rows of cached superset tables pushed back through the filtering
    #: service to serve subsumption hits; the cost model charges these
    #: at ``filter_cpu`` like any other filtered row.
    rows_refiltered: int = 0
    #: Rows whose WHERE was settled without the per-row interpreter:
    #: run through a compiled vectorized kernel
    #: (``repro.core.kernels``), or — under ``vectorize="on"`` —
    #: decided for the whole plan by the index function, so no kernel
    #: had to run.  A subset of ``rows_extracted`` +
    #: ``rows_refiltered``; the cost model charges these at
    #: ``vector_filter_cpu`` instead of ``filter_cpu``.
    rows_vectorized: int = 0

    def merge(self, other: "IOStats") -> None:
        """Accumulate another stats object into this one."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def record(self, name: str, value: Union[int, float] = 1) -> None:
        """StatsSink protocol: add ``value`` to the named counter.

        Unknown names are ignored — the fixed field set is the point of
        this class; use a ``MetricsRegistry`` for open-ended metrics.
        """
        if name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + value)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def __str__(self) -> str:
        parts = [f"{k}={v}" for k, v in self.as_dict().items() if v]
        return "IOStats(" + ", ".join(parts) + ")"
