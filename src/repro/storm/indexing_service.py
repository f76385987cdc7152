"""Indexing service: query ranges -> aligned file chunks, per node.

STORM's indexing service "encapsulates indexes for a dataset, using an
index function provided by the user" (paper Section 2.3).  Here the index
function is *automatically generated* (or the interpreted equivalent); the
service adds two things on top of the raw function:

* assignment of each AFC to the node that will process it (the node
  hosting its chunks — STORM processes data where it lives);
* a file-level :class:`~repro.index.range_index.MultiAttrRangeIndex` over
  implicit attribute hulls, used to answer "which files could this query
  touch" without walking the whole file list.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.afc import AfcTable, group_by_home_node
from ..core.planner import CompiledDataset
from ..core.strips import PhysicalFile
from ..index.range_index import MultiAttrRangeIndex
from ..obs.tracer import NULL_TRACER
from ..sql.ranges import RangeMap


class IndexingService:
    """Per-dataset index lookups and node assignment."""

    def __init__(self, dataset: CompiledDataset):
        self.dataset = dataset
        hulls = []
        for file in dataset.files:
            intervals = file.implicit_intervals()
            hulls.append({name: (iv.lo, iv.hi) for name, iv in intervals.items()})
        self.file_index: MultiAttrRangeIndex[PhysicalFile] = MultiAttrRangeIndex(
            dataset.files, hulls
        )

    def candidate_files(
        self, ranges: RangeMap, tracer=NULL_TRACER
    ) -> List[PhysicalFile]:
        """Files whose implicit attributes admit the query ranges."""
        with tracer.span("index_files") as span:
            files = self.file_index.select(ranges)
            span.tag(files=len(files))
        return files

    def lookup(self, ranges: RangeMap, tracer=NULL_TRACER) -> AfcTable:
        """All matching AFCs (the generated/interpreted index function)."""
        with tracer.span("index") as span:
            afcs = self.dataset.index(ranges)
            span.tag(afcs=len(afcs))
        return afcs

    def lookup_by_node(
        self, ranges: RangeMap, tracer=NULL_TRACER
    ) -> Dict[str, AfcTable]:
        """Matching AFCs grouped by the node that should process them.

        An AFC is processed on the node hosting its first chunk; chunks of
        the same AFC on other nodes are counted as remote reads by the
        data source service (rare — groups normally live on one node).
        """
        return group_by_home_node(self.lookup(ranges, tracer))
