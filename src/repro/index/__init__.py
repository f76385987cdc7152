"""Chunk and file indexing: range pruning and spatial summaries."""

from .range_index import MultiAttrRangeIndex, RangeIndex
from .rtree import Box, RTree, boxes_intersect
from .summaries import (
    MinMaxSummaries,
    build_summaries,
    load_or_build_summaries,
    load_sidecar_summaries,
    summaries_path,
)

__all__ = [
    "Box",
    "MinMaxSummaries",
    "MultiAttrRangeIndex",
    "RTree",
    "RangeIndex",
    "boxes_intersect",
    "build_summaries",
    "load_or_build_summaries",
    "load_sidecar_summaries",
    "summaries_path",
]
