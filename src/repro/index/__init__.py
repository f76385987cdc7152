"""The chunk summaries: a per-chunk min/max zone map of stored attributes."""

from .summaries import (
    MinMaxSummaries,
    build_summaries,
    load_sidecar_summaries,
    summaries_path,
)

__all__ = [
    "MinMaxSummaries",
    "build_summaries",
    "load_sidecar_summaries",
    "summaries_path",
]
