"""Hand-written index/extraction functions for the chunked Titan layout.

The counterpart of :mod:`.handwritten_ipars` for the satellite dataset:
a chunk-per-AFC planner coded directly against the concrete byte layout
(36-byte records, ``elems_per_chunk`` records per chunk, chunks
consecutive in one file per node), consulting the persisted chunk
summaries the way the original application consulted its spatial index.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from ..core.afc import AlignedFileChunkSet, ChunkRef, ExtractionPlan, InnerVar
from ..core.strips import LoopDim, Strip
from ..datasets.titan import SENSORS, TitanConfig
from ..errors import QueryValidationError
from ..index.summaries import MinMaxSummaries
from ..sql.ast import Query
from ..sql.parser import parse_query
from ..sql.ranges import Interval, RangeMap, extract_ranges, query_is_unsatisfiable
from ..sql.typecheck import bind_where

_RECORD = 4 + 4 * (3 + len(SENSORS))  # TIME + X/Y/Z + sensors, packed


class HandwrittenTitan:
    """Hand-coded planner for the chunked Titan layout."""

    COLUMNS = ("TIME", "X", "Y", "Z") + SENSORS
    INDEXED = ("X", "Y", "Z", "TIME")

    def __init__(
        self, config: TitanConfig, summaries: Optional[MinMaxSummaries] = None
    ):
        self.config = config
        self.summaries = summaries
        k = config.elems_per_chunk
        attrs = self.COLUMNS
        offsets = tuple(4 * i for i in range(len(attrs)))
        formats = ("<i4",) + ("<f4",) * (len(attrs) - 1)
        self._strips: List[Strip] = []
        per_node = config.chunks_per_node
        for dirid in range(config.num_nodes):
            first = dirid * per_node
            self._strips.append(
                Strip(
                    leaf_name="hand_titan",
                    strip_index=0,
                    attrs=attrs,
                    attr_offsets=offsets,
                    attr_formats=formats,
                    record_size=_RECORD,
                    base_offset=0,
                    dims=(
                        LoopDim("CHUNK", first, first + per_node - 1, 1, k * _RECORD),
                        LoopDim("ELEM", 0, k - 1, 1, _RECORD),
                    ),
                )
            )

    def index(self, ranges: RangeMap) -> List[AlignedFileChunkSet]:
        config = self.config
        k = config.elems_per_chunk
        per_node = config.chunks_per_node
        inner = (InnerVar("ELEM", 0, 1, k, 1),)
        afcs: List[AlignedFileChunkSet] = []
        constrained = [a for a in self.INDEXED if a in ranges]
        for dirid in range(config.num_nodes):
            node = f"osu{dirid}"
            path = f"{config.dirname}/chunks.bin"
            strip = self._strips[dirid]
            first = dirid * per_node
            for chunk in range(first, first + per_node):
                offset = (chunk - first) * k * _RECORD
                if constrained and self.summaries is not None:
                    bounds = self.summaries.bounds((node, path, offset))
                    if bounds is not None and any(
                        attr in bounds
                        and not ranges[attr].overlaps_interval(
                            Interval(bounds[attr][0], bounds[attr][1])
                        )
                        for attr in constrained
                    ):
                        continue
                afcs.append(
                    AlignedFileChunkSet(
                        num_rows=k,
                        chunks=(ChunkRef(node, path, offset, _RECORD, strip),),
                        constants=(("CHUNK", chunk), ("DIRID", dirid)),
                        inner_vars=inner,
                    )
                )
        return afcs

    def plan(self, sql: Union[Query, str]) -> ExtractionPlan:
        query = parse_query(sql) if isinstance(sql, str) else sql
        output = query.projected_names(self.COLUMNS)
        needed = list(output)
        for name in query.referenced_columns():
            if name not in self.COLUMNS:
                raise QueryValidationError(f"unknown attribute {name!r}")
            if name not in needed:
                needed.append(name)
        dtypes: Dict[str, np.dtype] = {"TIME": np.dtype("<i4")}
        for name in self.COLUMNS[1:]:
            dtypes[name] = np.dtype("<f4")
        where, _ = bind_where(query.where, dtypes)
        ranges = extract_ranges(where)
        if query_is_unsatisfiable(ranges):
            return ExtractionPlan([], needed, output, where, dtypes)
        return ExtractionPlan(self.index(ranges), needed, output, where, dtypes)
