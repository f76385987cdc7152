"""Hand-written index/extraction functions for the IPARS L0 layout.

The paper compares its generated code against index and extractor
functions written by hand for STORM (Figures 9-11).  This module is that
baseline: it is coded directly against the concrete L0 byte layout —
coordinates in ``COORDS``, one file per (state variable, realization) —
with no meta-data, no descriptor parsing, and no generality.  Every
constant below was "worked out on paper" the way an application developer
would, which is exactly the labour the paper's tool eliminates.

The produced aligned file chunks feed the same extraction executor as the
generated code, so benchmark differences measure the index-function and
plan-construction overhead of the automatic approach.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from ..core.afc import AlignedFileChunkSet, ChunkRef, ExtractionPlan, InnerVar
from ..core.strips import LoopDim, Strip
from ..datasets.ipars import STATE_VARS, IparsConfig
from ..errors import QueryValidationError
from ..sql.ast import Query
from ..sql.parser import parse_query
from ..sql.ranges import RangeMap, extract_ranges, query_is_unsatisfiable
from ..sql.typecheck import bind_where

_FLOAT = "<f4"


class HandwrittenIparsL0:
    """Hand-coded planner for the original (L0) IPARS layout."""

    #: Virtual table column order, fixed by the application's schema.
    COLUMNS = ("REL", "TIME", "X", "Y", "Z") + STATE_VARS

    def __init__(self, config: IparsConfig):
        self.config = config
        cells = config.cells_per_node
        # One coords strip and one per-variable strip per node, built by
        # hand: X/Y/Z tuples of 12 bytes; each variable file is TIME-major
        # with one 4-byte value per cell.
        self._coords_strips: List[Strip] = []
        self._var_strips: List[Dict[str, Strip]] = []
        for dirid in range(config.num_nodes):
            grid_lo = dirid * cells + 1
            grid_hi = (dirid + 1) * cells
            self._coords_strips.append(
                Strip(
                    leaf_name="hand_coords",
                    strip_index=0,
                    attrs=("X", "Y", "Z"),
                    attr_offsets=(0, 4, 8),
                    attr_formats=(_FLOAT, _FLOAT, _FLOAT),
                    record_size=12,
                    base_offset=0,
                    dims=(LoopDim("GRID", grid_lo, grid_hi, 1, 12),),
                )
            )
            per_var = {}
            for name in STATE_VARS:
                per_var[name] = Strip(
                    leaf_name=f"hand_{name}",
                    strip_index=0,
                    attrs=(name,),
                    attr_offsets=(0,),
                    attr_formats=(_FLOAT,),
                    record_size=4,
                    base_offset=0,
                    dims=(
                        LoopDim("TIME", 1, config.num_times, 1, cells * 4),
                        LoopDim("GRID", grid_lo, grid_hi, 1, 4),
                    ),
                )
            self._var_strips.append(per_var)

    # -- the hand-written index function -----------------------------------------

    def index(self, ranges: RangeMap) -> List[AlignedFileChunkSet]:
        config = self.config
        cells = config.cells_per_node
        rel_allowed = ranges.get("REL")
        time_allowed = ranges.get("TIME")
        afcs: List[AlignedFileChunkSet] = []
        for dirid in range(config.num_nodes):
            node = f"osu{dirid}"
            grid_lo = dirid * cells + 1
            grid_allowed = ranges.get("GRID")
            if grid_allowed is not None and not grid_allowed.overlaps_range(
                grid_lo, grid_lo + cells - 1
            ):
                continue
            coords_strip = self._coords_strips[dirid]
            inner = (InnerVar("GRID", grid_lo, 1, cells, 1),)
            for rel in range(config.num_rels):
                if rel_allowed is not None and not rel_allowed.contains(rel):
                    continue
                for time in range(1, config.num_times + 1):
                    if time_allowed is not None and not time_allowed.contains(
                        time
                    ):
                        continue
                    offset = (time - 1) * cells * 4
                    chunks = [
                        ChunkRef(
                            node,
                            f"{config.dirname}/COORDS",
                            0,
                            12,
                            coords_strip,
                        )
                    ]
                    for name in STATE_VARS:
                        chunks.append(
                            ChunkRef(
                                node,
                                f"{config.dirname}/{name}{rel}",
                                offset,
                                4,
                                self._var_strips[dirid][name],
                            )
                        )
                    afcs.append(
                        AlignedFileChunkSet(
                            num_rows=cells,
                            chunks=tuple(chunks),
                            constants=(
                                ("DIRID", dirid),
                                ("REL", rel),
                                ("TIME", time),
                            ),
                            inner_vars=inner,
                        )
                    )
        return afcs

    # -- planning (same contract as CompiledDataset) ---------------------------------

    def plan(self, sql: Union[Query, str]) -> ExtractionPlan:
        query = parse_query(sql) if isinstance(sql, str) else sql
        output = query.projected_names(self.COLUMNS)
        needed = list(output)
        for name in query.referenced_columns():
            if name not in self.COLUMNS:
                raise QueryValidationError(f"unknown attribute {name!r}")
            if name not in needed:
                needed.append(name)
        dtypes = self._dtypes()
        where, _ = bind_where(query.where, dtypes)
        ranges = extract_ranges(where)
        if query_is_unsatisfiable(ranges):
            return ExtractionPlan([], needed, output, where, dtypes)
        return ExtractionPlan(self.index(ranges), needed, output, where, dtypes)

    @staticmethod
    def _dtypes() -> Dict[str, np.dtype]:
        dtypes: Dict[str, np.dtype] = {
            "REL": np.dtype("<i2"),
            "TIME": np.dtype("<i4"),
        }
        for name in ("X", "Y", "Z") + STATE_VARS:
            dtypes[name] = np.dtype(_FLOAT)
        return dtypes
