"""Unit tests for the AFC data structures (InnerVar patterns, bounds)."""

import numpy as np
import pytest

from repro.core.afc import (
    AlignedFileChunkSet,
    ChunkRef,
    ExtractionPlan,
    InnerVar,
)
from repro.core.strips import LoopDim, Strip


def strip_of(attrs=("A",), record=4, dims=()):
    offsets, acc = [], 0
    for _ in attrs:
        offsets.append(acc)
        acc += record // len(attrs)
    return Strip(
        leaf_name="leaf",
        strip_index=0,
        attrs=tuple(attrs),
        attr_offsets=tuple(offsets),
        attr_formats=("<f4",) * len(attrs),
        record_size=record,
        base_offset=0,
        dims=tuple(dims),
    )


class TestInnerVar:
    def test_innermost_cycles_every_row(self):
        iv = InnerVar("G", start=5, step=1, count=4, repeat=1)
        np.testing.assert_array_equal(
            iv.materialise(8), [5, 6, 7, 8, 5, 6, 7, 8]
        )

    def test_outer_repeats_in_blocks(self):
        iv = InnerVar("T", start=1, step=1, count=3, repeat=2)
        np.testing.assert_array_equal(
            iv.materialise(6), [1, 1, 2, 2, 3, 3]
        )

    def test_strided_values(self):
        iv = InnerVar("K", start=0, step=10, count=3, repeat=1)
        np.testing.assert_array_equal(iv.materialise(3), [0, 10, 20])

    def test_interval(self):
        iv = InnerVar("K", start=2, step=3, count=4, repeat=1)
        assert iv.interval == (2, 11)

    def test_row_major_composition(self):
        """Two inner vars compose into the row-major enumeration order."""
        outer = InnerVar("T", 1, 1, 2, 3)  # repeat = count of inner
        inner = InnerVar("G", 0, 1, 3, 1)
        rows = 6
        t = outer.materialise(rows)
        g = inner.materialise(rows)
        assert list(zip(t.tolist(), g.tolist())) == [
            (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)
        ]


class TestAlignedFileChunkSet:
    @pytest.fixture
    def afc(self):
        return AlignedFileChunkSet(
            num_rows=6,
            chunks=(
                ChunkRef("n0", "f1", 0, 12, strip_of(("X", "Y", "Z"), 12)),
                ChunkRef("n0", "f2", 80, 8, strip_of(("A", "B"), 8)),
            ),
            constants=(("REL", 2), ("DIRID", 0)),
            inner_vars=(
                InnerVar("T", 1, 1, 2, 3),
                InnerVar("G", 0, 1, 3, 1),
            ),
        )

    def test_constant_map(self, afc):
        assert afc.constant_map == {"REL": 2, "DIRID": 0}

    def test_implicit_columns(self, afc):
        cols = afc.implicit_columns(["REL", "T", "G", "X"])
        assert set(cols) == {"REL", "T", "G"}  # X is stored, not implicit
        np.testing.assert_array_equal(cols["REL"], [2] * 6)
        np.testing.assert_array_equal(cols["T"], [1, 1, 1, 2, 2, 2])

    def test_implicit_columns_take_declared_dtypes(self, afc):
        i1, i2 = np.dtype("i1"), np.dtype("<i2")
        cols = afc.implicit_columns(["REL", "T"], {"REL": i2, "T": i1})
        assert (cols["REL"].dtype, cols["T"].dtype) == (i2, i1)
        np.testing.assert_array_equal(cols["T"], [1, 1, 1, 2, 2, 2])
        # A declared type too narrow for the value (lint RV124) wraps,
        # constants and loop variables alike; it never raises.
        wide = AlignedFileChunkSet(
            num_rows=2, chunks=(), constants=(("REL", 300),),
            inner_vars=(InnerVar("T", 299, 1, 2, 1),),
        )
        cols = wide.implicit_columns(["REL", "T"], {"REL": i1, "T": i1})
        np.testing.assert_array_equal(cols["REL"], [44, 44])
        np.testing.assert_array_equal(cols["T"], [43, 44])

    def test_implicit_bounds(self, afc):
        bounds = afc.implicit_bounds()
        assert bounds["REL"] == (2, 2)
        assert bounds["T"] == (1, 2)
        assert bounds["G"] == (0, 2)

    def test_total_bytes(self, afc):
        assert afc.total_bytes() == 6 * 12 + 6 * 8

    def test_chunk_key(self, afc):
        assert afc.chunks[1].key == ("n0", "f2", 80)

    def test_str_matches_paper_notation(self, afc):
        text = str(afc)
        assert text.startswith("{num_rows=6, ")
        assert "{f1, 0, 12}" in text
        assert "{f2, 80, 8}" in text


class TestExtractionPlan:
    def test_planned_totals(self):
        afc = AlignedFileChunkSet(
            num_rows=10,
            chunks=(ChunkRef("n", "f", 0, 4, strip_of()),),
        )
        plan = ExtractionPlan([afc, afc], ["A"], ["A"])
        assert plan.planned_rows == 20
        assert plan.planned_bytes == 80

    def test_empty_plan(self):
        plan = ExtractionPlan([], ["A"], ["A"])
        assert plan.planned_rows == 0
        assert plan.planned_bytes == 0
