"""Tests for aligned-chunk splitting (the chunk-granularity cap)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompiledDataset, Extractor, Virtualizer, local_mount
from repro.core.afc import AfcTable, AlignedFileChunkSet, ChunkRef, InnerVar
from repro.core.strips import LoopDim, Strip
from tests.conftest import PAPER_DESCRIPTOR, assert_tables_equal


def make_afc(counts, record_size=4, base_offset=0):
    """An AFC with a chain of inner vars of the given counts."""
    inner = []
    repeat = 1
    for i, count in enumerate(reversed(counts)):
        inner.append(InnerVar(f"V{len(counts) - 1 - i}", 0, 1, count, repeat))
        repeat *= count
    inner.reverse()
    num_rows = repeat
    strip = Strip(
        leaf_name="leaf",
        strip_index=0,
        attrs=("A",),
        attr_offsets=(0,),
        attr_formats=("<f4",),
        record_size=record_size,
        base_offset=0,
        dims=(),
    )
    return AlignedFileChunkSet(
        num_rows=num_rows,
        chunks=(ChunkRef("n", "f", base_offset, record_size, strip),),
        constants=(("C", 9),),
        inner_vars=tuple(inner),
    )


class TestSplitAfc:
    def test_no_split_needed(self):
        afc = make_afc([4])
        assert list(AfcTable.of([afc]).split(10)) == [afc]

    def test_split_outer_var(self):
        afc = make_afc([6, 2])  # 12 rows
        pieces = list(AfcTable.of([afc]).split(4))
        assert [p.num_rows for p in pieces] == [4, 4, 4]
        # Offsets advance contiguously.
        assert [p.chunks[0].offset for p in pieces] == [0, 16, 32]
        # The outer var's segments partition its range.
        starts = [p.inner_vars[0].start for p in pieces]
        assert starts == [0, 2, 4]

    def test_uneven_tail(self):
        afc = make_afc([5])
        pieces = list(AfcTable.of([afc]).split(2))
        assert [p.num_rows for p in pieces] == [2, 2, 1]

    def test_recursive_split_pins_outer(self):
        afc = make_afc([3, 10])  # each outer value = 10 rows > cap
        pieces = list(AfcTable.of([afc]).split(5))
        assert all(p.num_rows == 5 for p in pieces)
        assert len(pieces) == 6
        # The outer var became a constant on each piece.
        assert all("V0" in p.constant_map for p in pieces)

    def test_implicit_values_preserved(self):
        afc = make_afc([4, 3])
        pieces = list(AfcTable.of([afc]).split(3))
        original = set()
        for i in range(afc.num_rows):
            cols = afc.implicit_columns(["V0", "V1"])
            original.add((int(cols["V0"][i]), int(cols["V1"][i])))
        recovered = set()
        for p in pieces:
            cols = p.implicit_columns(["V0", "V1"])
            for i in range(p.num_rows):
                recovered.add((int(cols["V0"][i]), int(cols["V1"][i])))
        assert recovered == original

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            AfcTable.of([make_afc([2])]).split(0)


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=3),
    st.integers(1, 30),
)
@settings(max_examples=150, deadline=None)
def test_split_partitions_rows_exactly(counts, cap):
    afc = make_afc(counts)
    pieces = list(AfcTable.of([afc]).split(cap))
    assert sum(p.num_rows for p in pieces) == afc.num_rows
    assert all(p.num_rows <= cap for p in pieces)
    # Bytes covered are exactly the original chunk, contiguously.
    spans = sorted(
        (p.chunks[0].offset, p.chunks[0].offset + p.num_rows * 4)
        for p in pieces
    )
    assert spans[0][0] == afc.chunks[0].offset
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end == start
    assert spans[-1][1] == afc.chunks[0].offset + afc.num_rows * 4


class TestPlannerIntegration:
    def test_capped_plan_equals_uncapped(self, paper_dataset):
        text, mount = paper_dataset
        plain = Virtualizer(text, mount)
        capped = Virtualizer(text, mount)
        capped.dataset.chunk_row_cap = 3
        for sql in [
            "SELECT * FROM IparsData WHERE TIME <= 4",
            "SELECT X, SOIL FROM IparsData WHERE SOIL > 0.5 AND REL = 1",
        ]:
            a = plain.query(sql)
            b = capped.query(sql)
            assert_tables_equal(a, b)
            plan_a = plain.plan(sql)
            plan_b = capped.plan(sql)
            assert all(afc.num_rows <= 3 for afc in plan_b.afcs)
            assert len(plan_b.afcs) > len(plan_a.afcs)
        plain.close()
        capped.close()

    def test_constructor_parameter(self, paper_dataset):
        text, mount = paper_dataset
        dataset = CompiledDataset(text, chunk_row_cap=5)
        plan = dataset.plan("SELECT * FROM IparsData WHERE TIME = 1")
        assert all(afc.num_rows <= 5 for afc in plan.afcs)
