"""Tests for the VirtualTable result abstraction."""

import numpy as np
import pytest

from repro.core.table import VirtualTable, batched, concat_tables, empty_table
from repro.errors import ReproError


@pytest.fixture
def table():
    return VirtualTable(
        {
            "A": np.array([3, 1, 2]),
            "B": np.array([30.0, 10.0, 20.0]),
        },
        order=["A", "B"],
    )


class TestBasics:
    def test_shape(self, table):
        assert table.num_rows == 3
        assert len(table) == 3
        assert table.column_names == ("A", "B")
        assert bool(table)

    def test_column_access(self, table):
        np.testing.assert_array_equal(table["A"], [3, 1, 2])
        with pytest.raises(ReproError, match="no column"):
            table.column("C")

    def test_rows_iteration(self, table):
        assert list(table.rows()) == [(3, 30.0), (1, 10.0), (2, 20.0)]

    def test_head(self, table):
        assert table.head(2) == [(3, 30.0), (1, 10.0)]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ReproError, match="expected"):
            VirtualTable({"A": np.arange(3), "B": np.arange(4)})

    def test_empty(self):
        t = VirtualTable({})
        assert t.num_rows == 0
        assert not t

    def test_order_selects_and_orders_columns(self):
        t = VirtualTable(
            {"A": np.arange(2), "B": np.arange(2), "C": np.arange(2)},
            order=["C", "A"],
        )
        assert t.column_names == ("C", "A")


class TestCanonical:
    def test_canonical_sorts_rows(self, table):
        c = table.canonical()
        np.testing.assert_array_equal(c["A"], [1, 2, 3])
        np.testing.assert_array_equal(c["B"], [10.0, 20.0, 30.0])

    def test_canonical_ties_break_on_later_columns(self):
        t = VirtualTable(
            {"A": np.array([1, 1, 0]), "B": np.array([5.0, 2.0, 9.0])},
            order=["A", "B"],
        )
        c = t.canonical()
        assert list(c["A"]) == [0, 1, 1]
        assert list(c["B"]) == [9.0, 2.0, 5.0]


class TestStructured:
    def test_to_structured(self, table):
        s = table.to_structured()
        assert s.dtype.names == ("A", "B")
        assert s["A"][0] == 3

    def test_roundtrip(self, table):
        s = table.to_structured()
        t2 = VirtualTable({n: s[n] for n in s.dtype.names})
        np.testing.assert_array_equal(t2["B"], table["B"])


class TestConcat:
    def test_concat(self, table):
        joined = concat_tables([table, table])
        assert joined.num_rows == 6
        assert joined.column_names == ("A", "B")

    def test_concat_empty_list(self):
        assert concat_tables([]).num_rows == 0

    def test_concat_mismatched_columns(self, table):
        other = VirtualTable({"A": np.arange(1)})
        with pytest.raises(ReproError, match="cannot concatenate"):
            concat_tables([table, other])

    def test_empty_table_helper(self):
        t = empty_table(["X"], {"X": np.dtype("<f4")})
        assert t.num_rows == 0
        assert t["X"].dtype == np.dtype("<f4")


class TestBatched:
    def test_slices_in_order_without_copying(self, table):
        frozen = table["A"]
        frozen.setflags(write=False)
        batches = list(batched(table, 2))
        assert [b.num_rows for b in batches] == [2, 1]
        assert all(b.column_names == table.column_names for b in batches)
        assert concat_tables(batches)["A"].tolist() == frozen.tolist()
        for batch in batches:
            assert np.shares_memory(batch["A"], frozen)
            assert not batch["A"].flags.writeable

    def test_empty_table_yields_nothing(self):
        empty = empty_table(["X"], {"X": np.dtype("<f4")})
        assert list(batched(empty, 10)) == []

    def test_nonpositive_batch_rows_is_a_typed_error(self, table):
        from repro.errors import ExtractionError

        with pytest.raises(ExtractionError, match="batch_rows"):
            list(batched(table, 0))
