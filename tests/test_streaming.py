"""Tests for the streaming (batched) query API."""

import numpy as np
import pytest

import repro
from repro.core import CompiledDataset, ExecOptions, Virtualizer, local_mount
from repro.core.table import concat_tables
from repro.datasets.writers import write_dataset
from tests.conftest import PAPER_DESCRIPTOR, assert_tables_equal, paper_value_fn

#: Row plans with a residual WHERE, with none, and with a WHERE the
#: index decides; every one yields more than one AFC's rows.
ROW_QUERIES = [
    "SELECT REL, TIME, X, SOIL FROM IparsData WHERE SOIL > 0.3",
    "SELECT X, Y FROM IparsData",
    "SELECT REL, TIME, SOIL FROM IparsData WHERE TIME > 3 AND TIME < 9",
]
AGGREGATE_QUERY = "SELECT REL, COUNT(*), MIN(SOIL) FROM IparsData GROUP BY REL"


@pytest.fixture(scope="module")
def v(paper_dataset):
    text, mount = paper_dataset
    virtualizer = Virtualizer(text, mount)
    yield virtualizer
    virtualizer.close()


@pytest.fixture(scope="module")
def doors(tmp_path_factory):
    """A virtualizer and a ``local://`` client over one paper dataset."""
    root = str(tmp_path_factory.mktemp("paper_streams"))
    mount = local_mount(root)
    write_dataset(CompiledDataset(PAPER_DESCRIPTOR), mount, paper_value_fn)
    with Virtualizer(PAPER_DESCRIPTOR, mount) as virtualizer, repro.connect(
        f"local://{root}", descriptor=PAPER_DESCRIPTOR
    ) as client:
        yield virtualizer, client


def assert_same_batches(got, want):
    """The same batch sequence: sizes, names, dtypes and bytes."""
    assert [b.num_rows for b in got] == [b.num_rows for b in want]
    for a, b in zip(got, want):
        assert a.column_names == b.column_names
        for name in a.column_names:
            assert a.column(name).dtype == b.column(name).dtype, name
            assert a.column(name).tobytes() == b.column(name).tobytes(), name


class TestQueryIter:
    def test_batches_reassemble_to_full_result(self, v):
        sql = "SELECT REL, TIME, SOIL FROM IparsData WHERE SOIL > 0.3"
        whole = v.query(sql)
        batches = list(v.query_iter(sql, options=ExecOptions(batch_rows=100)))
        assert len(batches) > 1
        assert_tables_equal(concat_tables(batches), whole)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("vectorize", ["on", "off"])
    @pytest.mark.parametrize("batch_rows", [1, 7, 25, 97, 4096])
    def test_every_batch_but_the_last_has_exactly_batch_rows(
        self, v, batch_rows, vectorize, workers
    ):
        # Cut like the wire's frames, whatever the AFC (10 rows each here)
        # or fused-block boundaries.
        opts = ExecOptions(
            batch_rows=batch_rows, vectorize=vectorize,
            intra_node_workers=workers,
        )
        for sql in ROW_QUERIES:
            whole = v.query(sql)
            batches = list(v.query_iter(sql, options=opts))
            assert [b.num_rows for b in batches[:-1]] == [batch_rows] * (
                len(batches) - 1
            )
            assert 0 < batches[-1].num_rows <= batch_rows
            assert sum(b.num_rows for b in batches) == whole.num_rows

    def test_chunk_cap_tightens_batches(self, paper_dataset):
        text, mount = paper_dataset
        with Virtualizer(text, mount, chunk_row_cap=5) as capped:
            batches = list(
                capped.query_iter("SELECT X FROM IparsData", options=ExecOptions(batch_rows=5))
            )
            assert all(b.num_rows == 5 for b in batches)

    def test_filtered_stream(self, v):
        sql = "SELECT SOIL FROM IparsData WHERE SOIL > 0.95"
        whole = v.query(sql)
        batches = list(v.query_iter(sql, options=ExecOptions(batch_rows=8)))
        assert sum(b.num_rows for b in batches) == whole.num_rows
        for batch in batches:
            assert (batch["SOIL"] > 0.95).all()

    def test_empty_result_yields_nothing(self, v):
        batches = list(
            v.query_iter("SELECT X FROM IparsData WHERE TIME > 999")
        )
        assert batches == []

    def test_single_batch_when_large(self, v):
        batches = list(
            v.query_iter("SELECT X FROM IparsData", options=ExecOptions(batch_rows=10**9))
        )
        assert len(batches) == 1
        assert batches[0].num_rows == 3200

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError, match="option 'batch_rows' must be"):
            ExecOptions(batch_rows=0)

    def test_stats_accumulate_once(self, paper_dataset):
        from repro.core import IOStats

        text, mount = paper_dataset
        with Virtualizer(text, mount) as fresh:
            stats = IOStats()
            total = sum(
                b.num_rows
                for b in fresh.query_iter(
                    "SELECT X FROM IparsData",
                    stats=stats,
                    options=ExecOptions(batch_rows=64),
                )
            )
            assert stats.rows_output == total == 3200


class TestOneBatchingRule:
    """Every stream is cut by one rule, so the batch sequence depends on
    neither the kernel nor the front door."""

    @pytest.mark.parametrize("batch_rows", [7, 97])
    def test_vectorize_on_and_off_yield_identical_batches(self, v, batch_rows):
        for sql in ROW_QUERIES + [AGGREGATE_QUERY]:
            on, off = (
                list(v.query_iter(sql, options=ExecOptions(
                    batch_rows=batch_rows, vectorize=vectorize
                )))
                for vectorize in ("on", "off")
            )
            assert len(on) > (sql != AGGREGATE_QUERY)
            assert_same_batches(on, off)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("batch_rows", [7, 97])
    def test_virtualizer_and_local_client_yield_identical_batches(
        self, doors, batch_rows, workers
    ):
        virtualizer, client = doors
        opts = ExecOptions(batch_rows=batch_rows, intra_node_workers=workers)
        for sql in ROW_QUERIES + [AGGREGATE_QUERY]:
            assert_same_batches(
                list(virtualizer.query_iter(sql, options=opts)),
                list(client.query_iter(sql, opts)),
            )
