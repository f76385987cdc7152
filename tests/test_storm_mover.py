"""Unit tests for the data mover and filtering services."""

import numpy as np
import pytest

from repro.core import ExecOptions
from repro.core.stats import IOStats
from repro.core.table import VirtualTable
from repro.sql import DEFAULT_REGISTRY, parse_where
from repro.storm.filtering import FilteringService
from repro.storm.mover import DataMoverService, MESSAGE_OVERHEAD
from repro.storm.partition import BlockPartitioner, RoundRobinPartitioner


def make_table(n):
    return VirtualTable(
        {
            "A": np.arange(n, dtype=np.float32),
            "B": np.arange(n, dtype=np.int16),
        },
        order=["A", "B"],
    )


class TestDataMover:
    def test_row_bytes(self):
        mover = DataMoverService()
        assert mover.row_bytes(make_table(3)) == 4 + 2

    def test_move_accounting(self):
        mover = DataMoverService()
        stats = IOStats()
        deliveries = mover.move(
            make_table(100), RoundRobinPartitioner(), 4, stats
        )
        assert len(deliveries) == 4
        assert sum(d.table.num_rows for d in deliveries) == 100
        expected_payload = 100 * 6
        total = sum(d.bytes_sent for d in deliveries)
        messages = sum(d.messages for d in deliveries)
        assert total == expected_payload + messages * MESSAGE_OVERHEAD
        assert stats.bytes_sent == total

    def test_empty_clients_send_nothing(self):
        mover = DataMoverService()
        deliveries = mover.move(make_table(2), BlockPartitioner(), 4)
        empty = [d for d in deliveries if d.table.num_rows == 0]
        assert all(d.bytes_sent == 0 and d.messages == 0 for d in empty)

    def test_one_client_builds_no_row_index(self):
        # The lone client gets the table itself: partition() (which would
        # allocate an arange of every row) is never called, and what is
        # delivered and counted is what a partitioned delivery was.
        class Spy(RoundRobinPartitioner):
            calls = 0

            def partition(self, table, num_clients, tracer=None):
                Spy.calls += 1
                return super().partition(table, num_clients)

        table = make_table(1000)
        stats = IOStats()
        (delivery,) = DataMoverService(message_bytes=100).move(
            table, Spy(), 1, stats
        )
        assert Spy.calls == 0
        assert delivery.table is table
        assert (delivery.bytes_sent, delivery.messages) == (
            6000 + 60 * MESSAGE_OVERHEAD, 60
        )
        assert stats.bytes_sent == delivery.bytes_sent
        # More clients still partition, once.
        DataMoverService().move(table, Spy(), 2)
        assert Spy.calls == 1

    def test_message_chunking(self):
        mover = DataMoverService(message_bytes=100)
        (delivery,) = mover.move(make_table(1000), BlockPartitioner(), 1)
        # 6000 payload bytes over 100-byte messages.
        assert delivery.messages == 60

    def test_delivered_content_is_the_partition(self):
        mover = DataMoverService()
        table = make_table(10)
        deliveries = mover.move(table, BlockPartitioner(), 2)
        np.testing.assert_array_equal(deliveries[0].table["A"], np.arange(5))
        np.testing.assert_array_equal(
            deliveries[1].table["A"], np.arange(5, 10)
        )


    def test_one_client_gets_the_columns_themselves(self):
        # No partitioning to do: the delivery shares the table's memory
        # (it used to gather every column through arange(n)), and
        # everything counted about it is what the gather produced.
        table = make_table(1000)
        stats = IOStats()
        (delivery,) = DataMoverService(message_bytes=512).move(
            table, RoundRobinPartitioner(), 1, stats
        )
        assert delivery.client == 0
        assert delivery.table.column_names == table.column_names
        for name in table.column_names:
            assert np.shares_memory(delivery.table[name], table[name])
            np.testing.assert_array_equal(
                delivery.table[name], table[name][np.arange(1000)]
            )
        assert delivery.messages == 12  # ceil(6000 / 512)
        assert delivery.bytes_sent == 6000 + 12 * MESSAGE_OVERHEAD
        assert stats.bytes_sent == delivery.bytes_sent

    def test_one_client_delivery_still_passes_the_injector(self):
        class Gate:
            seen = []

            def on_transfer(self, client):
                self.seen.append(client)

        gate = Gate()
        DataMoverService(injector=gate).move(
            make_table(5), RoundRobinPartitioner(), 1
        )
        assert gate.seen == [0]

    def test_many_clients_still_get_copies(self):
        table = make_table(10)
        for delivery in DataMoverService().move(table, BlockPartitioner(), 2):
            assert not np.shares_memory(delivery.table["A"], table["A"])


class TestFilteringService:
    @pytest.fixture
    def service(self):
        return FilteringService()

    def test_no_predicate_projects(self, service):
        columns = {"A": np.arange(4.0), "B": np.arange(4.0) * 2}
        out = service.apply(None, columns, ["B"], 4)
        assert set(out) == {"B"}
        np.testing.assert_array_equal(out["B"], [0, 2, 4, 6])

    def test_vector_predicate(self, service):
        columns = {"A": np.arange(4.0)}
        out = service.apply(parse_where("A >= 2"), columns, ["A"], 4)
        np.testing.assert_array_equal(out["A"], [2, 3])

    def test_all_filtered_returns_none(self, service):
        columns = {"A": np.arange(4.0)}
        assert service.apply(parse_where("A > 99"), columns, ["A"], 4) is None

    def test_scalar_predicates(self, service):
        columns = {"A": np.arange(3.0)}
        assert service.apply(parse_where("FALSE"), columns, ["A"], 3) is None
        out = service.apply(parse_where("TRUE"), columns, ["A"], 3)
        assert len(out["A"]) == 3

    def test_stats_row_counting(self, service):
        stats = IOStats()
        columns = {"A": np.arange(10.0)}
        service.apply(parse_where("A < 4"), columns, ["A"], 10, stats)
        assert stats.rows_output == 4

    def test_udf_predicate(self, service):
        columns = {
            "VX": np.array([3.0, 30.0]),
            "VY": np.array([4.0, 40.0]),
            "VZ": np.zeros(2),
        }
        out = service.apply(
            parse_where("SPEED(VX, VY, VZ) < 10"), columns, ["VX"], 2
        )
        np.testing.assert_array_equal(out["VX"], [3.0])

    def test_filter_only_columns_dropped_from_output(self, service):
        columns = {"A": np.arange(4.0), "HIDDEN": np.arange(4.0)}
        out = service.apply(
            parse_where("HIDDEN >= 2"), columns, ["A"], 4
        )
        assert set(out) == {"A"}

    def test_refilter_empty_result_is_writable(self, service):
        """Regression: the nothing-matches path used to return
        ``columns[name][:0]`` — zero-length *views* of the frozen cached
        arrays, bypassing ``own_column``'s writability promise."""
        from repro.core import VirtualTable

        frozen = np.arange(8.0)
        frozen.setflags(write=False)
        cached = VirtualTable({"A": frozen}, order=["A"])
        out = service.refilter(parse_where("A > 99"), cached, ["A"])
        assert out.num_rows == 0
        assert out["A"].flags.writeable
        assert out["A"].base is not frozen

    def test_refilter_nonempty_result_never_aliases_cache(self, service):
        from repro.core import VirtualTable

        frozen = np.arange(8.0)
        frozen.setflags(write=False)
        cached = VirtualTable({"A": frozen}, order=["A"])
        out = service.refilter(parse_where("A >= 0"), cached, ["A"])
        assert out.num_rows == 8
        out["A"][0] = -1.0  # must not raise, must not touch the cache
        assert frozen[0] == 0.0


    def test_refilter_runs_in_cache_sized_blocks(self, service):
        """A cached table goes through the same BlockPipeline as
        extracted chunks, ``block_rows_for`` rows at a time — never one
        table-sized kernel evaluation — and the sliced result is
        bit-identical to filtering the table as one block."""
        from repro.core.kernels import block_rows_for
        from repro.obs import Tracer

        rng = np.random.default_rng(18)
        n = 50_000
        frozen = {
            name: rng.uniform(-30, 30, n) for name in ("VX", "VY", "VZ")
        }
        frozen["VX"][rng.integers(0, n, 500)] = np.nan
        frozen["TAG"] = np.arange(n, dtype=np.int64)
        for column in frozen.values():
            column.setflags(write=False)
        cached = VirtualTable(frozen, order=list(frozen))
        step = block_rows_for(list(frozen), {k: v.dtype for k, v in frozen.items()})
        assert step < n
        where = parse_where("SPEED(VX, VY, VZ) < 25 AND VY > -20")
        output = ["TAG", "VX"]

        for vectorize in (True, False):
            one_block = service.apply(
                where, dict(frozen), output, n, vectorize=vectorize
            )
            stats, tracer = IOStats(), Tracer()
            out = service.refilter(
                where, cached, output, stats, tracer, vectorize=vectorize
            )
            assert len(tracer.find("filter")) == -(-n // step)
            assert np.isnan(out["VX"]).sum() == 0 < out.num_rows < n
            assert stats.rows_output == out.num_rows
            assert stats.rows_vectorized == (n if vectorize else 0)
            for name in output:
                assert out[name].tobytes() == one_block[name].tobytes()
                assert out[name].flags.writeable
                assert not np.shares_memory(out[name], frozen[name])

        # Every row kept skips the gather, block by block; the result
        # still never aliases the frozen cache.
        kept = service.refilter(
            parse_where("TAG >= 0"), cached, output, vectorize=True
        )
        assert kept.num_rows == n
        # Nothing kept: the empty result owns (writable) memory too.
        none = service.refilter(
            parse_where("TAG < 0"), cached, output, vectorize=True
        )
        assert none.num_rows == 0
        for table in (kept, none):
            for name in output:
                assert table[name].dtype == frozen[name].dtype
                assert table[name].flags.writeable
                assert table[name].flags.owndata
                assert not np.shares_memory(table[name], frozen[name])


class TestConcurrentQueries:
    def test_parallel_submits_are_safe(self, ipars_l0):
        """Concurrent submit() calls from multiple threads agree with
        serial execution (per-node extraction is serialised by a lock)."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core import GeneratedDataset
        from repro.storm import QueryService, VirtualCluster

        config, text, mount = ipars_l0
        # Rebuild a cluster object over the fixture's root directory.
        root = mount("", "").rstrip("/")
        cluster = VirtualCluster(root, [f"osu{i}" for i in range(config.num_nodes)])
        service = QueryService(GeneratedDataset(text), cluster)
        queries = [
            f"SELECT REL, TIME, SOIL FROM IparsData WHERE TIME = {t}"
            for t in range(1, 9)
        ]
        expected = [service.submit(q, ExecOptions(remote=False)).num_rows for q in queries]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(lambda q: service.submit(q, ExecOptions(remote=False)).num_rows,
                         queries)
            )
        assert results == expected
        service.close()
