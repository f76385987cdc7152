"""Integration tests for the STORM service suite."""

import numpy as np
import pytest

from repro.core import CompiledDataset, ExecOptions, GeneratedDataset
from repro.core.stats import IOStats
from repro.datasets import IparsConfig, ipars
from repro.storm import (
    BlockPartitioner,
    DataMoverService,
    FilteringService,
    QueryService,
    RoundRobinPartitioner,
    VirtualCluster,
)
from tests.conftest import assert_tables_equal


@pytest.fixture(scope="module")
def storm(tmp_path_factory):
    root = tmp_path_factory.mktemp("storm")
    config = IparsConfig(num_rels=2, num_times=10, cells_per_node=50, num_nodes=4)
    cluster = VirtualCluster.create(str(root), config.num_nodes)
    text, _ = ipars.generate(config, "L0", cluster.mount())
    dataset = GeneratedDataset(text)
    service = QueryService(dataset, cluster)
    yield config, cluster, dataset, service
    service.close()


class TestQueryService:
    def test_full_scan(self, storm):
        config, _, _, service = storm
        result = service.submit("SELECT * FROM IparsData", ExecOptions(remote=False))
        assert result.num_rows == config.total_rows
        assert result.afc_count == config.num_nodes * config.num_rels * config.num_times

    def test_parallel_equals_serial(self, storm):
        _, _, _, service = storm
        sql = "SELECT X, SOIL FROM IparsData WHERE TIME > 3 AND SOIL > 0.4"
        a = service.submit(sql, ExecOptions(parallel=True, remote=False))
        b = service.submit(sql, ExecOptions(parallel=False, remote=False))
        assert_tables_equal(a.table.canonical(), b.table.canonical())

    def test_work_spread_across_nodes(self, storm):
        config, _, _, service = storm
        service.drop_caches()
        result = service.submit("SELECT * FROM IparsData", ExecOptions(remote=False))
        nodes = [n for n in result.per_node_stats if n.startswith("osu")]
        assert len(nodes) == config.num_nodes
        reads = [result.per_node_stats[n].bytes_read for n in nodes]
        assert max(reads) == min(reads)  # homogeneous partitioning

    def test_remote_delivery(self, storm):
        _, _, _, service = storm
        result = service.submit(
            "SELECT REL, TIME FROM IparsData WHERE TIME <= 2",
            ExecOptions(
                num_clients=3,
                partitioner=RoundRobinPartitioner(),
                remote=True,
            ),
        )
        assert len(result.deliveries) == 3
        total = sum(d.table.num_rows for d in result.deliveries)
        assert total == result.num_rows
        assert result.total_stats.bytes_sent > 0

    def test_local_query_sends_nothing(self, storm):
        _, _, _, service = storm
        result = service.submit(
            "SELECT REL FROM IparsData WHERE TIME = 1",
            ExecOptions(remote=False),
        )
        assert result.total_stats.bytes_sent == 0
        assert result.deliveries == []

    def test_local_query_has_no_transfer_stats(self, storm):
        # Regression: local (remote=False) queries never run the data
        # mover, but per_node_stats still grew a spurious all-zero
        # "_transfer" entry that benchmarks iterated over.
        _, _, _, service = storm
        result = service.submit(
            "SELECT REL FROM IparsData WHERE TIME = 1",
            ExecOptions(remote=False),
        )
        assert "_transfer" not in result.per_node_stats
        assert set(result.per_node_stats) == set(service.sources)

    def test_remote_query_reports_transfer_stats(self, storm):
        _, _, _, service = storm
        result = service.submit(
            "SELECT REL FROM IparsData WHERE TIME = 1",
            ExecOptions(remote=True),
        )
        assert "_transfer" in result.per_node_stats
        assert result.per_node_stats["_transfer"].bytes_sent > 0

    def test_simulated_time_positive_and_deterministic(self, storm):
        _, _, _, service = storm
        sql = "SELECT * FROM IparsData WHERE TIME > 5"
        service.drop_caches()
        a = service.submit(sql, ExecOptions(remote=False)).simulated_seconds
        service.drop_caches()
        b = service.submit(sql, ExecOptions(remote=False)).simulated_seconds
        assert a == b > 0

    def test_empty_result(self, storm):
        _, _, _, service = storm
        result = service.submit(
            "SELECT * FROM IparsData WHERE TIME > 500",
            ExecOptions(remote=False),
        )
        assert result.num_rows == 0
        assert result.table.column_names[0] == "REL"

    def test_summary_string(self, storm):
        _, _, _, service = storm
        result = service.submit("SELECT REL FROM IparsData WHERE TIME = 1")
        assert "rows" in result.summary() and "sim" in result.summary()


class TestMover:
    def test_bytes_accounting(self, storm):
        _, _, _, service = storm
        result = service.submit(
            "SELECT REL, TIME FROM IparsData WHERE TIME <= 2",
            ExecOptions(num_clients=2, remote=True),
        )
        mover = DataMoverService()
        row_bytes = 2 + 4  # REL short int + TIME int
        for delivery in result.deliveries:
            expected = delivery.table.num_rows * row_bytes
            assert delivery.bytes_sent >= expected

    def test_block_partitioner_delivery(self, storm):
        _, _, _, service = storm
        result = service.submit(
            "SELECT TIME FROM IparsData WHERE TIME <= 4",
            ExecOptions(
                num_clients=2,
                partitioner=BlockPartitioner(),
                remote=True,
            ),
        )
        first, second = result.deliveries
        # Block partitioning keeps row order: client 0 gets the first half.
        assert first.table.num_rows >= second.table.num_rows


class TestCluster:
    def test_create_and_mount(self, tmp_path):
        cluster = VirtualCluster.create(str(tmp_path), 3, prefix="n")
        assert cluster.node_names == ["n0", "n1", "n2"]
        mount = cluster.mount()
        assert mount("n1", "x/y").endswith("n1/x/y")

    def test_unknown_node(self, tmp_path):
        from repro.errors import ClusterError

        cluster = VirtualCluster.create(str(tmp_path), 1)
        with pytest.raises(ClusterError, match="unknown node"):
            cluster.node("ghost")

    def test_duplicate_node(self, tmp_path):
        from repro.errors import ClusterError

        with pytest.raises(ClusterError, match="duplicate"):
            VirtualCluster(str(tmp_path), ["a", "a"])

    def test_disk_usage_and_wipe(self, tmp_path):
        cluster = VirtualCluster.create(str(tmp_path), 2)
        node = cluster.node("osu0")
        node.ensure_dir("d")
        with open(node.path("d/f.bin"), "wb") as handle:
            handle.write(b"x" * 100)
        assert cluster.disk_usage()["osu0"] == 100
        cluster.wipe()
        assert cluster.disk_usage()["osu0"] == 0

    def test_for_storage(self, tmp_path):
        from repro.metadata import parse_storage

        storage = parse_storage(
            "[D]\nDatasetDescription = S\nDIR[0] = alpha/d\nDIR[1] = beta/d\n"
        )["D"]
        cluster = VirtualCluster.for_storage(str(tmp_path), storage)
        assert set(cluster.node_names) == {"alpha", "beta"}
