"""End-to-end cluster tests: real OS processes over real sockets.

These spawn ``repro serve`` subprocesses via :class:`ProcessCluster` and
drive them through ``repro.connect("tcp://...")`` — the full out-of-process
STORM path, asserted bit-identical against the in-process reference.
"""

import numpy as np
import pytest

import repro
from repro.core import ExecOptions, local_mount
from repro.datasets import IparsConfig, ipars
from repro.errors import NodeFailureError, StormError
from repro.net import ProcessCluster
from tests.conftest import assert_tables_equal

CLUSTER_IPARS = IparsConfig(
    num_rels=2, num_times=8, cells_per_node=24, num_nodes=3
)

SQL = "SELECT REL, TIME, X, Y, SOIL FROM IparsData WHERE TIME > 1 AND TIME <= 6"


@pytest.fixture(scope="module")
def cluster_dataset(tmp_path_factory):
    """(descriptor text, root) for a 3-node on-disk IPARS dataset."""
    root = tmp_path_factory.mktemp("net_cluster")
    text, _ = ipars.generate(CLUSTER_IPARS, "L0", local_mount(str(root)))
    return text, str(root)


@pytest.fixture(scope="module")
def local_reference(cluster_dataset):
    """The in-process answer every remote run must match bit-for-bit."""
    text, root = cluster_dataset
    with repro.connect(f"local://{root}", descriptor=text) as db:
        return db.query(SQL)


@pytest.fixture(scope="module")
def procs(cluster_dataset):
    """One 3-process cluster shared by the clean-path tests."""
    text, root = cluster_dataset
    with ProcessCluster(text, root) as cluster:
        yield cluster


class TestProcessCluster:
    def test_three_processes_launch(self, procs):
        assert sorted(procs.addresses) == ["osu0", "osu1", "osu2"]
        assert procs.alive() == {"osu0": True, "osu1": True, "osu2": True}
        assert procs.url.startswith("tcp://")
        assert procs.url.count(",") == 2

    def test_remote_bit_identical_to_local(self, procs, local_reference):
        with procs.connect() as db:
            remote = db.query(SQL)
        assert_tables_equal(remote, local_reference)
        # Bit-identical, not just equal-as-multisets: exact bytes after
        # canonical ordering.
        for name in remote.column_names:
            a = remote.canonical()[name]
            b = local_reference.canonical()[name]
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_select_star_and_empty_result(self, procs, cluster_dataset):
        text, root = cluster_dataset
        with procs.connect() as db, repro.connect(
            f"local://{root}", descriptor=text
        ) as ref:
            sql = "SELECT * FROM IparsData WHERE REL = 1 AND TIME = 3"
            assert_tables_equal(db.query(sql), ref.query(sql))
            empty = db.query("SELECT X FROM IparsData WHERE TIME > 999")
            assert empty.num_rows == 0

    def test_stats_travel_from_nodes(self, procs):
        with procs.connect() as db:
            db.drop_caches()  # earlier tests warmed the node segment caches
            result = db.submit(SQL)
        nodes = {"osu0", "osu1", "osu2"}
        assert nodes <= set(result.per_node_stats)  # plus "_transfer"
        assert all(
            result.per_node_stats[n].bytes_read > 0 for n in nodes
        )
        assert result.total_stats.bytes_read == sum(
            s.bytes_read for s in result.per_node_stats.values()
        )

    def test_remote_drop_caches(self, procs):
        with procs.connect() as db:
            db.query(SQL)
            db.drop_caches()
            db.query(SQL)

    def test_query_iter_batches(self, procs, local_reference):
        from repro.core.table import concat_tables

        with procs.connect(batch_rows=64) as db:
            batches = list(db.query_iter(SQL))
        assert len(batches) > 1
        assert all(b.num_rows <= 64 for b in batches[:-1])
        assert_tables_equal(concat_tables(batches), local_reference)

    def test_missing_node_rejected_at_connect(self, procs, cluster_dataset):
        text, _ = cluster_dataset
        # A URL that only covers two of the three storage nodes must be
        # rejected up front, not fail mid-query.
        partial_url = "tcp://" + ",".join(
            f"{h}:{p}"
            for n, (h, p) in sorted(procs.addresses.items())
            if n != "osu2"
        )
        with pytest.raises(StormError, match="osu2"):
            repro.connect(partial_url, descriptor=text)


class TestClusterChaos:
    def test_conn_reset_recovers_with_retries(self, cluster_dataset, local_reference):
        text, root = cluster_dataset
        rules = ["conn-reset:osu1:*:times=1"]
        with ProcessCluster(text, root, rules=rules, seed=7) as cluster:
            with cluster.connect(retries=2, retry_backoff=0.01) as db:
                result = db.submit(SQL)
        assert not result.degraded
        assert result.failed_nodes == []
        assert_tables_equal(result.table, local_reference)

    def test_unlimited_conn_reset_degrades(self, cluster_dataset):
        text, root = cluster_dataset
        rules = ["conn-reset:osu1"]
        with ProcessCluster(text, root, rules=rules, seed=7) as cluster:
            with cluster.connect(
                retries=1, retry_backoff=0.01, allow_partial=True
            ) as db:
                result = db.submit(SQL)
        assert result.degraded
        assert result.failed_nodes == ["osu1"]
        assert set(result.table["REL"]) <= {0, 1}

    def test_unlimited_conn_reset_without_partial_raises(self, cluster_dataset):
        text, root = cluster_dataset
        rules = ["conn-reset:osu1"]
        with ProcessCluster(text, root, rules=rules, seed=7) as cluster:
            with cluster.connect(retries=1, retry_backoff=0.01) as db:
                with pytest.raises(NodeFailureError):
                    db.submit(SQL)

    def test_process_killed_mid_session_degrades(self, cluster_dataset):
        # connect() dials every node eagerly, so the process must die
        # *after* the handshake to exercise the mid-session path.
        text, root = cluster_dataset
        with ProcessCluster(text, root) as cluster:
            with cluster.connect(
                retries=1, retry_backoff=0.01, allow_partial=True,
                connect_timeout=2.0,
            ) as db:
                full = db.submit(SQL)
                cluster.kill_node("osu2")
                result = db.submit(SQL)
        assert not full.degraded
        assert result.degraded
        assert result.failed_nodes == ["osu2"]

    def test_connect_to_dead_node_is_transport_error(self, cluster_dataset):
        from repro.errors import TransportError

        text, root = cluster_dataset
        with ProcessCluster(text, root) as cluster:
            cluster.kill_node("osu2")
            with pytest.raises(TransportError, match="no node server"):
                cluster.connect(connect_timeout=2.0)


AGG_SQL = (
    "SELECT REL, COUNT(*), SUM(SOIL), AVG(SOIL), MIN(SOIL), MAX(SOIL) "
    "FROM IparsData WHERE TIME > 1 AND TIME <= 6 GROUP BY REL"
)


class TestClusterAggregates:
    """Aggregate pushdown over real OS processes and real sockets."""

    def test_aggregate_bit_identical_to_local(self, procs, cluster_dataset):
        text, root = cluster_dataset
        with repro.connect(f"local://{root}", descriptor=text) as ref:
            local = ref.query(AGG_SQL)
        with procs.connect() as db:
            remote = db.query(AGG_SQL)
        assert remote.column_names == local.column_names
        for name in remote.column_names:
            a, b = remote[name], local[name]
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_partial_frames_cross_the_wire_not_rows(self, procs):
        """The transfer carries per-node state frames: a few rows per
        node, far fewer bytes than the filtered base rows."""
        with procs.connect() as db:
            agg = db.submit(AGG_SQL)
            rows = db.submit(SQL)
        agg_sent = sum(s.bytes_sent for s in agg.per_node_stats.values())
        rows_sent = sum(s.bytes_sent for s in rows.per_node_stats.values())
        assert 0 < agg_sent < rows_sent
        node_stats = {
            k: v for k, v in agg.per_node_stats.items()
            if not k.startswith("_")
        }
        assert sum(s.rows_aggregated for s in node_stats.values()) > 0

    def test_summary_count_answers_without_touching_nodes(self, procs):
        with procs.connect() as db:
            result = db.submit("SELECT COUNT(*) FROM IparsData")
        assert result.table["COUNT(*)"][0] == (
            CLUSTER_IPARS.num_rels * CLUSTER_IPARS.num_times
            * CLUSTER_IPARS.cells_per_node * CLUSTER_IPARS.num_nodes
        )
        real_nodes = [
            k for k in result.per_node_stats if not k.startswith("_")
        ]
        assert real_nodes == []

    def test_degraded_aggregate_marked_partial(self, cluster_dataset):
        """A lost node's partials are dropped and the result is marked
        degraded — never a silently under-counted 'full' answer."""
        text, root = cluster_dataset
        with ProcessCluster(text, root) as cluster:
            with cluster.connect(
                retries=1, retry_backoff=0.01, allow_partial=True,
                connect_timeout=2.0,
            ) as db:
                full = db.submit(AGG_SQL)
                cluster.kill_node("osu1")
                partial = db.submit(AGG_SQL)
        assert not full.degraded
        assert partial.degraded
        assert partial.failed_nodes == ["osu1"]
        assert (
            partial.table["COUNT(*)"].sum() < full.table["COUNT(*)"].sum()
        )


class TestClusterCli:
    def test_cluster_command_full_result(self, cluster_dataset, capsys, tmp_path):
        from repro.cli import main

        text, root = cluster_dataset
        desc = tmp_path / "cluster.desc"
        desc.write_text(text)
        rc = main(
            ["cluster", str(desc), SQL, "--root", root, "--retries", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "DEGRADED" not in out

    def test_cluster_command_degraded_exit_code(
        self, cluster_dataset, capsys, tmp_path
    ):
        from repro.cli import main

        text, root = cluster_dataset
        desc = tmp_path / "cluster.desc"
        desc.write_text(text)
        rc = main(
            [
                "cluster", str(desc), SQL, "--root", root,
                "--rule", "conn-reset:osu1", "--retries", "1",
                "--backoff", "0.01",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 3
        assert "DEGRADED" in out


class TestNodeServerHoldsNoDecodedPlans:
    """Every EXECUTE frame decodes fresh ``Strip`` objects; per-call
    decode state that outlived its call would pin them (and their plans)
    for the life of the server."""

    def test_200_distinct_executes_leave_no_strip_behind(
        self, cluster_dataset, monkeypatch
    ):
        import gc
        import threading
        import time
        import weakref

        from repro.core import CompiledDataset, IOStats
        from repro.net import wire
        from repro.net.client import TcpTransport
        from repro.net.server import NodeServer

        text, root = cluster_dataset
        decoded = []
        decode_plan = wire.decode_plan

        def recording_decode(payload):
            plan = decode_plan(payload)
            decoded.extend(
                weakref.ref(chunk.strip)
                for afc in plan.afcs
                for chunk in afc.chunks
            )
            return plan

        monkeypatch.setattr(wire, "decode_plan", recording_decode)
        dataset = CompiledDataset(text)
        server = NodeServer("osu0", root, dataset=dataset.descriptor.name)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,))
        thread.start()
        transport = None
        try:
            transport = TcpTransport([server.address])
            for i in range(200):
                plan = dataset.plan(
                    "SELECT X, SOIL FROM IparsData "
                    f"WHERE TIME = {1 + i % 8} AND SOIL > {i / 400:.4f}"
                )
                afcs = [a for a in plan.afcs if a.chunks[0].node == "osu0"]
                table = transport.execute_node("osu0", plan, afcs, IOStats())
                assert table.num_rows > 0
                assert decoded, "the server never decoded a plan"
                # The reply is written inside the server's frame handler;
                # give it a moment to return and drop its locals.
                deadline = time.monotonic() + 5
                while any(ref() is not None for ref in decoded):
                    assert time.monotonic() < deadline, (
                        f"decoded strips still alive after reply {i}"
                    )
                    time.sleep(0.001)
                    gc.collect()
                decoded.clear()
        finally:
            if transport is not None:
                transport.close()
            server.shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()
