"""End-to-end cluster tests: real OS processes over real sockets.

These spawn ``repro serve`` subprocesses via :class:`ProcessCluster` and
drive them through ``repro.connect("tcp://...")`` — the full out-of-process
STORM path, asserted bit-identical against the in-process reference.
"""

import contextlib
import json
import select
import socket
import threading

import numpy as np
import pytest

import repro
from repro.core import ExecOptions, GeneratedDataset, IOStats, local_mount
from repro.datasets import IparsConfig, TitanConfig, ipars, titan
from repro.errors import (
    NodeFailureError,
    PlanMismatchError,
    RemoteError,
    StormError,
    TransportError,
)
from repro.index import build_summaries, summaries_path
from repro.net import ProcessCluster, framing, wire
from repro.net.client import TcpTransport
from repro.net.server import NodeServer
from tests.conftest import assert_tables_equal
from tests.test_cross_node_groups import SPLIT_TEXT as CROSS_NODE_TEXT
from tests.test_net_wire import (
    GOOD_BATCH,
    HOSTILE_TABLES,
    _columns,
    batch_payload,
)

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


def assert_bit_identical(remote, local):
    """Same columns, dtypes and exact bytes after canonical ordering."""
    assert remote.column_names == local.column_names
    assert remote.num_rows == local.num_rows
    for name in remote.column_names:
        a, b = remote.canonical()[name], local.canonical()[name]
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


SHIPPED_QUERIES = [
    SQL,
    "SELECT * FROM IparsData WHERE REL = 1 AND TIME = 3",
    "SELECT X FROM IparsData WHERE TIME > 999",  # provably empty
    "SELECT X, SOIL FROM IparsData WHERE SOIL > 2.0",  # empty after filter
    "SELECT X, Y, SOIL FROM IparsData WHERE REL in (0, 1) AND TIME in (2, 5, 7)",
    "SELECT SOIL, SGAS FROM IparsData WHERE TIME BETWEEN 3 AND 5 AND SOIL BETWEEN 0.2 AND 0.7",
    "SELECT X, TIME FROM IparsData WHERE 6 >= TIME AND NOT (SOIL <= 0.5) OR REL = 0 AND TIME = 1",
    "SELECT X, OILVX FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) > 0.8 AND TIME <= 4",
    AGG_SQL,
    "SELECT COUNT(*), MAX(SOIL) FROM IparsData WHERE TIME in (1, 8)",
    "SELECT COUNT(*) FROM IparsData WHERE TIME > 3",  # no base columns
    "SELECT TIME, AVG(SGAS) FROM IparsData WHERE SOIL > 0.5 GROUP BY TIME",
]


class TestQueryShipping:
    """The node plans its own share from the query text; whatever plan
    variant the coordinator runs, the table is the in-process one."""

    @pytest.fixture(scope="class")
    def ref(self, cluster_dataset):
        text, root = cluster_dataset
        with repro.connect(f"local://{root}", descriptor=text) as db:
            yield db

    @pytest.mark.parametrize("sql", SHIPPED_QUERIES)
    def test_cluster_equals_in_process(self, procs, ref, sql):
        with procs.connect() as db:
            assert_bit_identical(db.query(sql), ref.query(sql))

    @pytest.mark.parametrize(
        "options",
        [
            {"agg_pushdown": False},
            {"vectorize": "off"},
            {"cache_mode": "subsume"},
            {"cache_mode": "exact", "agg_pushdown": False},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_plan_variants_over_tcp(self, procs, ref, options):
        with procs.connect(**options) as db:
            for sql in SHIPPED_QUERIES:
                assert_bit_identical(db.query(sql), ref.query(sql))

    def test_widened_plan_serves_a_narrower_query_from_cache(self, procs, ref):
        wide = "SELECT X FROM IparsData WHERE TIME > 1 AND TIME <= 6"
        narrow = (
            "SELECT X FROM IparsData WHERE TIME > 1 AND TIME <= 6 "
            "AND SOIL > 0.5"
        )
        with procs.connect(cache_mode="subsume") as db:
            # SOIL is not selected by `wide`, so `narrow` misses; but a
            # query filtering on the WHERE-only TIME is answerable from
            # the widened table the nodes were asked for.
            db.query(wide)
            served = db.submit(
                "SELECT X FROM IparsData WHERE TIME > 2 AND TIME <= 5"
            )
            assert served.total_stats.subsumption_hits == 1
            assert_bit_identical(
                served.table,
                ref.query("SELECT X FROM IparsData WHERE TIME > 2 AND TIME <= 5"),
            )
            assert_bit_identical(db.query(narrow), ref.query(narrow))

    def test_coordinator_chunk_row_cap_is_shipped(self, procs, ref):
        with procs.connect() as db:
            natural = db.submit(SQL)
            db.service.dataset.chunk_row_cap = 7
            capped = db.submit(SQL)
            agg = db.query(AGG_SQL)
        assert capped.afc_count > natural.afc_count
        assert_bit_identical(capped.table, natural.table)
        assert_bit_identical(agg, ref.query(AGG_SQL))

    def test_request_is_small_and_traced(self, procs):
        from repro.obs import Tracer

        tracer = Tracer("t")
        with procs.connect(trace=tracer) as db:
            result = db.submit(SQL)
        spans = [s for s in tracer.spans if s.name == "rpc"]
        assert len(spans) == 3
        assert sum(s.tags["afcs"] for s in spans) == result.afc_count
        assert all(s.tags["request_bytes"] < 1024 for s in spans)


def test_cross_node_groups_over_tcp(tmp_path):
    """Every group is homed on alpha (its first chunk) and reads beta's
    file remotely: both sides must assign it to alpha, and beta's server
    plans nothing."""
    from repro.core import CompiledDataset
    from repro.datasets.writers import write_dataset

    def value_fn(attr, env, coords):
        if attr == "POS":
            return coords["G"] * 1.0
        return coords["T"] * 100.0 + coords["G"]

    root = str(tmp_path)
    write_dataset(CompiledDataset(CROSS_NODE_TEXT), local_mount(root), value_fn)
    queries = [
        "SELECT T, POS, VAL FROM D WHERE T > 2 AND T <= 6",
        "SELECT T, SUM(VAL) FROM D WHERE POS > 3 GROUP BY T",
    ]
    with repro.connect(f"local://{root}", descriptor=CROSS_NODE_TEXT) as ref:
        with ProcessCluster(CROSS_NODE_TEXT, root) as cluster:
            with cluster.connect() as db:
                for sql in queries:
                    result = db.submit(sql)
                    assert_bit_identical(result.table, ref.query(sql))
                    assert "beta" not in result.per_node_stats
                    assert result.per_node_stats["alpha"].remote_bytes_read > 0


BIG_TITAN = TitanConfig(
    chunks_x=10, chunks_y=10, chunks_z=5, chunks_t=2,
    elems_per_chunk=10, num_nodes=2,
)


class TestRequestSizeIndependentOfAfcCount:
    @pytest.fixture(scope="class")
    def titan_cluster(self, tmp_path_factory):
        """2-process Titan cluster, 1000 chunks, pruned by sidecar
        summaries that servers and coordinator both pick up."""
        root = str(tmp_path_factory.mktemp("net_titan"))
        text, _ = titan.generate(BIG_TITAN, local_mount(root))
        dataset = GeneratedDataset(text)
        build_summaries(dataset, local_mount(root)).save(
            summaries_path(root, dataset.descriptor.name)
        )
        with ProcessCluster(text, root) as cluster:
            yield text, root, cluster

    def test_two_afcs_and_a_thousand_cost_the_same_request(self, titan_cluster):
        from repro.obs import Tracer

        text, root, cluster = titan_cluster
        box = (
            "SELECT X, S1 FROM TitanData WHERE X >= {} AND X <= {} "
            "AND Y >= {} AND Y <= {} AND Z >= {} AND Z <= {}"
        )
        # One lattice cell (two time slabs, one per node) vs everything.
        small = box.format(4100.5, 7900.25, 4100.5, 7900.25, 81.5, 158.5)
        big = box.format(-999.5, 99999.5, -999.5, 99999.5, -9.5, 900.5)
        sizes, counts = {}, {}
        with cluster.connect() as db, repro.connect(
            f"local://{root}", descriptor=text,
            summaries=db.service.dataset.summaries,
        ) as ref:
            assert db.service.dataset.summaries is not None
            for name, sql in (("small", small), ("big", big)):
                tracer = Tracer(name)
                result = db.submit(sql, db.options.replace(trace=tracer))
                assert_bit_identical(result.table, ref.query(sql))
                rpcs = [s for s in tracer.spans if s.name == "rpc"]
                assert len(rpcs) == 2
                assert len({s.tags["request_bytes"] for s in rpcs}) == 1
                sizes[name] = rpcs[0].tags["request_bytes"]
                counts[name] = result.afc_count
                per_node = {s.tags["afcs"] for s in rpcs}
                assert per_node == {result.afc_count // 2}
            texts = [
                str(db.service.dataset.plan(sql).query) for sql in (small, big)
            ]
        assert len(texts[0]) == len(texts[1])
        assert counts == {"small": 2, "big": 1000}
        assert sizes["big"] < 2048
        # Same text length, so the only bytes that differ are the digits
        # of the expected per-node AFC count ("1" vs "500").
        assert sizes["big"] - sizes["small"] == len("500") - len("1")


@contextlib.contextmanager
def serving(node, root, dataset, **kwargs):
    """A NodeServer on a thread of this process (so tests can reach in)."""
    server = NodeServer(node, root, dataset, **kwargs)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()


ONE_NODE = IparsConfig(num_rels=2, num_times=8, cells_per_node=24, num_nodes=1)


@pytest.fixture(scope="module")
def one_node(tmp_path_factory):
    """(descriptor text, root) of a single-node IPARS dataset."""
    root = tmp_path_factory.mktemp("net_one_node")
    text, _ = ipars.generate(ONE_NODE, "L0", local_mount(str(root)))
    return text, str(root)


class TestPlanAgreementGuard:
    def test_other_descriptor_is_refused_at_connect(self, one_node):
        text, root = one_node
        # Same dataset name, same node, one more time step: every query
        # would plan, and silently miss or over-read rows.
        other = ipars.descriptor_text(
            IparsConfig(num_rels=2, num_times=9, cells_per_node=24, num_nodes=1),
            "L0",
        )
        with serving("osu0", root, GeneratedDataset(text)) as server:
            host, port = server.address
            with pytest.raises(TransportError, match="descriptor"):
                repro.connect(f"tcp://{host}:{port}", descriptor=other)
            with repro.connect(f"tcp://{host}:{port}", descriptor=text) as db:
                assert db.query(SQL).num_rows > 0

    def test_other_summaries_are_refused_at_connect(self, tmp_path):
        root = str(tmp_path)
        config = TitanConfig(
            chunks_x=2, chunks_y=2, chunks_z=1, chunks_t=2,
            elems_per_chunk=10, num_nodes=1,
        )
        text, _ = titan.generate(config, local_mount(root))
        summaries = build_summaries(GeneratedDataset(text), local_mount(root))
        with serving("osu0", root, GeneratedDataset(text, summaries)) as server:
            url = "tcp://{}:{}".format(*server.address)
            with pytest.raises(TransportError, match="summaries"):
                repro.connect(url, descriptor=text)
            with repro.connect(url, descriptor=text, summaries=summaries) as db:
                assert db.query("SELECT X FROM TitanData WHERE X < 100").num_rows
        with serving("osu0", root, GeneratedDataset(text)) as server:
            url = "tcp://{}:{}".format(*server.address)
            with pytest.raises(TransportError, match="summaries"):
                repro.connect(url, descriptor=text, summaries=summaries)

    def test_node_refuses_an_unexpected_afc_count(self, one_node):
        text, root = one_node
        dataset = GeneratedDataset(text)
        plan = dataset.plan(SQL)
        with serving("osu0", root, dataset) as server:
            with TcpTransport([server.address]) as transport:
                with pytest.raises(PlanMismatchError, match="osu0"):
                    transport.execute_node(
                        "osu0", plan, plan.afcs[:-1], IOStats()
                    )
                # Not retried, not degraded away: it fails the query.
                short = GeneratedDataset(text)
                short.index = lambda ranges, node=None: dataset.index(
                    ranges, node=node
                )[:-1]
                service = repro.storm.QueryService(short, transport=transport)
                with pytest.raises(PlanMismatchError):
                    service.submit(
                        SQL, ExecOptions(retries=3, allow_partial=True)
                    )
                # The connection survives a refusal.
                table = transport.execute_node(
                    "osu0", plan, plan.afcs, IOStats()
                )
                assert table.num_rows > 0

    def test_coordinator_checks_the_count_the_node_reports(
        self, one_node, monkeypatch
    ):
        """Even a server that skipped its own check cannot hand back a
        share of a different size unnoticed."""
        import dataclasses

        text, root = one_node
        dataset = GeneratedDataset(text)
        plan = dataset.plan(SQL)
        honest = NodeServer._plan

        def short_plan(self, request):
            plan = honest(self, request)
            return dataclasses.replace(plan, afcs=plan.afcs[:-1])

        monkeypatch.setattr(NodeServer, "_plan", short_plan)
        with serving("osu0", root, dataset) as server:
            with TcpTransport([server.address]) as transport:
                with pytest.raises(PlanMismatchError, match="answered for"):
                    transport.execute_node("osu0", plan, plan.afcs, IOStats())

    def test_hand_written_plan_cannot_cross_the_wire(self, one_node):
        import dataclasses

        text, root = one_node
        dataset = GeneratedDataset(text)
        plan = dataclasses.replace(dataset.plan(SQL), query=None)
        with serving("osu0", root, dataset) as server:
            with TcpTransport([server.address]) as transport:
                with pytest.raises(TransportError, match="local://"):
                    transport.execute_node("osu0", plan, plan.afcs, IOStats())


def _raw_request(sock, kind, payload=b""):
    framing.write_frame(sock, kind, payload)
    return framing.read_frame(sock)


class TestHostileExecuteFrames:
    GOOD = {
        "query": "SELECT X, SOIL FROM IparsData WHERE TIME = 3",
        "needed": ["X", "SOIL", "TIME"],
        "output": ["X", "SOIL"],
        "agg": None,
        "chunk_row_cap": None,
        "afcs": 2,
        "options": {},
    }

    HOSTILE = {
        "not-json": (b"{nope", "TransportError"),
        "not-an-object": (b"[1, 2]", "TransportError"),
        "null-query": ({"query": None}, "TransportError"),
        "missing-query": ({"query": ...}, "TransportError"),
        "unknown-table": (
            {"query": "SELECT X FROM Elsewhere"}, "QueryValidationError"
        ),
        "unparsable-sql": ({"query": "SELEKT X FRUM"}, "QuerySyntaxError"),
        "unknown-where-attribute": (
            {"query": "SELECT X FROM IparsData WHERE NOPE > 1"},
            "QueryValidationError",
        ),
        "needed-not-a-list": ({"needed": "X"}, "TransportError"),
        "unknown-output-attribute": ({"output": ["NOPE"]}, "TransportError"),
        "count-as-string": ({"afcs": "2"}, "TransportError"),
        "count-disagrees": ({"afcs": 99}, "PlanMismatchError"),
        "negative-cap": ({"chunk_row_cap": -4}, "TransportError"),
        "bad-option-value": (
            {"options": {"vectorize": "maybe"}}, "TransportError"
        ),
        "bad-option-type": ({"options": {"batch_rows": "x"}}, "TransportError"),
        "bad-aggregate": ({"agg": {"items": 3}}, "TransportError"),
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_error_frame_then_keeps_serving(self, one_node, case):
        payload, etype = self.HOSTILE[case]
        if isinstance(payload, dict):
            merged = {**self.GOOD, **payload}
            payload = json.dumps(
                {k: v for k, v in merged.items() if v is not ...}
            ).encode()
        text, root = one_node
        with serving("osu0", root, GeneratedDataset(text)) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                kind, _ = _raw_request(
                    sock, framing.HELLO,
                    b'{"protocol": %d}' % framing.PROTOCOL_VERSION,
                )
                assert kind == framing.WELCOME
                kind, data = _raw_request(sock, framing.EXECUTE, payload)
                assert kind == framing.ERROR
                error = framing.decode_json(data)
                assert error["etype"] == etype
                assert error["retryable"] is False
                # Same connection, next request: a good one is answered.
                framing.write_frame(
                    sock, framing.EXECUTE, json.dumps(self.GOOD).encode()
                )
                kinds = []
                while not kinds or kinds[-1] == framing.BATCH:
                    kinds.append(framing.read_frame(sock)[0])
                assert kinds == [framing.BATCH, framing.DONE]
                assert _raw_request(sock, framing.PING)[0] == framing.PONG

    def test_remote_error_type_at_the_coordinator(self, one_node):
        text, root = one_node
        dataset = GeneratedDataset(text)
        plan = dataset.plan(SQL)
        with serving("osu0", root, dataset) as server:
            with TcpTransport([server.address]) as transport:
                import dataclasses

                bad = dataclasses.replace(plan, output=["NOPE"])
                with pytest.raises(RemoteError, match="unknown attribute"):
                    transport.execute_node("osu0", bad, plan.afcs, IOStats())


@contextlib.contextmanager
def fake_node(batch, afcs):
    """A listener that speaks WELCOME as ``osu0``, then answers one
    EXECUTE with ``batch`` as its BATCH payload and a DONE for ``afcs``
    AFCs; yields its address."""
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def serve():
            conn, _ = listener.accept()
            with conn:
                try:
                    framing.read_frame(conn)  # HELLO
                    framing.write_json(
                        conn, framing.WELCOME,
                        {"node": "osu0", "protocol": framing.PROTOCOL_VERSION},
                    )
                    framing.read_frame(conn)  # EXECUTE
                    framing.write_frame(conn, framing.BATCH, batch)
                    framing.write_json(
                        conn, framing.DONE, {"afcs": afcs, "stats": {}}
                    )
                    conn.recv(1)  # until the coordinator hangs up
                except OSError:
                    pass

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            yield listener.getsockname()[:2]
        finally:
            thread.join(timeout=10)
            assert not thread.is_alive()


class TestHostileBatchFrames:
    """A BATCH no table encodes to, or one the request's plan cannot
    have produced, is a typed TransportError at the coordinator, and the
    connection it came on is never reused."""

    SQL = "SELECT X, SOIL FROM IparsData WHERE TIME = 3"
    PLANNED_ROWS = 48  # ONE_NODE: 2 realizations x 24 cells at one step

    HOSTILE = {
        **HOSTILE_TABLES,
        "other-names": batch_payload(
            _columns(2, ("X", "<f4"), ("SGAS", "<f4")), bytes(16)
        ),
        "other-dtype": batch_payload(
            _columns(2, ("X", "<f8"), ("SOIL", "<f4")), bytes(24)
        ),
        "more-rows-than-planned": batch_payload(
            _columns(PLANNED_ROWS + 1, ("X", "<f4"), ("SOIL", "<f4")),
            bytes(8 * (PLANNED_ROWS + 1)),
        ),
    }

    @pytest.fixture
    def plan(self, one_node):
        plan = GeneratedDataset(one_node[0]).plan(self.SQL)
        assert plan.afcs.total_rows == self.PLANNED_ROWS
        return plan

    def test_a_good_batch_through_the_same_fake_node(self, plan):
        with fake_node(GOOD_BATCH, len(plan.afcs)) as address, TcpTransport(
            [address]
        ) as transport:
            table = transport.execute_node("osu0", plan, plan.afcs, IOStats())
            assert table.column_names == ("X", "SOIL")
            assert table.num_rows == 2
            assert len(transport._pools["osu0"]._idle) == 1

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_typed_error_and_the_connection_is_dropped(self, plan, case):
        with fake_node(self.HOSTILE[case], len(plan.afcs)) as address, (
            TcpTransport([address])
        ) as transport:
            pool = transport._pools["osu0"]
            (first,) = pool._idle
            with pytest.raises(TransportError):
                transport.execute_node("osu0", plan, plan.afcs, IOStats())
            assert not pool._idle and not pool._open
            assert first.fileno() == -1


class TestNodeServerHoldsNoPlans:
    """Every EXECUTE plans fresh AFCs on the node; anything that kept
    them past the reply (a plan cache, per-call state that outlived its
    call) would grow for the life of the server."""

    def test_200_distinct_executes_leave_no_plan_behind(
        self, one_node, monkeypatch
    ):
        import gc
        import time
        import weakref

        text, root = one_node
        planned = []
        honest = NodeServer._plan

        def recording_plan(self, request):
            plan = honest(self, request)
            planned.append(weakref.ref(plan))
            planned.extend(weakref.ref(afc) for afc in plan.afcs)
            return plan

        monkeypatch.setattr(NodeServer, "_plan", recording_plan)
        dataset = GeneratedDataset(text)
        with serving("osu0", root, GeneratedDataset(text)) as server:
            with TcpTransport([server.address]) as transport:
                for i in range(200):
                    plan = dataset.plan(
                        "SELECT X, SOIL FROM IparsData "
                        f"WHERE TIME = {1 + i % 8} AND SOIL > {i / 400:.4f}"
                    )
                    table = transport.execute_node(
                        "osu0", plan, plan.afcs, IOStats()
                    )
                    assert table.num_rows > 0
                    assert len(planned) == 1 + len(plan.afcs)
                    # The reply is written inside the server's frame
                    # handler; give it a moment to return and drop its
                    # locals.
                    deadline = time.monotonic() + 5
                    while any(ref() is not None for ref in planned):
                        assert time.monotonic() < deadline, (
                            f"node-side plan still alive after reply {i}"
                        )
                        time.sleep(0.001)
                        gc.collect()
                    planned.clear()

    def test_200_connections_leave_no_connection_object_behind(
        self, one_node, monkeypatch
    ):
        """Every connect() probe and every redial is a new connection; a
        long-lived server must forget each one when it ends."""
        import gc
        import time
        import weakref

        text, root = one_node
        seen = []
        honest = NodeServer._serve_connection

        def recording_serve(self, conn):
            seen.append(weakref.ref(conn))
            seen.append(weakref.ref(threading.current_thread()))
            honest(self, conn)

        monkeypatch.setattr(NodeServer, "_serve_connection", recording_serve)
        with serving("osu0", root, GeneratedDataset(text)) as server:
            for _ in range(200):
                with socket.create_connection(server.address, timeout=10) as sock:
                    kind, _ = _raw_request(
                        sock, framing.HELLO,
                        b'{"protocol": %d}' % framing.PROTOCOL_VERSION,
                    )
                    assert kind == framing.WELCOME
        # The accept loop has returned (its frame held the last socket);
        # what is left is what the server object itself keeps.
        assert len(seen) == 400
        deadline = time.monotonic() + 5
        while any(ref() is not None for ref in seen):
            assert time.monotonic() < deadline, (
                f"{server!r} still holds "
                f"{sum(ref() is not None for ref in seen)} "
                "per-connection object(s) of closed connections"
            )
            time.sleep(0.01)
            gc.collect()


# ---------------------------------------------------------------------------
# The coordinator's pool: blocking sockets, driven by the caller's thread
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def executes_observed(monkeypatch, hold=0.01):
    """Count node-side executions in progress, process-wide; yields a
    dict whose ``peak`` is the most that ever overlapped.

    Observed around ``NodeServer._reply``, which extracts the plan and
    writes every BATCH frame of the reply, and returns before DONE is
    written: the coordinator cannot finish a request (and send the next
    one) while its reply is inside the window, so two of them
    overlapping means two requests were on the wire at once, whatever
    the thread timing."""
    import time

    seen = {"active": 0, "peak": 0, "calls": 0}
    lock = threading.Lock()
    honest = NodeServer._reply

    def observed(self, *args, **kwargs):
        with lock:
            seen["calls"] += 1
            seen["active"] += 1
            seen["peak"] = max(seen["peak"], seen["active"])
        try:
            time.sleep(hold)  # widen the window an overlap would show in
            return honest(self, *args, **kwargs)
        finally:
            with lock:
                seen["active"] -= 1

    with monkeypatch.context() as patch:
        patch.setattr(NodeServer, "_reply", observed)
        yield seen


def _concurrently(calls):
    """Run the thunks on one thread each, released together; returns
    their results in order (exceptions re-raised)."""
    from concurrent.futures import ThreadPoolExecutor

    barrier = threading.Barrier(len(calls))

    def run(call):
        barrier.wait(timeout=10)
        return call()

    with ThreadPoolExecutor(max_workers=len(calls)) as pool:
        futures = [pool.submit(run, call) for call in calls]
        return [f.result(timeout=30) for f in futures]


class TestCoordinatorPool:
    def test_one_connection_serialises_eight_callers(
        self, one_node, monkeypatch
    ):
        text, root = one_node
        dataset = GeneratedDataset(text)
        plan = dataset.plan(SQL)
        with serving("osu0", root, dataset) as server:
            with TcpTransport(
                [server.address], ExecOptions(max_connections_per_node=1)
            ) as transport:
                expected = transport.execute_node(
                    "osu0", plan, plan.afcs, IOStats()
                )
                with executes_observed(monkeypatch) as seen:
                    tables = _concurrently([
                        lambda: transport.execute_node(
                            "osu0", plan, plan.afcs, IOStats()
                        )
                    ] * 8)
                assert seen["calls"] == 8 and seen["peak"] == 1
                # The discovery probe's connection carried all nine.
                assert transport._pools["osu0"].dials == 1
        for table in tables:
            assert_bit_identical(table, expected)

    def test_inflight_limit_is_cluster_wide(
        self, cluster_dataset, monkeypatch
    ):
        text, root = cluster_dataset
        dataset = GeneratedDataset(text)
        plan = dataset.plan(SQL)
        shares = {
            node: [a for a in plan.afcs if a.chunks[0].node == node]
            for node in ("osu0", "osu1")
        }
        assert all(shares.values())

        def peak_with(**options):
            with TcpTransport(
                [one.address, two.address], ExecOptions(**options)
            ) as transport, executes_observed(monkeypatch) as seen:
                _concurrently([
                    lambda node=node: transport.execute_node(
                        node, plan, shares[node], IOStats()
                    )
                    for node in ("osu0", "osu1") * 4
                ])
            assert seen["calls"] == 8
            return seen["peak"]

        with serving("osu0", root, dataset) as one, serving(
            "osu1", root, dataset
        ) as two:
            assert peak_with(inflight_limit=1) == 1
            # The harness can see overlap when the limit allows it.
            assert peak_with(inflight_limit=8) > 1

    def test_idle_connection_closed_by_the_node_is_redialled(
        self, one_node, monkeypatch
    ):
        import time

        text, root = one_node
        dataset = GeneratedDataset(text)
        plan = dataset.plan(SQL)
        accepted = []
        honest = NodeServer._serve_connection

        def recording_serve(self, conn):
            accepted.append(conn)
            honest(self, conn)

        monkeypatch.setattr(NodeServer, "_serve_connection", recording_serve)
        with serving("osu0", root, dataset) as server:
            with TcpTransport([server.address]) as transport:
                pool = transport._pools["osu0"]
                (idle,) = pool._idle
                accepted[0].shutdown(socket.SHUT_RDWR)
                deadline = time.monotonic() + 5
                while not select.select([idle], [], [], 0)[0]:  # EOF lands
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                # Handed to the request, the dead socket would fail it:
                # the transport itself never retries.
                table = transport.execute_node(
                    "osu0", plan, plan.afcs, IOStats()
                )
                assert table.num_rows > 0
                assert pool.dials == 2
                assert idle not in pool._open and idle.fileno() == -1

    def test_connection_that_failed_mid_reply_is_never_reused(self, one_node):
        from repro.errors import NodeConnectionError
        from repro.faults import FaultInjector, parse_rule

        text, root = one_node
        dataset = GeneratedDataset(text)
        plan = dataset.plan(SQL)
        injector = FaultInjector(
            [parse_rule("conn-reset:osu0:*:times=1")], seed=7
        )
        with serving("osu0", root, dataset, fault_injector=injector) as server:
            with TcpTransport([server.address]) as transport:
                pool = transport._pools["osu0"]
                (first,) = pool._idle
                with pytest.raises(NodeConnectionError, match="osu0"):
                    transport.execute_node("osu0", plan, plan.afcs, IOStats())
                assert not pool._idle and not pool._open
                assert first.fileno() == -1
                table = transport.execute_node(
                    "osu0", plan, plan.afcs, IOStats()
                )
                assert table.num_rows > 0
                assert pool.dials == 2

    def test_close_wakes_a_request_blocked_on_a_stalled_node(
        self, one_node, monkeypatch
    ):
        import time

        from repro.errors import NodeConnectionError

        text, root = one_node
        dataset = GeneratedDataset(text)
        plan = dataset.plan(SQL)
        entered, unstall = threading.Event(), threading.Event()

        def stalled(self, conn, payload):
            entered.set()
            unstall.wait(timeout=30)
            return False

        monkeypatch.setattr(NodeServer, "_execute", stalled)
        outcome = {}

        def request():
            try:
                transport.execute_node("osu0", plan, plan.afcs, IOStats())
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        with serving("osu0", root, dataset) as server:
            transport = TcpTransport([server.address])
            blocked = threading.Thread(target=request)
            blocked.start()
            try:
                assert entered.wait(timeout=10)
                start = time.monotonic()
                transport.close()
                blocked.join(timeout=5)
                waited = time.monotonic() - start
            finally:
                unstall.set()
            assert not blocked.is_alive()
        assert isinstance(outcome.get("error"), NodeConnectionError)
        assert waited < 2
        # A closed transport dials nothing more.
        with pytest.raises(NodeConnectionError, match="closed"):
            transport.ping("osu0")

    def test_transport_starts_no_thread(self, procs, cluster_dataset):
        """Node servers in other processes, so every thread counted here
        would be the coordinator's own."""
        text, _ = cluster_dataset
        dataset = GeneratedDataset(text)
        before = threading.enumerate()
        transport = TcpTransport(list(procs.addresses.values()))
        try:
            assert threading.enumerate() == before
            with repro.storm.QueryService(
                dataset, transport=transport
            ) as service:
                result = service.submit(SQL, ExecOptions(parallel=False))
                assert result.num_rows > 0
                assert threading.enumerate() == before
        finally:
            transport.close()
        assert threading.enumerate() == before


class TestConnectTimeoutCoversTheHandshake:
    """``connect_timeout`` is "one TCP dial (plus handshake)": a listener
    that accepts and never speaks must not hang the coordinator."""

    def test_mute_listener_fails_connect(self, one_node):
        import time

        text, _ = one_node
        # Never accept()ed: the kernel completes the dial, nobody reads
        # the HELLO.
        with socket.create_server(("127.0.0.1", 0)) as mute:
            url = "tcp://127.0.0.1:{}".format(mute.getsockname()[1])
            start = time.monotonic()
            with pytest.raises(TransportError, match="no node server"):
                repro.connect(url, descriptor=text, connect_timeout=0.3)
            assert time.monotonic() - start < 2

    def test_mute_listener_fails_a_pooled_redial_retryably(self):
        import time

        from repro.errors import ExtractionError, NodeConnectionError

        with socket.create_server(("127.0.0.1", 0)) as listener:

            def welcome_once_then_mute():
                conn, _ = listener.accept()
                with conn:
                    framing.read_frame(conn)
                    framing.write_json(
                        conn, framing.WELCOME,
                        {"node": "osu0", "protocol": framing.PROTOCOL_VERSION},
                    )

            server = threading.Thread(target=welcome_once_then_mute)
            server.start()
            with TcpTransport(
                [listener.getsockname()[:2]], ExecOptions(connect_timeout=0.3)
            ) as transport:
                server.join(timeout=10)
                assert not server.is_alive()
                pool = transport._pools["osu0"]
                deadline = time.monotonic() + 5
                while not select.select([pool._idle[0]], [], [], 0)[0]:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                start = time.monotonic()
                with pytest.raises(NodeConnectionError, match="WELCOME") as info:
                    transport.ping("osu0")
                assert time.monotonic() - start < 2
                assert isinstance(info.value, ExtractionError)  # retryable
                # The failed dial gave its pool slot back.
                with pytest.raises(NodeConnectionError):
                    transport.ping("osu0")


# ---------------------------------------------------------------------------
# One zero-row result, however a query came to have no rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT REL, X, SOIL FROM IparsData WHERE SOIL > 2.0",
        "SELECT REL, COUNT(*), AVG(SOIL), MIN(X) FROM IparsData "
        "WHERE SOIL > 2.0 GROUP BY REL",
    ],
    ids=["rows", "aggregate"],
)
def test_zero_rows_look_the_same_over_tcp_and_after_losing_every_node(
    one_node, sql
):
    from repro.faults import FaultInjector, parse_rule
    from repro.obs import Tracer

    text, root = one_node
    tracer = Tracer("zero")
    with serving("osu0", root, GeneratedDataset(text)) as server:
        url = "tcp://{}:{}".format(*server.address)
        with repro.connect(url, descriptor=text, trace=tracer) as db:
            unanswered = db.submit(sql)
    (rpc,) = [s for s in tracer.spans if s.name == "rpc"]
    assert rpc.tags["batches"] == 0
    assert not unanswered.degraded
    with repro.connect(
        f"local://{root}", descriptor=text, allow_partial=True,
        fault_injector=FaultInjector([parse_rule("node-down:osu0")], seed=7),
    ) as db:
        lost = db.submit(sql)
    assert lost.failed_nodes == ["osu0"]
    for table in (unanswered.table, lost.table):
        assert table.num_rows == 0
    assert unanswered.table.column_names == lost.table.column_names
    for name in lost.table.column_names:
        assert unanswered.table[name].dtype == lost.table[name].dtype


# ---------------------------------------------------------------------------
# Replies streamed from the node's blocks
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def serving_cluster(text, root, nodes, injectors=None):
    """One in-process NodeServer per node; yields the ``tcp://`` URL."""
    injectors = injectors or {}
    with contextlib.ExitStack() as stack:
        servers = [
            stack.enter_context(serving(
                node, root, GeneratedDataset(text),
                fault_injector=injectors.get(node),
            ))
            for node in nodes
        ]
        yield "tcp://" + ",".join(
            "{}:{}".format(*server.address) for server in servers
        )


@pytest.fixture
def frames_written(monkeypatch):
    """node -> kinds of every frame its server threads wrote, in order."""
    written = {}
    honest = framing.write_frame

    def recording(sock, kind, *buffers):
        name = threading.current_thread().name
        if name.startswith("node-"):
            written.setdefault(name.split("-")[1], []).append(kind)
        return honest(sock, kind, *buffers)

    monkeypatch.setattr(framing, "write_frame", recording)
    return written


def _reset_on_second_frame():
    """``conn-reset`` on osu1's second reply frame, once."""
    from repro.faults import FaultInjector, parse_rule

    class Injector(FaultInjector):
        frames = 0

        def on_response(self, node):
            self.frames += 1
            if self.frames == 2:
                super().on_response(node)

    return Injector([parse_rule("conn-reset:osu1:*:times=1")], seed=7)


class TestMidStreamFailure:
    """osu1's reply fails after some of its BATCH frames went out — a
    disk dying mid-scan (ERROR follows the batches) or a reset on the
    second frame.  Never a short table: retried to the fault-free bits,
    a typed failure, or a result marked degraded."""

    NODES = ("osu0", "osu1", "osu2")
    # Small frames, and one read per chunk so the disk dies mid-reply.
    OPTIONS = {"batch_rows": 16, "coalesce_gap_bytes": 0, "retry_backoff": 0.0}

    @pytest.fixture(scope="class")
    def fault_free(self, cluster_dataset):
        text, root = cluster_dataset
        with serving_cluster(text, root, self.NODES) as url, repro.connect(
            url, descriptor=text, **self.OPTIONS
        ) as db:
            return db.query(SQL)

    @pytest.mark.parametrize("mode", ["retried", "raises", "degraded"])
    @pytest.mark.parametrize("fault", ["disk", "reset"])
    def test_never_a_short_table(
        self, cluster_dataset, fault_free, frames_written, fault, mode
    ):
        from repro.faults import FaultInjector, parse_rule

        text, root = cluster_dataset
        if fault == "disk":
            injector = FaultInjector(
                [parse_rule("fail-after-chunks:osu1:*:after=4,times=1")],
                seed=7,
            )
        else:
            injector = _reset_on_second_frame()
        options = dict(
            self.OPTIONS,
            retries=2 if mode == "retried" else 0,
            allow_partial=mode == "degraded",
        )
        with serving_cluster(
            text, root, self.NODES, {"osu1": injector}
        ) as url, repro.connect(url, descriptor=text, **options) as db:
            if mode == "raises":
                with pytest.raises(NodeFailureError, match="osu1"):
                    db.submit(SQL)
                result = None
            else:
                result = db.submit(SQL)
        kinds = frames_written["osu1"]
        # The failing attempt had sent BATCH frames before it failed.
        if fault == "disk":
            failed_at = kinds.index(framing.ERROR)
            assert kinds[failed_at - 1] == framing.BATCH
        else:
            assert kinds[:2] == [framing.WELCOME, framing.BATCH]
            assert injector.frames >= 2
        if mode == "retried":
            assert not result.degraded
            assert result.table.column_names == fault_free.column_names
            for name in fault_free.column_names:
                assert result.table[name].dtype == fault_free[name].dtype
                np.testing.assert_array_equal(
                    result.table[name], fault_free[name]
                )
        elif mode == "degraded":
            assert result.degraded and result.failed_nodes == ["osu1"]
            # Each node holds a third of the rows; none of osu1's count.
            assert result.table.num_rows == fault_free.num_rows * 2 // 3


TWO_NODES = IparsConfig(num_rels=2, num_times=8, cells_per_node=24, num_nodes=2)

#: Per query and node of a 2-node reply with ``batch_rows=50``: (rows,
#: BATCH frames, BATCH payload bytes = ``IOStats.bytes_sent`` = the rpc
#: span's ``response_bytes``), as the nodes sent them when they
#: assembled the whole table first and sliced it.
PINNED_REPLY = {
    # A decided window: one block per 24-row AFC, frames span blocks.
    "SELECT REL, TIME, X, SOIL FROM IparsData WHERE TIME > 1 AND TIME <= 6": {
        "osu0": (240, 5, 4464), "osu1": (240, 5, 4464),
    },
    # A kernel-filtered window: fused blocks, cut inside a block.
    "SELECT REL, TIME, X, SOIL FROM IparsData "
    "WHERE TIME > 1 AND TIME <= 6 AND SOIL > 0.3": {
        "osu0": (161, 4, 3134), "osu1": (170, 4, 3260),
    },
}


@pytest.fixture(scope="module")
def two_nodes(tmp_path_factory):
    root = tmp_path_factory.mktemp("net_two_nodes")
    text, _ = ipars.generate(TWO_NODES, "L0", local_mount(str(root)))
    return text, str(root)


def _raw_reply(address, plan, afcs, options):
    """One EXECUTE on a raw socket: its BATCH payloads, then DONE."""
    with socket.create_connection(address, timeout=10) as sock:
        kind, _ = _raw_request(
            sock, framing.HELLO,
            b'{"protocol": %d}' % framing.PROTOCOL_VERSION,
        )
        assert kind == framing.WELCOME
        request = wire.encode_execute(plan, len(afcs), options)
        framing.write_frame(sock, framing.EXECUTE, json.dumps(request).encode())
        batches = []
        kind, payload = framing.read_frame(sock)
        while kind == framing.BATCH:
            batches.append(payload)
            kind, payload = framing.read_frame(sock)
    assert kind == framing.DONE
    return batches, framing.decode_json(payload)


def reply_shapes(text, root, sql):
    """Per node: the rows of each BATCH of its raw reply to ``sql``, its
    DONE, and the rpc span tags and ``bytes_sent`` of the same query
    through the coordinator, all with ``batch_rows=50``."""
    from repro.core.afc import group_by_home_node
    from repro.obs import Tracer

    plan = GeneratedDataset(text).plan(sql)
    shares = group_by_home_node(plan.afcs)
    options = ExecOptions(batch_rows=50)
    shapes = {}
    with contextlib.ExitStack() as stack:
        servers = {
            node: stack.enter_context(serving(node, root, GeneratedDataset(text)))
            for node in ("osu0", "osu1")
        }
        for node, server in servers.items():
            batches, done = _raw_reply(server.address, plan, shares[node], options)
            shapes[node] = {
                "frame_rows": [wire.decode_table(b).num_rows for b in batches],
                "payload_bytes": sum(len(b) for b in batches),
                "done": done,
            }
        tracer = Tracer("framed")
        url = "tcp://" + ",".join(
            "{}:{}".format(*s.address) for s in servers.values()
        )
        with repro.connect(url, descriptor=text, batch_rows=50) as db:
            result = db.submit(sql, db.options.replace(trace=tracer))
    for span in tracer.spans:
        if span.name == "rpc":
            shapes[span.tags["node"]]["rpc"] = (
                span.tags["response_bytes"], span.tags["batches"]
            )
    for node in shapes:
        shapes[node]["bytes_sent"] = result.per_node_stats[node].bytes_sent
    return shapes, result.table


class TestReplyFraming:
    @pytest.mark.parametrize(
        "sql", sorted(PINNED_REPLY), ids=["decided", "filtered"]
    )
    def test_two_node_reply_frames_and_counts(self, two_nodes, sql):
        text, root = two_nodes
        shapes, table = reply_shapes(text, root, sql)
        for node, shape in shapes.items():
            rows = shape["frame_rows"]
            # BATCH boundaries at exact multiples of batch_rows.
            assert len(rows) > 1
            assert rows[:-1] == [50] * (len(rows) - 1) and 0 < rows[-1] <= 50
            done = shape["done"]
            assert done["batches"] == len(rows) and done["rows"] == sum(rows)
            sent = done["stats"]["bytes_sent"]
            assert sent == shape["payload_bytes"] == shape["bytes_sent"]
            assert shape["rpc"] == (sent, len(rows))
            assert (done["rows"], done["batches"], sent) == PINNED_REPLY[sql][node]
        with repro.connect(f"local://{root}", descriptor=text) as ref:
            assert_bit_identical(table, ref.query(sql))

    @pytest.fixture(scope="class")
    def wide_node(self, tmp_path_factory):
        """One node of 10 240 rows: 320 AFCs under ``chunk_row_cap=32``."""
        root = tmp_path_factory.mktemp("net_wide_node")
        config = IparsConfig(
            num_rels=2, num_times=20, cells_per_node=256, num_nodes=1
        )
        text, _ = ipars.generate(config, "L0", local_mount(str(root)))
        with repro.connect(f"local://{root}", descriptor=text) as ref:
            expected = ref.query(self.WIDE_SQL)
        return text, str(root), expected

    WIDE_SQL = "SELECT REL, TIME, X, SOIL FROM IparsData"

    def test_a_frame_of_more_pieces_than_one_sendmsg_carries(
        self, wide_node, monkeypatch
    ):
        text, root, expected = wide_node
        pieces = []
        honest = framing.write_frame

        def recording(sock, kind, *buffers):
            if kind == framing.BATCH:
                pieces.append(len(buffers))
            return honest(sock, kind, *buffers)

        monkeypatch.setattr(framing, "write_frame", recording)
        with serving("osu0", root, GeneratedDataset(text)) as server:
            url = "tcp://{}:{}".format(*server.address)
            with repro.connect(url, descriptor=text) as db:
                db.service.dataset.chunk_row_cap = 32
                result = db.submit(self.WIDE_SQL)
        assert result.afc_count == 320
        # One frame: a header and one piece per column per AFC block.
        assert pieces == [1 + 4 * 320] and pieces[0] > framing.IOV_MAX
        assert_bit_identical(result.table, expected)

    def test_a_tiny_send_buffer_forces_partial_sends(
        self, wide_node, monkeypatch
    ):
        text, root, expected = wide_node
        partial = []

        class Counted:
            """The server's connection, counting partial ``sendmsg``s."""

            def __init__(self, conn):
                self._conn = conn

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._conn.close()

            def __getattr__(self, name):
                return getattr(self._conn, name)

            def sendmsg(self, buffers):
                sent = self._conn.sendmsg(buffers)
                if sent < sum(len(b) for b in buffers):
                    partial.append(sent)
                return sent

        honest = NodeServer._serve_connection

        def tiny_buffer(self, conn):
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            # With a timeout the socket is non-blocking underneath, so a
            # send returns as soon as the small buffer is full.
            conn.settimeout(30)
            honest(self, Counted(conn))

        monkeypatch.setattr(NodeServer, "_serve_connection", tiny_buffer)
        with serving("osu0", root, GeneratedDataset(text)) as server:
            url = "tcp://{}:{}".format(*server.address)
            with repro.connect(url, descriptor=text) as db:
                result = db.submit(self.WIDE_SQL)
        assert partial
        assert_bit_identical(result.table, expected)


class TestNumpyOptionValues:
    """An option value the constructor accepts answers on every
    transport: an integer field holding a NumPy scalar crosses the wire
    as the plain JSON number it equals."""

    SQL = "SELECT REL, TIME, X, SOIL FROM IparsData WHERE TIME > 1 AND TIME <= 6"

    def test_numpy_batch_rows_over_tcp_is_local_batch_for_batch(
        self, two_nodes, tmp_path
    ):
        from repro.obs import Tracer, read_chrome_trace, write_chrome_trace

        text, root = two_nodes
        options = ExecOptions(batch_rows=np.int64(7), priority=np.int64(3))
        with repro.connect(f"local://{root}", descriptor=text) as ref:
            want = ref.query(self.SQL, options)
            want_batches = list(ref.query_iter(self.SQL, options))
        tracer = Tracer("numpy-options")
        with serving_cluster(text, root, ["osu0", "osu1"]) as url:
            with repro.connect(url, descriptor=text) as db:
                got = db.query(self.SQL, options.replace(trace=tracer))
                got_batches = list(db.query_iter(self.SQL, options))
        assert_bit_identical(got, want)
        sizes = [batch.num_rows for batch in got_batches]
        assert sizes == [batch.num_rows for batch in want_batches]
        assert len(sizes) > 2 and set(sizes[:-1]) == {7}
        for remote, local in zip(got_batches, want_batches):
            assert_bit_identical(remote, local)
        # The traced query exports as JSON, its NumPy-valued tags too.
        write_chrome_trace(tracer, tmp_path / "trace.json")
        events = read_chrome_trace(tmp_path / "trace.json")["traceEvents"]
        assert len([e for e in events if e["name"] == "rpc"]) == 2
        (sched,) = [e for e in events if e["name"] == "sched"]
        assert type(sched["args"]["priority"]) is int
