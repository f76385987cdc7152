"""A multi-node result is built by one merge, with at most one copy.

Each node hands the coordinator its partial as blocks
(``Transport.node_blocks``): a local node its finished blocks, views of
its segment cache; a tcp node its reply — landed, when the plan fixes
every node's rows and ``node_timeout`` is unset, at the node's planned
offset in one result buffer per column.  ``QueryService._extract_nodes``
then makes the table: the buffer itself when every reply filled its
region (``tiled``), else one ``assemble_table`` over every node's blocks
in node order.

Checks, the matrix drawn from ``tests/matrix.py``:

* the differential matrix: over transport, 1-3 nodes, decided and
  residual WHERE, aggregates and empty plans, a node lost under
  ``allow_partial`` or retried after a reply failing midway, intra-node
  workers, result-cache modes and big-endian columns, each result is
  the table the merge before it made — each node's table
  (``execute_node``) joined by ``concat_tables`` — dtypes included, and
  per-node ``IOStats`` are equal field for field;
* an attempt abandoned under ``node_timeout`` never writes into the
  result, locally or over tcp;
* a tiled result owns writable memory no segment-cache entry shares,
  and concurrent queries never share a buffer;
* the ``merge`` span and counter, and the layer calls
  ``benchmarks/ledger/layers.py`` makes, unchanged.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    CompiledDataset, ExecOptions, GeneratedDataset, IOStats, local_mount,
)
from repro.core.afc import group_by_home_node
from repro.core.extractor import empty_result
from repro.core.kernels import assemble_table
from repro.core.pipeline import QueryPipeline
from repro.core.table import concat_tables
from repro.datasets.writers import hash01, write_dataset
from repro.errors import ExtractionError
from repro.faults import FaultInjector, parse_rule
from repro.obs import Tracer
from repro.obs.tracer import NULL_TRACER
from repro.storm import DataSourceService, QueryService, VirtualCluster
from repro.storm.filtering import FilteringService
from repro.storm.transport import LocalTransport, Transport
from tests.conftest import cached_buffers
from tests.matrix import merge_axes
from repro.net.client import TcpTransport
from tests.test_net_cluster import fake_node, serving
from tests.test_net_wire import _columns, batch_payload

# ---------------------------------------------------------------------------
# Datasets: 1-3 nodes, native or big-endian stored columns
# ---------------------------------------------------------------------------

#: Grid cells per node, time steps, realizations.
CELLS, TIMES, RELS = 6, 4, 2


def merge_text(nodes: int, big_endian: bool) -> str:
    """Coordinates in one single-field strip per node, SOIL and CODE in
    one record strip per node and realization; ``be`` types when
    ``big_endian``."""
    be = "be " if big_endian else ""
    dirs = "\n".join(f"DIR[{i}] = osu{i}/m" for i in range(nodes))
    grid = f"LOOP GRID ($DIRID*{CELLS}+1):(($DIRID+1)*{CELLS}):1"
    return f"""
[M]
REL = short int
TIME = int
X = {be}float
SOIL = {be}double
CODE = {be}int

[MData]
DatasetDescription = M
{dirs}

DATASET "MData" {{
  DATATYPE {{ M }}
  DATAINDEX {{ REL TIME }}
  DATA {{ DATASET coords DATASET vals }}
  DATASET "coords" {{
    DATASPACE {{ {grid} {{ X }} }}
    DATA {{ DIR[$DIRID]/COORDS DIRID = 0:{nodes - 1}:1 }}
  }}
  DATASET "vals" {{
    DATASPACE {{ LOOP TIME 1:{TIMES}:1 {{ {grid} {{ SOIL CODE }} }} }}
    DATA {{ DIR[$DIRID]/DATA$REL REL = 0:{RELS - 1}:1 DIRID = 0:{nodes - 1}:1 }}
  }}
}}
"""


def merge_values(attr, env, coords):
    def var(name):
        return coords[name] if name in coords else np.int64(env[name])

    grid = var("GRID")
    if attr == "X":
        return grid * 1.5
    key = (np.asarray(var("REL"), dtype=np.int64) * 10 + var("TIME")) * 100 + grid
    if attr == "SOIL":
        return hash01(key, 1)
    return key % 97


class Clusters:
    """Datasets by (nodes, big-endian), written on first use, each with
    one in-process node server per node."""

    def __init__(self, base, stack: contextlib.ExitStack):
        self.base = base
        self.stack = stack
        self._built = {}

    def get(self, nodes: int, big_endian: bool):
        key = (nodes, big_endian)
        if key not in self._built:
            text = merge_text(nodes, big_endian)
            root = str(self.base / f"n{nodes}{'be' if big_endian else 'le'}")
            write_dataset(CompiledDataset(text), local_mount(root), merge_values)
            servers = {
                f"osu{i}": self.stack.enter_context(
                    serving(f"osu{i}", root, GeneratedDataset(text))
                )
                for i in range(nodes)
            }
            url = "tcp://" + ",".join(
                "{}:{}".format(*server.address) for server in servers.values()
            )
            self._built[key] = (text, root, servers, url)
        return self._built[key]


@pytest.fixture(scope="module")
def clusters(tmp_path_factory):
    with contextlib.ExitStack() as stack:
        yield Clusters(tmp_path_factory.mktemp("merge"), stack)


def connect(clusters, transport, nodes, big_endian=False, **kwargs):
    text, root, _, url = clusters.get(nodes, big_endian)
    target = f"local://{root}" if transport == "local" else url
    return repro.connect(target, descriptor=text, **kwargs)


# ---------------------------------------------------------------------------
# The merge before this one: each node's table, joined by concat_tables
# ---------------------------------------------------------------------------


class NodeTables:
    """The former merge as a pipeline executor: every node's
    ``execute_node`` table (``lost`` nodes left out, as failed; a
    failing one retried as ``options`` allow), joined by
    ``concat_tables``; ``tables`` keeps the last execution's."""

    def __init__(self, service, options, lost=()):
        self.service = service
        self.options = options
        self.lost = set(lost)
        self.tables = {}

    def _table(self, node, plan, afcs, stats):
        for attempt in range(self.options.retries + 1):
            try:
                return self.service.transport.execute_node(
                    node, plan, afcs, stats, options=self.options
                )
            except (ExtractionError, OSError):
                if attempt == self.options.retries:
                    raise

    def __call__(self, plan):
        by_node = group_by_home_node(plan.afcs)
        stats = {node: IOStats() for node in by_node}
        self.tables = {
            node: self._table(node, plan, afcs, stats[node])
            for node, afcs in by_node.items()
            if node not in self.lost
        }
        tables = list(self.tables.values())
        table = concat_tables(tables) if tables else empty_result(plan)
        return table, stats, [node for node in by_node if node in self.lost]


def assert_same_table(got, want):
    """Equal columns, values and dtypes."""
    assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    for name in want.column_names:
        assert got[name].dtype == want[name].dtype, name
        np.testing.assert_array_equal(got[name], want[name])


def timed(stats, workers):
    """``stats`` less what depends on thread timing when several
    workers share a node's reads: which of them finds a coalesced
    sibling already cached (a hit) and the order the simulated head
    moves in (seeks)."""
    if workers == 1:
        return stats
    return dataclasses.replace(stats, cache_hits=0, seeks=0)


class ResetOnce(FaultInjector):
    """``conn-reset`` of ``node``'s reply on its second frame, once."""

    def __init__(self, node):
        super().__init__([parse_rule(f"conn-reset:{node}:*:times=1")], seed=7)
        self.frames = 0

    def on_response(self, node):
        self.frames += 1
        if self.frames == 2:
            super().on_response(node)


def draw_sql(data, plan_kind) -> str:
    lo = data.draw(st.integers(1, TIMES), label="lo")
    hi = data.draw(st.integers(lo, TIMES), label="hi")
    where = f"TIME >= {lo} AND TIME <= {hi}"
    if data.draw(st.booleans(), label="one REL"):
        where += f" AND REL = {data.draw(st.integers(0, RELS - 1))}"
    if plan_kind in ("residual", "aggregate") and data.draw(st.booleans()):
        where += " AND " + data.draw(st.sampled_from((
            "X > 0", "X > 9", "X > 18", "X > 30", "SOIL < 0.5",
            "SOIL < 0.0", "CODE >= 50",
        )))
    if plan_kind == "aggregate":
        return (
            "SELECT REL, COUNT(*), MIN(SOIL), MAX(X), SUM(CODE) FROM MData "
            f"WHERE {where} GROUP BY REL"
        )
    columns = ", ".join(data.draw(st.lists(
        st.sampled_from(("REL", "TIME", "X", "SOIL", "CODE")),
        min_size=1, max_size=4, unique=True,
    ), label="columns"))
    if plan_kind == "empty":
        where = f"TIME > {TIMES + 3}"
    return f"SELECT {columns} FROM MData WHERE {where}"


@contextlib.contextmanager
def faulty_connection(clusters, axes):
    """A connection with ``axes``'s fault armed, afresh: a node down, or
    one whose first reply fails midway — over tcp a reset after its
    first frame, locally a disk failing after two chunks."""
    faulty = f"osu{axes.faulty}"
    injector = None
    if axes.fault == "lost":
        injector = FaultInjector([parse_rule(f"node-down:{faulty}")], seed=7)
    elif axes.fault == "retried" and axes.transport == "local":
        injector = FaultInjector(
            [parse_rule(f"fail-after-chunks:{faulty}:*:after=2,times=1")],
            seed=7,
        )
    _, _, servers, _ = clusters.get(axes.nodes, axes.big_endian)
    with connect(
        clusters, axes.transport, axes.nodes, axes.big_endian,
        fault_injector=injector,
    ) as db:
        if axes.fault == "retried" and axes.transport == "tcp":
            servers[faulty].fault_injector = ResetOnce(faulty)
        try:
            db.service.drop_caches()
            yield db
        finally:
            servers[faulty].fault_injector = None


@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_one_merge_makes_the_table_node_tables_made(clusters, data):
    axes = data.draw(merge_axes())
    sql = draw_sql(data, axes.plan)
    options = ExecOptions(
        remote=False, intra_node_workers=axes.workers,
        cache_mode=axes.cache_mode, batch_rows=axes.batch_rows,
        retry_backoff=0.0, allow_partial=axes.fault == "lost",
        retries=2 if axes.fault == "retried" else 0,
    )
    # A retried node's retry meets the chunks its failed attempt
    # cached, which can change how many blocks keep rows: the oracle
    # fails and retries the same way.
    passes = 2 if axes.fault == "none" else 1
    tracer = Tracer("matrix")
    with faulty_connection(clusters, axes) as db:
        got = [
            db.service.submit(sql, options.replace(trace=tracer))
            for _ in range(passes)
        ]
    for span in tracer.spans:
        if span.name == "merge":
            event(f"{axes.transport} merge tiled={span.tags['tiled']}")
    lost = got[0].failed_nodes
    assert bool(lost) <= (axes.fault == "lost")
    with faulty_connection(clusters, axes) as db:
        service = db.service
        pipeline = QueryPipeline(service.dataset, service.filtering)
        execute = NodeTables(service, options, lost)
        for result in got:
            want = pipeline.run(
                pipeline.admit(sql, options, NULL_TRACER), options,
                NULL_TRACER, execute,
            )
            assert_same_table(result.table, want.table)
            assert result.failed_nodes == want.failed_nodes
            clean = set(want.per_node_stats) - {f"osu{axes.faulty}"}
            assert set(result.per_node_stats) >= clean
            for node in clean:
                assert timed(result.per_node_stats[node], axes.workers) == (
                    timed(want.per_node_stats[node], axes.workers)
                ), node


# ---------------------------------------------------------------------------
# Attempts abandoned under node_timeout
# ---------------------------------------------------------------------------

SCAN = "SELECT REL, TIME, X, SOIL, CODE FROM MData WHERE TIME >= 2"
RESIDUAL = SCAN + " AND SOIL < 0.5"


class LateTransport(LocalTransport):
    """Lands replies like a remote transport.  Once ``armed``, the next
    attempt at ``slow`` hangs until ``release`` is set, then writes its
    reply where it was told to: into ``landing`` if offered one, else
    into memory of its own — after the query has returned."""

    lands_replies = True

    def __init__(self, cluster, slow):
        super().__init__(cluster, FilteringService())
        self.slow = slow
        self.armed = False
        self.release = threading.Event()
        self.finished = threading.Event()
        self.offered = []

    def node_blocks(self, node, plan, afcs, stats, tracer=NULL_TRACER,
                    options=None, landing=None):
        self.offered.append(landing is not None)
        blocks = super().node_blocks(node, plan, afcs, stats, tracer, options)
        table = assemble_table(plan.output, plan.dtypes, blocks)
        target = landing if landing is not None else {
            name: np.empty_like(table[name]) for name in table.column_names
        }
        if node == self.slow and self.armed:
            self.armed = False
            self.release.wait(10)
            for column in target.values():
                column[:] = 0  # bytes of a reply nobody waits for
            self.finished.set()
        else:
            for name, column in target.items():
                column[:] = table[name]
        return [(target, table.num_rows)]


def test_an_abandoned_attempt_never_writes_into_the_result(clusters):
    text, root, _, _ = clusters.get(2, False)
    transport = LateTransport(VirtualCluster(root, ["osu0", "osu1"]), "osu1")
    with QueryService(GeneratedDataset(text), transport=transport) as service:
        reference = service.submit(SCAN, ExecOptions(remote=False)).table
        assert transport.offered == [True, True]
        transport.offered.clear()
        transport.armed = True
        result = service.submit(
            SCAN, ExecOptions(remote=False, node_timeout=0.3, retries=1)
        )
        snapshot = {n: result.table[n].copy() for n in result.table.column_names}
        transport.release.set()
        assert transport.finished.wait(10)
    assert transport.offered == [False, False, False]
    assert_same_table(result.table, reference)
    for name, column in snapshot.items():
        np.testing.assert_array_equal(result.table[name], column)


def test_a_node_that_hangs_then_answers_over_tcp(clusters, monkeypatch):
    _, _, servers, _ = clusters.get(2, False)
    with connect(clusters, "tcp", 2) as db:
        reference = db.service.submit(SCAN, ExecOptions(remote=False)).table
    server = servers["osu1"]
    honest, hung = server._reply, threading.Event()

    def late(conn, plan, options, stats):
        if not hung.is_set():
            hung.set()
            time.sleep(0.6)
        return honest(conn, plan, options, stats)

    monkeypatch.setattr(server, "_reply", late)
    with connect(clusters, "tcp", 2) as db:
        result = db.service.submit(
            SCAN, ExecOptions(remote=False, node_timeout=0.3, retries=1)
        )
        snapshot = {n: result.table[n].copy() for n in result.table.column_names}
        deadline = time.monotonic() + 10
        while any(t.name.startswith("extract-") for t in threading.enumerate()):
            assert time.monotonic() < deadline
            time.sleep(0.02)
    assert hung.is_set()
    assert_same_table(result.table, reference)
    for name, column in snapshot.items():
        np.testing.assert_array_equal(result.table[name], column)


# ---------------------------------------------------------------------------
# Who owns a merged table
# ---------------------------------------------------------------------------


def merge_span(tracer):
    (span,) = [s for s in tracer.spans if s.name == "merge"]
    return span.tags


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_a_result_owns_writable_memory_no_cache_entry_shares(
    clusters, transport
):
    _, _, servers, _ = clusters.get(3, False)
    tracer = Tracer("own")
    with connect(clusters, transport, 3) as db:
        result = db.service.submit(SCAN, ExecOptions(remote=False, trace=tracer))
        sources = (
            db.service.sources.values() if transport == "local"
            else [server.source for server in servers.values()]
        )
        cached = [b for s in sources for b in cached_buffers(s.extractor)]
    tags = merge_span(tracer)
    assert tags["tiled"] is (transport == "tcp")
    assert tags["copied_bytes"] == (0 if transport == "tcp" else result.table.nbytes)
    assert cached
    for name in result.table.column_names:
        column = result.table[name]
        assert column.flags.writeable and column.flags.owndata
        assert not any(np.shares_memory(column, buffer) for buffer in cached)


def test_concurrent_tiled_queries_never_share_a_buffer(clusters):
    windows = [
        f"SELECT REL, X, SOIL FROM MData WHERE TIME >= {t}" for t in (1, 2, 3)
    ]
    with connect(clusters, "tcp", 3) as db:
        options = ExecOptions(remote=False)
        reference = {sql: db.service.submit(sql, options).table for sql in windows}
        results = {sql: [] for sql in windows}

        def run(sql):
            for _ in range(6):
                results[sql].append(db.service.submit(sql, options).table)

        threads = [threading.Thread(target=run, args=(sql,)) for sql in windows]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    tables = [table for sql in windows for table in results[sql]]
    assert len(tables) == 18
    for sql in windows:
        for table in results[sql]:
            assert_same_table(table, reference[sql])
    for i, a in enumerate(tables):
        for b in tables[i + 1:]:
            assert not np.shares_memory(a["SOIL"], b["SOIL"])


@pytest.mark.parametrize("order", ["=", ">"], ids=["native", "big-endian"])
def test_a_reply_short_of_its_region_is_a_block_of_its_own(clusters, order):
    text = clusters.get(1, False)[0]
    plan = GeneratedDataset(text).plan("SELECT X, SOIL FROM MData WHERE TIME = 3")
    x = np.array([1.5, 2.5], np.dtype("f4").newbyteorder(order))
    soil = np.array([0.25, 0.5], np.dtype("f8").newbyteorder(order))
    batch = batch_payload(
        _columns(2, ("X", x.dtype.str), ("SOIL", soil.dtype.str)),
        x.tobytes() + soil.tobytes(),
    )
    planned = plan.afcs.total_rows
    landing = {"X": np.full(planned, -1, "f4"), "SOIL": np.full(planned, -1.0)}
    with fake_node(batch, len(plan.afcs)) as address, TcpTransport(
        [address]
    ) as transport:
        ((columns, rows),) = transport.node_blocks(
            "osu0", plan, plan.afcs, IOStats(), landing=landing
        )
    assert rows == 2 and columns is not landing
    np.testing.assert_array_equal(columns["X"], x)
    np.testing.assert_array_equal(columns["SOIL"], soil)
    # A native reply lands at the region's start; a big-endian one, in
    # memory of its own, leaves the region as it was.
    landed = order == "="
    assert np.shares_memory(columns["X"], landing["X"]) is landed
    assert columns["SOIL"].dtype == soil.dtype
    assert (landing["X"][2:] == -1).all() and (landing["X"][:2] == -1).all() != landed


@pytest.mark.parametrize("door", ["virtualizer", "local", "tcp"])
@pytest.mark.parametrize(
    "sql",
    [
        # Only REL = 1's AFC keeps rows: interpreted, its block is the
        # lone one; vectorized, it is fused with REL = 0's.
        "SELECT X, SOIL, CODE FROM MData WHERE TIME = 3 AND (REL = 1 OR SOIL > 5)",
        "SELECT REL, MIN(X), MAX(CODE), SUM(SOIL) FROM MData GROUP BY REL",
    ],
    ids=["rows", "aggregate"],
)
def test_a_big_endian_column_is_native_whatever_the_kernel(clusters, door, sql):
    # Every result column is in native byte order, so its dtype follows
    # neither the block count nor the kernel.
    text, root, _, _ = clusters.get(1, True)
    dtypes = {}
    for vectorize in ("on", "off"):
        if door == "virtualizer":
            with repro.Virtualizer(text, local_mount(root)) as v:
                table = v.query(sql, options=ExecOptions(vectorize=vectorize))
        else:
            with connect(
                clusters, door, 1, big_endian=True, vectorize=vectorize
            ) as db:
                table = db.query(sql)
        assert table.num_rows > 1
        dtypes[vectorize] = [table[name].dtype for name in table.column_names]
    assert dtypes["on"] == dtypes["off"]
    assert all(dtype.isnative for dtype in dtypes["on"]), dtypes


# ---------------------------------------------------------------------------
# The merge span
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql, options, tiled",
    [
        (SCAN, {}, True),
        (RESIDUAL, {}, False),  # rows not fixed by the plan
        (SCAN, {"node_timeout": 30.0}, False),  # attempts may be abandoned
    ],
    ids=["decided", "residual", "node_timeout"],
)
def test_the_merge_span_says_whether_the_buffer_was_the_result(
    clusters, sql, options, tiled
):
    tracer = Tracer("merge")
    with connect(clusters, "tcp", 2) as db:
        result = db.service.submit(
            sql, ExecOptions(remote=False, trace=tracer, **options)
        )
    tags = merge_span(tracer)
    assert tags == {
        "nodes": 2, "rows": result.num_rows, "tiled": tiled,
        "copied_bytes": 0 if tiled else result.table.nbytes,
    }
    counter = tracer.metrics.counters["merge.copied_bytes"]
    assert counter.value == tags["copied_bytes"]


def test_a_lone_node_with_rows_is_not_copied_again_over_tcp(clusters):
    # osu0 (X <= 9) keeps no row: osu1's reply is the only block.
    tracer = Tracer("lone")
    with connect(clusters, "tcp", 2) as db:
        result = db.service.submit(
            SCAN + " AND X > 9", ExecOptions(remote=False, trace=tracer)
        )
    assert result.num_rows > 0
    assert merge_span(tracer)["copied_bytes"] == 0


# ---------------------------------------------------------------------------
# The layer calls of benchmarks/ledger/layers.py
# ---------------------------------------------------------------------------


def test_layer_calls_keep_their_signatures():
    def names(function):
        return list(inspect.signature(function).parameters)

    assert names(Transport.execute_node) == [
        "self", "node", "plan", "afcs", "stats", "tracer", "options",
    ]
    assert names(DataSourceService.execute) == [
        "self", "plan", "afcs", "stats", "tracer", "options",
    ]
    assert names(concat_tables) == ["tables"]


@pytest.mark.parametrize("transport", ["local", "tcp"])
@pytest.mark.parametrize("sql", [SCAN, RESIDUAL])
def test_layer_calls_return_the_tables_they_did(clusters, transport, sql):
    options = ExecOptions(remote=False)
    with connect(clusters, transport, 2) as db:
        service = db.service
        plan = service.dataset.plan(sql)
        by_node = group_by_home_node(plan.afcs)
        tables = [
            service.transport.execute_node(
                node, plan, afcs, IOStats(), options=options
            )
            for node, afcs in by_node.items()
        ]
        assert_same_table(concat_tables(tables), service.submit(sql, options).table)
        if transport == "local":
            for (node, afcs), table in zip(by_node.items(), tables):
                source = service.transport.source(node)
                assert_same_table(
                    source.execute(plan, afcs, IOStats(), options=options), table
                )
                blocks = service.transport.node_blocks(
                    node, plan, afcs, IOStats(), options=options
                )
                assert_same_table(
                    assemble_table(plan.output, plan.dtypes, blocks), table
                )
