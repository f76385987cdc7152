"""Cross-implementation oracle: virtualizer vs row store on random queries.

The strongest end-to-end property in the suite: hypothesis generates
arbitrary WHERE clauses over the paper-example dataset, and the
flat-file virtualization (generated code path) must return exactly the
same row multiset as the loaded relational row store — two storage
engines, two planners, one answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import MiniRowStore
from repro.core import ExecOptions, Virtualizer

ATTR_DOMAINS = {
    "REL": (0, 3),
    "TIME": (1, 20),
    "X": (1, 40),
    "SOIL": (0, 1),
    "SGAS": (0, 1),
}


@st.composite
def where_clauses(draw, depth=0):
    if depth >= 2 or draw(st.integers(0, 2)) == 0:
        attr = draw(st.sampled_from(sorted(ATTR_DOMAINS)))
        lo, hi = ATTR_DOMAINS[attr]
        kind = draw(st.integers(0, 2))
        if kind == 0:
            op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
            if attr in ("SOIL", "SGAS"):
                value = round(draw(st.floats(lo, hi)), 3)
            else:
                value = draw(st.integers(lo, hi))
            return f"{attr} {op} {value}"
        if kind == 1:
            a = draw(st.integers(lo, hi))
            b = a + draw(st.integers(0, max(1, (hi - lo) // 2)))
            return f"{attr} BETWEEN {a} AND {b}"
        values = draw(
            st.lists(st.integers(lo, hi), min_size=1, max_size=4)
        )
        return f"{attr} IN ({', '.join(map(str, values))})"
    op = draw(st.sampled_from(["AND", "OR"]))
    left = draw(where_clauses(depth + 1))
    right = draw(where_clauses(depth + 1))
    clause = f"({left}) {op} ({right})"
    if draw(st.booleans()):
        clause = f"NOT ({clause})"
    return clause


@pytest.fixture(scope="module")
def engines(paper_dataset, tmp_path_factory):
    text, mount = paper_dataset
    v = Virtualizer(text, mount)
    store = MiniRowStore(str(tmp_path_factory.mktemp("xstore")))
    store.create_table(
        "IparsData", v.query("SELECT * FROM IparsData"), indexes=["TIME", "SOIL"]
    )
    yield v, store
    v.close()


@given(where_clauses())
@settings(max_examples=60, deadline=None)
def test_rowstore_and_virtualizer_agree(engines, where):
    v, store = engines
    sql = f"SELECT REL, TIME, SOIL FROM IparsData WHERE {where}"
    a = v.query(sql).canonical()
    b = store.query(sql).canonical()
    assert a.num_rows == b.num_rows, sql
    for name in a.column_names:
        np.testing.assert_allclose(
            a[name].astype(np.float64),
            b[name].astype(np.float64),
            rtol=1e-6,
            err_msg=sql,
        )


@given(where_clauses())
@settings(max_examples=40, deadline=None)
def test_streaming_agrees_with_batch(engines, where):
    from repro.core.table import concat_tables

    v, _ = engines
    sql = f"SELECT TIME, SGAS FROM IparsData WHERE {where}"
    whole = v.query(sql).canonical()
    streamed = concat_tables(list(v.query_iter(sql, options=ExecOptions(batch_rows=64))))
    assert streamed.num_rows == whole.num_rows
    if whole.num_rows:
        c = streamed.canonical()
        for name in whole.column_names:
            np.testing.assert_array_equal(c[name], whole[name])


# ---------------------------------------------------------------------------
# One pipeline, one row loop: every front door under every ablation knob
# ---------------------------------------------------------------------------
#
# The four ways in — ``Virtualizer.query``, concatenated
# ``Virtualizer.query_iter``, ``QueryService.submit`` and
# ``repro.connect("local://…").query`` — run the same staged pipeline
# and the same AFC -> block driver, so for every seeded draw they must
# return the same multiset of rows under every combination of the knobs
# that swap a stage or an evaluator, on generated and interpreted
# datasets, from cold caches and from warm ones.

import itertools
import random

import repro
from repro.core import CompiledDataset, GeneratedDataset, IOStats, local_mount
from repro.core.table import concat_tables
from repro.datasets import IparsConfig, ipars
from repro.index import build_summaries
from repro.obs import Tracer
from repro.storm import QueryService, VirtualCluster

MATRIX_CONFIG = IparsConfig(
    num_rels=2, num_times=6, cells_per_node=24, num_nodes=2
)
MATRIX_DRAWS = 2
#: Float SUM/AVG are left out on purpose: the service folds per node and
#: then across nodes, the virtualizer across all AFCs in plan order, so
#: their float associations differ by design.  Integer sums are exact.
ROW_SHAPES = ("row", "star", "empty", "udf")


def draw_queries(seed):
    rng = random.Random(seed)
    lo = rng.randint(1, 3)
    hi = lo + rng.randint(1, 3)
    soil = round(rng.uniform(0.2, 0.7), 3)
    return {
        "row": f"SELECT X, SOIL FROM IparsData WHERE TIME BETWEEN {lo} "
               f"AND {hi} AND SOIL > {soil}",
        "star": f"SELECT * FROM IparsData WHERE TIME = {hi} "
                f"AND REL = {rng.randint(0, 1)}",
        "empty": f"SELECT X, SGAS FROM IparsData WHERE TIME <= {hi} "
                 "AND SOIL < -1",
        "udf": "SELECT TIME, OILVX FROM IparsData WHERE "
               f"SPEED(OILVX, OILVY, OILVZ) < {rng.randint(5, 40)} "
               f"AND TIME >= {lo}",
        "group": "SELECT REL, COUNT(*), MIN(SOIL), MAX(SGAS), SUM(TIME), "
                 f"AVG(TIME) FROM IparsData WHERE TIME BETWEEN {lo} AND {hi} "
                 f"AND SGAS > {soil} GROUP BY REL",
        "count": f"SELECT COUNT(*) FROM IparsData WHERE SOIL > {soil}",
        "summary": "SELECT MIN(SOIL), MAX(SOIL), COUNT(*) FROM IparsData",
    }


class FrontDoors:
    """Every way into the system over one on-disk dataset; each call
    returns ``(table, the IOStats that run charged)``."""

    def __init__(self, root):
        mount = local_mount(root)
        text, _ = ipars.generate(MATRIX_CONFIG, "L0", mount)
        summaries = build_summaries(
            CompiledDataset(text), mount, attrs=["SOIL", "SGAS"]
        )
        cluster = VirtualCluster(root, ["osu0", "osu1"])
        self.virtualizers = {
            "generated": Virtualizer(text, mount, summaries=summaries),
            "interpreted": Virtualizer(
                text, mount, use_codegen=False, summaries=summaries
            ),
        }
        self.services = {
            "generated": QueryService(
                GeneratedDataset(text, summaries), cluster
            ),
            "interpreted": QueryService(
                CompiledDataset(text, summaries), cluster
            ),
        }
        self.client = repro.connect(
            f"local://{root}", descriptor=text, summaries=summaries
        )

    def close(self):
        for door in (*self.virtualizers.values(), *self.services.values()):
            door.close()
        self.client.close()

    def drop_caches(self):
        for door in (*self.virtualizers.values(), *self.services.values()):
            door.drop_caches()
        self.client.drop_caches()

    def calls(self):
        """(label, callable(sql, opts)) per front door; ``query`` comes
        before ``query_iter``, which never fills the result cache."""
        for kind, v in self.virtualizers.items():
            yield f"Virtualizer.query[{kind}]", self._query(v)
            yield f"Virtualizer.query_iter[{kind}]", self._query_iter(v)
        for kind, service in self.services.items():
            yield f"QueryService.submit[{kind}]", self._submit(service)
        yield "connect(local://).query", self._submit(self.client)

    @staticmethod
    def _query(v):
        def call(sql, opts):
            stats = IOStats()
            return v.query(sql, stats, opts), stats
        return call

    @staticmethod
    def _query_iter(v):
        def call(sql, opts):
            stats = IOStats()
            batches = list(
                v.query_iter(sql, stats=stats, options=opts.replace(batch_rows=97))
            )
            return (concat_tables(batches) if batches else None), stats
        return call

    @staticmethod
    def _submit(door):
        def call(sql, opts):
            result = door.submit(sql, opts)
            assert not result.degraded
            return result.table, result.total_stats
        return call


@pytest.fixture(scope="module")
def doors(tmp_path_factory):
    doors = FrontDoors(str(tmp_path_factory.mktemp("front_doors")))
    yield doors
    doors.close()


def assert_same_rows(got, expected, context):
    if got is None:  # a stream that yielded no batch
        assert expected.num_rows == 0, context
        return
    assert got.column_names == expected.column_names, context
    assert got.num_rows == expected.num_rows, context
    got, expected = got.canonical(), expected.canonical()
    for name in expected.column_names:
        np.testing.assert_array_equal(
            got[name], expected[name], err_msg=f"{context}: {name}"
        )


@pytest.mark.parametrize("draw", range(MATRIX_DRAWS))
def test_every_front_door_under_every_knob(doors, draw):
    queries = draw_queries(20260927 + draw)
    oracle = doors.virtualizers["interpreted"]
    expected = {
        shape: oracle.query(sql, options=ExecOptions(vectorize="off"))
        for shape, sql in queries.items()
    }
    assert expected["row"].num_rows and expected["udf"].num_rows
    assert expected["empty"].num_rows == 0
    assert expected["group"].num_rows == 2

    for vectorize, cache_mode, pushdown, workers, gap in itertools.product(
        ("on", "off"), ("off", "exact", "subsume"), (True, False), (1, 3),
        (0, 64 * 1024),
    ):
        opts = ExecOptions(
            remote=False,
            coalesce_gap_bytes=gap,
            vectorize=vectorize,
            cache_mode=cache_mode,
            agg_pushdown=pushdown,
            intra_node_workers=workers,
        )
        doors.drop_caches()
        for warm in (False, True) if cache_mode != "off" else (False,):
            for (shape, sql), (label, call) in itertools.product(
                queries.items(), list(doors.calls())
            ):
                context = f"{label} {shape} warm={warm} {opts!r}"
                table, stats = call(sql, opts)
                assert_same_rows(table, expected[shape], context)
                if shape in ROW_SHAPES:
                    assert stats.rows_output == expected[shape].num_rows, context
                if vectorize == "off":
                    assert stats.rows_vectorized == 0, context
                if warm:
                    assert stats.bytes_read == stats.read_calls == 0, context
                    assert stats.result_cache_hits == 1, context


@pytest.mark.parametrize("kind", ["generated", "interpreted"])
@pytest.mark.parametrize("pushdown", [True, False])
def test_front_doors_read_the_same_bytes_from_cold(doors, kind, pushdown):
    """Serial extraction from cold caches: the two front doors plan the
    same AFCs and read the same chunks once each.  (Intra-node workers
    may race two misses of the COORDS chunk several AFCs share, so the
    read counters are only pinned for the serial driver.)"""
    v, service = doors.virtualizers[kind], doors.services[kind]
    opts = ExecOptions(remote=False, agg_pushdown=pushdown)
    for shape, sql in draw_queries(7).items():
        doors.drop_caches()
        mine = IOStats()
        v.query(sql, mine, opts)
        theirs = service.submit(sql, opts).total_stats
        for counter in ("bytes_read", "read_calls", "afcs_processed",
                        "rows_extracted", "rows_output"):
            assert getattr(mine, counter) == getattr(theirs, counter), (
                shape, counter,
            )
        assert (mine.bytes_read == 0) == (shape == "summary" and pushdown)


@pytest.mark.parametrize("vectorize", ["on", "off"])
def test_both_front_doors_trace_the_same_stages(doors, vectorize):
    sql = draw_queries(11)["row"]
    for door in (doors.virtualizers["generated"], doors.services["generated"]):
        door.drop_caches()
        tracer = Tracer()
        opts = ExecOptions(remote=False, trace=tracer, vectorize=vectorize)
        if isinstance(door, Virtualizer):
            door.query(sql, options=opts)
        else:
            door.submit(sql, opts)
        names = {span.name for span in tracer.spans}
        assert {"query", "plan", "index", "extract", "filter"} <= names
        filters = tracer.find("filter")
        assert {s.tags["vectorized"] for s in filters} == {vectorize == "on"}
