"""Learned chunk bounds: a node skips the AFCs they rule out, unread.

Each node's extractor learns, from the decoded chunks of its segment
cache, the min and max of every field some query's WHERE constrained,
keyed by the chunk's extent and decoded dtype.  Before a call builds its
reader, ``Extractor.prune`` masks each part of the AFCs it was handed
once by those bounds against the plan's ranges
(``codegen_runtime.summary_mask`` / ``zone_overlaps``); an AFC they
refute is never read, counted, stitched or filtered.

Four layers of checks, drawn from ``tests/matrix.py``:

* soundness of the bound test itself: over adversarial chunk values
  (NaN, +-inf, all-equal chunks, -0.0/+0.0, int64 beyond 2**53 against
  float literals, a float32 value whose neighbours straddle a decimal
  literal, big-endian dtypes) and WHERE trees of AND/OR/NOT, ``!=``,
  ``IN`` and ``BETWEEN`` terms, no chunk the ranges refute holds a row
  the kernel or the interpreted oracle keeps;
* the differential matrix: over IPARS L0 and I-VI, Titan, MRI, a
  cross-node group and an adversarial record layout, under every
  segment-cache size (nothing learned at 0, evictions when tiny),
  coalescing gap, block size and worker count, passes cold, warm, after
  ``drop_caches`` and warm again — learning, traced, with nothing
  learned and under ``vectorize="off"`` — give the same rows, and the
  AFCs a pass reads plus those it pruned are the plan's;
* the conditions: ``drop_caches`` before and during a call, concurrent
  calls and submits with intra-node workers, ``chunk_row_cap`` pieces, aggregates
  (``COUNT(*)`` with every AFC pruned), ``local://`` and ``tcp://``;
* the pieces: lazy per-field learning, tags and metrics only when
  tracing, no promotion by the prune, and single-flight reads.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import repro
from repro.core import CompiledDataset, ExecOptions, GeneratedDataset, local_mount
from repro.core import extractor as extractor_module
from repro.core.afc import group_by_home_node
from repro.core.codegen_runtime import zone_overlaps
from repro.core.extractor import (
    Extractor, _Decoded, _Flights, _Group, _SegmentCache,
)
from repro.core.kernels import BlockPipeline, CompiledPredicate, InterpretedPredicate
from repro.core.stats import IOStats
from repro.datasets import IparsConfig, ipars, titan
from repro.datasets.writers import write_dataset
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sql import parse_where
from repro.sql.functions import DEFAULT_REGISTRY
from repro.sql.ranges import extract_ranges
from repro.sql.typecheck import bind_where
from repro.storm.data_source import DataSourceService
from repro.storm.filtering import FilteringService
from tests.matrix import (
    BLOCK_ROWS, CACHE_BYTES, chunk_columns, chunk_literals, exec_axes,
    where_over, where_terms, where_trees,
)
from tests.test_afc_table import serving_cluster
from tests.test_decoded_segments import assert_bounded, assert_same_tables
from tests.test_run_decode import TITAN, Spec, specs  # noqa: F401

# ---------------------------------------------------------------------------
# The bound test
# ---------------------------------------------------------------------------


def group_of(chunks, dtype, name="V"):
    """Chunks as one decoded group's column, each chunk a member."""
    column = np.concatenate(chunks, dtype=dtype)
    column.flags.writeable = False
    starts = np.cumsum([0] + [len(c) for c in chunks[:-1]]).tolist()
    return _Group(("n", "f"), {name: column}, [None] * len(chunks), starts)


def zone_keep(where_text, chunks, dtype):
    """The ranges of the WHERE bound to ``V`` of ``dtype``, as planning
    derives them, and per chunk whether its bounds meet the range of
    ``V`` — None when ``V`` has none or no bounds."""
    where, _ = bind_where(parse_where(where_text), {"V": np.dtype(dtype)})
    ranges = extract_ranges(where)
    bounds = group_of(chunks, dtype).bounds("V")
    if "V" not in ranges or bounds is None:
        return ranges, None
    return ranges, zone_overlaps(ranges["V"], *bounds)


def refuted_chunks(text, chunks, dtype):
    """How many of ``chunks`` the ranges of ``text`` refute, asserting
    that the kernel keeps none of their rows, and that it agrees with
    the interpreted predicate.  Ranges the interval algebra finds empty
    refute every chunk."""
    where = parse_where(text)
    _, keep = zone_keep(text, chunks, dtype)
    kernel = CompiledPredicate(where, DEFAULT_REGISTRY)
    oracle = InterpretedPredicate(where, DEFAULT_REGISTRY)
    refuted = 0
    for i, chunk in enumerate(chunks):
        try:
            want = np.asarray(oracle.evaluate({"V": chunk}, len(chunk)))
        except Exception:
            # The oracle rejects the literal; the kernel must as well.
            with pytest.raises(Exception):
                kernel.evaluate({"V": chunk}, len(chunk))
            continue
        got = np.asarray(kernel.evaluate({"V": chunk}, len(chunk)))
        assert np.array_equal(np.broadcast_to(got, want.shape), want), text
        if keep is not None and not keep[i]:
            refuted += 1
            assert not want.any(), (text, chunk)
    return refuted


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_refuted_chunk_holds_no_row_the_predicate_keeps(data):
    dtype, chunks = data.draw(chunk_columns())
    literals = {"V": chunk_literals(dtype)}
    text = data.draw(st.one_of(where_over(["V"], literals), where_trees(literals)))
    event(f"refuted chunks: {min(refuted_chunks(text, chunks, dtype), 2)}")


@pytest.mark.parametrize("dtype, value, where", [
    # Ends that cross in Python yet tie as the kernel compares them,
    # intersected under an OR, which the rewrite does not fold.
    ("<f4", np.float32(0.1),
     "(V >= 0.10000000149011612 OR V < -5) AND V <= 0.1"),
    ("<i8", 2**53 + 1, f"(V > {2**53} OR V < 0) AND V <= {2**53}.0"),
    ("<f4", np.float32(0.1), "V >= 0.10000000149011612 AND V <= 0.1"),
    ("<i8", 2**53 + 1, f"V > {2**53} AND V <= {2**53}.0"),
])
def test_an_intersection_of_tied_ends_refutes_only_the_other_chunk(
    dtype, value, where
):
    chunks = [np.array([value], dtype), np.array([7], dtype)]
    assert refuted_chunks(where, chunks, dtype) == 1


def test_bounds_are_the_field_dtype_and_lazy():
    chunks = [np.array([3, 1, 2], ">f4"), np.array([np.nan, 5], ">f4")]
    group = group_of(chunks, ">f4")
    assert group._bounds == {}
    mins, maxs = group.bounds("V")
    assert mins.dtype == maxs.dtype == np.dtype(">f4")
    assert mins[0] == 1 and maxs[0] == 3
    assert np.isnan(mins[1]) and np.isnan(maxs[1])
    assert group.bounds("V")[0] is mins  # computed once
    assert group_of([np.array([], "<f8")], "<f8").bounds("V") is None
    assert group_of([np.array([1, 2]), np.array([], "<i8")], "<i8").bounds("V") is None
    text = np.array([b"ab", b"cd"])
    strings = _Group(("n", "f"), {"V": text}, [None], [0])
    assert strings.bounds("V") is None


@pytest.mark.parametrize("text, want", [
    # The literal rounds to float32, as the kernel's closure compares;
    # in float64 30950.0001 > every value and the chunk would wrongly
    # be refuted.
    ("V >= 30950.0001", [True, False]),
    ("V <= 30949.9999", [True, True]),
    # A constant on the left mirrors the operator.
    ("30950 < V", [False, False]),
    ("2 > V", [True, False]),
    ("V < 3 AND V > 0", [True, False]),
])
def test_the_kernel_closure_tests_the_favourable_bound(text, want):
    # Each range end meets its favourable bound — the max for a lower
    # end, the min for an upper one — compared as the kernel's closure
    # compares the column with its literal.
    chunks = [np.array([1, 30950], "f4"), np.array([5, 6], "f4")]
    _, keep = zone_keep(text, chunks, "f4")
    assert keep.tolist() == want


def test_int64_beyond_2_53_compares_like_the_kernel():
    big = 2**53
    chunks = [np.array([big + 1], "i8"), np.array([big - 1], "i8")]
    # As float64, big + 1 is big: not greater than big.0.
    _, keep = zone_keep(f"V > {big}.0", chunks, "i8")
    assert keep.tolist() == [False, False]
    _, keep = zone_keep(f"V > {big}", chunks, "i8")
    assert keep.tolist() == [True, False]
    # Their OR keeps both ends apart, so the int one still keeps big + 1.
    _, keep = zone_keep(f"V > {big} OR V > {big}.0", chunks, "i8")
    assert keep.tolist() == [True, False]


def test_nan_bounds_refute_nothing():
    chunks = [np.array([np.nan, 1.0]), np.array([2.0, 3.0])]
    _, keep = zone_keep("V > 10", chunks, "f8")
    assert keep.tolist() == [True, False]


@pytest.mark.parametrize("text", [
    "DISTANCE(V, V, V) > 100", "V > V", "V > 1 OR W < 0",
])
def test_terms_that_never_refute(text):
    # No range for V: no bound of V is ever consulted.
    ranges, keep = zone_keep(text, [np.zeros(2), np.ones(2)], "f8")
    assert "V" not in ranges and keep is None


@pytest.mark.parametrize("text, want", [
    pytest.param(text, want, id=text) for text, want in [
        ("V != 1", [True, False, True, True]),
        ("NOT (V > 1)", [True, True, False, False]),
        ("V = 7", [False, False, True, False]),
        ("V > 1 OR V < 0", [False, False, True, True]),
        ("V IN (1, 2)", [False, True, False, False]),
    ]
])
def test_terms_with_a_range_refute_by_it(text, want):
    # Each of these terms gives V a range, and refutes by it; a refuted
    # chunk keeps no row.
    chunks = [np.zeros(2), np.ones(2), np.full(2, 7.0), np.array([3.0, 5.0])]
    _, keep = zone_keep(text, chunks, "f8")
    assert keep.tolist() == want
    oracle = InterpretedPredicate(parse_where(text), DEFAULT_REGISTRY)
    for chunk, kept in zip(chunks, keep):
        assert kept or not np.asarray(oracle.evaluate({"V": chunk}, 2)).any()


# ---------------------------------------------------------------------------
# The differential matrix
# ---------------------------------------------------------------------------

#: Two record strips, chunk after chunk in one file, with values of
#: every adversarial kind and big-endian fields among them: per AFC
#: (one T), a 6-row chunk of each.
ADVERSARIAL_TEXT = """
[S]
T = int
F = be float
D = double
I = long int
E = be long int

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATAINDEX { T }
  DATASPACE {
    LOOP T 1:8:1 {
      LOOP G 0:5:1 { F D }
      LOOP G 0:5:1 { I E }
    }
  }
  DATA { DIR[0]/adversarial.bin }
}
"""

_BIG = 2**53
_TINY = float(np.float32(0.1))
#: Per attribute, one row of 6 values per chunk T = 1..8.
ADVERSARIAL = {
    "F": [
        [_TINY] * 6,  # all equal, between 0.1's float64 neighbours
        [1, 2, np.nan, 4, 5, 6],
        [-np.inf, 0, 1, 2, 3, np.inf],
        [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
        [7, 8, 9, 10, 11, 12],
        [np.nan] * 6,
        [float(np.nextafter(np.float32(0.1), np.float32(0)))] * 3
        + [float(np.nextafter(np.float32(0.1), np.float32(1)))] * 3,
        [100, 101, 102, 103, 104, 105],
    ],
    "D": [
        [0.1] * 6,
        [np.inf] * 6,
        [-1, -2, -3, -4, -5, -6],
        [-0.0] * 6,
        [2.5, 2.5, 2.5, 2.5, 2.5, np.nan],
        [10, 20, 30, 40, 50, 60],
        [-np.inf, -np.inf, 0, 0, 0, 0],
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
    ],
    "I": [
        [_BIG + 1] * 6,
        [_BIG - 1, _BIG, _BIG + 1, _BIG + 2, _BIG + 3, _BIG + 4],
        [-_BIG - 1] * 6,
        [0, 1, 2, 3, 4, 5],
        [7] * 6,
        [2**62, 2**62, 2**62, 2**62, 2**62, -(2**62)],
        [-1, -1, -1, -1, -1, -1],
        [_BIG + 2] * 6,
    ],
    "E": [
        [-(2**62) + g for g in range(6)],
        [1] * 6,
        [_BIG + 1] * 6,
        [0, 0, 0, 1, 1, 1],
        [-7] * 6,
        [_BIG, _BIG + 1, _BIG + 2, _BIG + 3, _BIG + 4, _BIG + 5],
        [5, 4, 3, 2, 1, 0],
        [2**40] * 6,
    ],
}

ADVERSARIAL_LITERALS = {
    "F": ["0.1", "0", "-0.0", "1.5", "3.4028235677973366", "100"],
    "D": ["0.1", "-0.0", "2.5", "0", "60.0000001"],
    "I": [str(_BIG), str(_BIG + 1), f"{_BIG}.0", f"{_BIG + 2}.0", "-1"],
    "E": [str(_BIG), f"{_BIG + 1}.0", "0", "1", str(2**40)],
}

#: Per attribute, literals worth comparing its record field with.
ADVERSARIAL_TREE_LITERALS = {
    "F": chunk_literals(np.dtype(">f4")) + ADVERSARIAL_LITERALS["F"],
    "D": chunk_literals(np.dtype("<f8")) + ADVERSARIAL_LITERALS["D"],
    "I": chunk_literals(np.dtype("<i8")) + ADVERSARIAL_LITERALS["I"],
    "E": chunk_literals(np.dtype(">i8")) + ADVERSARIAL_LITERALS["E"],
}

ADVERSARIAL_SPANS = {
    "F": (0.0, 12.0), "D": (-6.0, 60.0), "I": (-1.0, 5.0), "E": (-7.0, 5.0),
}


def adversarial_value(attr, env, coords):
    table = np.array(ADVERSARIAL[attr], dtype=object)
    return table[coords["T"] - 1, coords["G"]]


@pytest.fixture(scope="module")
def matrix_specs(specs, tmp_path_factory):
    mount = local_mount(str(tmp_path_factory.mktemp("zone_adversarial")))
    write_dataset(CompiledDataset(ADVERSARIAL_TEXT), mount, adversarial_value)
    adversarial = Spec(
        "adversarial", "D", ADVERSARIAL_TEXT, mount, ("T",),
        ADVERSARIAL_SPANS, (None, 4),
    )
    return list(specs.values()) + [adversarial]


#: The prune itself, for the tests that wrap it.
PRUNE = Extractor.prune


def counting_prune(counts):
    """``Extractor.prune``, appending how many AFCs each call pruned
    to ``counts``."""

    def counted(self, plan, afcs, tracer=NULL_TRACER):
        kept = PRUNE(self, plan, afcs, tracer)
        counts.append(len(afcs) - len(kept))
        return kept

    return counted


#: What each way runs: cold, warm, forget everything, cold again, warm.
SCRIPT = ("run", "run", "drop", "run", "run")


def run_script(spec, plan, cache_bytes, opts, traced, pruned=None):
    """:data:`SCRIPT` on one set of node services: per run, (tables,
    stats, AFCs pruned)."""
    sources = {}
    out = []
    try:
        for step in SCRIPT:
            if step == "drop":
                for source in sources.values():
                    source.drop_caches()
                continue
            stats, tables = IOStats(), []
            tracer = Tracer() if traced else NULL_TRACER
            before = len(pruned) if pruned is not None else 0
            for node, afcs in group_by_home_node(plan.afcs).items():
                if node not in sources:
                    sources[node] = DataSourceService(
                        node, spec.mount, FilteringService(),
                        segment_cache_bytes=cache_bytes,
                    )
                tables.append(sources[node].execute(plan, afcs, stats, tracer, opts))
                extractor = sources[node].extractor
                assert_bounded(extractor)
                assert extractor._zones._size <= extractor._segments.capacity
            count = sum(pruned[before:]) if pruned is not None else 0
            out.append((tables, stats, count))
    finally:
        for source in sources.values():
            source.close()
    return out


@settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_zoned_equals_unzoned_equals_interpreted(matrix_specs, data):
    # Half the draws on the layouts whose chunks cluster their values.
    clustered = [s for s in matrix_specs if s.name in ("titan", "adversarial")]
    spec = data.draw(st.one_of(
        st.sampled_from(matrix_specs), st.sampled_from(clustered)
    ), label="spec")
    if spec.name == "adversarial":
        where = data.draw(st.one_of(
            where_terms(spec.stored, ADVERSARIAL_LITERALS),
            where_trees(ADVERSARIAL_TREE_LITERALS),
        ), label="where")
    else:
        where = data.draw(where_terms(spec.stored), label="where")
    names = list(spec.implicit) + sorted(spec.stored)
    select = data.draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)
    )
    cap = data.draw(st.sampled_from(spec.caps))
    kind = data.draw(st.sampled_from([CompiledDataset, GeneratedDataset]))
    # Half the draws on the axes where a warm pass learns the most: the
    # whole cache, one worker, fused blocks.
    axes = data.draw(st.one_of(exec_axes(), exec_axes(
        cache_bytes=CACHE_BYTES[-1:], workers=(1,), block_rows=BLOCK_ROWS[1:],
    )), label="axes")
    plan = kind(spec.text, chunk_row_cap=cap).plan(
        f"SELECT {', '.join(select)} FROM {spec.table} WHERE {where}"
    )
    opts = ExecOptions(
        coalesce_gap_bytes=axes.gap, intra_node_workers=axes.workers
    )
    pruned = {"learned": [], "traced": [], "unlearned": [], "off": []}
    ways = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            extractor_module, "block_rows_for",
            lambda needed, dtypes: axes.block_rows,
        )
        for way, cache, traced, way_opts in (
            ("learned", axes.cache_bytes, False, opts),
            ("traced", axes.cache_bytes, True, opts),
            ("unlearned", 0, False, opts),
            ("off", axes.cache_bytes, False, opts.replace(vectorize="off")),
        ):
            patch.setattr(Extractor, "prune", counting_prune(pruned[way]))
            ways[way] = run_script(spec, plan, cache, way_opts, traced, pruned[way])
    learned = sum(count for _, _, count in ways["learned"])
    event(f"pruned AFCs: {'some' if learned else 'none'}")
    assert not any(pruned["unlearned"])
    context = f"{spec.name} cap={cap} {axes} WHERE {where}"
    want = ways["unlearned"][0][0]
    reference = ways["unlearned"][0][1]
    for way, runs in ways.items():
        for number, (tables, stats, count) in enumerate(runs):
            at = f"{context} {way} run {number}"
            assert_same_tables(tables, want, at)
            # Cold runs (the first, and the first after drop_caches)
            # prune nothing; every run reads the AFCs it did not prune.
            if number in (0, 2):
                assert count == 0, at
            assert stats.afcs_processed + count == reference.afcs_processed, at
            assert stats.rows_output == reference.rows_output, at
            if way == "traced":
                assert_same_tables(tables, ways["learned"][number][0], at)
                if axes.workers == 1:
                    assert stats == ways["learned"][number][1], at


# ---------------------------------------------------------------------------
# The conditions
# ---------------------------------------------------------------------------

TITAN_ZONED = "SELECT X, S1 FROM TitanData WHERE X < 20000 AND S1 > 0.2"


def titan_runs(spec, runs, sql=TITAN_ZONED, cap=32, **service):
    """``sql`` ``runs`` times on one osu0 service: the node's AFC count
    and, per run, the table and stats."""
    plan = CompiledDataset(spec.text, chunk_row_cap=cap).plan(sql)
    afcs = group_by_home_node(plan.afcs)["osu0"]
    source = DataSourceService("osu0", spec.mount, FilteringService(), **service)
    out = []
    try:
        for _ in range(runs):
            stats = IOStats()
            table = source.execute(plan, afcs, stats, NULL_TRACER, ExecOptions())
            out.append((table, stats))
    finally:
        source.close()
    return len(afcs), out


def test_refuted_afcs_are_settled_not_filtered(specs, monkeypatch):
    spec = specs["titan"]
    added = {}  # per run's stats, the rows handed to the kernel
    add = BlockPipeline.add

    def counting_add(pipeline, columns, num_rows):
        key = id(pipeline.stats)
        added[key] = added.get(key, 0) + num_rows
        return add(pipeline, columns, num_rows)

    monkeypatch.setattr(BlockPipeline, "add", counting_add)
    total, [(table, cold), (again, warm)] = titan_runs(spec, 2)
    assert_same_tables([again], [table], "warm")
    # Warm, the AFCs the learned bounds refute are never read, counted
    # or handed to the kernel; the rest are read from the cache.
    assert cold.afcs_processed == total
    assert 0 < warm.afcs_processed < total
    assert 0 < added[id(warm)] == warm.rows_extracted < cold.rows_extracted
    assert added[id(cold)] == cold.rows_extracted == cold.rows_vectorized
    assert warm.rows_vectorized == warm.rows_extracted
    assert warm.rows_output == cold.rows_output > 0
    assert warm.cache_hits == warm.chunks_read < cold.chunks_read
    assert warm.bytes_read == 0


def test_zoned_tags_and_metric_only_when_tracing(titan_root):
    text, root = titan_root
    cold, warm = Tracer(), Tracer()
    with repro.connect(f"local://{root}", descriptor=text) as db:
        first = db.submit(TITAN_ZONED, db.options.replace(trace=cold))
        again = db.submit(TITAN_ZONED, db.options.replace(trace=warm))
        untraced = db.submit(TITAN_ZONED)
    assert_same_tables([again.table, untraced.table], [first.table] * 2, "warm")
    assert "index.learned_pruned_afcs" not in cold.metrics.counters
    pruned = warm.metrics.counters["index.learned_pruned_afcs"].value
    total = again.afc_count
    assert pruned > 0 and pruned + again.total_stats.afcs_processed == total
    extracts = [s for s in warm.spans if s.name == "extract"]
    assert sum(s.tags.get("learned_pruned", 0) for s in extracts) == pruned
    # A pruned AFC's chunks are never looked up; every chunk the warm
    # run reads is a hit, counted once, on its node's extract span.
    for span in extracts:
        stats = again.per_node_stats[span.tags["node"]]
        assert span.tags["cache_hits"] == stats.cache_hits == stats.chunks_read
    assert sum(s.tags["cache_hits"] for s in extracts) > 0
    assert all("learned_pruned" not in s.tags for s in cold.spans)


def test_a_part_lookup_promotes_like_its_runs_and_keeps_only_survivors(
    specs, monkeypatch
):
    # The prune peeks at the cache without promoting: the LRU order
    # after a warm pruned call is the one reading its survivors alone
    # gives.
    spec = specs["titan"]
    plan = CompiledDataset(spec.text, chunk_row_cap=32).plan(TITAN_ZONED)
    afcs = group_by_home_node(plan.afcs)["osu0"]
    scan = CompiledDataset(spec.text).plan("SELECT S2 FROM TitanData")
    kept = []

    def keeping(self, plan, afcs, tracer=NULL_TRACER):
        kept.append(PRUNE(self, plan, afcs, tracer))
        return kept[-1]

    orders = []
    for way in ("learned", "survivors"):
        if way == "survivors":
            monkeypatch.setattr(Extractor, "prune", lambda self, p, a, t=None: a)
        else:
            monkeypatch.setattr(Extractor, "prune", keeping)
        source = DataSourceService("osu0", spec.mount, FilteringService())
        try:
            # Cold, then a scan that caches other chunks after these,
            # then warm: the warm reads' promotions order the LRU.
            source.execute(plan, afcs, IOStats(), NULL_TRACER, ExecOptions())
            source.execute(
                scan, group_by_home_node(scan.afcs)["osu0"], IOStats(),
                NULL_TRACER, ExecOptions(),
            )
            warm = afcs if way == "learned" else kept[-1]
            source.execute(plan, warm, IOStats(), NULL_TRACER, ExecOptions())
            orders.append(list(source.extractor._segments._segments))
        finally:
            source.close()
    assert orders[0] == orders[1]
    assert 0 < len(kept[-1]) < len(afcs)


def test_learning_is_lazy_per_constrained_field(specs, tmp_path):
    spec = specs["titan"]
    source = DataSourceService("osu0", spec.mount, FilteringService())

    def run(sql):
        plan = CompiledDataset(spec.text).plan(sql)
        afcs = group_by_home_node(plan.afcs)["osu0"]
        stats = IOStats()
        source.execute(plan, afcs, stats, NULL_TRACER, ExecOptions())
        return stats

    def learned():
        return sorted({key[3] for key in source.extractor._zones._zones})

    try:
        run("SELECT S2 FROM TitanData WHERE X < 20000")
        assert learned() == []  # cold: nothing cached to learn from
        run("SELECT S2 FROM TitanData WHERE X < 20000")
        assert learned() == ["X"]
        run("SELECT S2 FROM TitanData")  # no WHERE: nothing to prune by
        run("SELECT S2 FROM TitanData WHERE X < 1000000")  # keeps every AFC
        assert learned() == ["X"]
        run("SELECT S2 FROM TitanData WHERE S1 > 0.2 OR S2 < 0.1")
        assert learned() == ["X"]  # no range: S1 OR S2 constrains neither
        run("SELECT S2 FROM TitanData WHERE S1 > 0.2")
        assert learned() == ["S1", "X"]
        source.drop_caches()
        assert learned() == [] and source.extractor._zones._size == 0
    finally:
        source.close()
    # A single-field chunk is cached as read and teaches nothing.
    config = IparsConfig(num_rels=1, num_times=4, cells_per_node=8, num_nodes=1)
    mount = local_mount(str(tmp_path))
    text, _ = ipars.generate(config, "L0", mount)
    plan = CompiledDataset(text).plan("SELECT X, SOIL FROM IparsData WHERE SOIL > 0.3")
    source = DataSourceService("osu0", mount, FilteringService())
    try:
        for _ in range(2):
            source.execute(
                plan, plan.afcs, IOStats(), NULL_TRACER, ExecOptions()
            )
        assert source.extractor._zones._zones == {}
    finally:
        source.close()
    # Nothing is cached, so nothing is learned.
    total, runs = titan_runs(spec, 3, segment_cache_bytes=0)
    assert [stats.afcs_processed for _, stats in runs] == [total] * 3


def test_drop_caches_forgets_what_was_learned(specs):
    spec = specs["titan"]
    plan = CompiledDataset(spec.text, chunk_row_cap=32).plan(TITAN_ZONED)
    afcs = group_by_home_node(plan.afcs)["osu0"]
    source = DataSourceService("osu0", spec.mount, FilteringService())
    runs = []
    try:
        for step in ("run", "run", "drop", "run", "run"):
            if step == "drop":
                source.drop_caches()
                continue
            stats = IOStats()
            table = source.execute(plan, afcs, stats, NULL_TRACER, ExecOptions())
            runs.append((table, stats))
    finally:
        source.close()
    (cold, cold_stats), (_, warm_stats) = runs[:2]
    for table, _ in runs:
        assert_same_tables([table], [cold], "after drop_caches")
    assert runs[2][1] == cold_stats and runs[3][1] == warm_stats
    assert warm_stats.afcs_processed < cold_stats.afcs_processed


def test_a_clear_during_a_call_leaves_nothing_learned(specs, monkeypatch):
    spec = specs["titan"]
    plan = CompiledDataset(spec.text, chunk_row_cap=32).plan(TITAN_ZONED)
    afcs = group_by_home_node(plan.afcs)["osu0"]
    source = DataSourceService("osu0", spec.mount, FilteringService())

    def run():
        stats = IOStats()
        table = source.execute(plan, afcs, stats, NULL_TRACER, ExecOptions())
        return table, stats.afcs_processed

    try:
        want, _ = run()
        # Another thread clears between the prune's peek at the cache
        # and its publishing what it learned: nothing is published.
        peek = _SegmentCache.peek

        def clearing_peek(cache, keys):
            entries = peek(cache, keys)
            source.drop_caches()
            return entries

        with monkeypatch.context() as patch:
            patch.setattr(_SegmentCache, "peek", clearing_peek)
            table, read = run()
        assert read == len(afcs) and source.extractor._zones._zones == {}
        assert_same_tables([table], [want], "cleared while learning")
        # A clear while the call reads: what it reads after is not
        # cached, so the next call has nothing to learn from.
        read_span = Extractor._read_span
        cleared = []

        def clearing_read(self, *args):
            data = read_span(self, *args)
            if not cleared:
                cleared.append(True)
                source.drop_caches()
            return data

        source.drop_caches()
        with monkeypatch.context() as patch:
            patch.setattr(Extractor, "_read_span", clearing_read)
            run()
        assert source.extractor._segments._segments == {}
        outcomes = [run() for _ in range(2)]
        assert [n for _, n in outcomes][0] == len(afcs)
        assert 0 < outcomes[1][1] < len(afcs)
        for table, _ in outcomes:
            assert_same_tables([table], [want], "after a clear mid-read")
    finally:
        source.close()


def test_concurrent_calls_with_workers_agree_with_nothing_learned(specs):
    spec = specs["titan"]
    queries = [
        TITAN_ZONED,
        "SELECT S1, S2 FROM TitanData WHERE X >= 20000 AND S2 < 0.5",
        "SELECT X FROM TitanData WHERE (S1 > 0.9 OR X < 5000) AND NOT (S2 > 0.99)",
        "SELECT CHUNK, S1 FROM TitanData WHERE S1 BETWEEN 0.2 AND 0.3",
    ]
    plans = [CompiledDataset(spec.text, chunk_row_cap=32).plan(q) for q in queries]

    def tables(sources, plan, workers):
        return [
            sources[node].execute(
                plan, afcs, IOStats(), NULL_TRACER,
                ExecOptions(intra_node_workers=workers),
            )
            for node, afcs in sorted(group_by_home_node(plan.afcs).items())
        ]

    nodes = sorted(group_by_home_node(plans[0].afcs))

    def services(**kwargs):
        return {
            node: DataSourceService(node, spec.mount, FilteringService(), **kwargs)
            for node in nodes
        }

    reference = services(segment_cache_bytes=0)
    shared = services()
    failures, pruned = [], []
    barrier = threading.Barrier(4)

    def work(seed):
        barrier.wait()
        try:
            for k in range(3 * len(plans)):
                i = (seed + k) % len(plans)
                got = tables(shared, plans[i], 1 + (seed + k) % 3)
                assert_same_tables(got, want[i], f"thread {seed} query {i}")
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    try:
        want = [tables(reference, plan, 1) for plan in plans]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Extractor, "prune", counting_prune(pruned))
            threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        for source in (*reference.values(), *shared.values()):
            source.close()
    assert not failures, failures[0]
    assert sum(pruned) > 0


def test_a_split_piece_never_prunes_another_extent(specs, monkeypatch):
    spec = specs["titan"]
    whole = CompiledDataset(spec.text).plan(TITAN_ZONED)
    pieces = CompiledDataset(spec.text, chunk_row_cap=32).plan(TITAN_ZONED)
    reference = DataSourceService(
        "osu0", spec.mount, FilteringService(), segment_cache_bytes=0
    )
    want = {
        id(plan): reference.execute(plan, group_by_home_node(plan.afcs)["osu0"])
        for plan in (whole, pieces)
    }
    reference.close()
    pruned = []
    monkeypatch.setattr(Extractor, "prune", counting_prune(pruned))
    for order in ((whole, pieces), (pieces, whole)):
        source = DataSourceService("osu0", spec.mount, FilteringService())
        try:
            counts = []
            for plan in (order[0], order[0], order[1], order[1]):
                afcs = group_by_home_node(plan.afcs)["osu0"]
                table = source.execute(plan, afcs)
                assert_same_tables([table], [want[id(plan)]], "pieces and chunks")
                counts.append(pruned[-1])
        finally:
            source.close()
        # Each extent prunes only once it was itself cached and learned:
        # a chunk's bounds never prune its pieces, nor a piece's the
        # chunk starting where it starts.
        assert counts[0] == 0 and counts[1] > 0, counts
        assert counts[2] == 0 and counts[3] > 0, counts


@pytest.fixture(scope="module")
def titan_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("zone_titan")
    text, _ = titan.generate(TITAN, local_mount(str(root)))
    return text.replace("[TITAN]\n", "[TITAN]\nCHUNK = short int\n"), str(root)


AGGREGATES = [
    # Every AFC pruned, warm: each node answers an empty state frame.
    "SELECT COUNT(*) FROM TitanData WHERE X > 1000000",
    "SELECT COUNT(*), MIN(S1), MAX(X) FROM TitanData WHERE Y < -5",
    "SELECT COUNT(*), MIN(S1), MAX(X), SUM(S2) FROM TitanData "
    "WHERE X < 20000 AND S1 > 0.2",
    "SELECT CHUNK, COUNT(*), AVG(S1) FROM TitanData WHERE X >= 20000 "
    "GROUP BY CHUNK",
    "SELECT X, S1 FROM TitanData WHERE X < 20000 AND NOT (S1 <= 0.2)",
]


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_aggregates_and_rows_over_both_transports(titan_root, transport):
    text, root = titan_root
    with repro.Virtualizer(text, local_mount(root), segment_cache_bytes=0) as v:
        want = [v.query(sql) for sql in AGGREGATES]

    def check(url):
        with repro.connect(url, descriptor=text) as db:
            for sql, expected in zip(AGGREGATES, want):
                db.drop_caches()
                results = [db.submit(sql) for _ in range(3)]
                for result in results:
                    assert_same_tables([result.table], [expected], sql)
                    # Planning never sees the prune: the AFC count stays.
                    assert result.afc_count == results[0].afc_count > 0
                read = [r.total_stats.afcs_processed for r in results]
                if transport == "local":
                    assert read[0] == results[0].afc_count
                    assert read[2] < read[0], (sql, read)
                elif "1000000" in sql:
                    # Over tcp, every node still answers, with nothing.
                    assert read[2] == 0 < read[0], (sql, read)

    if transport == "local":
        check(f"local://{root}")
    else:
        with serving_cluster(text, root) as url:
            check(url)


def test_concurrent_submits_agree_with_nothing_learned(titan_root):
    text, root = titan_root
    queries = AGGREGATES + [TITAN_ZONED]
    with repro.Virtualizer(text, local_mount(root), segment_cache_bytes=0) as v:
        want = [v.query(sql) for sql in queries]
    failures, barrier = [], threading.Barrier(4)
    with repro.connect(
        f"local://{root}", descriptor=text, intra_node_workers=2
    ) as db:

        def work(seed):
            barrier.wait()
            try:
                for k in range(2 * len(queries)):
                    i = (seed + k) % len(queries)
                    got = db.submit(queries[i]).table
                    assert_same_tables([got], [want[i]], queries[i])
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        learned = [
            source.extractor._zones._zones
            for source in db.service.transport.sources.values()
        ]
    assert not failures, failures[0]
    assert all(learned)


def test_a_streamed_query_prunes_too(titan_root):
    text, root = titan_root
    sql = TITAN_ZONED
    with repro.Virtualizer(text, local_mount(root), chunk_row_cap=32) as v:
        runs = []
        for _ in range(2):
            stats = IOStats()
            options = ExecOptions(batch_rows=50)
            batches = list(v.query_iter(sql, stats=stats, options=options))
            runs.append(([b.num_rows for b in batches], stats.afcs_processed))
        table = v.query(sql)
    (cold_batches, cold), (warm_batches, warm) = runs
    assert sum(cold_batches) == sum(warm_batches) == table.num_rows > 0
    assert cold_batches == warm_batches and warm < cold


def test_a_dropped_service_frees_its_extractor_at_once(specs):
    # What an extractor learned refers to nothing that refers back to
    # it: a closed service's caches go by reference counting, not at
    # the next cycle collection (21 set-ups in a row kept ~170 MB).
    spec = specs["titan"]
    gc.disable()
    try:
        _, runs = titan_runs(spec, 2)
        assert runs[1][1].afcs_processed < runs[0][1].afcs_processed
        source = DataSourceService("osu0", spec.mount, FilteringService())
        plan = CompiledDataset(spec.text).plan(TITAN_ZONED)
        for _ in range(2):
            source.execute(plan, group_by_home_node(plan.afcs)["osu0"])
        assert source.extractor._zones._zones
        extractor = weakref.ref(source.extractor)
        source.close()
        del source
        assert extractor() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Single-flight chunk misses
# ---------------------------------------------------------------------------


def test_eight_threads_missing_one_chunk_read_it_once(specs, monkeypatch):
    spec = specs["titan"]
    plan = CompiledDataset(spec.text).plan("SELECT X FROM TitanData")
    part = plan.afcs.parts[0]
    member = part.layout.members[0]
    key = (
        member.node, member.path, int(part.offsets[0, 0]),
        int(part.rows[0]) * member.bytes_per_row,
    )
    read_span = Extractor._read_span

    def slow_read(self, *args):
        time.sleep(0.05)  # every thread misses before the first read ends
        return read_span(self, *args)

    monkeypatch.setattr(Extractor, "_read_span", slow_read)
    with Extractor(spec.mount) as extractor:
        dtype = extractor._decoded_dtype(member.strip)
        barrier, flights = threading.Barrier(8), _Flights()
        stats = [IOStats() for _ in range(8)]
        entries = [None] * 8

        def work(i):
            barrier.wait()
            entries[i] = extractor._entry(
                *key, stats[i], dtype=dtype, flights=flights
            )

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        total = IOStats()
        for one in stats:
            total.merge(one)
    assert total.read_calls == 1 and total.bytes_read == key[3]
    assert total.cache_hits == 7
    assert isinstance(entries[0], _Decoded)
    assert all(entry is entries[0] for entry in entries)
    assert not flights._reading


def test_a_failed_read_lets_each_waiter_read_for_itself(specs, monkeypatch):
    spec = specs["titan"]
    read_span = Extractor._read_span
    calls = []

    def failing_first(self, *args):
        calls.append(args)
        time.sleep(0.05)
        if len(calls) == 1:
            raise OSError("first read fails")
        return read_span(self, *args)

    monkeypatch.setattr(Extractor, "_read_span", failing_first)
    plan = CompiledDataset(spec.text).plan("SELECT X FROM TitanData")
    part = plan.afcs.parts[0]
    member = part.layout.members[0]
    key = (
        member.node, member.path, int(part.offsets[0, 0]),
        int(part.rows[0]) * member.bytes_per_row,
    )
    outcomes = []
    with Extractor(spec.mount) as extractor:
        barrier, flights = threading.Barrier(3), _Flights()

        def work():
            barrier.wait()
            try:
                outcomes.append(type(
                    extractor._entry(*key, IOStats(), flights=flights)
                ))
            except OSError:
                outcomes.append(OSError)

        threads = [threading.Thread(target=work) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not flights._reading
    assert len(outcomes) == 3 and outcomes.count(OSError) == 1


@pytest.mark.parametrize("gap", [0, 64 * 1024])
def test_intra_node_workers_read_every_shared_chunk_once(
    tmp_path, monkeypatch, gap
):
    # L0's COORDS chunk is shared by every AFC of a node; eight workers
    # used to race to read it.  Now the bytes read are the serial run's,
    # every time — also with reads slow enough that every worker misses
    # on it while the first is reading.
    read_span = Extractor._read_span

    def slow_read(self, *args):
        time.sleep(0.005)
        return read_span(self, *args)

    monkeypatch.setattr(Extractor, "_read_span", slow_read)
    config = IparsConfig(num_rels=2, num_times=8, cells_per_node=32, num_nodes=1)
    mount = local_mount(str(tmp_path))
    text, _ = ipars.generate(config, "L0", mount)
    plan = CompiledDataset(text).plan(
        "SELECT X, Y, SOIL FROM IparsData WHERE SOIL > 0.3"
    )
    afcs = group_by_home_node(plan.afcs)["osu0"]
    counts = set()
    for workers in (1,) + (8,) * 6:
        source = DataSourceService("osu0", mount, FilteringService())
        try:
            stats = IOStats()
            source.execute(plan, afcs, stats, NULL_TRACER, ExecOptions(
                intra_node_workers=workers, coalesce_gap_bytes=gap,
            ))
        finally:
            source.close()
        counts.add((stats.bytes_read, stats.read_calls, stats.rows_output))
    assert len(counts) == 1, counts
