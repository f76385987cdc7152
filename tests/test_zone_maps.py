"""Chunk bounds in the segment cache settle AFCs without a kernel pass.

A group of decoded chunks keeps, per numeric field, each member's min
and max, computed on the first zone test that asks.  Before the block
loop, ``Extractor.execute_blocks`` looks a part's chunks up at once and
tests every cheap ordered conjunct (``column op constant`` or the
mirror) on the favourable bound of each AFC; an AFC refuted there is
never stitched or filtered.

Three layers of checks, all drawn from ``tests/matrix.py``:

* soundness of the zone test itself: over adversarial chunk values
  (NaN, +-inf, all-equal chunks, -0.0/+0.0, int64 beyond 2**53 against
  float literals, a float32 value whose neighbours straddle a decimal
  literal, big-endian dtypes) and WHERE trees mixing refutable terms,
  constants on the left and ``!=``/``NOT``/``OR``, no chunk the bounds
  refute holds a row the kernel or the interpreted oracle keeps;
* the differential matrix: over IPARS L0 and I-VI, Titan, MRI, a
  cross-node group and an adversarial record layout, under every
  segment-cache size, coalescing gap, block size and worker count, a
  cold then a warm pass zoned, traced, with the zone pass removed, and
  under ``vectorize="off"`` give bit-identical tables, and zoned,
  traced and unzoned passes equal ``IOStats`` field for field;
* the pieces: lazy bounds, the part-wide lookup's promotions, kept
  entries, tags and metrics only when tracing, and single-flight reads.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import CompiledDataset, ExecOptions, GeneratedDataset, local_mount
from repro.core import extractor as extractor_module
from repro.core.afc import group_by_home_node
from repro.core.extractor import AfcReader, Extractor, _Decoded, _Flights, _Group
from repro.core.kernels import BlockPipeline, CompiledPredicate, InterpretedPredicate
from repro.core.stats import IOStats
from repro.datasets import IparsConfig, ipars
from repro.datasets.writers import write_dataset
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sql import parse_where
from repro.sql.functions import DEFAULT_REGISTRY
from repro.storm.data_source import DataSourceService
from repro.storm.filtering import FilteringService
from tests.matrix import (
    BLOCK_ROWS, CACHE_BYTES, chunk_columns, chunk_literals, exec_axes,
    where_over, where_terms,
)
from tests.test_decoded_segments import assert_same_tables, run_passes
from tests.test_run_decode import Spec, specs  # noqa: F401

# ---------------------------------------------------------------------------
# The zone test
# ---------------------------------------------------------------------------


def group_of(chunks, dtype, name="V"):
    """Chunks as one decoded group's column, each chunk a member."""
    column = np.concatenate(chunks, dtype=dtype)
    column.flags.writeable = False
    starts = np.cumsum([0] + [len(c) for c in chunks[:-1]]).tolist()
    return _Group(("n", "f"), {name: column}, [None] * len(chunks), starts)


def zone_keep(where_text, chunks, dtype):
    kernel = CompiledPredicate(parse_where(where_text), DEFAULT_REGISTRY)
    bounds = group_of(chunks, dtype).bounds("V")
    return kernel, (kernel.zone_keep({"V": bounds}) if bounds else None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_refuted_chunk_holds_no_row_the_predicate_keeps(data):
    dtype, chunks = data.draw(chunk_columns())
    text = data.draw(where_over(["V"], {"V": chunk_literals(dtype)}))
    where = parse_where(text)
    kernel, keep = zone_keep(text, chunks, dtype)
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
    event(f"refuted chunks: {min(refuted, 2)}")


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
    # The literal rounds to float32, as the kernel compares; in float64
    # 30950.0001 > every value and the chunk would wrongly be refuted.
    ("V >= 30950.0001", [True, False]),
    ("V <= 30949.9999", [True, True]),
    # A constant on the left mirrors the operator.
    ("30950 < V", [False, False]),
    ("2 > V", [True, False]),
    ("V < 3 AND V > 0", [True, False]),
])
def test_the_kernel_closure_tests_the_favourable_bound(text, want):
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


def test_nan_bounds_refute_nothing():
    chunks = [np.array([np.nan, 1.0]), np.array([2.0, 3.0])]
    _, keep = zone_keep("V > 10", chunks, "f8")
    assert keep.tolist() == [True, False]


@pytest.mark.parametrize("text", [
    "V != 1", "NOT (V > 1)", "V > 1 OR V < 0", "V = 7", "V IN (1, 2)",
    "DISTANCE(V, V, V) > 100", "V > V",
])
def test_terms_that_never_refute(text):
    kernel = CompiledPredicate(parse_where(text), DEFAULT_REGISTRY)
    assert kernel.zone_columns == ()
    assert kernel.zone_keep({"V": (np.zeros(2), np.zeros(2))}) is None


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


def no_zone(*args, **kwargs):
    return None


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
    extra = ADVERSARIAL_LITERALS if spec.name == "adversarial" else {}
    where = data.draw(where_terms(spec.stored, extra), label="where")
    names = list(spec.implicit) + sorted(spec.stored)
    select = data.draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)
    )
    cap = data.draw(st.sampled_from(spec.caps))
    kind = data.draw(st.sampled_from([CompiledDataset, GeneratedDataset]))
    # Half the draws on the axes where a warm pass zones: the whole
    # cache, one worker, fused blocks.
    axes = data.draw(st.one_of(exec_axes(), exec_axes(
        cache_bytes=CACHE_BYTES[-1:], workers=(1,), block_rows=BLOCK_ROWS[1:],
    )), label="axes")
    plan = kind(spec.text, chunk_row_cap=cap).plan(
        f"SELECT {', '.join(select)} FROM {spec.table} WHERE {where}"
    )
    opts = ExecOptions(
        coalesce_gap_bytes=axes.gap, intra_node_workers=axes.workers
    )
    zoned = {"afcs": 0}
    zone = AfcReader.zone

    def counting_zone(reader, part, *args):
        found = zone(reader, part, *args)
        if found is not None:
            zoned["afcs"] += len(part) - len(found.rows)
        return found

    ways = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            extractor_module, "block_rows_for",
            lambda needed, dtypes: axes.block_rows,
        )
        patch.setattr(AfcReader, "zone", counting_zone)
        ways["zoned"] = run_passes(spec, plan, axes.cache_bytes, opts, False)
        ways["traced"] = run_passes(spec, plan, axes.cache_bytes, opts, True)
        patch.setattr(AfcReader, "zone", no_zone)
        ways["unzoned"] = run_passes(spec, plan, axes.cache_bytes, opts, False)
        ways["off"] = run_passes(
            spec, plan, axes.cache_bytes, opts.replace(vectorize="off"), False
        )
    event(f"zoned AFCs: {'some' if zoned['afcs'] else 'none'}")
    context = f"{spec.name} cap={cap} {axes} WHERE {where}"
    want = ways["off"][0][0]
    for way, passes in ways.items():
        for number, (tables, stats) in enumerate(passes):
            at = f"{context} {way} pass {number}"
            assert_same_rows(tables, want, at)
            if way == "traced":
                assert_same_tables(tables, ways["zoned"][number][0], at)
            if axes.workers == 1 and way != "off":
                assert stats == ways["unzoned"][number][1], at


def native(column):
    return column.astype(column.dtype.newbyteorder("="), copy=False)


def assert_same_rows(got, want, context):
    """Tables equal bit for bit once in native byte order.  A big-endian
    output column keeps its byte order from a lone block and is native
    when several are joined (``assemble_table``, ``wire.table_frames``),
    so it follows how many blocks kept rows — which block sizes,
    ``vectorize`` and zoning all change."""
    assert len(got) == len(want), context
    for a, b in zip(got, want):
        assert a.column_names == b.column_names, context
        for name in a.column_names:
            x, y = native(a.column(name)), native(b.column(name))
            assert x.dtype == y.dtype, f"{context}: {name}"
            assert x.tobytes() == y.tobytes(), f"{context}: {name}"


# ---------------------------------------------------------------------------
# The pieces
# ---------------------------------------------------------------------------

TITAN_ZONED = "SELECT X, S1 FROM TitanData WHERE X < 20000 AND S1 > 0.2"


def titan_runs(spec, tracers):
    """:data:`TITAN_ZONED` on one osu0 service, once per tracer: per
    run, the table and stats."""
    plan = CompiledDataset(spec.text, chunk_row_cap=32).plan(TITAN_ZONED)
    afcs = group_by_home_node(plan.afcs)["osu0"]
    source = DataSourceService("osu0", spec.mount, FilteringService())
    out = []
    try:
        for tracer in tracers:
            stats = IOStats()
            table = source.execute(plan, afcs, stats, tracer, ExecOptions())
            out.append((table, stats))
    finally:
        source.close()
    return out


def test_refuted_afcs_are_settled_not_filtered(specs, monkeypatch):
    spec = specs["titan"]
    added = {}  # per pass's stats, the rows handed to the kernel
    add = BlockPipeline.add

    def counting_add(pipeline, columns, num_rows):
        key = id(pipeline.stats)
        added[key] = added.get(key, 0) + num_rows
        return add(pipeline, columns, num_rows)

    monkeypatch.setattr(BlockPipeline, "add", counting_add)
    (table, cold), (again, warm) = titan_runs(spec, [NULL_TRACER] * 2)
    assert_same_tables([again], [table], "warm")
    # The warm pass hands the kernel fewer rows than it extracts and
    # counts the rest as vectorized: its row counts are the cold
    # pass's, and every chunk is a hit.
    assert 0 < added[id(warm)] < added[id(cold)] == cold.rows_extracted
    assert warm.rows_vectorized == warm.rows_extracted == cold.rows_extracted
    assert warm.rows_output == cold.rows_output > 0
    assert warm.cache_hits == warm.chunks_read == cold.chunks_read


def test_zoned_tags_and_metric_only_when_tracing(specs):
    spec = specs["titan"]
    cold, warm = Tracer(), Tracer()
    (table, _), (again, _), _ = titan_runs(spec, [cold, warm, NULL_TRACER])
    assert_same_tables([again], [table], "traced warm")
    assert "kernel.zoned_afcs" not in cold.metrics.counters
    skipped = warm.metrics.counters["kernel.zoned_afcs"].value
    assert skipped > 0
    extract = [s for s in warm.spans if s.name == "extract_afc"]
    filters = [s for s in warm.spans if s.name == "filter"]
    assert sum(s.tags["zoned"] for s in extract) == skipped
    assert 0 < sum(s.tags.get("zoned", 0) for s in filters) <= skipped
    hits = [s for s in warm.spans if s.name == "segment_cache_hit"]
    assert len(hits) == sum(s.tags["afcs"] for s in extract) + skipped
    assert all("zoned" not in s.tags for s in cold.spans)


def test_a_part_lookup_promotes_like_its_runs_and_keeps_only_survivors(
    specs, monkeypatch
):
    spec = specs["titan"]
    orders, kept = [], []
    zone = AfcReader.zone

    def keeping_zone(reader, *args):
        found = zone(reader, *args)
        if found is not None:
            kept.append((len(found.rows), len(found.entries)))
        return found

    for patch in (keeping_zone, no_zone):
        monkeypatch.setattr(AfcReader, "zone", patch)
        plan = CompiledDataset(spec.text, chunk_row_cap=32).plan(TITAN_ZONED)
        afcs = group_by_home_node(plan.afcs)["osu0"]
        source = DataSourceService("osu0", spec.mount, FilteringService())
        try:
            # Cold, then a scan that caches other chunks after these,
            # then warm: the warm lookups' promotions order the LRU.
            source.execute(plan, afcs, IOStats(), NULL_TRACER, ExecOptions())
            scan = CompiledDataset(spec.text).plan("SELECT S2 FROM TitanData")
            source.execute(
                scan, group_by_home_node(scan.afcs)["osu0"], IOStats(),
                NULL_TRACER, ExecOptions(),
            )
            source.execute(plan, afcs, IOStats(), NULL_TRACER, ExecOptions())
            orders.append(list(source.extractor._segments._segments))
        finally:
            source.close()
    assert orders[0] == orders[1]
    (survivors, entries), = kept
    assert 0 < survivors < len(afcs) and entries == survivors


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
