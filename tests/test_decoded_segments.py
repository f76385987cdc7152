"""Chunks cached as decoded columns read exactly like payloads as read.

The segment cache keeps a chunk of a multi-field strip as one
contiguous read-only column per field, transposed once when the chunk is
read; adjacent chunks of one strip read by one coalesced read share
their columns, each chunk a row range.  A seeded generator draws plans
over IPARS L0 and I-VI, Titan, MRI, a cross-node group and two edge
layouts — mixed-width big-endian records, and two strips in one file
whose chunks interleave so a strip's chunks sit at gaps that are not a
whole number of its records — under every cache shape: segment cache
0 / tiny (evictions mid-run) / default, coalescing off and 64 KiB, a
coalesced-run cap small enough that blocks cross sharing groups, chunk
row caps (short tails), block sizes and ``intra_node_workers``.  Each
draw runs a cold pass then a warm pass three ways: decoded, decoded and
traced (which must look a run of hits up under one lock like the
untraced way, not chunk by chunk), and with every chunk cached as read
(the decode before columnar entries).  Every pass's tables must be bit-identical,
and a single-worker pass's ``IOStats`` equal field for field across the
three ways — same reads, same hits, same evictions.  (Learned chunk
bounds, which only decoded chunks teach, are off in that matrix.)

Then the pieces: the tiled transpose over padded, mixed-width and
big-endian records; the memory bound (at most one sharing group per
file is held with some of its chunks evicted, also when a hot chunk
pins a mostly evicted run); a raw ``read_chunk`` never sees a decoded
entry; and the ``views`` span tag and ``segments.transposed_bytes``
counter, recorded only when tracing.
"""

from __future__ import annotations

import collections
import random
import sys
import threading

import numpy as np
import pytest

from repro.core import CompiledDataset, ExecOptions, GeneratedDataset, local_mount
from repro.core import extractor as extractor_module
from repro.core.afc import group_by_home_node
from repro.core.extractor import (
    AfcReader, Extractor, _Decoded, _Group, _SegmentCache, _transpose,
)
from repro.core.kernels import KernelCache
from repro.core.stats import IOStats
from repro.datasets.writers import write_dataset
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sql.functions import DEFAULT_REGISTRY
from repro.storm.data_source import DataSourceService
from repro.storm.filtering import FilteringService
from tests.conftest import run_plan
from tests.test_run_decode import Spec, draw_query, specs  # noqa: F401

MIXED_TEXT = """
[S]
T = int
A = be float
B = be double
C = int
D = char
E = short int

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATAINDEX { T }
  DATASPACE {
    LOOP T 1:12:1 {
      LOOP G 0:22:1 { A B C D E }
    }
  }
  DATA { DIR[0]/mixed.bin }
}
"""

#: Two strips in one file, chunk after chunk, 18 records a chunk: D E
#: records are 6 bytes and A B C records 13, so A B C chunks sit 108
#: bytes apart — not a whole number of its records — and each D E chunk
#: is followed directly by an A B C chunk of exactly 39 D E records'
#: bytes, which must not be decoded as D E records.
TWO_STRIPS_TEXT = """
[S]
T = int
A = float
B = double
C = char
D = short int
E = be int

[D]
DatasetDescription = S
DIR[0] = n0/d
DIR[1] = n1/d

DATASET "D" {
  DATAINDEX { T }
  DATASPACE {
    LOOP T 1:10:1 {
      LOOP G 0:17:1 { D E }
      LOOP G 0:17:1 { A B C }
    }
  }
  DATA { DIR[$DIRID]/two.bin DIRID = 0:1:1 }
}
"""

EDGE_STORED = {
    "A": (1.0, 40.0), "B": (-20.0, 3.0), "C": (1000, 13000),
    "D": (0, 120), "E": (-30000, 30000),
}


def edge_value(attr, env, coords):
    t, g = coords["T"], coords["G"]
    return {
        "A": t * 1.5 + g,
        "B": t * 0.25 - g,
        "C": t * 1000 + g,
        "D": (t * 7 + g) % 120,
        "E": (t * 2711 - g * 977) % 60000 - 30000,
    }[attr]


@pytest.fixture(scope="module")
def edge_specs(tmp_path_factory):
    out = {}
    for name, text in (("mixed", MIXED_TEXT), ("two-strips", TWO_STRIPS_TEXT)):
        mount = local_mount(str(tmp_path_factory.mktemp(f"decoded_{name}")))
        write_dataset(CompiledDataset(text), mount, edge_value)
        out[name] = Spec(
            name, "D", text, mount, ("T",), EDGE_STORED, (None, 5, 9)
        )
    return out


def held(extractor) -> collections.Counter:
    """Per file, the groups the cache holds with some chunks gone."""
    cached = {}
    for entry in extractor._segments._segments.values():
        if isinstance(entry, _Decoded):
            group = entry.group
            cached.setdefault(id(group), [group, 0])[1] += len(entry)
    return collections.Counter(
        group.file for group, nbytes in cached.values() if nbytes < group.nbytes
    )


def assert_bounded(extractor) -> None:
    """Memory held: the capacity plus at most one group per file."""
    cache = extractor._segments
    assert cache.size <= cache.capacity
    assert all(count <= 1 for count in held(extractor).values())


def run_passes(spec, plan, cache_bytes, opts, traced):
    """A cold and a warm pass of ``plan`` on one set of node services:
    per pass, (tables, stats)."""
    sources = {}
    out = []
    try:
        for _ in range(2):
            stats, tables = IOStats(), []
            tracer = Tracer() if traced else NULL_TRACER
            for node, afcs in group_by_home_node(plan.afcs).items():
                if node not in sources:
                    sources[node] = DataSourceService(
                        node, spec.mount, FilteringService(),
                        segment_cache_bytes=cache_bytes,
                    )
                tables.append(sources[node].execute(plan, afcs, stats, tracer, opts))
                assert_bounded(sources[node].extractor)
            out.append((tables, stats))
    finally:
        for source in sources.values():
            source.close()
    return out


def assert_same_tables(got, want, context):
    assert len(got) == len(want), context
    for a, b in zip(got, want):
        assert a.column_names == b.column_names, context
        for name in a.column_names:
            x, y = a.column(name), b.column(name)
            assert x.dtype == y.dtype, f"{context}: {name}"
            assert x.tobytes() == y.tobytes(), f"{context}: {name}"


DRAWS = 240


def test_decoded_cache_reads_like_payloads_as_read(
    specs, edge_specs, monkeypatch
):
    rng = random.Random(20261017)
    drawn = list(specs.values()) + list(edge_specs.values())
    block_rows = {}
    monkeypatch.setattr(
        extractor_module, "block_rows_for",
        lambda needed, dtypes: block_rows["now"],
    )
    # How often the paths under test ran: a run of hits served at once
    # (per way), a fused block as one view, and one stitched across
    # groups.  (A ragged group copied out: test_a_hot_chunk_pinning_...)
    seen = collections.Counter()
    way_now = {}
    get_run, stitch = _SegmentCache.get_run, extractor_module._stitch

    def counting_get_run(cache, keys, dtypes):
        entries = get_run(cache, keys, dtypes)
        seen[f"runs of hits {way_now['way']}"] += entries is not None
        return entries

    def counting_stitch(entries, dtype, wanted, columns):
        views = stitch(entries, dtype, wanted, columns)
        seen["views" if views else "stitched"] += 1
        return views

    monkeypatch.setattr(_SegmentCache, "get_run", counting_get_run)
    monkeypatch.setattr(extractor_module, "_stitch", counting_stitch)
    # Learned chunk bounds prune warm passes of decoded chunks only:
    # off here, so the three ways read the same AFCs (their own
    # differential matrix is tests/test_zone_maps.py).
    monkeypatch.setattr(Extractor, "prune", lambda self, plan, afcs, tracer=None: afcs)
    for draw in range(DRAWS):
        spec = drawn[draw % len(drawn)]
        cap = rng.choice(spec.caps)
        kind = rng.choice([CompiledDataset, GeneratedDataset])
        plan = kind(spec.text, chunk_row_cap=cap).plan(draw_query(rng, spec))
        block_rows["now"] = rng.choice([1, 7, 64, 10**6])
        cache_bytes = rng.choice([0, 300, 4096, 32 * 1024 * 1024])
        run_cap = rng.choice([extractor_module.MAX_COALESCED_BYTES, 256, 2048])
        opts = ExecOptions(
            coalesce_gap_bytes=rng.choice([0, 64 * 1024]),
            intra_node_workers=rng.choice([1, 1, 3]),
        )
        context = (
            f"draw {draw} {spec.name} cap={cap} block={block_rows['now']} "
            f"cache={cache_bytes} run_cap={run_cap} {opts}"
        )
        ways = {}
        with monkeypatch.context() as patch:
            patch.setattr(extractor_module, "MAX_COALESCED_BYTES", run_cap)
            for way, traced in (("decoded", False), ("traced", True)):
                way_now["way"] = way
                ways[way] = run_passes(spec, plan, cache_bytes, opts, traced)
            patch.setattr(Extractor, "_decoded_dtype", lambda self, strip: None)
            way_now["way"] = "as read"
            ways["as read"] = run_passes(spec, plan, cache_bytes, opts, False)
        want = ways["as read"][0][0]
        for way, passes in ways.items():
            for number, (tables, stats) in enumerate(passes):
                assert_same_tables(tables, want, f"{context} {way} pass {number}")
                if opts.intra_node_workers == 1:
                    assert stats == ways["as read"][number][1], (
                        f"{context} {way} pass {number}"
                    )
    # Traced runs take the one-lock lookup of a run of hits as often as
    # untraced ones: tracing never forks the read path.
    assert seen["runs of hits traced"] == seen["runs of hits decoded"], seen
    assert min(seen.values()) > 0 and len(seen) == 5, seen


# ---------------------------------------------------------------------------
# The segment cache
# ---------------------------------------------------------------------------


def decoded_entry(dtype, rows=2):
    columns = {name: np.zeros(rows, dtype.fields[name][0]) for name in dtype.names}
    group = _Group(("n", "f"), columns, [("x",)])
    return _Decoded(group, 0, rows, rows * dtype.itemsize, dtype)


def test_get_run_promotes_in_order_or_not_at_all():
    mine = np.dtype([("a", "<f4"), ("b", "<i2")])
    other = np.dtype([("a", "<f4"), ("c", "<i2")])
    cache = _SegmentCache(capacity_bytes=100)
    for key in "abcd":
        cache.put((key,), b"." * 12)
    cache.put(("x",), decoded_entry(mine))
    order = lambda: [key for (key,) in cache._segments]
    assert order() == list("abcdx")
    # A missing key, or a decoded entry of another dtype: no promotion.
    assert cache.get_run([("c",), ("z",)], [None, None]) is None
    assert cache.get_run([("a",), ("x",)], [None, other]) is None
    assert order() == list("abcdx")
    entries = cache.get_run([("c",), ("x",), ("a",)], [None, mine, None])
    assert entries[1] is cache._segments[("x",)]
    assert order() == list("bdcxa")
    # A raw request of a decoded entry never fits; a payload as read
    # fits every request.
    assert cache.get_run([("x",)], [None]) is None
    assert cache.get_run([("b",)], [mine]) is not None


# ---------------------------------------------------------------------------
# The transpose
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [
    np.dtype({"names": ["a", "b", "c"], "formats": [">f4", "<i8", "i1"],
              "offsets": [0, 4, 12], "itemsize": 13}),
    np.dtype({"names": ["a", "c"], "formats": ["<f8", ">i2"],
              "offsets": [3, 14], "itemsize": 20}),  # padded
    np.dtype({"names": [n for n in "abcdefghi"], "formats": ["<f4"] * 9,
              "offsets": [4 * i for i in range(9)], "itemsize": 36}),
    # Equal widths, fields out of offset order, mixed kinds and orders.
    np.dtype({"names": ["a", "b", "c"], "formats": [">f8", "<i8", ">u8"],
              "offsets": [16, 0, 8], "itemsize": 24}),
])
def test_transpose_matches_field_copies(dtype, monkeypatch):
    monkeypatch.setattr(extractor_module, "_TILE_BYTES", 3 * dtype.itemsize)
    rows = 50
    data = np.random.default_rng(7).integers(
        0, 256, (rows + 2) * dtype.itemsize + 5, dtype=np.uint8
    ).tobytes()
    start = 5 + dtype.itemsize
    columns = _transpose(data, start, rows, dtype)
    records = np.frombuffer(data, dtype=dtype, count=rows, offset=start)
    assert list(columns) == list(dtype.names)
    for name, column in columns.items():
        assert column.flags.c_contiguous and not column.flags.writeable
        assert column.dtype == dtype.fields[name][0]
        assert column.tobytes() == np.ascontiguousarray(records[name]).tobytes()


# ---------------------------------------------------------------------------
# Sharing groups and the memory bound
# ---------------------------------------------------------------------------


def titan_reader(spec, extractor, gap):
    plan = CompiledDataset(spec.text).plan("SELECT X, S1 FROM TitanData")
    afcs = group_by_home_node(plan.afcs)["osu0"]
    return plan, afcs, extractor.reader_for(plan, afcs, coalesce_gap_bytes=gap)


def test_a_coalesced_run_shares_columns_and_a_run_of_hits_is_a_view(specs):
    spec = specs["titan"]
    with Extractor(spec.mount) as extractor:
        plan, afcs, reader = titan_reader(spec, extractor, 64 * 1024)
        part = afcs.parts[0]
        stats = IOStats()
        cold = reader.columns(part, 0, len(part), stats)
        assert stats.read_calls == 1 and stats.reads_coalesced == len(part) - 1
        (group,) = {
            entry.group for entry in extractor._segments._segments.values()
        }
        hits = stats.cache_hits
        warm = reader.columns(part, 0, len(part), stats)
        assert stats.cache_hits - hits == len(part)
        for name in ("X", "S1"):
            assert np.array_equal(cold[name], warm[name])
            # No copy: a read-only slice of the group's column.
            assert np.shares_memory(warm[name], group.columns[name])
            assert warm[name].flags.c_contiguous
            assert not warm[name].flags.writeable
            # A lone row is a view as well — contiguous, not strided.
            row = reader.columns(part, 1, 2, stats)[name]
            assert row.flags.c_contiguous and np.shares_memory(row, group.columns[name])


def test_a_hot_chunk_pinning_an_evicted_run_is_copied_out(
    edge_specs, monkeypatch
):
    spec = edge_specs["mixed"]
    chunk = 23 * 19
    # Runs of 4 of the file's 12 chunks and room for 5: each run's fill
    # evicts the run before, all but the hot chunk read after every
    # chunk — which keeps that run's group ragged until the next run
    # goes ragged too, and the hot chunk is copied out of it.
    monkeypatch.setattr(extractor_module, "MAX_COALESCED_BYTES", 4 * chunk)
    plan = CompiledDataset(spec.text).plan("SELECT A, C, E FROM D")
    (part,) = plan.afcs.parts
    assert len(part) == 12
    with Extractor(spec.mount) as extractor:
        expected = [
            extractor.reader_for(plan, plan.afcs).columns(
                part, i, i + 1, IOStats()
            )
            for i in range(len(part))
        ]
    hot = 3  # the last chunk of the first run
    stats = IOStats()
    with Extractor(spec.mount, segment_cache_bytes=5 * chunk) as extractor:
        reader = extractor.reader_for(plan, plan.afcs, coalesce_gap_bytes=64)
        for i in range(len(part)):
            for k in (i, hot):
                got = reader.columns(part, k, k + 1, stats)
                for name in ("A", "C", "E"):
                    assert got[name].tobytes() == expected[k][name].tobytes()
            assert_bounded(extractor)
        assert stats.read_calls == 3
        # The hot chunk outlived its run's group: it was copied out.
        key = (
            "n0", part.layout.members[0].path, int(part.offsets[hot, 0]), chunk
        )
        entry = extractor._segments._segments[key]
        assert entry.group.nbytes == len(entry) == chunk


def test_a_raw_read_never_sees_a_decoded_entry(specs):
    spec = specs["titan"]
    with Extractor(spec.mount) as extractor:
        plan, afcs, reader = titan_reader(spec, extractor, 0)
        part = afcs.parts[0]
        reader.columns(part, 0, 1, IOStats())
        ((key, entry),) = extractor._segments._segments.items()
        assert isinstance(entry, _Decoded)
        stats = IOStats()
        data = extractor.read_chunk(*key, stats)
        assert isinstance(data, bytes) and len(data) == key[3]
        with open(spec.mount(key[0], key[1]), "rb") as f:
            f.seek(key[2])
            assert data == f.read(key[3])
        # Read again from the file, and the decoded entry left in place.
        assert (stats.read_calls, stats.cache_hits) == (1, 0)
        assert extractor._segments._segments[key] is entry


# ---------------------------------------------------------------------------
# Coalesce planning at a call's first miss
# ---------------------------------------------------------------------------

PLANNED = "SELECT X, Y, SOIL FROM IparsData WHERE TIME > 2 AND SOIL > 0.3"


def eager_reader_for(self, plan, afcs, tracer=NULL_TRACER,
                     coalesce_gap_bytes=0, node=None):
    """The reader a call got when it planned before its first read."""
    columns = plan.extracted
    return AfcReader(
        self, columns, plan.dtypes, tracer,
        self.coalesce_for(afcs, columns, coalesce_gap_bytes), node,
    )


def planned_runs(ipars_l0, monkeypatch, cache_bytes, eager=False):
    """Per pass (cold, then warm) of one node's query, its ``IOStats``
    and how often ``coalesce_for`` ran."""
    _, text, mount = ipars_l0
    plan = CompiledDataset(text).plan(PLANNED)
    afcs = group_by_home_node(plan.afcs)["osu0"]
    calls = []
    coalesce_for = Extractor.coalesce_for

    def counted(self, *args):
        calls.append(1)
        return coalesce_for(self, *args)

    passes = []
    with monkeypatch.context() as patch:
        patch.setattr(Extractor, "coalesce_for", counted)
        if eager:
            patch.setattr(Extractor, "reader_for", eager_reader_for)
        source = DataSourceService(
            "osu0", mount, FilteringService(), segment_cache_bytes=cache_bytes
        )
        try:
            for _ in range(2):
                stats = IOStats()
                source.execute(plan, afcs, stats, NULL_TRACER, ExecOptions())
                passes.append((stats, len(calls)))
                calls.clear()
        finally:
            source.close()
    return passes


@pytest.mark.parametrize("cache_bytes", [32 * 1024 * 1024, 300], ids=["whole", "tiny"])
def test_a_call_plans_its_reads_at_its_first_miss(
    ipars_l0, monkeypatch, cache_bytes
):
    lazy = planned_runs(ipars_l0, monkeypatch, cache_bytes)
    eager = planned_runs(ipars_l0, monkeypatch, cache_bytes, eager=True)
    (cold, cold_plans), (warm, warm_plans) = lazy
    assert cold.reads_coalesced and cold_plans == 1
    if cache_bytes == 300:
        # Nothing stays cached: the warm call misses and plans too.
        assert warm.read_calls and warm_plans == 1
    else:
        # Every chunk hits: no read, no plan.
        assert warm.read_calls == 0 and warm_plans == 0
    for (got, _), (want, plans) in zip(lazy, eager):
        assert plans == 1
        assert got == want


def test_a_call_begun_before_drop_caches_leaves_nothing_cached(ipars_l0):
    # A query still reading when the caches are dropped (a node thread
    # left running by a quota trip or a cancel) must not fill the cache
    # the next query starts from.
    _, text, mount = ipars_l0
    plan = CompiledDataset(text).plan(PLANNED)
    afcs = group_by_home_node(plan.afcs)["osu0"]
    part = afcs.parts[0]
    with Extractor(mount) as extractor:
        early = extractor.reader_for(plan, afcs, coalesce_gap_bytes=64 * 1024)
        extractor.drop_caches()
        got = early.columns(part, 0, len(part), IOStats())
        assert not extractor._segments._segments
        assert_bounded(extractor)
        stats = IOStats()
        late = extractor.reader_for(plan, afcs, coalesce_gap_bytes=64 * 1024)
        want = late.columns(part, 0, len(part), stats)
        assert stats.read_calls and extractor._segments._segments
        for name, column in want.items():
            assert got[name].tobytes() == column.tobytes()


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_views_tag_and_transposed_bytes_only_when_tracing(specs):
    spec = specs["titan"]
    plan = CompiledDataset(spec.text).plan(
        "SELECT X, S1 FROM TitanData WHERE S1 > 0.5"
    )
    afcs = group_by_home_node(plan.afcs)["osu0"]
    source = DataSourceService("osu0", spec.mount, FilteringService())
    try:
        source.execute(plan, afcs, IOStats(), NULL_TRACER, ExecOptions())
        untraced = source.extractor._segments.size
        assert untraced > 0
        source.drop_caches()
        cold, warm = Tracer(), Tracer()
        source.execute(plan, afcs, IOStats(), cold, ExecOptions())
        source.execute(plan, afcs, IOStats(), warm, ExecOptions())
    finally:
        source.close()
    counter = cold.metrics.counters["segments.transposed_bytes"]
    assert counter.value == untraced  # every chunk cached was transposed
    assert "segments.transposed_bytes" not in warm.metrics.counters
    for tracer in (cold, warm):
        spans = [s for s in tracer.spans if s.name == "extract_afc"]
        assert spans and all(s.tags["views"] is True for s in spans)


def test_views_tag_is_false_where_a_field_is_copied(specs):
    spec = specs["ipars-L0"]
    # SOIL is a single-field strip, joined per run; X and Y are fields
    # of the one COORDS chunk every AFC of a node repeats, concatenated.
    for sql in (
        "SELECT X, SOIL FROM IparsData WHERE SOIL > 0.5",
        "SELECT X, Y FROM IparsData WHERE X > 0.5",
    ):
        plan = CompiledDataset(spec.text).plan(sql)
        node, afcs = next(iter(group_by_home_node(plan.afcs).items()))
        source = DataSourceService(node, spec.mount, FilteringService())
        tracer = Tracer()
        try:
            source.execute(plan, afcs, IOStats(), NULL_TRACER, ExecOptions())
            source.execute(plan, afcs, IOStats(), tracer, ExecOptions())
        finally:
            source.close()
        spans = [s for s in tracer.spans if s.name == "extract_afc"]
        assert spans and all(s.tags["views"] is False for s in spans), sql


class CountingMeter:
    def __init__(self):
        self.charges = []

    def checkpoint(self):
        pass

    def charge(self, rows=0, nbytes=0):
        self.charges.append((rows, nbytes))


def test_a_run_of_hits_charges_the_meter_once_per_afc(specs):
    # A warm run is looked up at once, traced or not.  The meter sees
    # the same charges either way: one per AFC, then one per block.
    spec = specs["titan"]
    plan = CompiledDataset(spec.text).plan("SELECT X, S1 FROM TitanData WHERE S1 > 0.5")
    evaluator = KernelCache(DEFAULT_REGISTRY).evaluator(plan.where, True)
    charges = []
    with Extractor(spec.mount) as extractor:
        for tracer in (NULL_TRACER, NULL_TRACER, Tracer()):
            meter, stats = CountingMeter(), IOStats()
            for node, afcs in group_by_home_node(plan.afcs).items():
                reader = extractor.reader_for(plan, afcs, tracer, 64 * 1024, node)
                list(extractor.execute_blocks(
                    plan, afcs, evaluator, reader, stats, meter=meter
                ))
            charges.append(meter.charges)
    cold, warm, traced = charges
    assert warm == traced
    assert sum(1 for rows, _ in warm if rows == 0) >= len(plan.afcs)
    assert [rows for rows, _ in cold] == [rows for rows, _ in warm]


def test_threads_sharing_a_tiny_cache_keep_its_accounting(specs):
    # More threads than cores, a short switch interval, a cache that
    # holds a few chunks: every thread decodes the same coalesced runs
    # while the others evict them.  The accounting must hold after.
    spec = specs["titan"]
    plan = CompiledDataset(spec.text).plan("SELECT X, S1 FROM TitanData")
    expected = None
    with Extractor(spec.mount) as extractor:
        expected = run_plan(extractor, plan, coalesce_gap_bytes=64 * 1024)
    errors = []

    def work(extractor):
        try:
            for _ in range(40):
                table = run_plan(extractor, plan, coalesce_gap_bytes=64 * 1024)
                for name in table.column_names:
                    assert table.column(name).tobytes() == (
                        expected.column(name).tobytes()
                    )
        except Exception as exc:  # reported below, with the others
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Extractor(spec.mount, segment_cache_bytes=3 * 160 * 36) as extractor:
            threads = [
                threading.Thread(target=work, args=(extractor,)) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            cache = extractor._segments
            assert cache.size == sum(len(e) for e in cache._segments.values())
            assert_bounded(extractor)
            live = collections.Counter(
                id(e.group) for e in cache._segments.values()
                if isinstance(e, _Decoded)
            )
            for entry in cache._segments.values():
                if isinstance(entry, _Decoded):
                    assert entry.group.live == live[id(entry.group)]
    finally:
        sys.setswitchinterval(interval)
