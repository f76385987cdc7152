"""Tests for the chunk extractor: I/O, caching, stats, failure modes."""

import os

import numpy as np
import pytest

from repro.core import CompiledDataset, Extractor, IOStats, local_mount
from repro.core.afc import AfcTable
from repro.core.extractor import AfcReader, _SegmentCache
from repro.errors import ExtractionError
from tests.conftest import (
    PAPER_DESCRIPTOR, cached_buffers, paper_value_fn, run_plan,
)


def write_node_file(root, node, name, payload):
    """Write one raw file under a node directory; returns the payload."""
    node_dir = os.path.join(str(root), node)
    os.makedirs(node_dir, exist_ok=True)
    with open(os.path.join(node_dir, name), "wb") as handle:
        handle.write(payload)
    return payload


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    from repro.datasets.writers import write_dataset

    root = tmp_path_factory.mktemp("extractor")
    mount = local_mount(str(root))
    dataset = CompiledDataset(PAPER_DESCRIPTOR)
    write_dataset(dataset, mount, paper_value_fn)
    return dataset, mount, str(root)


class TestExecute:
    def test_full_scan_values(self, env):
        dataset, mount, _ = env
        with Extractor(mount) as extractor:
            table = run_plan(extractor, dataset.plan("SELECT * FROM IparsData"))
        assert table.num_rows == 4 * 4 * 20 * 10
        # Spot-check: X column equals the GRID id by construction.
        idx = table.sort_key()
        assert table["X"].min() == 1.0
        assert table["X"].max() == 40.0

    def test_predicate_filtering(self, env):
        dataset, mount, _ = env
        with Extractor(mount) as extractor:
            table = run_plan(
                extractor, dataset.plan("SELECT SOIL FROM IparsData WHERE SOIL > 0.75")
            )
        assert (table["SOIL"] > 0.75).all()

    def test_projection_order(self, env):
        dataset, mount, _ = env
        with Extractor(mount) as extractor:
            table = run_plan(extractor, dataset.plan(
                "SELECT Z, REL, SOIL FROM IparsData WHERE TIME = 1"
            ))
        assert table.column_names == ("Z", "REL", "SOIL")

    def test_implicit_dtype_matches_schema(self, env):
        dataset, mount, _ = env
        with Extractor(mount) as extractor:
            table = run_plan(extractor, dataset.plan(
                "SELECT REL, TIME FROM IparsData WHERE TIME = 2"
            ))
        assert table["REL"].dtype == np.dtype("<i2")
        assert table["TIME"].dtype == np.dtype("<i4")

    def test_empty_result_keeps_schema_dtypes(self, env):
        dataset, mount, _ = env
        with Extractor(mount) as extractor:
            table = run_plan(
                extractor, dataset.plan("SELECT X FROM IparsData WHERE TIME > 999")
            )
        assert table.num_rows == 0
        assert table["X"].dtype == np.dtype("<f4")

    def test_scalar_false_predicate(self, env):
        dataset, mount, _ = env
        with Extractor(mount) as extractor:
            table = run_plan(
                extractor, dataset.plan("SELECT X FROM IparsData WHERE FALSE")
            )
        assert table.num_rows == 0


class TestStats:
    def test_counts(self, env):
        dataset, mount, _ = env
        stats = IOStats()
        with Extractor(mount, segment_cache_bytes=0) as extractor:
            run_plan(extractor, dataset.plan("SELECT * FROM IparsData"), stats)
        assert stats.afcs_processed == 16 * 20
        assert stats.chunks_read == 16 * 20 * 2
        assert stats.rows_extracted == 3200
        assert stats.rows_output == 3200
        # Without the segment cache, each DATA chunk is read once but the
        # COORDS chunk is re-read by every AFC it participates in.
        data_bytes = 16 * 1600
        coords_bytes = 16 * 20 * 120
        assert stats.bytes_read == data_bytes + coords_bytes

    def test_sequential_reads_need_few_seeks(self, env):
        dataset, mount, _ = env
        stats = IOStats()
        with Extractor(mount, segment_cache_bytes=0) as extractor:
            run_plan(extractor, dataset.plan(
                "SELECT SOIL FROM IparsData WHERE REL = 0"
            ), stats)
        # Reading one DATA file beginning-to-end costs ~1 repositioning per
        # file, not one per chunk.
        assert stats.seeks <= 2 * 4 + 4

    def test_segment_cache_hits(self, env):
        dataset, mount, _ = env
        stats = IOStats()
        with Extractor(mount) as extractor:
            run_plan(extractor, dataset.plan("SELECT * FROM IparsData"), stats)
        assert stats.cache_hits > 0

    def test_drop_caches(self, env):
        dataset, mount, _ = env
        extractor = Extractor(mount)
        s1, s2, s3 = IOStats(), IOStats(), IOStats()
        plan = dataset.plan("SELECT X FROM IparsData WHERE TIME = 1")
        run_plan(extractor, plan, s1)
        run_plan(extractor, plan, s2)
        assert s2.bytes_read == 0  # fully cached
        extractor.drop_caches()
        run_plan(extractor, plan, s3)
        assert s3.bytes_read == s1.bytes_read
        extractor.close()


class TestFailures:
    def test_missing_file(self, env):
        dataset, _, root = env

        def broken_mount(node, path):
            return os.path.join(root, "nowhere", node, path)

        with Extractor(broken_mount) as extractor:
            with pytest.raises(ExtractionError, match="cannot open"):
                run_plan(extractor, dataset.plan("SELECT * FROM IparsData"))

    def test_short_read_reports_layout_mismatch(self, env, tmp_path):
        dataset, mount, root = env
        # Truncate a copy of the dataset.
        import shutil

        copy_root = tmp_path / "truncated"
        shutil.copytree(root, copy_root)
        victim = copy_root / "osu0" / "ipars" / "DATA0"
        with open(victim, "r+b") as handle:
            handle.truncate(100)
        with Extractor(local_mount(str(copy_root))) as extractor:
            with pytest.raises(ExtractionError, match="short read"):
                run_plan(extractor, dataset.plan("SELECT * FROM IparsData"))

    def test_failed_read_does_not_advance_head(self, tmp_path):
        """A short read must not move the simulated head to undelivered
        bytes: the next read from the last *successful* position is
        sequential and must stay seek-free."""
        write_node_file(tmp_path, "n", "f.bin", bytes(100))
        stats = IOStats()
        with Extractor(local_mount(tmp_path), segment_cache_bytes=0) as ex:
            ex.read_chunk("n", "f.bin", 0, 40, stats)
            assert stats.seeks == 1  # first read repositions from nowhere
            with pytest.raises(ExtractionError, match="short read"):
                ex.read_chunk("n", "f.bin", 40, 1000, stats)
            # Continue the sequential scan where the successful read left
            # off; with the phantom head at 1040 this would charge a seek.
            ex.read_chunk("n", "f.bin", 40, 20, stats)
        assert stats.seeks == 1

    def test_handle_cache_eviction(self, env):
        dataset, mount, _ = env
        stats = IOStats()
        # With a single handle, the COORDS/DATA alternation of every AFC
        # evicts and reopens constantly (the paper's many-files effect).
        with Extractor(mount, handle_cache=1, segment_cache_bytes=0) as ex:
            run_plan(ex, dataset.plan("SELECT * FROM IparsData"), stats)
        assert stats.files_opened > 20


class TestSegmentCache:
    def test_overwrite_does_not_double_count(self):
        cache = _SegmentCache(capacity_bytes=100)
        cache.put(("n", "f", 0, 40), b"x" * 40)
        cache.put(("n", "f", 0, 40), b"y" * 40)  # same key, re-inserted
        assert cache.size == 40

    def test_overwrite_does_not_starve_capacity(self):
        cache = _SegmentCache(capacity_bytes=100)
        for _ in range(3):
            cache.put(("n", "f", 0, 40), b"z" * 40)
        # A phantom size of 120 would evict entries that still fit.
        cache.put(("n", "g", 0, 30), b"a" * 30)
        cache.put(("n", "h", 0, 30), b"b" * 30)
        assert cache.size == 100
        assert cache.get(("n", "f", 0, 40)) is not None
        assert cache.get(("n", "g", 0, 30)) is not None
        assert cache.get(("n", "h", 0, 30)) is not None

    def test_eviction_still_honours_lru(self):
        cache = _SegmentCache(capacity_bytes=100)
        cache.put(("a",), b"1" * 40)
        cache.put(("b",), b"2" * 40)
        assert cache.get(("a",)) is not None  # refresh "a"
        cache.put(("c",), b"3" * 40)  # evicts "b", the least recent
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.get(("c",)) is not None


class TestResultOwnership:
    """Emitted columns must own their memory, never alias cache segments."""

    def _columns(self, env):
        from repro.storm.filtering import FilteringService

        dataset, mount, _ = env
        extractor = Extractor(mount)
        plan = dataset.plan("SELECT REL, TIME, X, SOIL FROM IparsData")
        stats = IOStats()
        afc = plan.afcs[0]
        raw = AfcReader(extractor, plan.needed, plan.dtypes).columns(
            AfcTable.of([afc]).parts[0], 0, 1, stats
        )
        selected = FilteringService().apply(
            plan.where, raw, plan.output, afc.num_rows, stats
        )
        return extractor, selected

    def test_unfiltered_columns_are_writable(self, env):
        extractor, selected = self._columns(env)
        try:
            for name, column in selected.items():
                assert column.flags.writeable, name
                column[0] = column[0]  # mutation must not raise
        finally:
            extractor.close()

    def test_columns_do_not_alias_cache_segments(self, env):
        extractor, selected = self._columns(env)
        try:
            segments = cached_buffers(extractor)
            assert segments
            for name, column in selected.items():
                for segment in segments:
                    assert not np.shares_memory(column, segment), name
        finally:
            extractor.close()

    def test_mutating_a_result_does_not_poison_the_cache(self, env):
        dataset, mount, _ = env
        plan = dataset.plan("SELECT SOIL FROM IparsData WHERE TIME = 1")
        with Extractor(mount) as extractor:
            first = run_plan(extractor, plan)
            first["SOIL"][:] = -1.0
            second = run_plan(extractor, plan)  # served from the segment cache
        assert not (second["SOIL"] == -1.0).any()


class TestCoalescing:
    """I/O coalescing: merged reads, gap windows, and their accounting."""

    def test_gap_merge_reads_and_accounting(self, tmp_path):
        blob = write_node_file(tmp_path, "n", "f", bytes(range(256)) * 500)
        reads = [("n", "f", 0, 100), ("n", "f", 150, 100), ("n", "f", 99_000, 100)]
        stats = IOStats()
        with Extractor(local_mount(tmp_path)) as ex:
            plan = ex.plan_coalesce(reads, gap_bytes=64)
            assert plan is not None
            assert plan.num_runs == 1 and plan.num_members == 2
            a = ex.read_chunk("n", "f", 0, 100, stats, coalesce=plan)
            b = ex.read_chunk("n", "f", 150, 100, stats, coalesce=plan)
            c = ex.read_chunk("n", "f", 99_000, 100, stats, coalesce=plan)
        assert a == blob[0:100]
        assert b == blob[150:250]
        assert c == blob[99_000:99_100]
        # One merged read for a+b, one plain read for the far-away c.
        assert stats.read_calls == 2
        assert stats.reads_coalesced == 1
        assert stats.readahead_waste_bytes == 50
        assert stats.cache_hits == 1  # b came out of the merged payload
        assert stats.bytes_read == 250 + 100  # merged span + c

    def test_gap_window_not_exceeded(self, tmp_path):
        write_node_file(tmp_path, "n", "f", bytes(1000))
        with Extractor(local_mount(tmp_path)) as ex:
            # Hole of 65 bytes > gap of 64: no run is formed.
            plan = ex.plan_coalesce(
                [("n", "f", 0, 100), ("n", "f", 165, 100)], gap_bytes=64
            )
        assert plan is None

    def test_zero_gap_disables_coalescing(self, tmp_path):
        write_node_file(tmp_path, "n", "f", bytes(1000))
        with Extractor(local_mount(tmp_path)) as ex:
            assert ex.plan_coalesce([("n", "f", 0, 10), ("n", "f", 10, 10)], 0) is None
            assert ex.plan_coalesce([("n", "f", 0, 10), ("n", "f", 10, 10)], -1) is None

    def test_max_run_bytes_bounds_merged_span(self, tmp_path):
        write_node_file(tmp_path, "n", "f", bytes(4000))
        reads = [("n", "f", i * 1000, 1000) for i in range(4)]
        with Extractor(local_mount(tmp_path)) as ex:
            plan = ex.plan_coalesce(reads, gap_bytes=1, max_run_bytes=2000)
        assert plan.num_runs == 2  # two runs of two chunks, not one of four

    def test_runs_stay_within_one_file_and_merge_duplicates(self, tmp_path):
        write_node_file(tmp_path, "n", "f", bytes(1000))
        write_node_file(tmp_path, "n", "g", bytes(1000))
        reads = [
            ("n", "g", 0, 100), ("n", "f", 300, 50), ("n", "f", 0, 100),
            ("n", "g", 100, 100), ("n", "f", 0, 100), ("n", "f", 50, 300),
            ("n", "g", 900, 100),
        ]
        with Extractor(local_mount(tmp_path)) as ex:
            plan = ex.plan_coalesce(reads, gap_bytes=10)
        assert plan.num_runs == 2 and plan.num_members == 5
        f_run = plan.run_for(("n", "f", 300, 50))
        assert (f_run.path, f_run.start, f_run.end) == ("f", 0, 350)
        assert f_run.members == ((0, 100), (50, 300), (300, 50))
        g_run = plan.run_for(("n", "g", 0, 100))
        assert (g_run.path, g_run.start, g_run.end) == ("g", 0, 200)
        assert plan.run_for(("n", "g", 900, 100)) is None

    def test_execute_with_coalescing_matches_plain(self, env):
        dataset, mount, _ = env
        plan = dataset.plan("SELECT REL, TIME, X, SOIL FROM IparsData")
        plain_stats, coal_stats = IOStats(), IOStats()
        with Extractor(mount, segment_cache_bytes=0) as ex:
            plain = run_plan(ex, plan, plain_stats)
        with Extractor(mount) as ex:
            coalesced = run_plan(ex, plan, coal_stats, coalesce_gap_bytes=64 * 1024)
        assert plain.num_rows == coalesced.num_rows
        for name in plain.column_names:
            np.testing.assert_array_equal(plain[name], coalesced[name])
        assert coal_stats.read_calls < plain_stats.read_calls
        assert coal_stats.reads_coalesced > 0

    def test_coalesced_chunks_survive_without_segment_cache(self, tmp_path):
        """With a zero-byte cache the merged slices can't be parked; the
        consumed-on-pop path and the plain-read fallback still return
        correct bytes for every chunk — twice."""
        blob = write_node_file(tmp_path, "n", "f", bytes(range(200)))
        reads = [("n", "f", 0, 50), ("n", "f", 50, 50)]
        stats = IOStats()
        with Extractor(local_mount(tmp_path), segment_cache_bytes=0) as ex:
            plan = ex.plan_coalesce(reads, gap_bytes=8)
            for _ in range(2):
                assert ex.read_chunk("n", "f", 0, 50, stats, coalesce=plan) == blob[:50]
                assert (
                    ex.read_chunk("n", "f", 50, 50, stats, coalesce=plan)
                    == blob[50:100]
                )

    def test_coalesced_read_counts_into_tracer_metrics(self, tmp_path):
        from repro.obs import Tracer

        write_node_file(tmp_path, "n", "f", bytes(1000))
        tracer = Tracer()
        stats = IOStats()
        with Extractor(local_mount(tmp_path)) as ex:
            plan = ex.plan_coalesce([("n", "f", 0, 100), ("n", "f", 130, 100)], 64)
            ex.read_chunk("n", "f", 0, 100, stats, tracer, plan)
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["reads.coalesced"] == 1
        assert counters["bytes.readahead_waste"] == 30


#: PAPER_DESCRIPTOR's rows in another physical layout: the same attribute
#: names at other offsets ({ SGAS SOIL }) and in records of another size
#: (Z moved out of COORDS into a file of its own), under osuN/alt.
ALT_DESCRIPTOR = (
    PAPER_DESCRIPTOR.replace("/ipars\n", "/alt\n")
    .replace("{ SOIL SGAS }", "{ SGAS SOIL }")
    .replace("{ X Y Z }", "{ X Y }")
    .replace(
        "DATA { DATASET ipars1 DATASET ipars2 }",
        "DATA { DATASET ipars1 DATASET ipars2 DATASET ipars3 }",
    )
    .replace(
        '  DATASET "ipars2" {',
        '  DATASET "ipars3" {\n'
        "    DATASPACE {\n"
        "      LOOP GRID ($DIRID*10+1):(($DIRID+1)*10):1 { Z }\n"
        "    }\n"
        "    DATA { DIR[$DIRID]/ZCOORD DIRID = 0:3:1 }\n"
        "  }\n\n"
        '  DATASET "ipars2" {',
    )
)


class TestDecodeStateIsPerCall:
    """The per-strip decode layouts hoisted out of the AFC loop are
    scoped to one execute call: plans whose strips look alike (same
    attribute names, other offsets / record sizes) and different
    projections of one strip decode correctly back to back."""

    QUERIES = [
        "SELECT REL, TIME, X, Y, Z, SOIL, SGAS FROM IparsData WHERE TIME <= 3",
        "SELECT SGAS FROM IparsData WHERE TIME <= 3 AND SGAS > 0.2",
        "SELECT SOIL FROM IparsData WHERE TIME <= 3 AND SOIL > 0.2",
        "SELECT X, SOIL FROM IparsData WHERE TIME = 2",
    ]

    def test_lookalike_strips_and_projections_back_to_back(self, env):
        from repro.datasets.writers import write_dataset

        dataset, mount, _ = env
        alt = CompiledDataset(ALT_DESCRIPTOR)
        write_dataset(alt, mount, paper_value_fn)
        sizes = {
            c.strip.record_size
            for ds in (dataset, alt)
            for afc in ds.plan(self.QUERIES[0]).afcs
            for c in afc.chunks
            if "X" in c.strip.attrs
        }
        assert sizes == {8, 12}

        def fresh(ds, sql, vectorize):
            with Extractor(mount) as one_shot:
                return run_plan(one_shot, ds.plan(sql), vectorize=vectorize)

        with Extractor(mount) as shared:
            for vectorize in ("on", "off"):
                for sql in self.QUERIES + self.QUERIES[::-1]:
                    tables = [
                        run_plan(shared, ds.plan(sql), vectorize=vectorize)
                        for ds in (dataset, alt, dataset)
                    ]
                    assert tables[0].num_rows > 0
                    for table, ds in zip(tables, (dataset, alt, dataset)):
                        reference = fresh(ds, sql, vectorize)
                        assert table.column_names == reference.column_names
                        for name in table.column_names:
                            np.testing.assert_array_equal(
                                table[name], reference[name]
                            )
                    # Same rows whatever the physical layout.
                    a, b = tables[0].canonical(), tables[1].canonical()
                    for name in a.column_names:
                        np.testing.assert_array_equal(a[name], b[name])
