"""Concurrency: racing submits share one service graph and agree with serial."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import ExecOptions, GeneratedDataset
from repro.datasets import IparsConfig, ipars
from repro.storm import QueryService, VirtualCluster
from repro.storm.data_source import DataSourceService
from tests.conftest import assert_tables_equal

CONFIG = IparsConfig(num_rels=2, num_times=8, cells_per_node=24, num_nodes=3)
LOCAL = ExecOptions(remote=False)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("concurrent")
    cluster = VirtualCluster.create(str(root), CONFIG.num_nodes)
    text, _ = ipars.generate(CONFIG, "L0", cluster.mount())
    with QueryService(GeneratedDataset(text), cluster) as svc:
        yield svc


@pytest.fixture(scope="module")
def small_service(tmp_path_factory):
    """A service whose caches are small enough to evict constantly."""
    root = tmp_path_factory.mktemp("concurrent_small")
    cluster = VirtualCluster.create(str(root), CONFIG.num_nodes)
    text, _ = ipars.generate(CONFIG, "L0", cluster.mount())
    svc = QueryService(
        GeneratedDataset(text), cluster, handle_cache=2, segment_cache_bytes=4096
    )
    with svc:
        yield svc


def assert_tables_identical(got, want):
    """Bit-identical: same columns, same values, same row order."""
    assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    for name in want.column_names:
        np.testing.assert_array_equal(got.column(name), want.column(name), name)


class TestSourceRace:
    def test_concurrent_source_builds_single_instance(self, service, monkeypatch):
        # Widen the construction window: without the lock in source() two
        # threads both miss the dict and build duplicate services.
        created = []
        real_init = DataSourceService.__init__

        def slow_init(self, *args, **kwargs):
            created.append(self)
            time.sleep(0.02)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(DataSourceService, "__init__", slow_init)
        service.sources.pop("osu0", None)

        num_threads = 8
        barrier = threading.Barrier(num_threads)

        def build():
            barrier.wait()
            return service.transport.source("osu0")

        with ThreadPoolExecutor(max_workers=num_threads) as pool:
            sources = list(pool.map(lambda _: build(), range(num_threads)))

        assert len(created) == 1
        assert all(s is sources[0] for s in sources)
        assert service.sources["osu0"] is sources[0]


class TestConcurrentSubmits:
    QUERIES = [
        "SELECT REL, TIME, X, SOIL FROM IparsData",
        "SELECT REL, TIME, POIL FROM IparsData WHERE TIME <= 4",
        "SELECT X, Y, Z FROM IparsData WHERE REL = 1",
        "SELECT TIME, SGAS FROM IparsData WHERE SOIL > 0.5",
    ]

    def test_parallel_submits_match_serial(self, service):
        jobs = self.QUERIES * 3  # 12 submits over 6 workers
        serial = [service.submit(sql, LOCAL) for sql in jobs]

        with ThreadPoolExecutor(max_workers=6) as pool:
            parallel = list(pool.map(lambda sql: service.submit(sql, LOCAL), jobs))

        for got, want in zip(parallel, serial):
            assert_tables_equal(got.table, want.table)
            assert not got.degraded
            assert got.afc_count == want.afc_count
            totals = got.total_stats
            want_totals = want.total_stats
            assert totals.rows_output == want_totals.rows_output
            assert totals.rows_extracted == want_totals.rows_extracted

        # The service graph did not duplicate under contention: one
        # DataSourceService (hence one extractor + cache) per node.
        assert len(service.sources) == CONFIG.num_nodes
        extractors = {id(s.extractor) for s in service.sources.values()}
        assert len(extractors) == CONFIG.num_nodes


class TestDropCachesRace:
    """Regression: drop_caches() used to close file handles out from
    under in-flight reads (it bypassed any per-query synchronisation),
    surfacing as ValueError('I/O operation on closed file') or short
    reads mid-query.  Handles are pinned around reads now, so cache
    flushes concurrent with queries are safe."""

    QUERIES = [
        "SELECT REL, TIME, X, SOIL FROM IparsData",
        "SELECT TIME, SGAS FROM IparsData WHERE SOIL > 0.5",
    ]

    def test_drop_caches_during_queries(self, small_service):
        service = small_service
        serial = {sql: service.submit(sql, LOCAL) for sql in self.QUERIES}

        errors = []
        done = threading.Event()

        def dropper():
            # Hammer the flush path until every submit has finished.
            while not done.is_set():
                service.drop_caches()

        def run(sql):
            try:
                return service.submit(sql, LOCAL)
            except Exception as exc:  # noqa: BLE001 - collected for report
                errors.append((sql, exc))
                return None

        flusher = threading.Thread(target=dropper, daemon=True)
        flusher.start()
        try:
            jobs = self.QUERIES * 6
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, jobs))
        finally:
            done.set()
            flusher.join(5)

        assert not errors, errors
        for sql, result in zip(jobs, results):
            assert_tables_identical(result.table, serial[sql].table)


class TestSubmitPathThreadHygiene:
    """Regressions for the submit-path thread sweep: one long-lived
    node pool per service (not one pool per submit), and a hard bound
    on sacrificial threads abandoned by the timeout machinery."""

    @pytest.fixture()
    def fresh_env(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("thread_hygiene")
        cluster = VirtualCluster.create(str(root), CONFIG.num_nodes)
        text, _ = ipars.generate(CONFIG, "L0", cluster.mount())
        return cluster, GeneratedDataset(text)

    def test_hundred_submits_share_one_node_pool(self, fresh_env, monkeypatch):
        import repro.storm.query_service as qs

        created = []
        real = qs.ThreadPoolExecutor

        class Counting(real):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("thread_name_prefix", ""))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(qs, "ThreadPoolExecutor", Counting)
        cluster, dataset = fresh_env
        with qs.QueryService(dataset, cluster) as service:
            service.submit(self.SQL, LOCAL)  # builds the pool lazily
            before = threading.active_count()
            for _ in range(100):
                result = service.submit(self.SQL, LOCAL)
            assert result.num_rows > 0
            growth = threading.active_count() - before
        # Before the fix every submit built (and leaked the threads of)
        # its own ThreadPoolExecutor: 101 pools and a rising count.
        # The shared pool may still be lazily filling towards its cap,
        # so growth is bounded by the pool size, not per-submit.
        from repro.core.options import resolve_workers

        assert created.count("storm-node") == 1
        assert growth < resolve_workers(0)

    SQL = "SELECT REL, TIME, X, SOIL FROM IparsData"

    class _HangAllMounts:
        """cluster.mount() stand-in that hangs every resolve for one
        node until released."""

        def __init__(self, real_mount, node):
            self._real = real_mount
            self._node = node
            self.release = threading.Event()

        def __call__(self):
            return self._resolve

        def _resolve(self, node, path):
            if node == self._node and not self.release.is_set():
                self.release.wait(30)
            return self._real(node, path)

    def test_sacrificial_threads_are_bounded(self, fresh_env, monkeypatch):
        from repro.sched import threads_abandoned

        cluster, dataset = fresh_env
        mounts = self._HangAllMounts(cluster.mount(), "osu0")
        monkeypatch.setattr(cluster, "mount", mounts)
        opts = LOCAL.replace(
            node_timeout=0.15, retries=2, allow_partial=True, parallel=False
        )
        ledger_before = threads_abandoned()
        try:
            with QueryService(
                dataset, cluster, max_sacrificial_threads=2
            ) as service:
                before = threading.active_count()
                result = service.submit(self.SQL, opts)
                # osu0's three attempts: two spawned-and-abandoned
                # sacrificial threads fill both slots, the third finds
                # the semaphore saturated and times out without ever
                # spawning — the ledger and the thread count both stop
                # at the bound.
                assert result.degraded
                assert "osu0" in result.failed_nodes
                assert threads_abandoned() - ledger_before == 2
                assert threading.active_count() - before <= 2
        finally:
            mounts.release.set()

    def test_recovers_after_hang_clears(self, fresh_env, monkeypatch):
        cluster, dataset = fresh_env
        mounts = self._HangAllMounts(cluster.mount(), "osu0")
        monkeypatch.setattr(cluster, "mount", mounts)
        opts = LOCAL.replace(
            node_timeout=0.15, retries=0, allow_partial=True, parallel=False
        )
        with QueryService(
            dataset, cluster, max_sacrificial_threads=2
        ) as service:
            assert service.submit(self.SQL, opts).degraded
            mounts.release.set()
            # The hung thread drains, frees its slot, and the same
            # service answers cleanly.
            clean = service.submit(self.SQL, LOCAL)
            assert not clean.degraded


class TestCancelQuotaMergeRace:
    """Regression: a cancel or quota trip racing the last node partial
    must never yield a half-merged degraded table — the caller gets the
    complete result or the typed teardown error, nothing in between."""

    SQL = "SELECT REL, TIME, X, SOIL FROM IparsData"

    def test_cancel_race_is_all_or_nothing(self, service):
        import random

        from repro.errors import QueryCancelledError
        from repro.sched import Scheduler

        expected = service.submit(self.SQL, LOCAL).num_rows
        rng = random.Random(7)
        opts = LOCAL.replace(allow_partial=True, retries=1)
        with Scheduler(service, workers=2) as sched:
            for _ in range(15):
                handle = sched.submit(self.SQL, opts)
                time.sleep(rng.uniform(0.0, 0.01))
                handle.cancel()
                try:
                    result = handle.result(timeout=30)
                except QueryCancelledError:
                    continue
                # Finished first: then it must be the whole answer.
                assert not result.degraded
                assert result.num_rows == expected

    def test_quota_trip_never_returns_partial(self, service):
        from repro.errors import QuotaExceededError
        from repro.sched import Scheduler

        expected = service.submit(self.SQL, LOCAL).num_rows
        opts = LOCAL.replace(
            allow_partial=True, retries=1, row_quota=expected - 1
        )
        with Scheduler(service, workers=2) as sched:
            for _ in range(10):
                with pytest.raises(QuotaExceededError):
                    sched.run(self.SQL, opts)


class TestEvictionStress:
    """N threads x mixed queries x tiny caches: results must be
    bit-identical to serial runs and the caches' size accounting must
    still balance once the storm passes."""

    JOBS = [
        ("SELECT REL, TIME, X, SOIL FROM IparsData", LOCAL),
        ("SELECT REL, TIME, POIL FROM IparsData WHERE TIME <= 4", LOCAL),
        (
            "SELECT X, Y, Z FROM IparsData WHERE REL = 1",
            LOCAL.replace(intra_node_workers=3),
        ),
        (
            "SELECT TIME, SGAS FROM IparsData WHERE SOIL > 0.5",
            LOCAL.replace(coalesce_gap_bytes=0),
        ),
        (
            "SELECT REL, TIME, X, SOIL FROM IparsData",
            LOCAL.replace(intra_node_workers=2, coalesce_gap_bytes=0),
        ),
    ]

    def test_stress_matches_serial_and_caches_balance(self, small_service):
        service = small_service
        serial = [service.submit(sql, opts) for sql, opts in self.JOBS]

        jobs = [(i, *job) for _ in range(4) for i, job in enumerate(self.JOBS)]

        def run(job):
            i, sql, opts = job
            return i, service.submit(sql, opts)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(run, jobs))

        for i, result in results:
            assert not result.degraded
            assert_tables_identical(result.table, serial[i].table)

        # One quiescent submit so insert-time eviction has run with no
        # reads in flight, then audit the caches of every node.
        service.submit(*self.JOBS[0])
        for source in service.sources.values():
            seg = source.extractor._segments
            assert seg.size == sum(len(v) for v in seg._segments.values())
            assert seg.size <= seg.capacity
            handles = source.extractor._handles
            assert len(handles) <= handles.capacity
            for entry in handles._handles.values():
                assert entry.pins == 0
                assert not entry.dropped
