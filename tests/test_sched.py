"""Scheduler semantics: fair share, admission, quotas, cancellation.

Ordering tests drive a stub service (deterministic, no I/O); policy
tests (admission, quotas, deadlines) run real queries through a real
:class:`~repro.storm.query_service.QueryService`; the transport tests
assert the same knobs behave identically via ``repro.connect`` on
``local://`` and ``tcp://`` endpoints.
"""

import collections
import contextlib
import sys
import threading
import time

import pytest

import repro
from repro.core import CompiledDataset, ExecOptions, GeneratedDataset, IOStats
from repro.core.extractor import AfcReader, Extractor, _SegmentCache
from repro.core.kernels import block_rows_for
from repro.core.options import resolve_workers
from repro.datasets import IparsConfig, ipars
from repro.errors import (
    AdmissionError,
    QueryCancelledError,
    QuotaExceededError,
    SchedulerError,
)
from repro.faults import FaultInjector, FaultRule
from repro.obs.tracer import Tracer
from repro.sched import RunState, Scheduler, threads_abandoned
from repro.storm import QueryService, VirtualCluster
from repro.storm.data_source import DataSourceService
from repro.storm.filtering import FilteringService
from tests.conftest import assert_tables_equal

CONFIG = IparsConfig(num_rels=2, num_times=6, cells_per_node=16, num_nodes=2)
LOCAL = ExecOptions(remote=False)
SCAN = "SELECT REL, TIME, X, SOIL FROM IparsData"
TOTAL_ROWS = 2 * 6 * 16 * CONFIG.num_nodes


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("sched")
    cluster = VirtualCluster.create(str(root), CONFIG.num_nodes)
    text, _ = ipars.generate(CONFIG, "L0", cluster.mount())
    with QueryService(GeneratedDataset(text), cluster) as service:
        yield service, text, str(root)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.002)


class StubService:
    """submit() records dispatch order, the thread each query ran on and
    how many ran at once; named queries (or, with ``gate``, every
    query) block on a gate."""

    cost_model = None

    def __init__(self, gates=None, gate=None):
        self.order = []
        self.threads = {}
        self.active = self.peak = 0
        self.gates = gates or {}
        self.gate = gate
        self._lock = threading.Lock()

    def submit(self, sql, opts):
        with self._lock:
            self.order.append(sql)
            self.threads[sql] = threading.current_thread().name
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            gate = self.gates.get(sql, self.gate)
            if gate is not None:
                assert gate.wait(10), f"gate for {sql!r} never opened"
            return sql
        finally:
            with self._lock:
                self.active -= 1


class CooperativeStub:
    """submit() loops forever at cooperative checkpoints."""

    cost_model = None

    def __init__(self):
        self.running = threading.Event()
        self.run_state = None

    def submit(self, sql, opts):
        self.run_state = opts.run_state
        self.running.set()
        while True:
            opts.run_state.checkpoint()
            time.sleep(0.005)


class MonitoredStub:
    """submit() waits, without checkpoints, until the run state is
    cancelled: only the scheduler's deadline monitor can stop it."""

    cost_model = None

    def submit(self, sql, opts):
        deadline = time.monotonic() + 10
        while not opts.run_state.cancelled:
            assert time.monotonic() < deadline, "never cancelled"
            time.sleep(0.005)
        opts.run_state.checkpoint()


class TestFairShare:
    def blocked_scheduler(self, **kwargs):
        gate = threading.Event()
        stub = StubService(gates={"BLOCK": gate})
        sched = Scheduler(stub, workers=1, reserve_priority=0, **kwargs)
        blocker = sched.submit("BLOCK", LOCAL.replace(tenant="zz"))
        wait_for(lambda: "BLOCK" in stub.order)
        return stub, sched, gate, blocker

    def test_weighted_fair_share_interleave(self):
        stub, sched, gate, blocker = self.blocked_scheduler(
            weights={"b": 3.0}
        )
        with sched:
            handles = [
                sched.submit(sql, LOCAL.replace(tenant=sql[0]))
                for sql in ("a1", "a2", "a3", "b1", "b2", "b3")
            ]
            gate.set()
            for handle in handles:
                handle.result(timeout=10)
            # Weight 3 earns three dispatches for every one of weight 1:
            # after a1 charges 1/1 of virtual time, b's clock stays
            # behind until it has burned 3 x 1/3.
            assert stub.order == ["BLOCK", "a1", "b1", "b2", "b3", "a2", "a3"]
            assert blocker.result() == "BLOCK"

    def test_fifo_mode_is_arrival_order(self):
        stub, sched, gate, _ = self.blocked_scheduler(weights={"b": 3.0})
        with sched:
            fifo = LOCAL.replace(scheduler="fifo")
            handles = [
                sched.submit(sql, fifo.replace(tenant=sql[0]))
                for sql in ("a1", "b1", "a2", "b2")
            ]
            gate.set()
            for handle in handles:
                handle.result(timeout=10)
            assert stub.order == ["BLOCK", "a1", "b1", "a2", "b2"]

    def test_priority_jumps_every_queue(self):
        stub, sched, gate, _ = self.blocked_scheduler()
        with sched:
            fair = [
                sched.submit(sql, LOCAL.replace(tenant="bulk"))
                for sql in ("f1", "f2")
            ]
            lo = sched.submit("p1", LOCAL.replace(priority=1))
            hi = sched.submit("p2", LOCAL.replace(priority=2))
            gate.set()
            for handle in (*fair, lo, hi):
                handle.result(timeout=10)
            assert stub.order == ["BLOCK", "p2", "p1", "f1", "f2"]

    def test_reserved_worker_is_an_express_lane(self):
        slow_gate = threading.Event()
        stub = StubService(gates={"slow1": slow_gate, "slow2": slow_gate})
        with Scheduler(stub, workers=2, reserve_priority=1) as sched:
            s1 = sched.submit("slow1", LOCAL.replace(tenant="bulk"))
            wait_for(lambda: "slow1" in stub.order)
            s2 = sched.submit("slow2", LOCAL.replace(tenant="bulk"))
            # slow1 holds the general slot and slow2 can only ever
            # follow it; the reserved slot refuses fair-lane work, so a
            # priority query overtakes both.
            express = sched.submit("vip", LOCAL.replace(priority=1))
            assert express.result(timeout=5) == "vip"
            assert s2.state == "queued"
            slow_gate.set()
            assert s1.result(timeout=5) == "slow1"
            assert s2.result(timeout=5) == "slow2"

    def test_wait_seconds_and_stats_shape(self):
        stub, sched, gate, _ = self.blocked_scheduler()
        with sched:
            handle = sched.submit("q1", LOCAL.replace(tenant="t"))
            assert handle.wait_seconds is None
            gate.set()
            handle.result(timeout=10)
            assert handle.wait_seconds >= 0
            stats = sched.stats()
            assert stats["workers"] == 1
            assert stats["reserved_priority_workers"] == 0
            assert stats["counters"]["sched.dispatched"] >= 2
            assert stats["tenants"]["t"]["queued"] == 0
            assert "t" in stats["wait_seconds"]
            assert "*" in stats["wait_seconds"]
            assert stats["threads_abandoned"] == threads_abandoned()

    def test_submit_after_close_raises(self):
        sched = Scheduler(StubService(), workers=1)
        sched.close()
        with pytest.raises(SchedulerError):
            sched.submit("q", LOCAL)

    def test_close_cancels_queued_work(self):
        gate = threading.Event()
        stub = StubService(gates={"BLOCK": gate})
        sched = Scheduler(stub, workers=1, reserve_priority=0)
        sched.submit("BLOCK", LOCAL)
        wait_for(lambda: "BLOCK" in stub.order)
        queued = sched.submit("never", LOCAL)
        gate.set()
        sched.close()
        assert queued.cancelled()
        with pytest.raises(QueryCancelledError, match="scheduler closed"):
            queued.result(timeout=1)


class TestAdmission:
    def test_reject_over_budget(self, env):
        service, _, _ = env
        with Scheduler(service, workers=1) as sched:
            with pytest.raises(AdmissionError) as info:
                sched.submit(SCAN, LOCAL.replace(admission_budget=1e-9))
            assert info.value.predicted_seconds > 1e-9
            assert info.value.budget_seconds == 1e-9
            assert sched.stats()["counters"]["sched.rejected"] == 1

    def test_queue_over_budget_backfills(self, env):
        service, _, _ = env
        with Scheduler(service, workers=1) as sched:
            handle = sched.submit(
                SCAN,
                LOCAL.replace(admission_budget=1e-9, admission="queue"),
            )
            result = handle.result(timeout=30)
            assert result.num_rows == TOTAL_ROWS
            counters = sched.stats()["counters"]
            assert counters["sched.queued_over_budget"] == 1
            assert "sched.rejected" not in counters

    def test_under_budget_runs_normally(self, env):
        service, _, _ = env
        with Scheduler(service, workers=1) as sched:
            result = sched.run(SCAN, LOCAL.replace(admission_budget=1e9))
            assert result.num_rows == TOTAL_ROWS
            assert "sched.rejected" not in sched.stats()["counters"]


class TestQuotas:
    def test_row_quota_trips_mid_query(self, env):
        service, _, _ = env
        with Scheduler(service, workers=1) as sched:
            handle = sched.submit(SCAN, LOCAL.replace(row_quota=10))
            with pytest.raises(QuotaExceededError, match="row quota"):
                handle.result(timeout=30)
            assert handle.state == "failed"
            assert sched.stats()["counters"]["sched.quota_trips"] == 1

    def test_byte_quota_trips_mid_query(self, env):
        service, _, _ = env
        # Byte quotas meter bytes *read*; a warm segment cache reads
        # nothing, so cold-start the service first.
        service.drop_caches()
        with Scheduler(service, workers=1) as sched:
            with pytest.raises(QuotaExceededError, match="byte quota"):
                sched.run(SCAN, LOCAL.replace(byte_quota=64))

    def test_quota_error_is_not_degraded_away(self, env):
        # allow_partial degrades node *failures*; a quota trip is the
        # caller's budget speaking and must surface even then.
        service, _, _ = env
        with Scheduler(service, workers=1) as sched:
            with pytest.raises(QuotaExceededError):
                sched.run(
                    SCAN,
                    LOCAL.replace(row_quota=10, allow_partial=True, retries=2),
                )

    def test_generous_quota_passes(self, env):
        service, _, _ = env
        with Scheduler(service, workers=1) as sched:
            result = sched.run(
                SCAN, LOCAL.replace(row_quota=TOTAL_ROWS, byte_quota=10**9)
            )
            assert result.num_rows == TOTAL_ROWS


#: One node, 17 stored variables: ``SELECT *`` rows are wide enough that
#: a kernel block (``block_rows_for``) is a fraction of the node's rows.
WIDE = IparsConfig(num_rels=2, num_times=6, cells_per_node=800, num_nodes=1)
WIDE_SQL = "SELECT * FROM IparsData WHERE SOIL >= 0"  # every row passes
WIDE_ROWS = 2 * 6 * 800
AFC_ROWS = 32


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """(source, plan) for the serial block driver: several kernel blocks
    of many 32-row AFCs each, and a last block that is partial."""
    root = tmp_path_factory.mktemp("sched_wide")
    cluster = VirtualCluster.create(str(root), WIDE.num_nodes)
    text, _ = ipars.generate(WIDE, "L0", cluster.mount())
    plan = CompiledDataset(text, None, AFC_ROWS).plan(WIDE_SQL)
    source = DataSourceService("osu0", cluster.mount(), FilteringService())
    yield source, plan
    source.close()


class TestBlockDriverMetering:
    """Quota bounds of scheduled queries on the fused serial path."""

    def run(self, wide, **quotas):
        source, plan = wide
        source.drop_caches()
        state, stats = RunState(**quotas), IOStats()
        opts = LOCAL.replace(run_state=state)
        return state, stats, lambda: source.execute(
            plan, plan.afcs, stats, options=opts
        )

    def test_shape_of_the_fixture(self, wide):
        _, plan = wide
        block = block_rows_for(plan.needed, plan.dtypes)
        assert AFC_ROWS < block < WIDE_ROWS and WIDE_ROWS % block
        state, stats, execute = self.run(wide)
        assert execute().num_rows == state.rows == WIDE_ROWS
        assert stats.rows_vectorized == WIDE_ROWS

    def test_row_quota_trips_within_one_block(self, wide):
        _, plan = wide
        block = block_rows_for(plan.needed, plan.dtypes)
        state, stats, execute = self.run(wide, row_quota=100)
        with pytest.raises(QuotaExceededError, match="row quota") as info:
            execute()
        # The first block closes on the AFC that reaches ``block`` rows.
        assert 100 < info.value.used < 100 + block + AFC_ROWS
        assert stats.rows_extracted < block + AFC_ROWS

    def test_row_quota_first_exceeded_by_last_partial_block(self, wide):
        # Only the final flush pushes the count over: the data source
        # itself must raise, nothing downstream charges rows locally.
        state, stats, execute = self.run(wide, row_quota=WIDE_ROWS - 1)
        with pytest.raises(QuotaExceededError, match="row quota") as info:
            execute()
        assert info.value.used == WIDE_ROWS
        assert stats.rows_extracted == WIDE_ROWS

    def test_row_quota_equal_to_the_result_passes(self, wide):
        state, _, execute = self.run(wide, row_quota=WIDE_ROWS)
        assert execute().num_rows == WIDE_ROWS

    def test_byte_quota_trips_at_first_afc_on_cold_cache(self, wide):
        state, stats, execute = self.run(wide, byte_quota=64)
        with pytest.raises(QuotaExceededError, match="byte quota") as info:
            execute()
        assert stats.afcs_processed == 1
        assert info.value.used == state.nbytes == stats.bytes_read > 64
        assert stats.rows_vectorized == 0  # tripped before any block ran


class TestCancellation:
    def test_cancel_queued_tears_down_immediately(self):
        gate = threading.Event()
        stub = StubService(gates={"BLOCK": gate})
        with Scheduler(stub, workers=1, reserve_priority=0) as sched:
            sched.submit("BLOCK", LOCAL)
            wait_for(lambda: "BLOCK" in stub.order)
            queued = sched.submit("victim", LOCAL)
            assert queued.cancel() is True
            assert queued.state == "cancelled"
            with pytest.raises(QueryCancelledError):
                queued.result(timeout=1)
            # Already finished: a second cancel is a no-op.
            assert queued.cancel() is False
            gate.set()
            # The worker skips the cancelled handle; it never dispatches.
            sched.close()
            assert "victim" not in stub.order

    def test_cancel_running_stops_at_checkpoint(self):
        stub = CooperativeStub()
        with Scheduler(stub, workers=1) as sched:
            handle = sched.submit("spin", LOCAL)
            assert stub.running.wait(5)
            assert handle.cancel() is True
            with pytest.raises(QueryCancelledError) as info:
                handle.result(timeout=5)
            assert info.value.reason == "cancelled"
            assert handle.cancelled()
            assert sched.stats()["counters"]["sched.cancelled"] == 1

    @pytest.mark.parametrize(
        "sql", [SCAN, SCAN + " WHERE SOIL >= 0", SCAN + " WHERE X >= 0"]
    )
    def test_cancel_mid_query_stops_before_next_afc_read(
        self, env, monkeypatch, sql
    ):
        # Cancel from inside the third AFC's read: neither the per-AFC
        # path (no WHERE) nor a fused run of AFCs (the kernel's) reads a
        # fourth.  Every AFC reads its own SOIL chunk once; the shared
        # COORDS chunk does not tell AFCs apart.  Chunks are read one at
        # a time (Extractor._entry, hit or miss) or, for a fused run
        # whose chunks are all cached, looked up at once
        # (_SegmentCache.get_run); the query runs cold, then warm.  A
        # conjunct on a field of a record chunk (X, of COORDS) has
        # learned chunk bounds, warm, but refutes no AFC (every X is
        # >= 0), so every AFC is read as with a SOIL conjunct.
        service, _, _ = env
        entry, get_run = Extractor._entry, _SegmentCache.get_run
        columns = AfcReader.columns
        afcs, runs, submitted, box = [], [], threading.Event(), {}

        def seen(keys):
            for node, path, offset, _ in keys:
                if "SOIL" in path and (node, path, offset) not in afcs:
                    afcs.append((node, path, offset))
            if len(afcs) >= 3 and box.get("armed"):
                box["armed"] = False
                assert submitted.wait(10)
                assert box["handle"].cancel() is True

        def cancelling_entry(extractor, node, path, offset, nbytes, *args):
            seen([(node, path, offset, nbytes)])
            return entry(extractor, node, path, offset, nbytes, *args)

        def cancelling_get_run(cache, keys, dtypes):
            entries = get_run(cache, keys, dtypes)
            if entries is not None:
                seen(keys)
            return entries

        def run_columns(reader, part, lo, hi, *args):
            runs.append(hi - lo)
            return columns(reader, part, lo, hi, *args)

        monkeypatch.setattr(Extractor, "_entry", cancelling_entry)
        monkeypatch.setattr(_SegmentCache, "get_run", cancelling_get_run)
        monkeypatch.setattr(AfcReader, "columns", run_columns)
        service.drop_caches()
        for warm in (False, True):
            if warm:
                service.submit(sql, LOCAL.replace(parallel=False))
            del afcs[:], runs[:]
            submitted.clear()
            box["armed"] = True
            with Scheduler(service, workers=1) as sched:
                box["handle"] = sched.submit(sql, LOCAL.replace(parallel=False))
                submitted.set()
                with pytest.raises(QueryCancelledError):
                    box["handle"].result(timeout=30)
            # No WHERE steps one AFC at a time; the kernel's first run
            # is a whole part (6 AFCs), cancelled inside — read AFC by
            # AFC when cold, looked up at once (all 6 seen) when warm.
            if "WHERE" not in sql:
                assert (len(afcs), runs) == (3, [1, 1, 1]), warm
            elif not warm:
                assert (len(afcs), runs) == (3, [6]), warm
            else:
                assert (len(afcs), runs) == (6, [6])

    def test_cancel_during_retry_backoff_ends_the_sleep(self, env):
        # osu0 always fails at once; the retry loop then sleeps 2 s
        # before attempt 2.  A cancel 0.1 s into that sleep must not
        # wait it out.
        _, text, root = env
        dataset = GeneratedDataset(text)
        cluster = VirtualCluster.for_storage(root, dataset.descriptor.storage)
        injector = FaultInjector([FaultRule("node-down", node="osu0")])
        state = RunState()
        opts = LOCAL.replace(
            retries=3, retry_backoff=2.0, run_state=state, parallel=False
        )
        timer = threading.Timer(0.1, state.cancel)
        with QueryService(dataset, cluster, fault_injector=injector) as svc:
            start = time.monotonic()
            timer.start()
            try:
                with pytest.raises(QueryCancelledError):
                    svc.submit(SCAN, opts)
            finally:
                timer.cancel()
            elapsed = time.monotonic() - start
        assert injector.injected >= 1, "the first attempt must have failed"
        assert elapsed < 0.1 + 0.3, f"cancel took {elapsed - 0.1:.3f}s to land"

    def test_cancel_finished_returns_false(self):
        stub = StubService()
        with Scheduler(stub, workers=1) as sched:
            handle = sched.submit("q", LOCAL)
            handle.result(timeout=5)
            assert handle.cancel() is False
            assert handle.state == "done"

    def test_deadline_auto_cancels(self):
        stub = CooperativeStub()
        with Scheduler(stub, workers=1) as sched:
            handle = sched.submit("spin", LOCAL.replace(deadline=0.1))
            with pytest.raises(QueryCancelledError) as info:
                handle.result(timeout=10)
            assert info.value.reason == "deadline"
            counters = sched.stats()["counters"]
            assert counters["sched.deadline_cancelled"] == 1

    def test_deadline_expires_while_queued(self):
        gate = threading.Event()
        stub = StubService(gates={"BLOCK": gate})
        with Scheduler(stub, workers=1, reserve_priority=0) as sched:
            sched.submit("BLOCK", LOCAL)
            wait_for(lambda: "BLOCK" in stub.order)
            queued = sched.submit("victim", LOCAL.replace(deadline=0.05))
            with pytest.raises(QueryCancelledError) as info:
                queued.result(timeout=10)
            assert info.value.reason == "deadline"
            gate.set()


class TestOffMode:
    def test_off_runs_inline_with_no_workers(self, env):
        service, _, _ = env
        with Scheduler(service, workers=4) as sched:
            handle = sched.submit(SCAN, LOCAL.replace(scheduler="off"))
            assert handle.done()
            assert handle.result().num_rows == TOTAL_ROWS
            assert sched.stats()["counters"]["sched.bypassed"] == 1
            # No queued dispatch ever happened: workers never started.
            assert sched._threads == []

    def test_off_stores_error_instead_of_raising(self):
        class Exploding:
            cost_model = None

            def submit(self, sql, opts):
                raise ValueError("boom")

        with Scheduler(Exploding(), workers=1) as sched:
            handle = sched.submit("q", LOCAL.replace(scheduler="off"))
            assert handle.state == "failed"
            with pytest.raises(ValueError, match="boom"):
                handle.result()


class TestCallerRuns:
    """``Scheduler.run`` dispatches on the calling thread when nothing
    is queued and a slot is free for the query's class."""

    def test_lone_blocking_client_runs_on_its_own_thread(self):
        stub = StubService()
        before = set(threading.enumerate())
        with Scheduler(stub, workers=4) as sched:
            assert sched.run("q", LOCAL) == "q"
            assert stub.threads["q"] == threading.current_thread().name
            started = set(threading.enumerate()) - before
            assert not any(t.name.startswith("sched-worker") for t in started)
            assert sched._threads == []
            stats = sched.stats()
        assert stats["counters"] == {
            "sched.completed": 1,
            "sched.dispatched": 1,
            "sched.submitted": 1,
        }
        assert (stats["queued"], stats["running"]) == (0, 0)
        assert stats["wait_seconds"]["*"]["count"] == 1
        assert stats["wait_seconds"]["*"]["max"] < 0.05

    def test_blocking_callers_and_submits_never_exceed_workers(self):
        gate = threading.Event()
        stub = StubService(gate=gate)
        results = {}
        with Scheduler(stub, workers=3, reserve_priority=0) as sched:
            callers = [
                threading.Thread(
                    target=lambda i=i: results.update(
                        {i: sched.run(f"run{i}", LOCAL)}
                    )
                )
                for i in range(5)
            ]
            for caller in callers:
                caller.start()
            handles = [sched.submit(f"sub{i}", LOCAL) for i in range(3)]
            wait_for(lambda: sched.stats()["queued"] == 5)
            assert stub.active == sched.stats()["running"] == 3
            gate.set()
            for caller in callers:
                caller.join(10)
            assert [h.result(timeout=10) for h in handles] == [
                "sub0", "sub1", "sub2"
            ]
        assert stub.peak == 3
        assert results == {i: f"run{i}" for i in range(5)}
        # A caller that found a free slot ran its query itself; every
        # other query, and every submit, went to a dispatch worker.
        inline = {
            sql for sql, name in stub.threads.items()
            if not name.startswith("sched-worker")
        }
        assert inline and all(sql.startswith("run") for sql in inline)

    def test_a_blocking_run_queues_behind_queued_work(self):
        # The reserved slot is free, but a fair query is queued: a
        # priority run queues too (and a worker dispatches it first).
        gate = threading.Event()
        stub = StubService(gates={"BLOCK": gate})
        with Scheduler(stub, workers=2, reserve_priority=1) as sched:
            sched.submit("BLOCK", LOCAL)
            wait_for(lambda: "BLOCK" in stub.order)
            queued = sched.submit("q1", LOCAL)
            assert sched.run("vip", LOCAL.replace(priority=1)) == "vip"
            gate.set()
            queued.result(timeout=10)
        assert stub.order == ["BLOCK", "vip", "q1"]
        assert stub.threads["vip"].startswith("sched-worker")

    def test_fair_inline_run_never_takes_a_reserved_slot(self):
        gate = threading.Event()
        stub = StubService(gate=gate)
        with Scheduler(stub, workers=2, reserve_priority=1) as sched:
            first = threading.Thread(target=sched.run, args=("fair1", LOCAL))
            first.start()
            wait_for(lambda: "fair1" in stub.order)
            second = threading.Thread(target=sched.run, args=("fair2", LOCAL))
            second.start()
            # The reserved slot is free, but not for fair-lane work.
            wait_for(lambda: sched.stats()["queued"] == 1)
            assert "fair2" not in stub.order
            gate.set()
            first.join(10)
            second.join(10)
        assert stub.threads["fair1"] == first.name
        assert stub.threads["fair2"].startswith("sched-worker")

    def test_priority_inline_run_may_take_the_reserved_slot(self):
        gate = threading.Event()
        stub = StubService(gates={"bulk": gate})
        with Scheduler(stub, workers=2, reserve_priority=1) as sched:
            bulk = threading.Thread(target=sched.run, args=("bulk", LOCAL))
            bulk.start()
            wait_for(lambda: "bulk" in stub.order)
            assert sched.run("vip", LOCAL.replace(priority=1)) == "vip"
            assert stub.threads["vip"] == threading.current_thread().name
            assert sched._threads == []
            gate.set()
            bulk.join(10)

    def test_slots_hold_under_contention(self):
        # More clients than cores, blocking runs and queued submits of
        # both classes, a short switch interval: a lost update to the
        # slot counts would run more than ``workers`` queries at once,
        # or strand one.
        stub = StubService()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Scheduler(stub, workers=2, reserve_priority=1) as sched:

                def client(i):
                    for j in range(40):
                        opts = LOCAL.replace(priority=int(j % 3 == 0))
                        if j % 2:
                            sched.run(f"r{i}.{j}", opts)
                        else:
                            sched.submit(f"s{i}.{j}", opts).result(timeout=10)

                clients = [
                    threading.Thread(target=client, args=(i,)) for i in range(6)
                ]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(30)
                assert not any(thread.is_alive() for thread in clients)
                stats = sched.stats()
        finally:
            sys.setswitchinterval(interval)
        assert stub.peak <= 2
        assert len(stub.order) == 6 * 40
        assert (stats["queued"], stats["running"]) == (0, 0)
        assert stats["counters"]["sched.completed"] == 6 * 40

    def test_close_waits_for_an_inline_run(self):
        gate = threading.Event()
        stub = StubService(gate=gate)
        sched = Scheduler(stub, workers=1)
        box = {}
        caller = threading.Thread(
            target=lambda: box.update(result=sched.run("slow", LOCAL))
        )
        caller.start()
        wait_for(lambda: "slow" in stub.order)
        closer = threading.Thread(target=sched.close)
        closer.start()
        closer.join(0.2)
        assert closer.is_alive(), "close() returned under a running query"
        gate.set()
        closer.join(10)
        caller.join(10)
        assert not closer.is_alive()
        assert box["result"] == "slow"
        with pytest.raises(SchedulerError):
            sched.run("later", LOCAL)


def outcome(mode, service, sql, opts, during=None):
    """One query through a fresh 1-worker scheduler, on the calling
    thread (``inline``: ``run``) or a dispatch worker (``queued``:
    ``submit``): ``(value or error, counters and lanes, wait counts,
    workers)``."""
    with Scheduler(service, workers=1, reserve_priority=0) as sched:
        helper = None
        if during is not None:
            helper = threading.Thread(target=during)
            helper.start()
        try:
            if mode == "inline":
                value = sched.run(sql, opts)
            else:
                value = sched.submit(sql, opts).result(timeout=30)
        except Exception as exc:  # noqa: BLE001 - compared below
            value = exc
        if helper is not None:
            helper.join(10)
        stats = sched.stats()
        workers = bool(sched._threads)
    waits = {name: hist["count"] for name, hist in stats["wait_seconds"].items()}
    counters = dict(stats["counters"], lanes=stats["tenants"])
    return value, counters, waits, workers


def assert_same_outcome(inline, queued):
    (got, counters, waits, workers), (want, *expected) = inline, queued
    assert not workers, "the inline run started dispatch workers"
    assert (counters, waits) == tuple(expected[:2])
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert getattr(got, "reason", None) == getattr(want, "reason", None)
    elif hasattr(want, "table"):
        assert_tables_equal(got.table, want.table)
    else:
        assert got == want


class TestInlineRunMatchesQueued:
    """Everything a dispatch does, an inline run does too."""

    def both(self, service, sql, opts, during=None, before=None):
        runs = []
        for mode in ("inline", "queued"):
            if before is not None:
                before()
            runs.append(outcome(mode, service, sql, opts, during))
        assert runs[1][3] or isinstance(runs[1][0], AdmissionError)
        assert_same_outcome(*runs)
        return runs[0]

    def test_success(self, env):
        service, _, _ = env
        value, counters, waits, _ = self.both(
            service, SCAN, LOCAL.replace(tenant="t")
        )
        assert value.num_rows == TOTAL_ROWS
        assert counters["sched.completed"] == 1
        # The dispatch charged the tenant's virtual clock one unit.
        assert counters["lanes"] == {
            "t": {"queued": 0, "weight": 1.0, "vtime": 1.0}
        }
        assert waits == {"*": 1, "t": 1}

    def test_cancel_from_another_thread(self):
        stub = CooperativeStub()

        def cancel():
            assert stub.running.wait(10)
            stub.run_state.cancel()

        value, counters, _, _ = self.both(
            stub, "spin", LOCAL, during=cancel, before=stub.running.clear
        )
        assert isinstance(value, QueryCancelledError)
        assert value.reason == "cancelled"
        assert counters["sched.cancelled"] == 1

    @pytest.mark.parametrize("stub", [CooperativeStub, MonitoredStub])
    def test_deadline(self, stub):
        value, counters, _, _ = self.both(
            stub(), "spin", LOCAL.replace(deadline=0.05)
        )
        assert isinstance(value, QueryCancelledError)
        assert value.reason == "deadline"
        assert counters["sched.deadline_cancelled"] == 1

    def test_admission_reject(self, env):
        service, _, _ = env
        value, counters, _, _ = self.both(
            service, SCAN, LOCAL.replace(admission_budget=1e-9)
        )
        assert isinstance(value, AdmissionError)
        assert counters == {"sched.rejected": 1, "lanes": {}}

    def test_admission_backfill(self, env):
        service, _, _ = env
        value, counters, _, _ = self.both(
            service,
            SCAN,
            LOCAL.replace(admission_budget=1e-9, admission="queue"),
        )
        assert value.num_rows == TOTAL_ROWS
        assert counters["sched.queued_over_budget"] == 1

    def test_row_quota(self, env):
        service, _, _ = env
        value, counters, _, _ = self.both(
            service, SCAN, LOCAL.replace(row_quota=10)
        )
        assert isinstance(value, QuotaExceededError)
        assert "row quota" in str(value)
        assert counters["sched.quota_trips"] == 1

    def test_byte_quota(self, env):
        service, _, _ = env
        value, counters, _, _ = self.both(
            service,
            SCAN,
            LOCAL.replace(byte_quota=64),
            before=service.drop_caches,
        )
        assert isinstance(value, QuotaExceededError)
        assert "byte quota" in str(value)
        assert counters["sched.quota_trips"] == 1


def spy_threads(monkeypatch, obj, method):
    """Record the thread each ``obj.method(node, ...)`` call runs on."""
    seen = {}
    real = getattr(obj, method)

    def spy(node, *args, **kwargs):
        seen[node] = threading.current_thread().name
        return real(node, *args, **kwargs)

    monkeypatch.setattr(obj, method, spy)
    return seen


#: Span names of a row query's skeleton, above the per-read events.
SKELETON = {
    "sched", "query", "plan", "index", "rewrite", "extract", "extract_afc",
    "filter", "kernel_compile", "partition", "mover",
}


class TestFirstNodeOnCaller:
    """``_extract_nodes`` runs the first node on the calling thread and
    only the others on the fan-out pool."""

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_first_node_runs_on_the_caller(self, env, monkeypatch, transport):
        from repro.net import ProcessCluster

        _, text, root = env
        with contextlib.ExitStack() as stack:
            if transport == "tcp":
                cluster = stack.enter_context(ProcessCluster(text, root))
                db = stack.enter_context(cluster.connect())
            else:
                db = stack.enter_context(
                    repro.connect(f"local://{root}", descriptor=text)
                )
            seen = spy_threads(monkeypatch, db.service.transport, "node_blocks")
            assert db.submit(SCAN, LOCAL).num_rows == TOTAL_ROWS
        assert seen["osu0"] == threading.current_thread().name
        assert seen["osu1"].startswith("storm-node")

    def test_span_tree_of_a_two_node_query(self, env):
        _, text, root = env
        tracer = Tracer()
        with repro.connect(f"local://{root}", descriptor=text) as db:
            result = db.submit(
                SCAN + " WHERE SOIL > 0.2", ExecOptions(trace=tracer)
            )
        hits = {
            node: result.per_node_stats[node].cache_hits
            for node in ("osu0", "osu1")
        }
        by_id = {span.span_id: span for span in tracer.spans}

        def parent(span):
            return by_id[span.parent_id] if span.parent_id else None

        edges = collections.Counter(
            (span.name, parent(span) and parent(span).name)
            for span in tracer.spans
            if span.name in SKELETON
        )
        assert edges == {
            ("sched", None): 1,
            ("query", "sched"): 1,
            ("plan", "query"): 1,
            ("rewrite", "plan"): 1,
            ("index", "plan"): 1,
            ("extract", "query"): 2,
            ("extract_afc", "extract"): 4,
            ("filter", "extract"): 2,
            ("kernel_compile", "extract"): 1,
            ("partition", "query"): 1,
            ("mover", "query"): 1,
        }
        extracts = sorted(
            (s.tags for s in tracer.spans if s.name == "extract"),
            key=lambda tags: tags["node"],
        )
        assert extracts == [
            {"node": "osu0", "afcs": 12, "rows": 162, "bytes_read": 960,
             "cache_hits": hits["osu0"], "attempts": 1},
            {"node": "osu1", "afcs": 12, "rows": 157, "bytes_read": 960,
             "cache_hits": hits["osu1"], "attempts": 1},
        ]
        # Every span that names a node sits under that node's extract.
        for span in tracer.spans:
            node = span.tags.get("node")
            if node is None or span.name == "extract":
                continue
            up = parent(span)
            while up.name != "extract":
                up = parent(up)
            assert up.tags["node"] == node, (span, up)


def same_bytes(a, b):
    return a.to_structured().tobytes() == b.to_structured().tobytes()


#: The fault each case puts on one node, and the options it runs under.
FAULT_CASES = {
    "retried": (
        lambda node: FaultRule("raise-on-open", node=node, times=1),
        dict(retries=2),
    ),
    "down": (
        lambda node: FaultRule("node-down", node=node),
        dict(retries=1, allow_partial=True),
    ),
    "timeout": (
        # One slow read per attempt, well past the timeout; the healthy
        # node has the same timeout to finish in.
        lambda node: FaultRule("slow-read", node=node, path="*SOIL0", delay=0.5),
        dict(retries=1, node_timeout=0.25, allow_partial=True),
    ),
}


class TestInlineNodeFailures:
    """Retries, ``node_timeout`` and ``allow_partial`` on the node the
    caller extracts (osu0) behave as on a pooled one (osu1): with the
    fan-out, each gives the table, failed nodes and counters of the
    serial run, where every node runs on the caller."""

    def run(self, monkeypatch, text, root, node, case, parallel):
        rule, knobs = FAULT_CASES[case]
        dataset = GeneratedDataset(text)
        cluster = VirtualCluster.for_storage(root, dataset.descriptor.storage)
        injector = FaultInjector([rule(node)])
        opts = LOCAL.replace(parallel=parallel, retry_backoff=0.0, **knobs)
        with QueryService(dataset, cluster, fault_injector=injector) as svc:
            seen = spy_threads(monkeypatch, svc, "_retried")
            result = svc.submit(SCAN, opts)
            # Abandoned attempts finish their slow reads before the
            # service closes their files.
            for thread in threading.enumerate():
                if thread.name.startswith("extract-"):
                    thread.join(10)
        return result, seen, injector.injected

    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    @pytest.mark.parametrize("node", ["osu0", "osu1"])
    def test_same_as_serial(self, env, monkeypatch, node, case):
        _, text, root = env
        fanned, seen, injected = self.run(
            monkeypatch, text, root, node, case, parallel=True
        )
        serial, _, injected_serial = self.run(
            monkeypatch, text, root, node, case, parallel=False
        )
        on_caller = seen[node] == threading.current_thread().name
        assert on_caller == (node == "osu0")
        assert same_bytes(fanned.table, serial.table)
        assert fanned.failed_nodes == serial.failed_nodes
        assert fanned.failed_nodes == ([] if case == "retried" else [node])
        assert {n: s.as_dict() for n, s in fanned.per_node_stats.items()} == {
            n: s.as_dict() for n, s in serial.per_node_stats.items()
        }
        assert injected == injected_serial > 0


class TestClientTransports:
    def test_local_client_schedules(self, env):
        service, text, root = env
        reference = service.submit(SCAN, LOCAL).table
        with repro.connect(f"local://{root}", descriptor=text) as db:
            handle = db.schedule(
                SCAN, LOCAL.replace(tenant="team-a", priority=1)
            )
            assert_tables_equal(handle.result(timeout=30).table, reference)
            assert db.submit(SCAN, LOCAL).num_rows == TOTAL_ROWS
            stats = db.sched_stats()
            assert stats["counters"]["sched.completed"] >= 2
            assert "team-a" in stats["wait_seconds"]
        with pytest.raises(QuotaExceededError):
            db2 = repro.connect(f"local://{root}", descriptor=text)
            try:
                db2.submit(SCAN, LOCAL.replace(row_quota=5))
            finally:
                db2.close()

    def test_tcp_client_schedules_and_enforces_quotas(self, env):
        from repro.net import ProcessCluster

        service, text, root = env
        reference = service.submit(SCAN, LOCAL).table
        with ProcessCluster(text, root) as cluster:
            with cluster.connect() as db:
                handle = db.schedule(
                    SCAN, ExecOptions(tenant="remote", priority=1)
                )
                assert_tables_equal(
                    handle.result(timeout=60).table, reference
                )
                # The run state never crosses the wire: quotas are
                # charged per node partial at the coordinator.
                with pytest.raises(QuotaExceededError):
                    db.submit(SCAN, ExecOptions(row_quota=5))
                counters = db.sched_stats()["counters"]
                assert counters["sched.completed"] >= 1
                assert counters["sched.quota_trips"] >= 1


class TestOptionValidation:
    def test_bad_scheduler_value_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            ExecOptions(scheduler="bogus")

    def test_bad_admission_value_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            ExecOptions(admission="maybe")

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1

    def test_diag_codes_for_nonsense_knobs(self):
        from repro.diag import analyze_options

        # Values no query runs with are refused when built ...
        for field, value in (
            ("scheduler_workers", -1),
            ("admission_budget", 0),
            ("row_quota", 0),
            ("byte_quota", -5),
            ("deadline", 0),
        ):
            with pytest.raises(ValueError, match=f"option '{field}' must be"):
                ExecOptions(**{field: value})
        # ... and a knob the scheduler mode ignores is a finding.
        codes = [
            d.code
            for d in analyze_options(ExecOptions(scheduler="off", priority=2))
        ]
        assert codes == ["RO313"]

    def test_default_options_emit_no_sched_diags(self):
        from repro.diag import analyze_options

        assert analyze_options(ExecOptions()) == []
