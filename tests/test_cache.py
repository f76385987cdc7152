"""Semantic result cache + plan memoization (repro.cache)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cache import exact_range, key_subsumes, query_key, split_where
from repro.core import ExecOptions, GeneratedDataset, Virtualizer
from repro.core.stats import IOStats
from repro.datasets import IparsConfig, ipars
from repro.faults import FaultInjector, FaultRule
from repro.obs.tracer import Tracer
from repro.sql.parser import parse_query
from repro.sql.ranges import Interval, IntervalSet
from repro.sql.typecheck import bind_where
from repro.storm import QueryService, VirtualCluster
from repro.storm.query_service import CACHE_NODE

OFF = ExecOptions(remote=False)
EXACT = ExecOptions(remote=False, cache_mode="exact")
SUBSUME = ExecOptions(remote=False, cache_mode="subsume")


def where(text):
    return parse_query(f"SELECT X FROM T WHERE {text}").where


def bound(text, dtype):
    """``where(text)`` bound with ``TIME`` of ``dtype``."""
    return bind_where(where(text), {"TIME": np.dtype(dtype)})[0]


def assert_bit_identical(got, want):
    """Same columns, same dtypes, same values in canonical row order."""
    assert got.column_names == want.column_names
    cg, cw = got.canonical(), want.canonical()
    for name in want.column_names:
        a, b = cg[name], cw[name]
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


# ---------------------------------------------------------------------------
# Keying: exact decomposition and subsumption rule
# ---------------------------------------------------------------------------


class TestSplitWhere:
    def test_conjuncts_split_into_ranges_and_residual(self):
        ranges, residual = split_where(where("TIME > 2 AND SOIL > SGAS"))
        assert set(ranges) == {"TIME"}
        assert ranges["TIME"] == IntervalSet([Interval(lo=2, lo_open=True)])
        assert len(residual) == 1  # column-to-column comparison is inexact

    def test_same_attribute_conjuncts_intersect(self):
        ranges, residual = split_where(where("TIME > 2 AND TIME <= 8"))
        assert residual == ()
        assert ranges["TIME"] == IntervalSet(
            [Interval(lo=2, lo_open=True, hi=8)]
        )

    def test_not_flips_comparison(self):
        got = exact_range(bound("NOT (TIME > 2)", "<i4"))
        assert got == ("TIME", IntervalSet([Interval(hi=2)]))

    def test_not_equal_is_two_open_intervals(self):
        got = exact_range(bound("TIME != 3", "<i4"))
        assert got == (
            "TIME",
            IntervalSet(
                [Interval(hi=3, hi_open=True), Interval(lo=3, lo_open=True)],
                nan=True,
            ),
        )

    def test_not_over_a_float_column_admits_nan(self):
        # A NaN row fails TIME > 2, so NOT keeps it: the set says so.
        got = exact_range(bound("NOT (TIME > 2)", "<f8"))
        assert got == ("TIME", IntervalSet([Interval(hi=2)], nan=True))
        assert exact_range(bound("TIME <= 2", "<f8")) == (
            "TIME", IntervalSet([Interval(hi=2)]),
        )

    def test_not_equal_over_a_float_column_admits_nan(self):
        ne = exact_range(bound("TIME != 3", "<f8"))
        lt_or_gt = exact_range(bound("TIME < 3 OR TIME > 3", "<f8"))
        assert ne[1].intervals == lt_or_gt[1].intervals
        assert (ne[1].nan, lt_or_gt[1].nan) == (True, False)

    def test_or_on_one_attribute_stays_exact(self):
        got = exact_range(where("TIME < 2 OR TIME > 10"))
        assert got == (
            "TIME",
            IntervalSet(
                [Interval(hi=2, hi_open=True), Interval(lo=10, lo_open=True)]
            ),
        )

    def test_or_across_attributes_is_residual(self):
        ranges, residual = split_where(where("TIME < 2 OR REL = 1"))
        assert ranges == {}
        assert len(residual) == 1

    def test_between_and_in_list(self):
        assert exact_range(where("TIME BETWEEN 1 AND 5")) == (
            "TIME",
            IntervalSet.of(1, 5),
        )
        assert exact_range(where("REL IN (0, 2)")) == (
            "REL",
            IntervalSet.points([0, 2]),
        )


class TestQueryKey:
    def key(self, sql_where, output=("X",)):
        q = parse_query(f"SELECT X FROM T WHERE {sql_where}")
        return query_key("fp", q, output)

    def test_commuted_conjuncts_share_a_key(self):
        assert self.key("TIME > 2 AND SOIL > 0.5") == self.key(
            "SOIL > 0.5 AND TIME > 2"
        )

    def test_output_order_is_part_of_the_key(self):
        assert self.key("TIME > 2", ("X", "Y")) != self.key("TIME > 2", ("Y", "X"))

    def test_broad_subsumes_narrow_not_vice_versa(self):
        broad = self.key("TIME > 2")
        narrow = self.key("TIME > 4 AND TIME < 8")
        assert key_subsumes(broad, narrow)
        assert not key_subsumes(narrow, broad)

    def test_unconstrained_attribute_blocks_subsumption(self):
        assert not key_subsumes(self.key("REL = 1"), self.key("TIME > 4"))

    def test_cached_residual_must_appear_in_new_query(self):
        cached = self.key("TIME > 2 AND SOIL > SGAS")
        assert not key_subsumes(cached, self.key("TIME > 4"))
        assert key_subsumes(cached, self.key("TIME > 4 AND SOIL > SGAS"))

    def test_different_dataset_never_subsumes(self):
        q = parse_query("SELECT X FROM T WHERE TIME > 2")
        a = query_key("fp-a", q, ("X",))
        b = query_key("fp-b", q, ("X",))
        assert a != b
        assert not key_subsumes(a, b)


# ---------------------------------------------------------------------------
# Virtualizer integration
# ---------------------------------------------------------------------------

BROAD = "SELECT X, Y, SOIL FROM IparsData WHERE TIME >= 2"
NARROW = "SELECT X, Y, SOIL FROM IparsData WHERE TIME >= 4 AND TIME <= 8"


@pytest.fixture()
def v(ipars_l0):
    _, text, mount = ipars_l0
    with Virtualizer(text, mount) as virt:
        yield virt


class TestVirtualizerCache:
    def test_exact_hit_skips_io_and_is_identical(self, v):
        cold = v.query(BROAD, options=SUBSUME)
        warm_stats = IOStats()
        warm = v.query(BROAD, stats=warm_stats, options=SUBSUME)
        assert warm_stats.read_calls == 0
        assert warm_stats.result_cache_hits == 1
        assert warm_stats.cache_saved_bytes > 0
        assert_bit_identical(warm, cold)
        # Served arrays are views of the frozen cache: read-only.
        assert not warm.column("X").flags.writeable

    def test_subsumption_bit_identical_to_cold(self, v, ipars_l0):
        _, text, mount = ipars_l0
        v.query(BROAD, options=SUBSUME)
        warm_stats = IOStats()
        warm = v.query(NARROW, stats=warm_stats, options=SUBSUME)
        assert warm_stats.subsumption_hits == 1
        assert warm_stats.read_calls == 0
        assert warm_stats.rows_refiltered > 0
        with Virtualizer(text, mount) as cold_v:
            cold = cold_v.query(NARROW)
        assert_bit_identical(warm, cold)
        # Refiltered results are fresh arrays, safe for callers to mutate.
        assert warm.column("X").flags.writeable

    def test_subsumption_on_unprojected_where_attribute(self, v):
        # TIME is filtered but never selected; the widened stored table
        # must still be able to re-filter on it.
        v.query("SELECT X, SOIL FROM IparsData WHERE TIME >= 2", options=SUBSUME)
        stats = IOStats()
        v.query(
            "SELECT X, SOIL FROM IparsData WHERE TIME >= 4 AND TIME <= 8",
            stats=stats,
            options=SUBSUME,
        )
        assert stats.subsumption_hits == 1
        assert stats.read_calls == 0

    def test_exact_mode_does_not_subsume(self, v):
        v.query(BROAD, options=EXACT)
        stats = IOStats()
        v.query(NARROW, stats=stats, options=EXACT)
        assert stats.subsumption_hits == 0
        assert stats.result_cache_hits == 0
        assert stats.rows_extracted > 0  # really re-executed

    def test_drop_caches_empties_and_resets(self, v):
        v.query(BROAD, options=SUBSUME)
        v.query(BROAD, options=SUBSUME)
        assert v.cache_stats()["result"]["hits"] == 1
        v.drop_caches()
        stats = v.cache_stats()
        assert stats["result"] == {
            "entries": 0, "bytes": 0, "max_bytes": stats["result"]["max_bytes"],
            "hits": 0, "subsumption_hits": 0, "misses": 0, "evictions": 0,
        }
        assert stats["plan"]["entries"] == 0
        rerun = IOStats()
        v.query(BROAD, stats=rerun, options=SUBSUME)
        assert rerun.read_calls > 0  # cold again

    def test_off_mode_reproduces_uncached_counters(self, ipars_l0):
        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as v1:
            plain = IOStats()
            v1.query(NARROW, stats=plain)
        with Virtualizer(text, mount) as v2:
            off = IOStats()
            v2.query(NARROW, stats=off, options=OFF)
            assert v2.cache_stats() is None
        assert off == plain

    def test_lru_eviction_under_byte_budget(self, v):
        # Same-size results so the budget fits either one but not both
        # (sizing off the *stored* entry, which is widened with TIME).
        first = "SELECT X, Y, SOIL FROM IparsData WHERE TIME <= 5"
        second = "SELECT X, Y, SOIL FROM IparsData WHERE TIME >= 8"
        v.query(first, options=SUBSUME)
        stored = v.cache_stats()["result"]["bytes"]
        budget = int(stored * 1.5)  # room for one result, not two
        opts = SUBSUME.replace(result_cache_bytes=budget)
        v.query(second, options=opts)
        stats = v.cache_stats()["result"]
        assert stats["evictions"] >= 1
        assert stats["entries"] == 1
        assert stats["bytes"] <= budget

    def test_plan_cache_hits_without_result_cache(self, v):
        opts = SUBSUME.replace(result_cache_bytes=0)
        v.query(BROAD, options=opts)
        v.query(BROAD, options=opts)
        stats = v.cache_stats()
        assert stats["result"]["entries"] == 0
        assert stats["result"]["misses"] == 2
        assert stats["plan"]["hits"] == 1

    def test_cache_hit_traced(self, v):
        v.query(BROAD, options=SUBSUME)
        tracer = Tracer()
        v.query(NARROW, options=SUBSUME.replace(trace=tracer))
        (event,) = tracer.find("cache_hit")
        assert event.tags["kind"] == "subsume"
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["cache.subsumption_hits"] == 1
        assert counters["bytes.cache_saved"] > 0

    def test_query_resolves_sql_exactly_once(self, v, monkeypatch):
        import repro.core.planner as planner

        parses = []
        real = parse_query

        def counting(text):
            parses.append(text)
            return real(text)

        monkeypatch.setattr(planner, "parse_query", counting)
        v.query(BROAD, options=ExecOptions(trace=True))
        assert parses == [BROAD]
        parses.clear()
        v.plan(NARROW, options=ExecOptions(trace=True))
        assert parses == [NARROW]


class TestStreamingCache:
    def test_query_iter_span_tagged_streaming(self, v):
        tracer = Tracer()
        batches = list(
            v.query_iter(BROAD, options=ExecOptions(trace=tracer, batch_rows=64))
        )
        assert batches
        (span,) = tracer.find("query")
        assert span.tags["streaming"] is True

    def test_streaming_never_populates_the_cache(self, v):
        list(v.query_iter(BROAD, options=SUBSUME))
        assert v.cache_stats()["result"]["entries"] == 0

    def test_warm_iter_serves_batches_from_cache(self, v):
        cold = v.query(BROAD, options=SUBSUME)  # populates
        stats = IOStats()
        opts = SUBSUME.replace(batch_rows=100)
        batches = list(v.query_iter(BROAD, stats=stats, options=opts))
        assert stats.read_calls == 0
        assert stats.result_cache_hits == 1
        assert all(b.num_rows <= 100 for b in batches)
        rebuilt = {
            name: np.concatenate([b.column(name) for b in batches])
            for name in cold.column_names
        }
        for name in cold.column_names:
            np.testing.assert_array_equal(rebuilt[name], cold.column(name))


class TestExecOptionsValidation:
    def test_bad_cache_mode_rejected(self):
        with pytest.raises(ValueError, match="cache_mode"):
            ExecOptions(cache_mode="bogus")

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError, match="result_cache_bytes"):
            ExecOptions(result_cache_bytes=-1)
        with pytest.raises(ValueError, match="plan_cache_entries"):
            ExecOptions(plan_cache_entries=-5)


# ---------------------------------------------------------------------------
# QueryService integration (shared cache across nodes and threads)
# ---------------------------------------------------------------------------

CONFIG = IparsConfig(num_rels=2, num_times=10, cells_per_node=30, num_nodes=2)


@pytest.fixture(scope="module")
def storm_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cache_storm")
    cluster = VirtualCluster.create(str(root), CONFIG.num_nodes)
    text, _ = ipars.generate(CONFIG, "L0", cluster.mount())
    return GeneratedDataset(text), cluster


@pytest.fixture()
def service(storm_env):
    dataset, cluster = storm_env
    with QueryService(dataset, cluster) as svc:
        yield svc


class TestQueryServiceCache:
    def test_hit_served_from_cache_pseudo_node(self, service):
        cold = service.submit(BROAD, SUBSUME)
        assert CACHE_NODE not in cold.per_node_stats
        warm = service.submit(BROAD, SUBSUME)
        assert list(warm.per_node_stats) == [CACHE_NODE]
        assert warm.total_stats.read_calls == 0
        assert warm.total_stats.result_cache_hits == 1
        assert warm.afc_count == cold.afc_count
        assert not warm.degraded
        assert_bit_identical(warm.table, cold.table)

    def test_subsumption_across_nodes_matches_cold(self, service):
        service.submit(BROAD, SUBSUME)
        warm = service.submit(NARROW, SUBSUME)
        assert warm.total_stats.subsumption_hits == 1
        cold = service.submit(NARROW, OFF)
        assert_bit_identical(warm.table, cold.table)

    def test_concurrent_submits_share_cache_soundly(self, service):
        queries = [
            BROAD,
            NARROW,
            "SELECT X, Y, SOIL FROM IparsData WHERE TIME >= 3 AND TIME <= 6",
            "SELECT X, Y, SOIL FROM IparsData WHERE TIME >= 5",
        ]
        reference = {sql: service.submit(sql, OFF).table for sql in queries}
        jobs = queries * 6

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda sql: service.submit(sql, SUBSUME), jobs)
            )

        # However lookups interleaved with stores, every answer must be
        # complete and correct — a partially-populated entry could not be.
        for sql, result in zip(jobs, results):
            assert not result.degraded
            assert_bit_identical(result.table, reference[sql])
        stats = service.cache_stats()["result"]
        assert stats["hits"] + stats["subsumption_hits"] + stats["misses"] == len(
            jobs
        )
        assert stats["hits"] + stats["subsumption_hits"] > 0

    def test_drop_caches_resets_service_cache(self, service):
        service.submit(BROAD, SUBSUME)
        service.submit(BROAD, SUBSUME)
        service.drop_caches()
        stats = service.cache_stats()
        assert stats["result"]["entries"] == 0
        assert stats["result"]["hits"] == 0
        assert stats["plan"]["entries"] == 0
        rerun = service.submit(BROAD, SUBSUME)
        assert rerun.total_stats.read_calls > 0


class TestCacheFaultIsolation:
    def test_degraded_results_never_cached(self, storm_env):
        dataset, cluster = storm_env
        injector = FaultInjector([FaultRule("node-down", node="osu1")])
        opts = SUBSUME.replace(allow_partial=True, retries=1, retry_backoff=0.0)
        with QueryService(dataset, cluster, fault_injector=injector) as svc:
            first = svc.submit(BROAD, opts)
            assert first.degraded
            assert svc.cache_stats()["result"]["entries"] == 0
            # The repeat must re-execute, not be served the partial table.
            second = svc.submit(BROAD, opts)
            assert second.degraded
            assert second.total_stats.result_cache_hits == 0
            assert svc.cache_stats()["result"]["entries"] == 0

    def test_recovered_fault_injection_still_blocks_store(self, storm_env):
        # The retry recovers a complete result, but the run saw injected
        # faults — conservatively keep it out of the cache.
        dataset, cluster = storm_env
        injector = FaultInjector([FaultRule("raise-on-open", times=1)])
        opts = SUBSUME.replace(retries=2, retry_backoff=0.0)
        with QueryService(dataset, cluster, fault_injector=injector) as svc:
            result = svc.submit(BROAD, opts)
            assert not result.degraded
            assert svc.cache_stats()["result"]["entries"] == 0
            clean = svc.submit(NARROW, opts)  # no faults left to inject
            assert not clean.degraded
            assert svc.cache_stats()["result"]["entries"] == 1
