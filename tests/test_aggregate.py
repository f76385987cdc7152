"""Aggregate & GROUP BY: parsing, the partial-aggregation kernel, and
every execution path (in-process, service, summary fast path, ablation,
cache), asserted against client-side numpy references."""

import numpy as np
import pytest

from repro.core import ExecOptions, IOStats, Virtualizer, VirtualTable
from repro.core.aggregate import (
    AggregateSpec,
    aggregate_rows,
    aggregate_spec,
    finalize,
    merge_partials,
    partial_aggregate,
)
from repro.errors import QueryValidationError
from repro.sql import Aggregate, parse_query
from repro.sql.ast import Query


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParsing:
    def test_count_star(self):
        q = parse_query("SELECT COUNT(*) FROM D")
        assert q.select == [Aggregate("count", None)]
        assert q.is_aggregate and q.group_by is None

    def test_mixed_select_and_group_by(self):
        q = parse_query(
            "SELECT REL, COUNT(*), AVG(SOIL) FROM D "
            "WHERE TIME < 6 GROUP BY REL"
        )
        assert q.select == [
            "REL", Aggregate("count", None), Aggregate("avg", "SOIL"),
        ]
        assert q.group_by == ["REL"]
        assert q.where is not None

    def test_multi_key_group_by(self):
        q = parse_query("SELECT MIN(X) FROM D GROUP BY REL, TIME")
        assert q.group_by == ["REL", "TIME"]

    def test_count_attr(self):
        q = parse_query("SELECT COUNT(X) FROM D")
        assert q.select == [Aggregate("count", "X")]

    def test_roundtrip_through_str(self):
        sql = "SELECT REL, SUM(SOIL) FROM D WHERE TIME > 2 GROUP BY REL"
        assert str(parse_query(str(parse_query(sql)))) == sql

    def test_sum_star_rejected(self):
        from repro.errors import QuerySyntaxError

        with pytest.raises(QuerySyntaxError, match=r"SUM\(\*\)"):
            parse_query("SELECT SUM(*) FROM D")

    def test_unknown_aggregate_function(self):
        from repro.errors import QuerySyntaxError

        with pytest.raises(QuerySyntaxError, match="MEDIAN"):
            parse_query("SELECT MEDIAN(X) FROM D")

    def test_group_by_only_is_aggregate(self):
        q = parse_query("SELECT REL FROM D GROUP BY REL")
        assert q.is_aggregate and q.aggregates() == []

    def test_plain_query_unchanged(self):
        q = parse_query("SELECT X, Y FROM D WHERE X > 1")
        assert not q.is_aggregate
        assert q.projected_names(["X", "Y", "Z"]) == ["X", "Y"]


# ---------------------------------------------------------------------------
# The kernel: partial_aggregate / merge_partials / finalize
# ---------------------------------------------------------------------------

DTYPES = {
    "G": np.dtype(np.int16),
    "H": np.dtype(np.int32),
    "V": np.dtype(np.float32),
    "N": np.dtype(np.int32),
}


def spec_for(sql: str) -> AggregateSpec:
    return aggregate_spec(parse_query(sql), list(DTYPES))


def rows(n, seed):
    rng = np.random.default_rng(seed)
    return {
        "G": rng.integers(0, 4, n).astype(np.int16),
        "H": rng.integers(0, 3, n).astype(np.int32),
        "V": rng.random(n, dtype=np.float32),
        "N": rng.integers(-50, 50, n).astype(np.int32),
    }


class TestKernel:
    SQL = (
        "SELECT G, COUNT(*), SUM(V), AVG(V), MIN(V), MAX(V), SUM(N) "
        "FROM D GROUP BY G"
    )

    def test_split_independence(self):
        """Merging per-block partials is bit-identical to one pass."""
        spec = spec_for(self.SQL)
        data = rows(999, seed=1)
        one_pass = finalize(
            spec,
            merge_partials(
                spec, [partial_aggregate(spec, data, 999, DTYPES)], DTYPES
            ),
            DTYPES,
        )
        for splits in ([333, 333, 333], [1, 997, 1], [999], [500, 499]):
            frames, at = [], 0
            for size in splits:
                block = {k: v[at:at + size] for k, v in data.items()}
                frames.append(partial_aggregate(spec, block, size, DTYPES))
                at += size
            merged = finalize(
                spec, merge_partials(spec, frames, DTYPES), DTYPES
            )
            for name in one_pass.column_names:
                a, b = one_pass[name], merged[name]
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_zero_row_nodes_are_neutral(self):
        """Empty partial frames (idle nodes) never change the answer."""
        spec = spec_for(self.SQL)
        data = rows(100, seed=2)
        frame = partial_aggregate(spec, data, 100, DTYPES)
        empty = spec.empty_state(DTYPES)
        with_empties = finalize(
            spec,
            merge_partials(spec, [empty, frame, empty, empty], DTYPES),
            DTYPES,
        )
        alone = finalize(
            spec, merge_partials(spec, [frame], DTYPES), DTYPES
        )
        for name in alone.column_names:
            np.testing.assert_array_equal(alone[name], with_empties[name])

    def test_all_empty_merges_to_zero_rows(self):
        spec = spec_for(self.SQL)
        table = finalize(spec, merge_partials(spec, [], DTYPES), DTYPES)
        assert table.num_rows == 0
        assert table.column_names == spec.output

    def test_avg_is_exact_not_mean_of_means(self):
        """AVG merges (sum, count) pairs; a mean of partial means would
        be wrong whenever node row counts are skewed."""
        spec = spec_for("SELECT AVG(V) FROM D GROUP BY G")
        # One group; node A holds 1 row of value 0, node B 99 rows of 1.
        a = {"G": np.zeros(1, np.int16), "V": np.zeros(1, np.float32)}
        b = {"G": np.zeros(99, np.int16), "V": np.ones(99, np.float32)}
        merged = finalize(
            spec,
            merge_partials(
                spec,
                [
                    partial_aggregate(spec, a, 1, DTYPES),
                    partial_aggregate(spec, b, 99, DTYPES),
                ],
                DTYPES,
            ),
            DTYPES,
        )
        assert merged["AVG(V)"][0] == pytest.approx(0.99)
        naive_mean_of_means = (0.0 + 1.0) / 2
        assert merged["AVG(V)"][0] != pytest.approx(naive_mean_of_means)

    def test_group_key_ordering_deterministic(self):
        """Rows come out sorted by group key regardless of input order."""
        spec = spec_for("SELECT G, H, COUNT(*) FROM D GROUP BY G, H")
        data = rows(500, seed=3)
        shuffled = {k: v[::-1] for k, v in data.items()}
        t1 = aggregate_rows(
            spec, VirtualTable(data, order=list(data)), DTYPES
        )
        t2 = aggregate_rows(
            spec, VirtualTable(shuffled, order=list(shuffled)), DTYPES
        )
        g = np.asarray(t1["G"])
        h = np.asarray(t1["H"])
        order = np.lexsort((h, g))
        np.testing.assert_array_equal(order, np.arange(len(g)))
        for name in t1.column_names:
            np.testing.assert_array_equal(t1[name], t2[name])

    def test_dtype_policy(self):
        spec = spec_for(
            "SELECT G, COUNT(*), SUM(N), SUM(V), MIN(V), MAX(N), AVG(N) "
            "FROM D GROUP BY G"
        )
        data = rows(64, seed=4)
        table = aggregate_rows(
            spec, VirtualTable(data, order=list(data)), DTYPES
        )
        assert table["G"].dtype == np.int16          # group key keeps dtype
        assert table["COUNT(*)"].dtype == np.int64
        assert table["SUM(N)"].dtype == np.int64     # int sums widen exactly
        assert table["SUM(V)"].dtype == np.float64   # float sums in float64
        assert table["MIN(V)"].dtype == np.float32   # min/max keep dtype
        assert table["MAX(N)"].dtype == np.int32
        assert table["AVG(N)"].dtype == np.float64

    def test_spec_validates_grouping_rule(self):
        with pytest.raises(QueryValidationError, match="GROUP BY"):
            aggregate_spec(
                parse_query("SELECT V, COUNT(*) FROM D GROUP BY G"),
                list(DTYPES),
            )
        with pytest.raises(QueryValidationError, match="unknown"):
            aggregate_spec(
                parse_query("SELECT SUM(NOPE) FROM D"), list(DTYPES)
            )
        with pytest.raises(QueryValidationError, match="unknown"):
            aggregate_spec(
                parse_query("SELECT COUNT(*) FROM D GROUP BY NOPE"),
                list(DTYPES),
            )

    def test_projected_names_rejects_aggregates(self):
        q = parse_query("SELECT COUNT(*) FROM D")
        with pytest.raises(QueryValidationError):
            q.projected_names(["X"])


# ---------------------------------------------------------------------------
# End-to-end, in process, against numpy references
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ipars_v(ipars_l0):
    _, text, mount = ipars_l0
    with Virtualizer(text, mount) as v:
        yield v


class TestEndToEnd:
    def test_grouped_aggregates_match_reference(self, ipars_v):
        stats = IOStats()
        table = ipars_v.query(
            "SELECT REL, COUNT(*), SUM(SOIL), AVG(SOIL), MIN(SOIL), "
            "MAX(SOIL) FROM IparsData WHERE TIME < 6 GROUP BY REL",
            stats=stats,
        )
        ref = ipars_v.query(
            "SELECT REL, SOIL FROM IparsData WHERE TIME < 6"
        )
        rel, soil = ref["REL"], ref["SOIL"]
        assert list(table["REL"]) == sorted(set(rel))
        for i, g in enumerate(table["REL"]):
            m = rel == g
            v = soil[m].astype(np.float64)
            assert table["COUNT(*)"][i] == m.sum()
            assert table["SUM(SOIL)"][i] == pytest.approx(v.sum())
            assert table["AVG(SOIL)"][i] == pytest.approx(v.mean())
            assert table["MIN(SOIL)"][i] == soil[m].min()
            assert table["MAX(SOIL)"][i] == soil[m].max()
        assert stats.rows_aggregated == ref.num_rows
        assert stats.groups_emitted >= table.num_rows

    def test_count_attr_equals_count_star(self, ipars_v):
        # SOIL > 0.1 keeps a residual: a WHERE of TIME < 4 alone is
        # decided by the index, and both counts would come from plan
        # metadata instead of the per-AFC fold this test is about.
        where = "WHERE TIME < 4 AND SOIL > 0.1"
        a = ipars_v.query(f"SELECT COUNT(*) FROM IparsData {where}")
        b = ipars_v.query(f"SELECT COUNT(SOIL) FROM IparsData {where}")
        assert a["COUNT(*)"][0] == b["COUNT(SOIL)"][0] > 0

    def test_zero_matching_rows_gives_zero_row_table(self, ipars_v):
        table = ipars_v.query(
            "SELECT COUNT(*), AVG(SOIL) FROM IparsData WHERE TIME > 999"
        )
        assert table.num_rows == 0
        assert table.column_names == ("COUNT(*)", "AVG(SOIL)")

    def test_group_vanishes_when_fully_filtered(self, ipars_v):
        table = ipars_v.query(
            "SELECT REL, COUNT(*) FROM IparsData WHERE REL = 1 GROUP BY REL"
        )
        assert list(table["REL"]) == [1]

    def test_distinct_via_group_by(self, ipars_v):
        table = ipars_v.query(
            "SELECT REL, TIME FROM IparsData WHERE TIME <= 3 "
            "GROUP BY REL, TIME"
        )
        ref = ipars_v.query("SELECT REL, TIME FROM IparsData WHERE TIME <= 3")
        pairs = set(zip(ref["REL"].tolist(), ref["TIME"].tolist()))
        assert table.num_rows == len(pairs)
        assert set(zip(table["REL"].tolist(), table["TIME"].tolist())) == pairs

    def test_select_star_group_by_projects_group_key(self, ipars_v):
        table = ipars_v.query("SELECT * FROM IparsData GROUP BY REL")
        assert table.column_names == ("REL",)

    def test_query_iter_streams_aggregate_result(self, ipars_v):
        batches = list(
            ipars_v.query_iter(
                "SELECT REL, COUNT(*) FROM IparsData GROUP BY REL",
                options=ExecOptions(batch_rows=1),
            )
        )
        assert all(b.num_rows == 1 for b in batches)
        assert sum(b.num_rows for b in batches) == 2

    def test_explain_mentions_aggregate(self, ipars_v):
        text = ipars_v.explain(
            "SELECT REL, COUNT(*) FROM IparsData GROUP BY REL"
        )
        assert "aggregate" in text and "COUNT(*)" in text


class TestSummaryFastPath:
    def test_implicit_bounds_answer_without_reads(self, ipars_v):
        stats = IOStats()
        table = ipars_v.query(
            "SELECT COUNT(*), MIN(TIME), MAX(TIME) FROM IparsData",
            stats=stats,
        )
        assert stats.bytes_read == 0
        assert stats.chunks_read == 0
        ref = ipars_v.query("SELECT TIME FROM IparsData")
        assert table["COUNT(*)"][0] == ref.num_rows
        assert table["MIN(TIME)"][0] == ref["TIME"].min()
        assert table["MAX(TIME)"][0] == ref["TIME"].max()

    def test_stored_attr_uses_chunk_summaries(self, titan_small):
        _, text, mount, summaries = titan_small
        with Virtualizer(text, mount, summaries=summaries) as v:
            stats = IOStats()
            table = v.query(
                "SELECT COUNT(*), MIN(X), MAX(X) FROM TitanData",
                stats=stats,
            )
            assert stats.bytes_read == 0
            ref = v.query("SELECT X FROM TitanData")
            assert table["COUNT(*)"][0] == ref.num_rows
            assert table["MIN(X)"][0] == ref["X"].min()
            assert table["MAX(X)"][0] == ref["X"].max()

    def test_decided_where_is_answered_from_metadata(self, ipars_v):
        # TIME BETWEEN 2 AND 5 is decided by the index: every planned
        # row satisfies it, so the plan has no residual and its bounds
        # are the answer — zero reads, every AFC pruned.
        sql = (
            "SELECT COUNT(*), MIN(TIME), MAX(TIME) FROM IparsData "
            "WHERE TIME BETWEEN 2 AND 5"
        )
        plan = ipars_v.plan(sql)
        assert plan.where is None and plan.decided
        stats = IOStats()
        fast = ipars_v.query(sql, stats=stats)
        assert stats.chunks_read == stats.bytes_read == 0
        assert stats.afcs_pruned == len(plan.afcs) > 0
        extracted = ipars_v.query(sql, options=ExecOptions(agg_pushdown=False))
        for name in fast.column_names:
            assert fast[name].dtype == extracted[name].dtype
            np.testing.assert_array_equal(fast[name], extracted[name])

    def test_decided_where_with_chunk_summaries(self, titan_small):
        # Titan declaring its CHUNK loop as an attribute: the decided
        # CHUNK window plus MAX(X) from the chunk summaries.
        _, text, mount, summaries = titan_small
        text = text.replace("[TITAN]\n", "[TITAN]\nCHUNK = short int\n")
        sql = (
            "SELECT COUNT(*), MIN(CHUNK), MAX(X) FROM TitanData "
            "WHERE CHUNK BETWEEN 3 AND 20"
        )
        with Virtualizer(text, mount, summaries=summaries) as v:
            plan = v.plan(sql)
            stats = IOStats()
            fast = v.query(sql, stats=stats)
            assert stats.chunks_read == stats.bytes_read == 0
            assert stats.afcs_pruned == len(plan.afcs) > 0
            extracted = v.query(sql, options=ExecOptions(agg_pushdown=False))
        for name in fast.column_names:
            assert fast[name].dtype == extracted[name].dtype
            np.testing.assert_array_equal(fast[name], extracted[name])

    def test_predicate_disables_fast_path(self, ipars_v):
        # chunks_read, not bytes_read: the virtualizer's segment cache
        # serves warm re-reads with zero disk bytes, but a real
        # extraction still walks chunks — a summary answer walks none.
        stats = IOStats()
        ipars_v.query(
            "SELECT COUNT(*), MIN(SOIL) FROM IparsData WHERE SOIL > 0.5",
            stats=stats,
        )
        assert stats.chunks_read > 0

    def test_avg_never_summary_answered(self, ipars_v):
        # AVG(SOIL), a stored attribute: AVG needs every value, so the
        # bounds-only fast path must decline and chunks must be walked.
        stats = IOStats()
        ipars_v.query("SELECT AVG(SOIL) FROM IparsData", stats=stats)
        assert stats.chunks_read > 0
        assert stats.rows_aggregated > 0


# ---------------------------------------------------------------------------
# The service paths: pushdown vs coordinator-side ablation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ipars_service(tmp_path_factory):
    from repro.core import GeneratedDataset
    from repro.datasets import IparsConfig, ipars
    from repro.storm import QueryService, VirtualCluster

    root = tmp_path_factory.mktemp("agg_storm")
    config = IparsConfig(
        num_rels=2, num_times=10, cells_per_node=40, num_nodes=3
    )
    cluster = VirtualCluster.create(str(root), config.num_nodes)
    text, _ = ipars.generate(config, "L0", cluster.mount())
    with QueryService(GeneratedDataset(text), cluster) as service:
        yield service


AGG_SQL = (
    "SELECT REL, COUNT(*), SUM(SOIL), AVG(SOIL), MIN(SOIL), MAX(SOIL) "
    "FROM IparsData WHERE TIME < 6 GROUP BY REL"
)


class TestServicePaths:
    def test_ablation_bit_identical(self, ipars_service):
        pushed = ipars_service.submit(AGG_SQL, ExecOptions(remote=False))
        pulled = ipars_service.submit(
            AGG_SQL, ExecOptions(remote=False, agg_pushdown=False)
        )
        for name in pushed.table.column_names:
            a, b = pushed.table[name], pulled.table[name]
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_pushdown_aggregates_on_nodes(self, ipars_service):
        result = ipars_service.submit(AGG_SQL, ExecOptions(remote=False))
        node_stats = {
            k: v for k, v in result.per_node_stats.items()
            if not k.startswith("_")
        }
        assert sum(s.rows_aggregated for s in node_stats.values()) > 0
        assert all(s.groups_emitted > 0 for s in node_stats.values())

    def test_ablation_aggregates_at_coordinator(self, ipars_service):
        from repro.storm.query_service import COORDINATOR_NODE

        result = ipars_service.submit(
            AGG_SQL, ExecOptions(remote=False, agg_pushdown=False)
        )
        coord = result.per_node_stats[COORDINATOR_NODE]
        assert coord.rows_aggregated > 0
        for name, s in result.per_node_stats.items():
            if not name.startswith("_"):
                assert s.rows_aggregated == 0

    def test_summary_node_in_service(self, ipars_service):
        from repro.storm.query_service import SUMMARY_NODE

        result = ipars_service.submit(
            "SELECT COUNT(*) FROM IparsData", ExecOptions(remote=False)
        )
        assert SUMMARY_NODE in result.per_node_stats
        assert result.per_node_stats[SUMMARY_NODE].bytes_read == 0
        assert result.table["COUNT(*)"][0] > 0


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------


class TestAggregateCaching:
    OPTS = ExecOptions(cache_mode="subsume")
    SQL = (
        "SELECT REL, COUNT(*), AVG(SOIL) FROM IparsData "
        "WHERE SOIL < 0.5 GROUP BY REL"
    )

    @pytest.fixture()
    def v(self, ipars_l0):
        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as v:
            yield v

    def test_exact_hit_serves_identical_result(self, v):
        cold, warm = IOStats(), IOStats()
        t1 = v.query(self.SQL, stats=cold, options=self.OPTS)
        t2 = v.query(self.SQL, stats=warm, options=self.OPTS)
        assert cold.bytes_read > 0 and warm.bytes_read == 0
        assert warm.result_cache_hits == 1
        for name in t1.column_names:
            np.testing.assert_array_equal(t1[name], t2[name])

    def test_no_subsumption_for_aggregates(self, v):
        v.query(self.SQL, options=self.OPTS)
        narrower = IOStats()
        v.query(
            "SELECT REL, COUNT(*), AVG(SOIL) FROM IparsData "
            "WHERE SOIL < 0.25 GROUP BY REL",
            stats=narrower,
            options=self.OPTS,
        )
        # A narrower row query would have been refiltered from cache;
        # a reduced table cannot be, so this must re-extract (chunks_read
        # counts extraction even when the segment cache avoids disk).
        assert narrower.chunks_read > 0
        assert narrower.result_cache_hits == 0
        assert narrower.subsumption_hits == 0

    def test_distinct_and_row_query_do_not_collide(self, v):
        distinct = v.query(
            "SELECT REL, TIME FROM IparsData WHERE TIME < 3 "
            "GROUP BY REL, TIME",
            options=self.OPTS,
        )
        plain = v.query(
            "SELECT REL, TIME FROM IparsData WHERE TIME < 3",
            options=self.OPTS,
        )
        assert distinct.num_rows < plain.num_rows

    def test_grouped_and_ungrouped_do_not_collide(self, v):
        grouped = v.query(
            "SELECT COUNT(*) FROM IparsData WHERE SOIL < 0.5 GROUP BY REL",
            options=self.OPTS,
        )
        ungrouped = v.query(
            "SELECT COUNT(*) FROM IparsData WHERE SOIL < 0.5",
            options=self.OPTS,
        )
        assert grouped.num_rows == 2 and ungrouped.num_rows == 1


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


class TestDiagnostics:
    @pytest.fixture(scope="class")
    def descriptor(self, ipars_l0):
        from repro.metadata import parse_descriptor

        _, text, _ = ipars_l0
        return parse_descriptor(text)

    def _codes(self, descriptor, sql):
        from repro.diag import analyze_query

        return [d.code for d in analyze_query(descriptor, sql)]

    def test_clean_aggregate_query(self, descriptor):
        codes = self._codes(
            descriptor,
            "SELECT REL, COUNT(*), AVG(SOIL) FROM IparsData GROUP BY REL",
        )
        assert codes == []

    def test_rq211_bare_attr_not_grouped(self, descriptor):
        codes = self._codes(
            descriptor, "SELECT SOIL, COUNT(*) FROM IparsData GROUP BY REL"
        )
        assert "RQ211" in codes

    def test_rq212_unknown_group_attr(self, descriptor):
        codes = self._codes(
            descriptor, "SELECT COUNT(*) FROM IparsData GROUP BY NOPE"
        )
        assert "RQ212" in codes

    def test_rq213_unknown_aggregate_arg(self, descriptor):
        codes = self._codes(descriptor, "SELECT SUM(NOPE) FROM IparsData")
        assert "RQ213" in codes and "RQ202" not in codes

    def test_rq214_distinct_info(self, descriptor):
        codes = self._codes(
            descriptor, "SELECT REL FROM IparsData GROUP BY REL"
        )
        assert "RQ214" in codes

    def test_rq210_duplicate_aggregate(self, descriptor):
        codes = self._codes(
            descriptor, "SELECT COUNT(*), COUNT(*) FROM IparsData"
        )
        assert "RQ210" in codes

    def test_ro308_pushdown_disabled(self):
        from repro.diag import analyze_options

        codes = [
            d.code for d in analyze_options(ExecOptions(agg_pushdown=False))
        ]
        assert codes == ["RO308"]
        assert analyze_options(ExecOptions()) == []
