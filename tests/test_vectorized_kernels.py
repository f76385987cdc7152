"""Compiled kernel equivalence: vectorized WHERE vs interpreted oracle.

Part 1 reuses the seeded random-tree generator from
``test_rewrite_equivalence`` to check that :class:`CompiledPredicate`
produces *bit-identical* masks to the interpreted AST walk over 1000
NaN-bearing predicate trees — each kernel evaluated twice so the
selectivity-reordered second pass is exercised too.  The same harness
cut into uneven "AFCs" and fused at three block sizes shows block
boundaries never reorder rows; byte-derived block sizes are clamped.

Part 2 drives the ablation knob through the full engine: the paper's
fig7/fig8 filter shapes return row-for-row identical tables with
``vectorize="on"`` and ``"off"``, on the eager, streaming, aggregate,
and cache-subsumption paths — and a scheduler ``RunState`` riding along
changes neither the table nor the counters.

Part 3 covers the satellite regressions: ``IN`` with 1000 values via
one ``np.isin`` pass, empty AND/OR rejected at construction, the
scalar-UDF fallback contract (identical results, RT309 flagged), and
the knob crossing the wire.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import CompiledDataset, ExecOptions, Virtualizer
from repro.core.kernels import (
    INDEX_DECIDED,
    BlockPipeline,
    CompiledPredicate,
    KernelCache,
    assemble_table,
    block_rows_for,
)
from repro.core.stats import IOStats
from repro.diag import analyze_query
from repro.errors import QueryValidationError
from repro.metadata import parse_descriptor
from repro.net.wire import decode_options, encode_options
from repro.sched import RunState
from repro.sql.ast import And, Comparison, Column, FunctionCall, InList, Literal, Or, in_list_mask
from repro.sql.functions import DEFAULT_REGISTRY, FunctionRegistry, FunctionSignature
from repro.sql.parser import parse_where
from repro.storm.data_source import DataSourceService
from repro.storm.filtering import FilteringService
from tests.conftest import assert_tables_equal
from tests.test_rewrite_equivalence import (
    N_ROWS,
    make_columns,
    mask_of,
    rand_tree,
)

# ---------------------------------------------------------------------------
# Part 1: randomized kernel-vs-interpreter mask equivalence
# ---------------------------------------------------------------------------

N_TREES = 1000


def kernel_mask(kernel, columns):
    raw = np.asarray(
        kernel.evaluate(columns, N_ROWS), dtype=bool
    )
    return np.broadcast_to(raw, (N_ROWS,)).copy()


def run_pipeline(pipeline, blocks):
    """Feed ``(columns, num_rows)`` blocks through a BlockPipeline; the
    finished pieces per output column, in order."""
    done = [pipeline.add(columns, n) for columns, n in blocks]
    done.append(pipeline.finish())
    return {
        name: [block[0][name] for block in done if block is not None]
        for name in pipeline.output
    }


class TestRandomizedKernelEquivalence:
    def test_1000_random_trees_match_interpreter_bit_identically(self):
        rng = random.Random(24680)
        for i in range(N_TREES):
            tree = rand_tree(rng, rng.randrange(1, 5))
            kernel = CompiledPredicate(tree, DEFAULT_REGISTRY)
            # Two blocks through one kernel: the second evaluation runs
            # with selectivity-reordered conjuncts and warm buffers.
            for round_no in range(2):
                columns = make_columns(rng)
                expected = mask_of(tree, columns)
                np.testing.assert_array_equal(
                    kernel_mask(kernel, columns),
                    expected,
                    err_msg=f"case {i} round {round_no}: {tree}",
                )

    def test_constant_predicates_never_touch_columns(self):
        kernel = CompiledPredicate(
            parse_where("1 < 2 AND 3 = 3"), DEFAULT_REGISTRY
        )
        assert kernel.is_constant
        # No columns provided at all: a constant kernel must not look.
        assert kernel.evaluate({}, 5) is True
        kernel = CompiledPredicate(parse_where("1 > 2"), DEFAULT_REGISTRY)
        assert kernel.evaluate({}, 5) is False

    def test_empty_block_returns_empty_mask(self):
        kernel = CompiledPredicate(parse_where("A > 1"), DEFAULT_REGISTRY)
        mask = kernel.evaluate({"A": np.empty(0, dtype=np.int64)}, 0)
        assert isinstance(mask, np.ndarray)
        assert mask.shape == (0,)

    def test_unknown_attribute_raises_like_interpreter(self):
        kernel = CompiledPredicate(parse_where("NOPE > 1"), DEFAULT_REGISTRY)
        with pytest.raises(QueryValidationError):
            kernel.evaluate({"A": np.arange(4)}, 4)

    def test_kernel_cache_compiles_once_per_predicate(self):
        cache = KernelCache(DEFAULT_REGISTRY)
        where = parse_where("A > 1 AND B < 2")
        assert cache.get(where) is cache.get(parse_where("A > 1 AND B < 2"))
        assert len(cache) == 1

    def test_block_pipeline_matches_per_block_filtering(self):
        where = parse_where("A > 2 AND B <= 6")
        kernel = CompiledPredicate(where, DEFAULT_REGISTRY)
        rng = np.random.default_rng(7)
        blocks = [
            {
                "A": rng.integers(0, 8, n).astype(np.int64),
                "B": rng.uniform(0, 10, n),
            }
            for n in (3, 17, 64, 1, 0, 29)
        ]
        pipeline = BlockPipeline(kernel, ["A", "B"], ["A", "B"], block_rows=32)
        pieces = run_pipeline(pipeline, [(b, len(b["A"])) for b in blocks])
        fused = {name: np.concatenate(pieces[name]) for name in ("A", "B")}
        expected_mask = np.concatenate(
            [
                np.asarray(where.evaluate(b, DEFAULT_REGISTRY))
                for b in blocks
                if len(b["A"])
            ]
        )
        all_a = np.concatenate([b["A"] for b in blocks])
        all_b = np.concatenate([b["B"] for b in blocks])
        np.testing.assert_array_equal(fused["A"], all_a[expected_mask])
        np.testing.assert_array_equal(fused["B"], all_b[expected_mask])
        assert len(fused["A"]) == int(expected_mask.sum())

    def test_block_boundaries_never_change_row_order(self):
        # The 1000-tree harness again, each tree's rows cut into uneven
        # "AFCs" and fused at three block sizes: one row per block, a
        # size that straddles AFC boundaries, and one block for all.
        rng = random.Random(13579)
        for i in range(N_TREES):
            tree = rand_tree(rng, rng.randrange(1, 5))
            kernel = CompiledPredicate(tree, DEFAULT_REGISTRY)
            columns = make_columns(rng)
            expected = mask_of(tree, columns)
            cuts = sorted(rng.sample(range(N_ROWS + 1), 5))
            bounds = list(zip([0] + cuts, cuts + [N_ROWS]))
            for block_rows in (1, 7, 2 * N_ROWS):
                pipeline = BlockPipeline(
                    kernel, list(columns), list(columns), block_rows
                )
                pieces = run_pipeline(
                    pipeline,
                    [
                        ({n: c[lo:hi] for n, c in columns.items()}, hi - lo)
                        for lo, hi in bounds
                    ],
                )
                for name, column in columns.items():
                    got = np.concatenate(pieces[name] or [column[:0]])
                    np.testing.assert_array_equal(
                        got, column[expected],
                        err_msg=f"case {i} block_rows {block_rows}: {tree}",
                    )

    def test_all_true_mask_skips_the_gather_but_still_owns_its_rows(self):
        # A predicate every row passes keeps every row of every block:
        # rows, order and rows_output as with a gather.  Blocks may be
        # views — one AFC's read-only decode over a segment-cache buffer
        # passes through untouched — so ownership is taken where the
        # rows leave: assemble_table's result owns its memory, for one
        # piece or many, fused or not.
        where = parse_where("T >= 3 AND T <= 5")
        kernel = CompiledPredicate(where, DEFAULT_REGISTRY)
        segment = np.arange(40, dtype="<f8").tobytes()
        afcs = []
        for i, n in enumerate((8, 1, 31)):
            values = np.frombuffer(segment, dtype="<f8", count=n, offset=8 * i)
            assert not values.flags.writeable
            afcs.append(
                {"T": np.full(n, 3 + i, dtype=np.int64), "V": values}
            )
        for evaluator in (kernel, None, INDEX_DECIDED):
            for count in (1, 3):  # a lone piece, and several
                expected = np.concatenate([a["V"] for a in afcs[:count]])
                for block_rows in (1, 9, 1000):  # per-AFC and fused blocks
                    stats = IOStats()
                    pipeline = BlockPipeline(
                        evaluator, ["T", "V"], ["V"], block_rows, stats=stats
                    )
                    blocks = [
                        pipeline.add(afc, len(afc["T"]))
                        for afc in afcs[:count]
                    ] + [pipeline.finish()]
                    if evaluator is not kernel:
                        # Every block is an AFC's own columns, no copy.
                        emitted = [b[0]["V"] for b in blocks if b]
                        assert len(emitted) == count and all(
                            v is a["V"] for v, a in zip(emitted, afcs)
                        )
                    table = assemble_table(["V"], {}, blocks)
                    column = table.column("V")
                    np.testing.assert_array_equal(column, expected)
                    assert stats.rows_output == len(expected)
                    assert column.flags.writeable and column.flags.c_contiguous
                    assert not any(
                        np.shares_memory(column, a["V"]) for a in afcs
                    )

    def test_index_decided_counts_rows_as_vectorized(self):
        cache = KernelCache(DEFAULT_REGISTRY)
        decided = (parse_where("T >= 3"),)
        assert cache.evaluator(None, True, decided=decided) is INDEX_DECIDED
        assert cache.evaluator(None, False, decided=decided) is None
        assert cache.evaluator(None, True) is None
        for evaluator, vectorized in ((INDEX_DECIDED, 5), (None, 0)):
            stats = IOStats()
            pipeline = BlockPipeline(evaluator, ["A"], ["A"], 64, stats=stats)
            pipeline.add({"A": np.arange(5)}, 5)
            assert stats.rows_vectorized == vectorized
            assert stats.rows_output == 5
        assert len(cache) == 0

    def test_block_rows_follow_row_width_and_are_clamped(self):
        f4, f8, i1 = np.dtype("<f4"), np.dtype("<f8"), np.dtype("i1")
        five = ["X", "Y", "Z", "S1", "S2"]
        # 256 KiB of 20-byte rows.
        assert block_rows_for(five, dict.fromkeys(five, f4)) == 13107
        # Undeclared columns are priced as float64.
        assert block_rows_for(five, {}) == 6553
        # Tiny rows stop at the old fixed 64Ki; very wide ones at 1Ki.
        assert block_rows_for(["B"], {"B": i1}) == 65536
        wide = [f"C{i}" for i in range(400)]
        assert block_rows_for(wide, dict.fromkeys(wide, f8)) == 1024
        assert block_rows_for([], {}) == 65536


# ---------------------------------------------------------------------------
# Part 2: engine-level on-vs-off identity (fig7/fig8 filter shapes)
# ---------------------------------------------------------------------------

ON = ExecOptions(remote=False, vectorize="on")
OFF = ExecOptions(remote=False, vectorize="off")

#: The paper's fig8 (IPARS) archetypes at the small-fixture scale:
#: range subset, range+filter, range+UDF, pure UDF.
IPARS_QUERIES = [
    # The index decides TIME>3 AND TIME<9; SOIL>0.05 keeps a residual
    # (nearly every row passes) for the kernel to run.
    "SELECT REL, TIME, X, SOIL FROM IparsData "
    "WHERE TIME>3 AND TIME<9 AND SOIL>0.05",
    "SELECT X, SOIL FROM IparsData WHERE TIME>3 AND TIME<9 AND SOIL>0.5",
    "SELECT X, OILVX FROM IparsData "
    "WHERE TIME>3 AND TIME<9 AND SPEED(OILVX, OILVY, OILVZ)<30",
    "SELECT TIME, SOIL FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ)<20",
    "SELECT REL FROM IparsData WHERE REL IN (0, 1) AND SOIL>0.9",
]

#: fig7 (Titan) archetypes: range box, UDF distance, selective scalar.
TITAN_QUERIES = [
    "SELECT X, Y, Z FROM TitanData "
    "WHERE X>=0 AND X<=2000 AND Y>=0 AND Y<=2000",
    "SELECT X, S1 FROM TitanData WHERE DISTANCE(X, Y, Z)<5000",
    "SELECT S1 FROM TitanData WHERE S1 < 0.01",
]


def assert_identical_rows(a, b):
    """Row-for-row (order-sensitive) equality, stricter than the
    multiset comparison in assert_tables_equal."""
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


class TestEngineOnOffIdentity:
    @pytest.mark.parametrize("sql", IPARS_QUERIES)
    def test_ipars_queries_identical(self, ipars_l0, sql):
        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as virt:
            on_stats, off_stats = IOStats(), IOStats()
            fast = virt.query(sql, stats=on_stats, options=ON)
            slow = virt.query(sql, stats=off_stats, options=OFF)
            assert_identical_rows(fast, slow)
            # The knob only changes *how* the filter ran, never what was
            # read or emitted.
            assert on_stats.rows_extracted == off_stats.rows_extracted
            assert on_stats.rows_output == off_stats.rows_output
            assert on_stats.rows_vectorized == on_stats.rows_extracted
            assert off_stats.rows_vectorized == 0

    def test_decided_where_compiles_no_kernel(self, ipars_l0):
        # TIME>3 AND TIME<9 is settled by the index: vectorized, no
        # kernel is compiled or run, yet every row still counts as
        # vectorized — and the table is the interpreted one.
        _, text, mount = ipars_l0
        sql = "SELECT REL, TIME, X, SOIL FROM IparsData WHERE TIME>3 AND TIME<9"
        with Virtualizer(text, mount) as virt:
            on_stats, off_stats = IOStats(), IOStats()
            fast = virt.query(sql, stats=on_stats, options=ON)
            assert len(virt._kernels) == 0
            assert on_stats.rows_vectorized == on_stats.rows_extracted > 0
            slow = virt.query(sql, stats=off_stats, options=OFF)
            assert off_stats.rows_vectorized == 0
        assert_identical_rows(fast, slow)

    @pytest.mark.parametrize("sql", TITAN_QUERIES)
    def test_titan_queries_identical(self, titan_small, sql):
        _, text, mount, _ = titan_small
        with Virtualizer(text, mount) as virt:
            fast = virt.query(sql, options=ON)
            slow = virt.query(sql, options=OFF)
            assert_identical_rows(fast, slow)

    def test_streaming_batches_identical(self, ipars_l0):
        _, text, mount = ipars_l0
        sql = IPARS_QUERIES[1]
        with Virtualizer(text, mount) as virt:
            fast = list(virt.query_iter(sql, options=ON.replace(batch_rows=37)))
            slow = list(
                virt.query_iter(sql, options=OFF.replace(batch_rows=37))
            )
            assert len(fast) == len(slow)
            for a, b in zip(fast, slow):
                assert_identical_rows(a, b)

    def test_aggregate_identical(self, ipars_l0):
        _, text, mount = ipars_l0
        sql = (
            "SELECT REL, COUNT(*), AVG(SOIL) FROM IparsData "
            "WHERE SOIL > 0.3 GROUP BY REL"
        )
        with Virtualizer(text, mount) as virt:
            assert_tables_equal(
                virt.query(sql, options=ON), virt.query(sql, options=OFF)
            )

    def test_subsumption_refilter_identical(self, ipars_l0):
        _, text, mount = ipars_l0
        wide = "SELECT X, SOIL FROM IparsData WHERE TIME>2 AND TIME<10"
        narrow = "SELECT X, SOIL FROM IparsData WHERE TIME>3 AND TIME<9"
        results = {}
        for label, base in (("on", ON), ("off", OFF)):
            opts = base.replace(cache_mode="subsume")
            with Virtualizer(text, mount) as virt:
                virt.query(wide, options=opts)
                run = IOStats()
                results[label] = virt.query(narrow, stats=run, options=opts)
                assert run.subsumption_hits == 1
                if label == "on":
                    assert run.rows_vectorized == run.rows_refiltered > 0
        assert_identical_rows(results["on"], results["off"])

    @pytest.mark.parametrize(
        "fixture, sql",
        [("ipars_l0", q) for q in IPARS_QUERIES]
        + [("titan_small", q) for q in TITAN_QUERIES],
    )
    def test_run_state_changes_neither_rows_nor_counters(
        self, request, fixture, sql
    ):
        # Scheduled queries (a RunState on the options) run the same
        # block driver as unscheduled ones: chunk_row_cap=32 makes every
        # block a fusion of many AFCs.
        _, text, mount, *_ = request.getfixturevalue(fixture)
        plan = CompiledDataset(text, None, 32).plan(sql)
        for node in sorted({afc.chunks[0].node for afc in plan.afcs}):
            afcs = [a for a in plan.afcs if a.chunks[0].node == node]
            source = DataSourceService(node, mount, FilteringService())
            try:
                runs = []
                for state in (None, RunState()):
                    source.drop_caches()
                    stats = IOStats()
                    table = source.execute(
                        plan, afcs, stats, options=ON.replace(run_state=state)
                    )
                    runs.append((table, stats))
            finally:
                source.close()
            (plain, plain_stats), (metered, metered_stats) = runs
            assert_identical_rows(plain.canonical(), metered.canonical())
            assert_identical_rows(plain, metered)
            assert plain_stats.rows_vectorized == plain_stats.rows_extracted > 0
            for counter in ("rows_vectorized", "rows_output", "bytes_read"):
                assert getattr(metered_stats, counter) == getattr(
                    plain_stats, counter
                ), counter
            # ... and the meter saw exactly what the counters saw.
            assert state.rows == metered_stats.rows_output
            assert state.nbytes == metered_stats.bytes_read > 0


# ---------------------------------------------------------------------------
# Part 3: satellites — IN via np.isin, empty AND/OR, UDF fallback, wire
# ---------------------------------------------------------------------------


class TestInListRegression:
    def test_1000_value_in_list_single_pass_semantics(self):
        rng = np.random.default_rng(99)
        data = rng.integers(-2000, 2000, 4096).astype(np.int64)
        values = tuple(int(v) for v in rng.integers(-2000, 2000, 1000))
        node = InList(Column("A"), values)
        got = np.asarray(node.evaluate({"A": data}, DEFAULT_REGISTRY))
        expected = np.zeros(data.shape, dtype=bool)
        for v in set(values):
            expected |= data == v
        np.testing.assert_array_equal(got, expected)

    def test_mixed_type_values_match_elementwise_equality(self):
        data = np.array([1, 2, 3, 4, 2**62 + 1], dtype=np.int64)
        values = (2, 2.5, "x", 4.0)
        got = in_list_mask(data, values)
        expected = np.zeros(data.shape, dtype=bool)
        for v in values:
            expected |= data == v
        np.testing.assert_array_equal(got, expected)

    def test_nan_data_never_matches(self):
        data = np.array([np.nan, 1.0, np.nan, 2.0])
        got = in_list_mask(data, (1.0, np.nan))
        np.testing.assert_array_equal(
            got, np.array([False, True, False, False])
        )

    def test_string_column_ignores_numeric_values(self):
        data = np.array(["a", "b", "1"])
        np.testing.assert_array_equal(
            in_list_mask(data, (1, "b")), np.array([False, True, False])
        )
        assert not in_list_mask(data, (1, 2)).any()


class TestEmptyBoolTerms:
    def test_empty_and_raises_at_construction(self):
        with pytest.raises(QueryValidationError, match="AND"):
            And(())

    def test_empty_or_raises_at_construction(self):
        with pytest.raises(QueryValidationError, match="OR"):
            Or(())

    def test_single_term_still_fine(self):
        node = And((Comparison(">", Column("A"), Literal(1)),))
        assert np.asarray(
            node.evaluate({"A": np.array([0, 2])}, DEFAULT_REGISTRY)
        ).tolist() == [False, True]


def scalar_halfsum(a, b):
    # Deliberately un-vectorizable: Python-level branching per scalar.
    if a > b:
        return (a + b) / 2
    return b


def array_halfsum(a, b):
    return np.where(a > b, (a + b) / 2, b)


@pytest.fixture()
def udf_registry():
    reg = FunctionRegistry(parent=DEFAULT_REGISTRY)
    reg.register(
        "HALFSUM", scalar_halfsum, signature=FunctionSignature(2, 2)
    )
    reg.register(
        "VHALFSUM",
        array_halfsum,
        signature=FunctionSignature(2, 2),
        vectorized=True,
    )
    return reg


class TestScalarUDFFallback:
    def test_scalar_and_vectorized_udf_masks_identical(self, udf_registry):
        rng = np.random.default_rng(5)
        columns = {
            "A": rng.uniform(-5, 5, 500),
            "B": rng.uniform(-5, 5, 500),
        }
        scalar = CompiledPredicate(
            parse_where("HALFSUM(A, B) > 1"), udf_registry
        )
        vector = CompiledPredicate(
            parse_where("VHALFSUM(A, B) > 1"), udf_registry
        )
        np.testing.assert_array_equal(
            scalar.evaluate(columns, 500), vector.evaluate(columns, 500)
        )
        # The interpreted oracle passes whole arrays to UDFs, so the
        # genuinely scalar HALFSUM cannot run through it at all — the
        # np.vectorize fallback is compared against the interpreted
        # evaluation of the elementwise-equivalent VHALFSUM instead.
        interpreted = parse_where("VHALFSUM(A, B) > 1").evaluate(
            columns, udf_registry
        )
        np.testing.assert_array_equal(
            scalar.evaluate(columns, 500), np.asarray(interpreted)
        )

    def test_fallback_is_visible_on_the_kernel(self, udf_registry):
        scalar = CompiledPredicate(
            parse_where("HALFSUM(A, B) > 1"), udf_registry
        )
        vector = CompiledPredicate(
            parse_where("VHALFSUM(A, B) > 1"), udf_registry
        )
        assert scalar.scalar_udfs == ["HALFSUM"]
        assert vector.scalar_udfs == []

    def test_is_vectorized_walks_parent_chain(self, udf_registry):
        assert udf_registry.is_vectorized("VHALFSUM")
        assert not udf_registry.is_vectorized("HALFSUM")
        assert udf_registry.is_vectorized("SPEED")  # inherited
        assert not udf_registry.is_vectorized("NO_SUCH_FN")

    def test_rt309_flags_unvectorized_udf(self, udf_registry):
        descriptor = parse_descriptor(UDF_DESCRIPTOR)
        collector = analyze_query(
            descriptor,
            "SELECT A FROM UdfData WHERE HALFSUM(A, B) > 1 "
            "AND HALFSUM(B, A) > 0",
            functions=udf_registry,
        )
        assert [c for c in collector.codes() if c == "RT309"] == ["RT309"]

    def test_rt309_silent_for_vectorized_udf(self, udf_registry):
        descriptor = parse_descriptor(UDF_DESCRIPTOR)
        collector = analyze_query(
            descriptor,
            "SELECT A FROM UdfData WHERE VHALFSUM(A, B) > 1",
            functions=udf_registry,
        )
        assert "RT309" not in collector.codes()


UDF_DESCRIPTOR = """
[UDF]
A = int
B = float

[UdfData]
DatasetDescription = UDF
DIR[0] = n0

DATASET "UdfData" {
  DATATYPE { UDF }
  DATAINDEX { A }
  DATASPACE {
    LOOP A 1:4:1 { B }
  }
  DATA { DIR[0]/CHUNK$PART PART = 0:1:1 }
}
"""


class TestOptionsAndWire:
    def test_invalid_vectorize_value_rejected(self):
        with pytest.raises(ValueError, match="vectorize"):
            ExecOptions(vectorize="sometimes")

    def test_vectorize_crosses_the_wire(self):
        for value in ("on", "off"):
            encoded = encode_options(ExecOptions(vectorize=value))
            assert decode_options(encoded).vectorize == value

    def test_udf_speed_distance_are_vectorized(self):
        # The built-ins the fig7/fig8 workloads call must take the fast
        # path, or the headline benchmark silently degrades.
        assert DEFAULT_REGISTRY.is_vectorized("SPEED")
        assert DEFAULT_REGISTRY.is_vectorized("DISTANCE")
