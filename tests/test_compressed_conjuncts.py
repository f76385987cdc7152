"""Expensive conjuncts on the survivors only, and the gather by index.

A root conjunct that calls a function on row data, or combines several
tests with AND/OR/NOT, is *expensive*: the compiled kernel runs it
after every cheap (single-test) conjunct and, once the conjuncts before
it keep fewer than ``SELECTION_SHARE`` of the block, on the surviving
rows alone (``np.flatnonzero`` of the running mask, each referenced
column taken by it).  ``BlockPipeline`` then gathers each output column
with one ``take`` of the survivors' indices.

Part 1 is a seeded generator of root ANDs mixing cheap tests and OR/NOT
combinations of them with ``DISTANCE``, ``SPEED``, a scalar
(non-vectorized) UDF and OR/NOT around calls, over NaN-bearing columns
at block sizes 1, 7, 128 and 13 107: the kernel's mask (twice, so the
second pass runs EWMA-reordered) equals the interpreted oracle's bit
for bit, the pipeline's output equals the columns at the oracle's mask,
and a spy on ``DISTANCE`` sees both compressed and full-length calls.

Part 2 pins the edges: both sides of the threshold, one survivor, a
mask drained before the call, the cost classes (a constant-folded call
is cheap, a combination expensive), a non-boolean term under
compression, a scalar UDF called once per survivor, and gathers of
strided columns.

Part 3 is observability: a traced ``filter-local``-shaped Titan query
tags its ``filter`` spans ``compressed=<rows>`` and counts
``kernel.compressed_rows``; an untraced evaluation records nothing.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import ExecOptions, Virtualizer
from repro.core.kernels import (
    SELECTION_SHARE,
    BlockPipeline,
    CompiledPredicate,
    InterpretedPredicate,
)
from repro.obs import Tracer
from repro.sql.ast import (
    And,
    Between,
    Column,
    Comparison,
    FunctionCall,
    InList,
    Literal,
    Not,
    Or,
)
from repro.sql.functions import (
    DEFAULT_REGISTRY,
    FunctionRegistry,
    FunctionSignature,
    distance,
)
from repro.sql.parser import parse_where

# ---------------------------------------------------------------------------
# Shared: columns, a spying registry, the oracle
# ---------------------------------------------------------------------------

BLOCK_SIZES = (1, 7, 128, 13107)
COLUMNS = ("A", "B", "C", "X", "Y", "Z")
OPS = ("=", "!=", "<", "<=", ">", ">=")
VALUES = (-50, -5, -1, 0, 1, 2, 3, 5, 20, 60, 2.5, -1.5)
RADII = (1, 5, 20, 60, 100, 150)


def make_columns(nprng: np.random.Generator, n: int):
    def nan_float(lo, hi):
        values = nprng.uniform(lo, hi, n)
        values[nprng.random(n) < 0.2] = np.nan
        return values

    return {
        "A": nprng.integers(-5, 11, n).astype(np.int64),
        "B": nan_float(-5.0, 10.0),
        "C": nprng.integers(0, 5, n).astype(np.int32),
        "X": nan_float(-100.0, 100.0),
        "Y": nan_float(-100.0, 100.0),
        "Z": nan_float(-10.0, 10.0),
    }


def weighted_sum(a, b):
    # Scalar-safe and array-safe alike, so the interpreted oracle (whole
    # arrays) and the kernel's np.vectorize adapter (one row per call)
    # compute the same IEEE operations.
    return a * 0.5 + b


class Spy:
    """A registry whose ``DISTANCE`` records the rows of every call, with
    ``WSUM`` (scalar, no ``vectorized=True``) and ``IMOD`` (vectorized,
    int-valued: a non-boolean term) beside it."""

    def __init__(self):
        self.distance_rows = []
        self.wsum_calls = 0
        self.imod_rows = []
        self.registry = FunctionRegistry(parent=DEFAULT_REGISTRY)
        self.registry.register(
            "DISTANCE", self._distance,
            signature=FunctionSignature(1, None), vectorized=True,
        )
        self.registry.register(
            "WSUM", self._wsum, signature=FunctionSignature(2, 2)
        )
        self.registry.register(
            "IMOD", self._imod, signature=FunctionSignature(1, 1),
            vectorized=True,
        )

    def _distance(self, *coords):
        self.distance_rows.append(max(np.size(c) for c in coords))
        return distance(*coords)

    def _wsum(self, a, b):
        self.wsum_calls += 1
        return weighted_sum(a, b)

    def _imod(self, a):
        self.imod_rows.append(np.size(a))
        return np.asarray(a) % 3


def full_mask(mask, n):
    return np.broadcast_to(np.asarray(mask, dtype=bool), (n,))


def assert_same_mask(got, want, n, context=""):
    """Bit for bit: equal broadcast masks, and equal dtypes where both
    sides are arrays."""
    got_arr, want_arr = np.asarray(got), np.asarray(want)
    if got_arr.ndim and want_arr.ndim:
        assert got_arr.dtype == want_arr.dtype, context
    np.testing.assert_array_equal(
        full_mask(got_arr, n), full_mask(want_arr, n), err_msg=context
    )


# ---------------------------------------------------------------------------
# Part 1: seeded generator
# ---------------------------------------------------------------------------


def cheap_term(rng: random.Random):
    column = Column(rng.choice(COLUMNS))
    roll = rng.random()
    if roll < 0.5:
        return Comparison(rng.choice(OPS), column, Literal(rng.choice(VALUES)))
    if roll < 0.7:
        lo, hi = sorted(rng.sample(VALUES, 2))
        return Between(column, lo, hi)
    if roll < 0.85:
        values = tuple(rng.choice(VALUES) for _ in range(rng.randrange(1, 4)))
        return InList(column, values)
    return Comparison(
        rng.choice(OPS), column, Column(rng.choice(COLUMNS))
    )


def call(rng: random.Random):
    roll = rng.random()
    if roll < 0.45:
        coords = rng.sample(COLUMNS, rng.randrange(1, 4))
        return FunctionCall("DISTANCE", tuple(Column(c) for c in coords))
    if roll < 0.8:
        return FunctionCall(
            "SPEED", tuple(Column(rng.choice(COLUMNS)) for _ in range(3))
        )
    return FunctionCall(
        "WSUM", (Column(rng.choice(COLUMNS)), Column(rng.choice(COLUMNS)))
    )


def call_term(rng: random.Random):
    if rng.random() < 0.8:
        return Comparison(rng.choice(OPS), call(rng), Literal(rng.choice(RADII)))
    lo, hi = sorted(rng.sample(RADII, 2))
    return Between(call(rng), lo, hi)


def nested_call_term(rng: random.Random):
    roll = rng.random()
    if roll < 0.35:
        return Or((call_term(rng), cheap_term(rng)))
    if roll < 0.6:
        return Not(call_term(rng))
    if roll < 0.8:
        return Not(Or((call_term(rng), call_term(rng))))
    return And((cheap_term(rng), Or((Not(call_term(rng)), cheap_term(rng)))))


def combined_cheap_terms(rng: random.Random):
    """Expensive without a call: several tests combined."""
    if rng.random() < 0.7:
        return Or(tuple(cheap_term(rng) for _ in range(rng.randrange(2, 5))))
    return Not(cheap_term(rng))


def root_and(rng: random.Random):
    """2–6 root conjuncts, at least one calling a function."""
    terms = [rng.choice((call_term, nested_call_term))(rng)]
    for _ in range(rng.randrange(1, 6)):
        roll = rng.random()
        if roll < 0.45:
            terms.append(cheap_term(rng))
        elif roll < 0.55:
            terms.append(combined_cheap_terms(rng))
        elif roll < 0.8:
            terms.append(call_term(rng))
        else:
            terms.append(nested_call_term(rng))
    rng.shuffle(terms)
    return And(tuple(terms))


#: Draws per block size; the 13 107-row blocks are fewer, a scalar UDF
#: at full length being one Python call per row.
DRAWS = {1: 60, 7: 60, 128: 60, 13107: 24}


class TestGenerator:
    def test_kernel_equals_interpreter_and_pipeline_gathers_by_index(self):
        rng = random.Random(2602)
        nprng = np.random.default_rng(2602)
        spy = Spy()
        compressed = full_length = 0
        for n in BLOCK_SIZES:
            for draw in range(DRAWS[n]):
                tree = root_and(rng)
                kernel = CompiledPredicate(tree, spy.registry)
                oracle = InterpretedPredicate(tree, spy.registry)
                for round_no in range(2):
                    columns = make_columns(nprng, n)
                    context = f"n={n} draw={draw} round={round_no}: {tree}"
                    del spy.distance_rows[:]
                    got = kernel.evaluate(columns, n)
                    compressed += sum(r < n for r in spy.distance_rows)
                    full_length += sum(r == n for r in spy.distance_rows)
                    want = oracle.evaluate(columns, n)
                    assert_same_mask(got, want, n, context)
                    expected = full_mask(want, n)
                    pipeline = BlockPipeline(kernel, COLUMNS, COLUMNS, n)
                    block = pipeline.add(columns, n)
                    if not expected.any():
                        assert block is None, context
                        continue
                    out, count = block
                    assert count == int(expected.sum()), context
                    for name in COLUMNS:
                        np.testing.assert_array_equal(
                            out[name], columns[name][expected], err_msg=context
                        )
                        assert out[name].dtype == columns[name].dtype
        # The spy saw DISTANCE on both sides of the threshold.
        assert compressed > 50 and full_length > 50, (compressed, full_length)


# ---------------------------------------------------------------------------
# Part 2: edges
# ---------------------------------------------------------------------------

N = 128


def ramp_columns():
    """``A`` = 0..127 (so ``A < k`` keeps exactly k rows) beside
    NaN-bearing coordinates."""
    columns = make_columns(np.random.default_rng(11), N)
    columns["A"] = np.arange(N, dtype=np.int64)
    return columns


class TestEdges:
    @pytest.mark.parametrize(
        "kept, rows_seen",
        [
            (int(SELECTION_SHARE * N) - 1, int(SELECTION_SHARE * N) - 1),
            (int(SELECTION_SHARE * N), N),
            (N - 1, N),
        ],
    )
    def test_both_sides_of_the_threshold(self, kept, rows_seen):
        # Fewer than half kept: DISTANCE runs on exactly the survivors.
        # Half or more: it runs full length, as before the selection
        # vector existed.  The mask is the oracle's either way.
        spy = Spy()
        tree = parse_where(f"DISTANCE(X, Y, Z) < 90 AND A < {kept}")
        columns = ramp_columns()
        got = CompiledPredicate(tree, spy.registry).evaluate(columns, N)
        assert spy.distance_rows == [rows_seen]
        want = InterpretedPredicate(tree, spy.registry).evaluate(columns, N)
        assert_same_mask(got, want, N)

    def test_exactly_one_survivor(self):
        spy = Spy()
        tree = parse_where("A = 17 AND DISTANCE(X, Y) >= 0")
        columns = ramp_columns()
        columns["X"][17], columns["Y"][17] = 3.0, 4.0
        got = CompiledPredicate(tree, spy.registry).evaluate(columns, N)
        assert spy.distance_rows == [1]
        assert np.flatnonzero(got).tolist() == [17]
        want = InterpretedPredicate(tree, spy.registry).evaluate(columns, N)
        assert_same_mask(got, want, N)

    def test_mask_drained_before_the_call_skips_it(self):
        spy = Spy()
        tree = parse_where("DISTANCE(X, Y, Z) < 90 AND A > 500 AND WSUM(X, Y) > 0")
        columns = ramp_columns()
        got = CompiledPredicate(tree, spy.registry).evaluate(columns, N)
        assert spy.distance_rows == [] and spy.wsum_calls == 0
        assert not full_mask(got, N).any()

    def test_constant_folded_call_is_cheap(self):
        # DISTANCE(3, 4) reads no column: it folds to 5 at compile time,
        # so its conjunct is cheap and runs first, at full length, and
        # the surviving call runs on what it kept.
        spy = Spy()
        tree = parse_where("DISTANCE(X, Y, Z) < 90 AND A < DISTANCE(3, 4)")
        kernel = CompiledPredicate(tree, spy.registry)
        assert spy.distance_rows == [1]  # the fold
        assert [c.expensive for c in kernel._conjuncts] == [True, False]
        del spy.distance_rows[:]
        columns = ramp_columns()
        got = kernel.evaluate(columns, N)
        assert spy.distance_rows == [5]
        want = InterpretedPredicate(tree, spy.registry).evaluate(columns, N)
        assert_same_mask(got, want, N)

    def test_combinations_are_expensive_and_run_on_the_survivors(self):
        # A union of bands costs one pass per test: it runs after the
        # single test, and on its survivors, like a call.  Every
        # expensive conjunct then runs on what the ones before it kept.
        spy = Spy()
        tree = parse_where(
            "(A BETWEEN 0 AND 9 OR A BETWEEN 20 AND 29 OR A BETWEEN 40 AND 49)"
            " AND DISTANCE(X, Y, Z) < 60 AND NOT (C = 1) AND A < 60"
        )
        kernel = CompiledPredicate(tree, spy.registry)
        assert [c.expensive for c in kernel._conjuncts] == [True, True, True, False]
        columns = ramp_columns()
        tracer = Tracer()
        with tracer.span("filter") as span:
            got = kernel.evaluate(columns, N, tracer=tracer)
        assert spy.distance_rows == [30]
        oracle = [
            np.asarray(term.evaluate(columns, spy.registry))
            for term in tree.terms
        ]
        first = oracle[3]
        bands = first & oracle[0]
        near = bands & oracle[1]
        assert first.sum() == 60 and bands.sum() == 30
        assert span.tags["compressed"] == 60 + 30 + int(near.sum())
        assert_same_mask(got, near & oracle[2], N)

    def test_decided_chain_drops_its_calls(self):
        # A chain a constant decides never runs the calls compiled into
        # it, so they do not make its conjunct expensive.
        tree = And((
            Comparison(">", Column("A"), Literal(3)),
            Or((
                Comparison("<", FunctionCall("SPEED", (Column("X"),) * 3),
                           Literal(5)),
                Comparison("<", Literal(1), Literal(2)),
            )),
        ))
        kernel = CompiledPredicate(tree, DEFAULT_REGISTRY)
        assert [c.expensive for c in kernel._conjuncts] == [False, False]
        columns = ramp_columns()
        assert_same_mask(
            kernel.evaluate(columns, N),
            InterpretedPredicate(tree, DEFAULT_REGISTRY).evaluate(columns, N),
            N,
        )

    def test_non_boolean_term_under_compression_defers_to_the_oracle(self):
        # IMOD(A) is an int array, not a mask: the kernel runs it on the
        # survivors, sees a non-boolean term and hands the whole block
        # to the interpreter, whose bitwise AND is the semantics.
        spy = Spy()
        tree = And((
            Comparison("<", Column("A"), Literal(10)),
            FunctionCall("IMOD", (Column("A"),)),
        ))
        columns = ramp_columns()
        got = CompiledPredicate(tree, spy.registry).evaluate(columns, N)
        assert spy.imod_rows[0] == 10  # compressed, then deferred
        want = InterpretedPredicate(tree, spy.registry).evaluate(columns, N)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        # Through the pipeline the non-boolean mask keeps its nonzero
        # rows (True & 2 is 0: only A % 3 == 1 survives).
        kernel = CompiledPredicate(tree, spy.registry)
        out, count = BlockPipeline(kernel, ["A"], ["A"], N).add(columns, N)
        np.testing.assert_array_equal(out["A"], [1, 4, 7])
        assert count == 3

    def test_scalar_udf_runs_once_per_surviving_row(self):
        # np.vectorize calls the function once more to probe the output
        # type; otherwise one call per row that reached the conjunct.
        spy = Spy()
        tree = parse_where("A < 20 AND WSUM(X, Y) > 0")
        kernel = CompiledPredicate(tree, spy.registry)
        columns = ramp_columns()
        got = kernel.evaluate(columns, N)
        assert spy.wsum_calls == 20 + 1
        # The oracle calls it on whole arrays: once.
        want = InterpretedPredicate(tree, spy.registry).evaluate(columns, N)
        assert spy.wsum_calls == 20 + 2
        assert_same_mask(got, want, N)
        # Above the threshold it runs at full length, as before.
        spy.wsum_calls = 0
        kernel.evaluate(columns | {"A": np.zeros(N, dtype=np.int64)}, N)
        assert spy.wsum_calls == N + 1

    def test_gather_takes_strided_columns_into_owned_arrays(self):
        records = np.zeros(
            N, dtype=[("A", "<i8"), ("X", "<f4"), ("S", "S3")]
        )
        records["A"] = np.arange(N)
        records["X"] = np.linspace(-1, 1, N)
        records["S"] = [b"r%d" % (i % 100) for i in range(N)]
        columns = {name: records[name] for name in ("A", "X", "S")}
        assert not columns["X"].flags.c_contiguous
        kernel =CompiledPredicate(parse_where("X > 0.5"), DEFAULT_REGISTRY)
        out, count = BlockPipeline(
            kernel, ["A", "X", "S"], ["A", "X", "S"], N
        ).add(columns, N)
        keep = records["X"] > 0.5
        assert count == int(keep.sum())
        for name in ("A", "X", "S"):
            np.testing.assert_array_equal(out[name], records[name][keep])
            assert out[name].dtype == records.dtype[name]
            assert out[name].flags.c_contiguous and out[name].flags.writeable
            assert not np.shares_memory(out[name], records)


# ---------------------------------------------------------------------------
# Part 3: observability
# ---------------------------------------------------------------------------


class _TracingOff:
    """A disabled tracer that fails the test if anything is recorded."""

    enabled = False

    @property
    def metrics(self):
        raise AssertionError("metrics recorded with tracing off")

    def current(self):
        raise AssertionError("span tagged with tracing off")


class TestObservability:
    def test_traced_filter_local_query_tags_compressed_rows(self, titan_small):
        # filter-local's shape: a 0.4 x 0.4 box, two sensor tests and a
        # DISTANCE no index prunes.
        config, text, mount, _ = titan_small
        ex, ey, _ = config.extent
        sql = (
            "SELECT X, Y, Z, S1 FROM TitanData "
            f"WHERE X>={0.3 * ex:.0f} AND X<={0.7 * ex:.0f} "
            f"AND Y>={0.2 * ey:.0f} AND Y<={0.6 * ey:.0f} "
            "AND S1<0.5 AND S2>0.1 "
            f"AND DISTANCE(X, Y, Z)<{0.85 * ex:.0f}"
        )
        tracer = Tracer()
        with Virtualizer(text, mount) as virt:
            traced = virt.query(
                sql, options=ExecOptions(remote=False, trace=tracer)
            )
            plain = virt.query(sql, options=ExecOptions(remote=False))
            oracle = virt.query(
                sql, options=ExecOptions(remote=False, vectorize="off")
            )
        for table in (traced, plain):
            assert table.column_names == oracle.column_names
            for name in oracle.column_names:
                np.testing.assert_array_equal(
                    table.column(name), oracle.column(name)
                )
        filters = tracer.find("filter")
        assert filters and all(s.tags["vectorized"] for s in filters)
        tagged = [s for s in filters if "compressed" in s.tags]
        assert tagged
        for span in tagged:
            assert 0 < span.tags["compressed"] < SELECTION_SHARE * span.tags["rows"]
            assert span.tags["out"] <= span.tags["compressed"]
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["kernel.compressed_rows"] == sum(
            s.tags["compressed"] for s in tagged
        )

    def test_nothing_is_recorded_with_tracing_off(self):
        tree = parse_where("A < 20 AND DISTANCE(X, Y, Z) < 90")
        kernel = CompiledPredicate(tree, DEFAULT_REGISTRY)
        columns = ramp_columns()
        got = kernel.evaluate(columns, N, tracer=_TracingOff())
        want = InterpretedPredicate(tree, DEFAULT_REGISTRY).evaluate(columns, N)
        assert_same_mask(got, want, N)
