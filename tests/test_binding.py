"""One comparison semantics: each literal bound to its column's dtype.

``bind_where`` writes every ``column op literal`` as the comparison the
kernel performs under NumPy 2's NEP 50; the interval algebra, the
rewrite, the zone tests and the cache keys then read those bound
literals instead of re-deciding the comparison each on its own.

* the cases where a stage used to disagree with the kernel, through
  ``Virtualizer.query`` and a ``local://`` client, vectorized and not:
  ``IN`` on float32 and on int64 past 2**53, two negated comparisons
  over a NaN row, the result cache's NaN rows, a literal float32
  overflows;
* *the binding is exact*: over ``BOUND_DTYPES``, their adversarial
  values and literals, every operator, ``IN``, ``BETWEEN`` and ``NOT``,
  the bound atom's mask is the written atom's;
* *the stages agree*: for WHERE trees of up to three atoms, an
  unsatisfiable plan keeps no row, ``summary_mask``, ``zone_overlaps``
  and ``chunk_pruned`` refute only chunks the kernel keeps nothing of,
  rewriting is a fixpoint of binding, and the canonical text binds
  back to the canonical tree;
* *NaN and the cache*: a warm ``exact``/``subsume`` answer over a
  NaN-bearing column is the cold one.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import CompiledDataset, ExecOptions, GeneratedDataset, Virtualizer
from repro.core.analysis import chunk_pruned
from repro.core.codegen_runtime import zone_overlaps
from repro.core.kernels import CompiledPredicate
from repro.index import build_summaries
from repro.metadata.types import type_from_dtype
from repro.sql import parse_where
from repro.sql.ast import NEGATE_OP, And, Comparison, Not, Or
from repro.sql.functions import DEFAULT_REGISTRY
from repro.sql.ranges import extract_ranges, query_is_unsatisfiable
from repro.sql.rewrite import rewrite_where
from repro.sql.typecheck import bind_where
from tests.matrix import (
    BOUND_DTYPES, _specials, chunk_columns, chunk_literals, where_trees,
)
from tests.test_index_summaries import _BIG, _TINY, one_column_dataset

VECTORIZE = ("on", "off")


def type_name(dtype) -> str:
    """The descriptor type declaring a column of ``dtype``."""
    dtype = np.dtype(dtype)
    name = type_from_dtype(dtype).name
    return f"be {name}" if dtype.byteorder == ">" else name


def values(table) -> tuple:
    """(NaN rows, the other values sorted) of column ``V``."""
    column = np.asarray(table["V"])
    nan = np.isnan(column) if column.dtype.kind == "f" else np.zeros(len(column), bool)
    return int(nan.sum()), sorted(column[~nan].tolist())


def planned_chunks(plan) -> set:
    """The ``T`` (1-based chunk) of every AFC ``plan`` reads."""
    return {int(afc.implicit_columns(["T"])["T"][0]) for afc in plan.afcs}


def doors(tmp_path, text, mount):
    """``(name, query(sql, options))`` per front door over one dataset."""
    virt = Virtualizer(text, mount)
    client = repro.connect(f"local://{tmp_path}", descriptor=text)
    return virt, client, [
        ("virtualizer", lambda sql, o: virt.query(sql, options=o)),
        ("local://", lambda sql, o: client.query(sql, options=o)),
    ]


def answers(tmp_path, type_name, chunks, wheres, **options):
    """Per front door and ``vectorize``, ``values`` of each WHERE."""
    text, mount = one_column_dataset(tmp_path, type_name, chunks)
    virt, client, run = doors(tmp_path, text, mount)
    out = {}
    try:
        for name, query in run:
            for vectorize in VECTORIZE:
                opts = ExecOptions(vectorize=vectorize, **options)
                out[name, vectorize] = [
                    values(query(f"SELECT V FROM D WHERE {w}", opts))
                    for w in wheres
                ]
    finally:
        virt.close()
        client.close()
    return out


# ---------------------------------------------------------------------------
# The cases where a stage disagreed with the kernel
# ---------------------------------------------------------------------------


class TestInIsAnOrOfEquals:
    def test_float32_values_bind_like_their_equalities(self, tmp_path):
        chunks = [[_TINY, np.float32(0.2), 0.5]]
        got = answers(
            tmp_path, "float", chunks,
            ["V IN (0.1, 0.2)", "V = 0.1 OR V = 0.2"],
        )
        for door, (listed, ored) in got.items():
            assert listed == ored == (0, [float(_TINY), float(np.float32(0.2))]), door

    def test_int64_past_2_53_compares_each_value_alone(self, tmp_path):
        chunks = [[_BIG, _BIG + 1, 7]]
        got = answers(
            tmp_path, "long int", chunks,
            [f"V IN ({_BIG + 1}, 1.5)", f"V = {_BIG + 1} OR V = 1.5"],
        )
        for door, (listed, ored) in got.items():
            assert listed == ored == (0, [_BIG + 1]), door


class TestNegationOverNaN:
    CHUNKS = [[np.nan], [5.0], [20.0]]
    WHERE = "NOT (V >= 10) AND NOT (V < 20)"

    def test_two_negated_comparisons_keep_the_nan_row(self, tmp_path):
        got = answers(tmp_path, "double", self.CHUNKS, [self.WHERE])
        for door, (rows,) in got.items():
            assert rows == (1, []), door

    @pytest.mark.parametrize("kind", [CompiledDataset, GeneratedDataset])
    def test_the_plan_keeps_the_chunk_holding_nan(self, tmp_path, kind):
        text, mount = one_column_dataset(tmp_path, "double", self.CHUNKS)
        summaries = build_summaries(CompiledDataset(text), mount)
        sql = f"SELECT V FROM D WHERE {self.WHERE}"
        assert planned_chunks(kind(text).plan(sql)) == {1, 2, 3}
        # The chunk summaries refute the chunks holding 5 and 20.
        dataset = kind(text, summaries)
        assert planned_chunks(dataset.plan(sql)) == {1}
        assert "AFCs planned: 1" in dataset.explain(sql)


class TestResultCacheAndNaN:
    CHUNKS = [[np.nan, 5.0, 20.0], [7.0, 7.0, 7.0]]
    #: (first, second): the second is served from the first's entry.
    ORDERS = [
        ("V < 10", "NOT (V >= 10)"),
        ("V < 7 OR V > 7", "V != 7"),
        ("NOT (V >= 10)", "V < 10"),
        ("V != 7", "V < 7 OR V > 7"),
    ]

    @pytest.mark.parametrize("mode", ["exact", "subsume"])
    @pytest.mark.parametrize("first, second", ORDERS)
    def test_a_warm_answer_is_the_cold_one(self, tmp_path, mode, first, second):
        text, mount = one_column_dataset(tmp_path, "double", self.CHUNKS)
        virt, client, run = doors(tmp_path, text, mount)
        try:
            for door, query in run:
                cold = values(query(
                    f"SELECT V FROM D WHERE {second}", ExecOptions(cache_mode="off")
                ))
                warm = ExecOptions(cache_mode=mode)
                query(f"SELECT V FROM D WHERE {first}", warm)
                assert values(
                    query(f"SELECT V FROM D WHERE {second}", warm)
                ) == cold, door
        finally:
            virt.close()
            client.close()


def test_a_float32_literal_past_its_range_runs_without_warnings(tmp_path):
    chunks = [[1.0, np.inf], [-np.inf, 2.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = answers(
            tmp_path, "float", chunks, ["V < 1e300", "V >= -1e300"]
        )
    # NumPy casts the literals to float32 first: to +inf and -inf.
    for door, (below, above) in got.items():
        assert below == (0, [-np.inf, 1.0, 2.0]), door
        assert above == (0, [-np.inf, 1.0, 2.0, np.inf]), door


def test_a_float32_equality_runs_under_strict(tmp_path):
    chunks = [[_TINY, np.float32(0.2)]]
    got = answers(tmp_path, "float", chunks, ["V = 0.1"], strict=True)
    for door, (rows,) in got.items():
        assert rows == (0, [float(_TINY)]), door


# ---------------------------------------------------------------------------
# The binding is exact
# ---------------------------------------------------------------------------


def atoms(literals):
    """Every atom over ``V`` and its negation: each operator either way
    round, IN and BETWEEN over each pair of literals."""
    for lit in literals:
        for op in ("=", "!=", "<", "<=", ">", ">="):
            yield f"V {op} {lit}"
            yield f"{lit} {op} V"
        for other in literals:
            yield f"V IN ({lit}, {other})"
            yield f"V BETWEEN {lit} AND {other}"


def mask(node, column):
    got = np.asarray(node.evaluate({"V": column}, DEFAULT_REGISTRY))
    return np.broadcast_to(got, column.shape)


@pytest.mark.parametrize("dtype", BOUND_DTYPES)
def test_the_bound_atom_selects_what_the_written_one_does(dtype):
    dtype = np.dtype(dtype)
    column = np.array(_specials(dtype) + list(range(-3, 4))).astype(dtype)
    literals = chunk_literals(dtype)
    dtypes = {"V": dtype}
    for text in atoms(literals):
        for where in (parse_where(text), parse_where(f"NOT ({text})")):
            bound, _ = bind_where(where, dtypes)
            assert np.array_equal(mask(bound, column), mask(where, column)), (
                dtype, str(where), str(bound),
            )
            assert bind_where(bound, dtypes)[0] is bound, (dtype, str(where))


# ---------------------------------------------------------------------------
# The stages agree
# ---------------------------------------------------------------------------


def canonical(where, dtypes):
    return rewrite_where(bind_where(where, dtypes)[0])[0]


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_stage_refutes_only_what_the_kernel_drops(tmp_path_factory, data):
    dtype, chunks = data.draw(chunk_columns())
    rows = max(len(chunk) for chunk in chunks)
    chunks = [np.resize(chunk, rows) for chunk in chunks]  # as written
    text = data.draw(where_trees({"V": chunk_literals(dtype)}))
    where = parse_where(text)
    dtypes = {"V": dtype}
    once = canonical(where, dtypes)
    assert canonical(once, dtypes) == once, text
    if once is not None:  # the text a tcp:// node binds again
        assert bind_where(parse_where(str(once)), dtypes)[0] == once, text
    kernel = CompiledPredicate(where, DEFAULT_REGISTRY)
    keeps = [
        bool(np.broadcast_to(
            np.asarray(kernel.evaluate({"V": chunk}, rows)), (rows,)
        ).any())
        for chunk in chunks
    ]
    ranges = extract_ranges(once)
    if query_is_unsatisfiable(ranges):
        assert not any(keeps), text
    if "V" in ranges and not query_is_unsatisfiable(ranges):
        mins = np.array([c.min() for c in chunks], dtype)
        maxs = np.array([c.max() for c in chunks], dtype)
        overlap = zone_overlaps(ranges["V"], mins, maxs)
        for i, keep in enumerate(keeps):
            pruned = chunk_pruned({"V": (mins[i], maxs[i])}, ["V"], ranges)
            assert pruned == (not overlap[i]), (text, i)
            assert keep <= bool(overlap[i]), (text, chunks[i])
    # summary_mask, through the generated index over persisted bounds.
    root = tmp_path_factory.mktemp("stages")
    desc, mount = one_column_dataset(root, type_name(dtype), chunks)
    summaries = build_summaries(CompiledDataset(desc), mount)
    plan = GeneratedDataset(desc, summaries).plan(f"SELECT V FROM D WHERE {text}")
    planned = planned_chunks(plan)
    for i, keep in enumerate(keeps):
        assert keep <= (i + 1 in planned), (text, chunks[i])


# ---------------------------------------------------------------------------
# NaN and the cache
# ---------------------------------------------------------------------------


def flipped(node):
    """``NOT node`` by operators, De Morgan and double negation — which
    is ``NOT node`` on every row but a NaN one."""
    if isinstance(node, Comparison):
        return Comparison(NEGATE_OP[node.op], node.left, node.right)
    if isinstance(node, (And, Or)):
        dual = Or if isinstance(node, And) else And
        return dual(tuple(flipped(term) for term in node.terms))
    return node.term if isinstance(node, Not) else Not(node)


@pytest.fixture(scope="module")
def nan_columns(tmp_path_factory):
    """A float64 and a float32 ``V``, each chunk holding NaN or not."""
    out = {}
    for dtype in ("<f8", "<f4"):
        specials = _specials(np.dtype(dtype))
        chunks = [specials[i:i + 3] for i in range(0, len(specials), 3)]
        root = tmp_path_factory.mktemp(f"nan{dtype[1:]}")
        text, mount = one_column_dataset(root, type_name(dtype), chunks)
        out[dtype] = (text, mount, root)
    return out


@settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_warm_cached_answers_equal_cold_ones_over_nan(nan_columns, data):
    dtype = data.draw(st.sampled_from(sorted(nan_columns)))
    text, mount, root = nan_columns[dtype]
    literals = {"V": chunk_literals(np.dtype(dtype))}
    first = data.draw(where_trees(literals))
    second = data.draw(st.one_of(
        where_trees(literals),
        st.just(str(Not(flipped(parse_where(first))))),
    ))
    if data.draw(st.booleans()):
        first, second = second, first
    mode = data.draw(st.sampled_from(["exact", "subsume"]))
    sql = "SELECT V FROM D WHERE {}".format
    with Virtualizer(text, mount) as virt:
        cold = values(virt.query(sql(second), options=ExecOptions(cache_mode="off")))
        warm = ExecOptions(cache_mode=mode)
        virt.query(sql(first), options=warm)
        assert values(virt.query(sql(second), options=warm)) == cold, (
            first, second, mode,
        )
        assert values(virt.query(sql(second), options=warm)) == cold
