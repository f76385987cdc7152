"""Conjuncts the index decided leave the residual WHERE; nothing else moves.

Part 1 is the independent oracle.  A seeded generator draws queries over
IPARS (layouts L0 and I-VI), a Titan descriptor that also declares its
loop variables (the inner ``ELEM`` as a too-narrow ``char`` — lint RV124
— and the constant ``CHUNK``) and MRI, crossed with generated and
interpreted planning, ``chunk_row_cap`` splits (which pin inner
variables piece by piece), ``node=`` restriction, ``vectorize``
on and off, one or three intra-node workers, and streaming.  Every draw
executes its plan twice: as planned, and with ``query.where`` put back as
the residual.  The tables must be bit-identical in the same order, and
the counters and simulated seconds equal.

Part 2 pins the decision rules one case at a time; part 3 the ownership
rule (blocks may be views, every emitted column is owned); part 4 the
cache sequence of ``reuse-local``, ``explain`` and the ``plan`` span.
(The summary fast path over a decided WHERE is in ``test_aggregate``.)
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.core import (
    CompiledDataset,
    ExecOptions,
    GeneratedDataset,
    Virtualizer,
    local_mount,
)
from repro.core.afc import group_by_home_node
from repro.core.extractor import Extractor
from repro.core.stats import IOStats
from repro.core.table import VirtualTable
from repro.datasets import IparsConfig, TitanConfig, ipars, mri, titan
from repro.datasets.mri import MriConfig
from repro.index import build_summaries
from repro.obs.tracer import Tracer
from repro.sql import parse_where
from repro.storm.cost import STORM_COST
from repro.storm.data_source import DataSourceService
from repro.storm.filtering import FilteringService
from tests.conftest import cached_buffers, run_plan

# ---------------------------------------------------------------------------
# Datasets: (descriptor text, mount, summaries) plus what queries may use
# ---------------------------------------------------------------------------

IPARS_CONFIG = IparsConfig(num_rels=2, num_times=6, cells_per_node=8, num_nodes=2)
#: 160 elements per chunk: ELEM runs past 127, so a ``char`` ELEM wraps.
TITAN_CONFIG = TitanConfig(
    chunks_x=2, chunks_y=2, chunks_z=1, chunks_t=2,
    elems_per_chunk=160, num_nodes=2,
)
MRI_CONFIG = MriConfig(num_studies=4, slices=4, rows=6, cols=6, num_nodes=2)


def titan_with_loop_attrs(text: str) -> str:
    """The Titan descriptor with CHUNK and ELEM declared as attributes
    (implicit: loop variables, never stored)."""
    return text.replace("[TITAN]\n", "[TITAN]\nCHUNK = short int\nELEM = char\n")


@dataclasses.dataclass
class Spec:
    """One dataset the generator draws over."""

    name: str
    table: str
    text: str
    mount: object
    summaries: object
    #: implicit attribute -> (lo, hi) of its values
    implicit: dict
    #: stored attribute -> (lo, hi) of its values
    stored: dict
    caps: tuple  # chunk_row_cap values to plan with
    function: str = ""  # a UDF conjunct over stored attributes, if any


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    out = []
    for layout in ipars.ALL_LAYOUTS:
        root = tmp_path_factory.mktemp(f"decided_ipars_{layout}")
        mount = local_mount(str(root))
        text, _ = ipars.generate(IPARS_CONFIG, layout, mount)
        out.append(Spec(
            f"ipars-{layout}", "IparsData", text, mount, None,
            {"REL": (0, 1), "TIME": (1, 6)},
            {"SOIL": (0.0, 1.0), "X": (0.0, 4.0)},
            (None, 3), "SPEED(OILVX, OILVY, OILVZ) < 30",
        ))
    root = tmp_path_factory.mktemp("decided_titan")
    mount = local_mount(str(root))
    text, _ = titan.generate(TITAN_CONFIG, mount)
    text = titan_with_loop_attrs(text)
    out.append(Spec(
        "titan", "TitanData", text, mount,
        build_summaries(CompiledDataset(text), mount),
        {"CHUNK": (0, 7), "ELEM": (0, 159)},
        {"X": (0.0, 40000.0), "S1": (0.0, 1.0), "TIME": (0, 10000)},
        (None, 64, 100), "DISTANCE(X, Y, Z) < 20000",
    ))
    root = tmp_path_factory.mktemp("decided_mri")
    mount = local_mount(str(root))
    text, _ = mri.generate(MRI_CONFIG, mount)
    out.append(Spec(
        "mri", "MriArchive", text, mount, None,
        {"STUDY": (0, 3), "SLICE": (0, 3), "ROW": (0, 5), "COL": (0, 5)},
        {"T1": (0, 3000), "FLAIR": (0, 3000)},
        (None, 6, 20),
    ))
    return {spec.name: spec for spec in out}


# ---------------------------------------------------------------------------
# Part 1: the generator
# ---------------------------------------------------------------------------

OPS = ("<", "<=", ">", ">=", "=", "!=", "BETWEEN", "IN")


def _literal(rng: random.Random, lo, hi) -> str:
    """A literal around ``[lo, hi]``: inside, outside, fractional, or
    outside every narrow integer type."""
    roll = rng.random()
    if roll < 0.55:
        value = rng.randint(int(lo), int(hi)) if isinstance(lo, int) else (
            rng.uniform(lo, hi)
        )
    elif roll < 0.75:
        value = rng.randint(int(lo), int(hi)) + 0.5
    elif roll < 0.9:
        value = rng.choice([lo - 3, hi + 3, lo - 1, hi + 1])
    else:
        value = rng.choice([40000, -40000, 300, -300, 70000.5])
    if isinstance(value, float):
        return f"{value:.4f}" if not value.is_integer() else f"{value:.1f}"
    return str(value)


def _term(rng: random.Random, spec: Spec) -> str:
    pool = spec.implicit if rng.random() < 0.7 else spec.stored
    attr = rng.choice(sorted(pool))
    lo, hi = pool[attr]
    op = rng.choice(OPS)
    if op == "BETWEEN":
        a, b = sorted(
            (_literal(rng, lo, hi), _literal(rng, lo, hi)), key=float
        )
        return f"{attr} BETWEEN {a} AND {b}"
    if op == "IN":
        values = [_literal(rng, lo, hi) for _ in range(rng.randint(1, 3))]
        return f"{attr} IN ({', '.join(values)})"
    return f"{attr} {op} {_literal(rng, lo, hi)}"


def _where(rng: random.Random, spec: Spec) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.08:
            terms.append(f"({_term(rng, spec)} OR {_term(rng, spec)})")
        elif roll < 0.14:
            terms.append(f"NOT ({_term(rng, spec)})")
        elif roll < 0.18 and spec.function:
            terms.append(spec.function)
        elif roll < 0.3:
            # Pin an implicit attribute, then test it again: one-value
            # hulls meet every operator on the pinned value itself.
            attr = rng.choice(sorted(spec.implicit))
            value = rng.randint(*spec.implicit[attr])
            op = rng.choice(OPS[:6])
            terms.append(f"{attr} = {value} AND {attr} {op} {value}")
        else:
            terms.append(_term(rng, spec))
    return " AND ".join(terms)


def _query(rng: random.Random, spec: Spec) -> str:
    names = sorted(spec.implicit) + sorted(spec.stored)
    where = _where(rng, spec)
    if rng.random() < 0.15:
        key = rng.choice(sorted(spec.implicit))
        value = rng.choice(sorted(spec.stored))
        return (
            f"SELECT {key}, COUNT(*), MIN({value}) FROM {spec.table} "
            f"WHERE {where} GROUP BY {key}"
        )
    select = ", ".join(rng.sample(names, rng.randint(1, 3)))
    return f"SELECT {select} FROM {spec.table} WHERE {where}"


def _execute(spec: Spec, plan, opts: ExecOptions, stream_rows):
    """``plan`` run cold: (tables, per-node stats)."""
    if stream_rows:
        stats = IOStats()
        with Extractor(spec.mount) as extractor:
            batches = run_plan(
                extractor, plan, stats, stream_rows, vectorize=opts.vectorize,
                intra_node_workers=opts.intra_node_workers,
            )
        return batches, {"local": stats}
    tables, per_node = [], {}
    for node, afcs in group_by_home_node(plan.afcs).items():
        source = DataSourceService(node, spec.mount, FilteringService())
        try:
            per_node[node] = IOStats()
            tables.append(
                source.execute(plan, afcs, per_node[node], options=opts)
            )
        finally:
            source.close()
    return tables, per_node


#: The counters concurrent workers leave deterministic.
ROW_COUNTERS = (
    "afcs_processed", "chunks_read", "rows_extracted", "rows_output",
    "rows_vectorized", "rows_aggregated", "groups_emitted",
    "remote_bytes_read",
)


def _counters(per_node, exact: bool):
    return {
        node: {
            name: value for name, value in stats.as_dict().items()
            if exact or name in ROW_COUNTERS
        }
        for node, stats in per_node.items()
    }


def _same_bits(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.column_names == b.column_names
        for name in a.column_names:
            x, y = a.column(name), b.column(name)
            assert x.dtype == y.dtype, name
            assert x.tobytes() == y.tobytes(), name


DRAWS = 240


def test_decided_plans_equal_undecided_plans(specs):
    rng = random.Random(20260415)
    # Titan and MRI weigh more: their inner variables are what the index
    # does not prune, and Titan's ELEM is the narrow type.
    drawn = list(specs.values()) + [specs["titan"], specs["mri"]] * 3
    datasets = {}
    tally = {"some": 0, "all": 0, "none": 0}
    for draw in range(DRAWS):
        spec = drawn[draw % len(drawn)]
        generated = rng.random() < 0.5
        cap = rng.choice(spec.caps)
        key = (spec.name, generated, cap)
        if key not in datasets:
            kind = GeneratedDataset if generated else CompiledDataset
            datasets[key] = kind(
                spec.text, summaries=spec.summaries, chunk_row_cap=cap
            )
        dataset = datasets[key]
        sql = _query(rng, spec)
        node = rng.choice([None, None, *dataset.descriptor.storage.nodes])
        plan = dataset.plan(sql, node=node)
        undecided = dataclasses.replace(plan, where=plan.query.where)
        opts = ExecOptions(
            vectorize=rng.choice(["on", "off"]),
            intra_node_workers=rng.choice([1, 3]),
        )
        stream_rows = (
            rng.choice([0, 0, 7, 500]) if plan.aggregate is None else 0
        )
        got, got_stats = _execute(spec, plan, opts, stream_rows)
        want, want_stats = _execute(spec, undecided, opts, stream_rows)
        context = f"draw {draw} {spec.name} cap={cap} node={node}: {sql}"
        # Worker threads race for shared chunks, so which of them hits
        # the segment cache — and with it the I/O counters — depends on
        # the interleaving; the row counters never do.
        exact = opts.intra_node_workers == 1
        try:
            _same_bits(got, want)
            assert _counters(got_stats, exact) == _counters(want_stats, exact)
            if exact:
                assert STORM_COST.makespan(got_stats) == STORM_COST.makespan(
                    want_stats
                )
        except AssertionError as exc:
            raise AssertionError(f"{context}: {exc}") from exc
        if plan.decided:
            tally["all" if plan.where is None else "some"] += 1
        else:
            tally["none"] += 1
    # The generator must actually reach all three outcomes.
    assert min(tally.values()) >= 20, tally


# ---------------------------------------------------------------------------
# Part 2: what is decided, case by case
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ipars_ds(specs):
    return GeneratedDataset(specs["ipars-L0"].text)


def decided_of(dataset, where: str, node=None):
    table = dataset.descriptor.name
    plan = dataset.plan(f"SELECT * FROM {table} WHERE {where}", node=node)
    return [str(t) for t in plan.decided], (
        None if plan.where is None else str(plan.where)
    )


class TestDecisionRules:
    def test_time_window_is_decided_whole(self, ipars_ds):
        assert decided_of(ipars_ds, "TIME >= 2 AND TIME <= 4") == (
            ["TIME <= 4", "TIME >= 2"], None
        )

    def test_between_and_float_literals(self, ipars_ds):
        # TIME is an int: its bound literals are the integer ends.
        decided, residual = decided_of(ipars_ds, "TIME BETWEEN 1.5 AND 3.5")
        assert decided == ["TIME <= 3", "TIME >= 2"] and residual is None

    def test_equality_needs_a_one_value_hull(self, ipars_ds):
        assert decided_of(ipars_ds, "TIME = 3") == (["TIME = 3"], None)
        assert decided_of(ipars_ds, "REL = 1 AND TIME = 2") == (
            ["REL = 1", "TIME = 2"], None
        )

    def test_in_needs_a_one_value_hull_in_the_list(self, ipars_ds):
        # Hull {0, 1} over two values: exact, but not one value — kept.
        assert decided_of(ipars_ds, "REL IN (0, 1)") == ([], "REL IN (0, 1)")
        # The index keeps REL 1 and TIME 2 only: one listed value each.
        assert decided_of(ipars_ds, "REL IN (1, 7) AND TIME IN (2, 9)") == (
            ["REL IN (1, 7)", "TIME IN (2, 9)"], None
        )

    def test_literals_outside_the_declared_type(self, ipars_ds):
        # REL is a short int: 40000 lies outside it; numpy compares
        # exactly, so every row is < 40000, and binding drops the
        # conjunct before the index sees it.
        assert decided_of(ipars_ds, "REL < 40000") == ([], None)
        assert decided_of(ipars_ds, "REL < 40000 AND TIME = 3") == (
            ["TIME = 3"], None
        )

    def test_residual_keeps_what_the_index_cannot_settle(self, ipars_ds):
        for where in (
            "SOIL > 0.5",                       # stored
            "TIME != 9",                        # != (true of every row)
            "TIME < 9 OR SOIL > 2",             # OR
            "NOT (SOIL > 0.5)",                 # NOT
            "SPEED(OILVX, OILVY, OILVZ) < 30",  # function
            "TIME < 99999999999999999999",      # literal beyond 2**53
        ):
            assert decided_of(ipars_ds, where)[0] == [], where

    def test_a_negated_integer_comparison_is_decided_as_its_flip(self, ipars_ds):
        # TIME is an int, which never holds NaN: binding flips the NOT.
        assert decided_of(ipars_ds, "NOT (TIME > 9)") == decided_of(
            ipars_ds, "TIME <= 9"
        )
        assert decided_of(ipars_ds, "NOT (TIME > 9)")[0] == ["TIME <= 9"]

    def test_inner_variables_are_not_pruned_only_decided(self, specs):
        # MRI's ROW varies inside every AFC: the index keeps all of them,
        # so only a conjunct true of ROW's whole hull (0..5) is decided.
        mri_ds = GeneratedDataset(specs["mri"].text)
        assert decided_of(mri_ds, "ROW >= 0 AND ROW <= 5")[0] == [
            "ROW <= 5", "ROW >= 0"
        ]
        for where in ("ROW IN (0, 5)", "ROW <= 4", "ROW = 2"):
            assert decided_of(mri_ds, where) == ([], where), where

    def test_hull_outside_a_narrow_type_is_never_decided(self, specs):
        # ELEM is declared char (RV124): its values 128..159 wrap, so
        # even a conjunct every stored value satisfies stays.
        for cap in (None, 64):
            dataset = GeneratedDataset(specs["titan"].text, chunk_row_cap=cap)
            assert decided_of(dataset, "ELEM < 500")[0] == []
            assert decided_of(dataset, "CHUNK <= 7")[0] == ["CHUNK <= 7"]

    @pytest.mark.parametrize("which", ["titan", "mri"])
    def test_hulls_equal_the_materialised_values(self, specs, which):
        # Split tables take the numpy path of implicit_bounds; each
        # part's hull is exactly the min/max extraction produces.
        spec = specs[which]
        for cap in spec.caps:
            for kind in (GeneratedDataset, CompiledDataset):
                plan = kind(spec.text, chunk_row_cap=cap).plan(
                    f"SELECT * FROM {spec.table}"
                )
                for part in plan.afcs.parts:
                    for name in spec.implicit:
                        values = np.concatenate([
                            part.afc(i).implicit_columns([name])[name]
                            for i in range(len(part))
                        ])
                        assert part.implicit_bounds(name) == (
                            values.min(), values.max()
                        ), (cap, kind, name)

    def test_node_restriction_decides_over_the_nodes_own_rows(self, specs):
        # MRI keeps even studies on one node, odd ones on the other: over
        # one node's share, STUDY is a single value.
        mri_ds = GeneratedDataset(specs["mri"].text)
        assert decided_of(mri_ds, "STUDY IN (0, 1)")[0] == []
        for node in mri_ds.descriptor.storage.nodes:
            assert decided_of(mri_ds, "STUDY IN (0, 1)", node=node)[0] == [
                "STUDY IN (0, 1)"
            ], node

    def test_empty_plan_decides_nothing(self, ipars_ds):
        assert decided_of(ipars_ds, "TIME > 99") == ([], "TIME > 99")

    def test_generated_and_interpreted_residuals_agree(self, specs):
        rng = random.Random(7)
        for spec in specs.values():
            pair = [
                kind(spec.text, summaries=spec.summaries, chunk_row_cap=cap)
                for kind in (GeneratedDataset, CompiledDataset)
                for cap in spec.caps[-1:]
            ]
            for _ in range(6):
                sql = _query(rng, spec)
                a, b = (d.plan(sql) for d in pair)
                assert str(a.where) == str(b.where), sql
                assert [str(t) for t in a.decided] == [
                    str(t) for t in b.decided
                ], sql

    def test_extraction_skips_columns_only_decided_terms_read(self, ipars_ds):
        plan = ipars_ds.plan(
            "SELECT X FROM IparsData WHERE TIME <= 3 AND REL = 0 AND SOIL > 0.2"
        )
        assert plan.needed == ["X", "REL", "SOIL", "TIME"]
        assert plan.extracted == ["X", "SOIL"]
        # SOIL is a float: its literal is shown as float32 compares it.
        assert str(plan.query.where) == (
            "REL = 0 AND SOIL > 0.20000000298023224 AND TIME <= 3"
        )


# ---------------------------------------------------------------------------
# Part 3: blocks may be views; every emitted column is owned
# ---------------------------------------------------------------------------


def assert_owned(columns, payloads):
    for column in columns:
        assert column.flags.writeable and column.flags.c_contiguous
        assert not any(np.shares_memory(column, p) for p in payloads)


class TestOwnership:
    SCANS = (
        "SELECT X, SOIL FROM IparsData",
        "SELECT X, SOIL FROM IparsData WHERE TIME >= 2 AND TIME <= 4",
        "SELECT X, SOIL FROM IparsData WHERE TIME = 3 AND REL = 1",
    )

    @pytest.mark.parametrize("sql", SCANS)
    def test_extractor_execute_and_execute_iter(self, specs, ipars_ds, sql):
        spec = specs["ipars-L0"]
        plan = ipars_ds.plan(sql)
        for vectorize in ("on", "off"):
            with Extractor(spec.mount) as extractor:
                table = run_plan(extractor, plan, vectorize=vectorize)
                batches = run_plan(extractor, plan, batch_rows=5, vectorize=vectorize)
                payloads = cached_buffers(extractor)
                assert payloads
                assert_owned([table.column(n) for n in table.column_names],
                             payloads)
                for batch in batches:
                    assert_owned(
                        [batch.column(n) for n in batch.column_names], payloads
                    )

    @pytest.mark.parametrize("workers", [1, 3])
    def test_data_source_single_afc_node_and_per_afc(
        self, specs, ipars_ds, workers
    ):
        spec = specs["ipars-L0"]
        # TIME = 3 AND REL = 1: one AFC per node — a lone piece.
        for sql in self.SCANS:
            plan = ipars_ds.plan(sql)
            for node, afcs in group_by_home_node(plan.afcs).items():
                source = DataSourceService(node, spec.mount, FilteringService())
                try:
                    table = source.execute(
                        plan, afcs, IOStats(),
                        options=ExecOptions(intra_node_workers=workers),
                    )
                    assert_owned(
                        [table.column(n) for n in table.column_names],
                        cached_buffers(source.extractor),
                    )
                finally:
                    source.close()

    def test_apply_and_refilter(self):
        segment = np.arange(12, dtype="<f8").tobytes()
        frozen = np.frombuffer(segment, dtype="<f8")
        filtering = FilteringService()
        for where in (None, parse_where("V >= 0"), parse_where("V > 3")):
            out = filtering.apply(where, {"V": frozen}, ["V"], 12)
            assert_owned(out.values(), [frozen])
            refiltered = filtering.refilter(
                where, VirtualTable({"V": frozen}), ["V"]
            )
            assert_owned([refiltered.column("V")], [frozen])


# ---------------------------------------------------------------------------
# Part 4: the cache sequence, explain, the plan span
# ---------------------------------------------------------------------------


class TestCacheSequence:
    def test_anchor_narrowing_repeat(self, specs):
        spec = specs["ipars-L0"]
        opts = ExecOptions(cache_mode="subsume")
        anchor = "SELECT X, SOIL, POIL FROM IparsData WHERE TIME>=2 AND TIME<=5"
        narrow = (
            "SELECT X, SOIL, POIL FROM IparsData "
            "WHERE TIME>=3 AND TIME<=4 AND SOIL>0.3"
        )
        with Virtualizer(spec.text, spec.mount) as cold:
            want = {sql: cold.query(sql) for sql in (anchor, narrow)}
        with Virtualizer(spec.text, spec.mount) as v:
            runs = []
            for sql in (anchor, narrow, anchor):
                stats = IOStats()
                table = v.query(sql, stats=stats, options=opts)
                runs.append(stats)
                _same_bits([table], [want[sql]])
            assert runs[0].bytes_read > 0
            assert runs[1].subsumption_hits == 1 and runs[1].bytes_read == 0
            assert runs[2].result_cache_hits == 1 and runs[2].bytes_read == 0
            entries = v._pipeline._cache.results._entries.values()
            (stored,) = [e.table for e in entries]
            assert "TIME" in stored.column_names


class TestObservability:
    def test_explain_shows_residual_and_decided(self, ipars_ds):
        text = ipars_ds.explain(
            "SELECT X FROM IparsData WHERE TIME <= 3 AND SOIL > 0.5"
        )
        assert "residual WHERE: SOIL > 0.5" in text
        assert "decided by the index: TIME <= 3" in text
        text = ipars_ds.explain("SELECT X FROM IparsData")
        assert "residual WHERE: none" in text
        assert "decided by the index: none" in text

    def test_plan_span_counts_decided_conjuncts(self, ipars_ds):
        tracer = Tracer()
        ipars_ds.plan(
            "SELECT X FROM IparsData WHERE TIME >= 2 AND TIME <= 3 "
            "AND SOIL > 0.5",
            tracer=tracer,
        )
        (span,) = [s for s in tracer.spans if s.name == "plan"]
        assert span.tags["decided"] == 2
