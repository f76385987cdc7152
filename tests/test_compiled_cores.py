"""One compile per descriptor text per process.

Every front door (``connect``, ``Virtualizer``, ``Catalog``,
``ProcessCluster``'s node list) gets its dataset from
``codegen.compile_descriptor``: a copy of the one compiled dataset,
sharing its tables and module and keeping its own chunk summaries,
``chunk_row_cap``, query-text cache and rewrite token.  Static analysis
runs once per text, and its findings are the ones a fresh analysis
reports.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import CompiledDataset, ExecOptions, Virtualizer
from repro.core import codegen
from repro.core.codegen import compile_descriptor
from repro.core.extractor import Extractor
from repro.datasets import TitanConfig, titan
from repro.diag import analyze_options, analyze_query
from repro.metadata import xml_io
from repro.errors import QueryValidationError
from repro.index import build_summaries
from repro.metadata import parse_descriptor
from repro.obs.tracer import Tracer
from repro.sql.functions import DEFAULT_REGISTRY, FunctionRegistry
from repro.storm import VirtualCluster
from repro.storm.catalog import Catalog
from tests.conftest import assert_tables_equal, run_plan
from tests.matrix import where_terms
from tests.test_run_decode import specs  # noqa: F401

TITAN = TitanConfig(
    chunks_x=4, chunks_y=2, chunks_z=2, chunks_t=2,
    elems_per_chunk=50, num_nodes=2,
)
#: Pruned by the X summaries: fewer AFCs with them than without.
PRUNED = "SELECT X, S1 FROM TitanData WHERE X < 50"


@pytest.fixture(scope="module")
def titan_env(tmp_path_factory):
    """(root, descriptor text, summaries) of a small on-disk Titan."""
    root = str(tmp_path_factory.mktemp("cores"))
    cluster = VirtualCluster.create(root, 2)
    text, _ = titan.generate(TITAN, cluster.mount())
    summaries = build_summaries(CompiledDataset(text), cluster.mount())
    return root, text, summaries


def shared(*datasets) -> bool:
    """Whether ``datasets`` share one compile: tables, module and the
    derived warnings, diagnostics and digest."""
    first = datasets[0]
    return all(
        d.files is first.files and d._module is first._module
        and d._derived is first._derived
        for d in datasets
    )


def fresh_text(text: str, tag: str) -> str:
    """``text`` under a comment no other test compiles: a new key."""
    return f"// {tag} {id(object())}\n{text}"


@pytest.fixture
def count_compiles(monkeypatch):
    """How many times the generator ran since the fixture was made."""
    calls = []
    generate = codegen.generate_index_source

    def counted(compiled):
        calls.append(compiled.descriptor.name)
        return generate(compiled)

    monkeypatch.setattr(codegen, "generate_index_source", counted)
    return calls


# ---------------------------------------------------------------------------
# Sharing and isolation
# ---------------------------------------------------------------------------


def test_two_connects_share_a_compile_and_nothing_of_a_connection(titan_env):
    root, text, summaries = titan_env
    url = f"local://{root}"
    with repro.connect(url, text) as a, repro.connect(
        url, text, summaries=summaries
    ) as b:
        da, db = a.service.dataset, b.service.dataset
        assert shared(da, db, compile_descriptor(text))
        assert da.query_texts is not db.query_texts
        assert da._token is not db._token
        assert (da.summaries, db.summaries) == (None, summaries)

        a.query(PRUNED)
        a.query(PRUNED)
        assert (da.query_texts.hits, da.query_texts.misses) == (1, 1)
        assert (db.query_texts.hits, db.query_texts.misses) == (0, 0)

        natural = b.submit(PRUNED).afc_count
        db.chunk_row_cap = 7
        assert da.chunk_row_cap is None
        assert b.submit(PRUNED).afc_count > natural
        assert a.submit(PRUNED).afc_count > natural  # a has no summaries
        assert_tables_equal(a.query(PRUNED), b.query(PRUNED))


def test_tcp_connects_share_a_compile_and_nothing_of_a_connection(titan_env):
    from tests.test_net_cluster import serving

    root, text, _ = titan_env
    with serving("osu0", root, compile_descriptor(text)) as s0, serving(
        "osu1", root, compile_descriptor(text)
    ) as s1:
        url = "tcp://" + ",".join("{}:{}".format(*s.address) for s in (s0, s1))
        with repro.connect(url, text) as a, repro.connect(url, text) as b:
            da, db = a.service.dataset, b.service.dataset
            assert shared(da, db, s0.dataset) and da is not db
            assert "digest" in da._derived  # hashed once, for WELCOME
            natural = a.submit(PRUNED).afc_count
            db.chunk_row_cap = 7
            assert b.submit(PRUNED).afc_count > natural
            assert a.submit(PRUNED).afc_count == natural
            assert_tables_equal(a.query(PRUNED), b.query(PRUNED))
            counts = [(d.query_texts.hits, d.query_texts.misses) for d in (da, db)]
            assert counts == [(2, 1), (1, 1)]


def test_virtualizers_and_catalogs_share_the_compile(titan_env):
    root, text, summaries = titan_env
    cluster = VirtualCluster.create(root, 2)
    plain = Virtualizer(text, cluster.mount())
    capped = Virtualizer(text, cluster.mount(), chunk_row_cap=3)
    with Catalog(cluster) as catalog:
        catalog.register(text)
        assert shared(catalog.dataset("TitanData"), plain.dataset, capped.dataset)
    assert plain.dataset.chunk_row_cap is None
    assert len(capped.plan(PRUNED).afcs) > len(plain.plan(PRUNED).afcs)
    # A codegen path or the interpreted planner compiles on its own.
    interpreted = Virtualizer(text, cluster.mount(), use_codegen=False).dataset
    assert interpreted.files is not plain.dataset.files
    plain.close()
    capped.close()


def test_a_catalog_parses_a_registered_text_once(titan_env, monkeypatch):
    root, text, _ = titan_env
    text = fresh_text(text, "catalog")
    parses = []
    read = xml_io.read_descriptor

    def counted(*args):
        parses.append(args)
        return read(*args)

    monkeypatch.setattr(codegen, "read_descriptor", counted)
    with Catalog(VirtualCluster.create(root, 2)) as catalog:
        assert catalog.register(text) == "TitanData"
        dataset = catalog.dataset("TitanData")
        assert catalog.dataset("TitanData") is dataset
    assert len(parses) == 1


def test_different_summaries_give_different_plans(titan_env):
    _, text, summaries = titan_env
    pruned = compile_descriptor(text, summaries=summaries).plan(PRUNED)
    full = compile_descriptor(text).plan(PRUNED)
    assert len(pruned.afcs) < len(full.afcs)
    assert len(pruned.afcs) == len(
        CompiledDataset(text, summaries).plan(PRUNED).afcs
    )


def test_one_different_literal_compiles_anew(titan_env, count_compiles):
    _, text, _ = titan_env
    text = fresh_text(text, "literal")
    changed = text.replace("LOOP ELEM 0:49:1", "LOOP ELEM 0:48:1")
    assert changed != text
    first = compile_descriptor(text)
    assert shared(compile_descriptor(text), first)
    assert len(count_compiles) == 1
    other = compile_descriptor(changed)
    assert not shared(other, first) and len(count_compiles) == 2
    assert other.descriptor.name == first.descriptor.name
    rows = [
        dataset.plan("SELECT X FROM TitanData").planned_rows
        for dataset in (first, other)
    ]
    assert rows[1] < rows[0]


def test_a_dataset_selector_is_part_of_the_key(titan_env, count_compiles):
    _, text, _ = titan_env
    text = fresh_text(text, "selector")
    assert not shared(compile_descriptor(text), compile_descriptor(text, "TitanData"))
    assert shared(
        compile_descriptor(text, "TitanData"), compile_descriptor(text, "TitanData")
    )
    assert len(count_compiles) == 2


def test_a_parsed_descriptor_is_keyed_by_its_digest(titan_env):
    _, text, _ = titan_env
    parsed, again = parse_descriptor(text), parse_descriptor(text)
    assert shared(compile_descriptor(parsed), compile_descriptor(again))


def test_the_registry_evicts_at_its_bound(titan_env, monkeypatch, count_compiles):
    _, text, _ = titan_env
    monkeypatch.setattr(codegen, "COMPILED_DESCRIPTORS", 2)
    a, b, c = (fresh_text(text, tag) for tag in "abc")
    first_a = compile_descriptor(a)
    compile_descriptor(b)
    assert shared(compile_descriptor(a), first_a)  # a is now the most recent
    compile_descriptor(c)  # evicts b
    assert len(codegen._compiled) == 2
    assert shared(compile_descriptor(a), first_a)
    assert len(count_compiles) == 3
    compile_descriptor(b)
    assert len(count_compiles) == 4


def test_a_failed_compile_is_not_kept(count_compiles):
    bad = "// no storage section\nSCHEMA S { A = int }\n"
    for _ in range(2):
        with pytest.raises(repro.ReproError):
            compile_descriptor(bad)
    assert not any(f.done() and f.exception() for f in codegen._compiled.values())


def test_eight_threads_connecting_at_once_compile_once(titan_env, count_compiles):
    root, text, _ = titan_env
    text = fresh_text(text, "threads")
    start = threading.Barrier(8)
    clients, errors = [], []

    def connect():
        try:
            start.wait()
            clients.append(repro.connect(f"local://{root}", text))
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=connect) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert count_compiles == ["TitanData"]
    assert shared(*(c.service.dataset for c in clients))
    assert len({id(c.service.dataset) for c in clients}) == 8
    for client in clients:
        client.close()


def test_closing_one_client_leaves_a_sibling_working(titan_env):
    root, text, _ = titan_env
    url = f"local://{root}"
    sibling = repro.connect(url, text)
    want = sibling.query(PRUNED)
    with repro.connect(url, text) as other:
        other.query(PRUNED)
    assert_tables_equal(sibling.query(PRUNED), want)
    narrower = PRUNED + " AND S1 > 0.5"  # a text the sibling has not seen
    with Virtualizer(text, VirtualCluster.create(root, 2).mount()) as ref:
        assert_tables_equal(sibling.query(narrower), ref.query(narrower))
    sibling.close()


def test_a_process_cluster_compiles_what_its_connect_reuses(
    titan_env, count_compiles
):
    from repro.net.procs import ProcessCluster

    root, text, _ = titan_env
    text = fresh_text(text, "cluster")
    cluster = ProcessCluster(text, root)  # not launched: no processes
    assert cluster.nodes == ["osu0", "osu1"]
    assert count_compiles == ["TitanData"]
    assert compile_descriptor(cluster.descriptor_text).descriptor.name == \
        "TitanData"
    assert count_compiles == ["TitanData"]


# ---------------------------------------------------------------------------
# Static analysis once per text
# ---------------------------------------------------------------------------

#: Texts with findings (RT/RQ warnings or errors) and without.
ANALYSED = (
    "SELECT X, S1 FROM TitanData WHERE S1 > 2 AND S1 < 1",
    "SELECT X FROM TitanData WHERE NOSUCH(X) > 1",
    "SELECT X, S1 FROM TitanData WHERE X < 50",
    "SELECT X FROM TitanData WHERE TIME > 1e12",
)


def strict_outcome(run, sql):
    try:
        run(sql)
        return "ok"
    except QueryValidationError as exc:
        return str(exc)


def test_strict_refusals_are_the_same_on_a_hit(titan_env):
    root, text, _ = titan_env
    strict = ExecOptions(strict=True, remote=False)
    with repro.connect(f"local://{root}", text) as db:
        dataset = db.service.dataset
        first = [strict_outcome(lambda s: db.query(s, strict), s) for s in ANALYSED]
        again = [strict_outcome(lambda s: db.query(s, strict), s) for s in ANALYSED]
        assert dataset.query_texts.hits >= 2
    with repro.connect(f"local://{root}", text) as fresh:
        other = [
            strict_outcome(lambda s: fresh.query(s, strict), s) for s in ANALYSED
        ]
    assert first == again == other
    assert sum(o != "ok" for o in first) >= 2


def diag_events(tracer):
    return [
        (e.tags["code"], e.tags["severity"], e.tags["message"])
        for e in tracer.find("diag")
    ]


def test_traced_diag_events_are_the_same_on_a_hit(titan_env):
    root, text, _ = titan_env
    with repro.connect(f"local://{root}", text) as db:
        dataset = db.service.dataset
        for sql in (ANALYSED[0],) + ANALYSED[2:]:
            runs = []
            for _ in range(2):
                tracer = Tracer("t")
                db.submit(sql, ExecOptions(trace=tracer, remote=False))
                runs.append(diag_events(tracer))
            direct = list(dataset.diagnostics) + list(
                analyze_query(dataset.descriptor, dataset.resolve_query(sql))
            ) + analyze_options(ExecOptions(trace=True, remote=False))
            assert runs[0] == runs[1] == [
                (d.code, str(d.severity), d.message) for d in direct
            ]


def test_a_registration_refreshes_the_analysis(titan_env):
    root, text, _ = titan_env
    functions = FunctionRegistry(parent=DEFAULT_REGISTRY)
    strict = ExecOptions(strict=True, remote=False)
    sql = "SELECT X FROM TitanData WHERE TWICE(S1) > 1"
    with repro.connect(f"local://{root}", text, functions=functions) as db:
        with pytest.raises(QueryValidationError, match="not registered"):
            db.query(sql, strict)
        functions.register("TWICE", lambda x: x * 2)
        assert list(db.query(sql, strict).column_names) == ["X"]


# ---------------------------------------------------------------------------
# Differential: a registry-shared dataset plans and reads like a fresh one
# ---------------------------------------------------------------------------


def plan_summary(plan):
    return (
        list(plan.afcs), plan.needed, plan.output, repr(plan.where),
        tuple(repr(term) for term in plan.decided), repr(plan.query),
    )


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_shared_datasets_equal_fresh_ones(specs, data):  # noqa: F811
    """Two datasets over one registry compile, with different caps and
    summaries, each plan, read and count their texts like a freshly
    compiled :class:`CompiledDataset` with the same settings, in
    whichever order they run."""
    name = data.draw(st.sampled_from(sorted(specs)), label="spec")
    spec = specs[name]
    fresh = CompiledDataset(spec.text)
    summaries = (
        build_summaries(fresh, spec.mount) if fresh.stored_index_attrs else None
    )
    settings_ = [
        (data.draw(st.sampled_from(spec.caps), label=f"cap{i}"),
         data.draw(st.sampled_from((None, summaries)), label=f"summaries{i}"))
        for i in range(2)
    ]
    wheres = [
        data.draw(where_terms(spec.stored), label=f"where{i}") for i in range(2)
    ]
    names = list(spec.implicit) + sorted(spec.stored)
    select = ", ".join(data.draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True),
        label="select",
    ))
    texts = [f"SELECT {select} FROM {spec.table} WHERE {w}" for w in wheres]

    datasets = [
        compile_descriptor(spec.text, summaries=s, chunk_row_cap=cap)
        for cap, s in settings_
    ]
    refs = [CompiledDataset(spec.text, s, cap) for cap, s in settings_]
    order = data.draw(st.permutations([0, 1, 0, 1]), label="order")
    with Extractor(spec.mount) as extractor:
        for i in order:
            for sql in texts:
                got, want = datasets[i].plan(sql), refs[i].plan(sql)
                assert plan_summary(got) == plan_summary(want), (i, sql)
                assert_tables_equal(
                    run_plan(extractor, got), run_plan(extractor, want)
                )
    for dataset, ref in zip(datasets, refs):
        assert (dataset.query_texts.hits, dataset.query_texts.misses) == (
            ref.query_texts.hits, ref.query_texts.misses
        )
