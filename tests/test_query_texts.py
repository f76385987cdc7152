"""The query-text cache: a text resolved from the cache rewrites and
plans exactly like the same text lexed, parsed and rewritten afresh —
and a hit runs no lexer, parser or rewrite at all."""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import CompiledDataset, ExecOptions
from repro.datasets import IparsConfig, ipars
from repro.datasets.mri import MriConfig
from repro.datasets.mri import descriptor_text as mri_descriptor
from repro.datasets.titan import TitanConfig
from repro.datasets.titan import descriptor_text as titan_descriptor
from repro.errors import ReproError
from repro.obs.tracer import Tracer
from repro.sql import parser as parser_module
from repro.sql import rewrite as rewrite_module
from repro.sql.parser import parse_query
from repro.sql.ranges import extract_ranges
from repro.sql.rewrite import rewrite_of, rewrite_where
from repro.sql.textcache import QUERY_TEXT_CACHE_ENTRIES
from tests.matrix import query_shapes, shape_literals

IPARS = IparsConfig(num_rels=2, num_times=12, cells_per_node=40, num_nodes=2)
TITAN = TitanConfig(
    chunks_x=4, chunks_y=4, chunks_z=2, chunks_t=2,
    elems_per_chunk=100, num_nodes=2,
)
MRI = MriConfig(num_studies=3, slices=2, rows=4, cols=4)

#: name -> (descriptor, WHERE attributes, GROUP BY attributes)
SOURCES = {
    "ipars": (
        ipars.descriptor_text(IPARS, "L0"), ("REL", "TIME", "X", "SOIL"), ("REL",)
    ),
    "titan": (titan_descriptor(TITAN), ("X", "Y", "S1"), ()),
    "mri": (mri_descriptor(MRI), ("STUDY", "SLICE", "ROW"), ("STUDY",)),
}


@pytest.fixture(scope="module")
def datasets():
    """Per source: the dataset under test (its text cache warms across
    examples) and a reference twin only ever handed parsed queries."""
    return {
        name: (CompiledDataset(text), CompiledDataset(text), names, group)
        for name, (text, names, group) in SOURCES.items()
    }


def outcome(fn):
    try:
        return ("ok", fn())
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))


def summary(query, canonical, codes, details, plan):
    """Everything the front end hands on, spelled so that ``-0.0`` is
    not ``0.0`` and ``2`` is not ``2.0``."""
    ranges = extract_ranges(plan.query.where)
    return (
        repr(query), str(query), repr(canonical), str(canonical),
        tuple(codes), tuple(details),
        plan.afcs, list(plan.needed), list(plan.output), repr(plan.where),
        tuple(repr(term) for term in plan.decided), repr(plan.query),
        plan.aggregate, sorted((k, str(v)) for k, v in ranges.items()),
    )


def cached(dataset, text):
    def run():
        query = dataset.resolve_query(text)
        memo = rewrite_of(query)
        codes = [s.code for s in memo.steps]
        details = [(s.code, s.detail) for s in memo.steps]
        plan = dataset.plan(query)
        return summary(query, memo.canonical(query), codes, details, plan)

    return outcome(run)


def uncached(reference, text):
    def run():
        query = reference.resolve_query(parse_query(text))
        canonical, steps = rewrite_where(query.where)
        plan = reference.plan(parse_query(text))
        return summary(
            query,
            plan.query if steps else query,
            [s.code for s in steps],
            [(s.code, s.detail) for s in steps],
            plan,
        )

    return outcome(run)


@pytest.mark.parametrize("source", sorted(SOURCES))
@settings(
    max_examples=120, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cached_text_equals_parsed_text(datasets, source, data):
    dataset, reference, names, group = datasets[source]
    shape = data.draw(query_shapes(dataset.descriptor.name, names, group))
    for _ in range(3):
        text = shape.text(data.draw(shape_literals(shape.holes)))
        want = uncached(reference, text)
        assert cached(dataset, text) == want, text
        hits = dataset.query_texts.hits
        assert cached(dataset, text) == want, text
        event("hit" if dataset.query_texts.hits > hits else "not cached")


def test_only_the_exact_text_hits():
    dataset = CompiledDataset(SOURCES["ipars"][0])
    head = "SELECT X FROM IparsData WHERE "
    for where in (
        "TIME > 3 AND TIME > 5", "TIME > 5 AND TIME > 3", "TIME > 5  AND TIME > 3",
        "TIME > 5 -- c\nAND TIME > 3", "TIME > 5.0 AND TIME > 3",
    ):
        dataset.resolve_query(head + where)
    assert (dataset.query_texts.misses, dataset.query_texts.hits) == (5, 0)
    query = dataset.resolve_query(head + "TIME > 5.0 AND TIME > 3")
    assert dataset.query_texts.hits == 1
    assert repr(query) == repr(
        dataset.resolve_query(parse_query(head + "TIME > 5.0 AND TIME > 3"))
    )


def test_texts_that_do_not_resolve_are_not_cached():
    dataset = CompiledDataset(SOURCES["ipars"][0])
    for text in ("SELECT X FROM IparsData WHERE", "SELECT X FROM Other"):
        for _ in range(2):
            with pytest.raises(ReproError):
                dataset.resolve_query(text)
    assert len(dataset.query_texts) == 0


def test_distinct_texts_stay_bounded():
    dataset = CompiledDataset(SOURCES["ipars"][0])
    for i in range(10_000):
        dataset.resolve_query(f"SELECT X FROM IparsData WHERE TIME > {i}")
        assert len(dataset.query_texts) <= QUERY_TEXT_CACHE_ENTRIES
    assert len(dataset.query_texts) == QUERY_TEXT_CACHE_ENTRIES
    assert dataset.query_texts.misses == 10_000
    # The most recently used texts are the ones kept.
    dataset.resolve_query("SELECT X FROM IparsData WHERE TIME > 9999")
    assert dataset.query_texts.hits == 1
    dataset.resolve_query("SELECT X FROM IparsData WHERE TIME > 0")
    assert dataset.query_texts.hits == 1


def test_a_hit_keeps_its_text_from_eviction():
    dataset = CompiledDataset(SOURCES["ipars"][0])
    kept = "SELECT X FROM IparsData WHERE TIME > -1"
    dataset.resolve_query(kept)
    for i in range(QUERY_TEXT_CACHE_ENTRIES - 1):
        dataset.resolve_query(f"SELECT X FROM IparsData WHERE TIME > {i}")
    dataset.resolve_query(kept)  # a hit: now the most recently used
    dataset.resolve_query("SELECT X FROM IparsData WHERE TIME > 1000")
    dataset.resolve_query(kept)
    assert dataset.query_texts.hits == 2


def test_mutating_a_returned_query_cannot_change_a_later_hit():
    dataset = CompiledDataset(SOURCES["ipars"][0])
    text = "SELECT X, SOIL FROM IparsData WHERE TIME >= 2 AND TIME <= 4"
    first = dataset.resolve_query(text)
    plan = dataset.plan(first)
    first.select.append("Y")
    first.where = parse_query("SELECT X FROM IparsData WHERE REL = 1").where
    plan.query.select.append("Z")
    plan.needed.append("Z")
    later = dataset.resolve_query(text)
    later.select.append("REL")
    latest = dataset.resolve_query(text)
    assert dataset.query_texts.hits == 2
    assert latest == parse_query(text)
    again = dataset.plan(latest)
    reference = CompiledDataset(SOURCES["ipars"][0]).plan(parse_query(text))
    assert repr(again.query) == repr(reference.query)
    assert again.needed == reference.needed
    # The mutated queries themselves are rewritten afresh, not from
    # their memo.
    assert dataset.plan(first).query.where == parse_query(
        "SELECT X FROM IparsData WHERE REL = 1"
    ).where
    assert dataset.plan(later).output == ["X", "SOIL", "REL"]


def test_eight_threads_on_the_same_texts():
    dataset = CompiledDataset(SOURCES["ipars"][0])
    reference = CompiledDataset(SOURCES["ipars"][0])
    texts = [
        f"SELECT X FROM IparsData WHERE TIME = {t} AND REL = {r} AND SOIL > 0.{t}{r}"
        for t in range(1, 9) for r in range(2)
    ]
    wants = {text: reference.plan(parse_query(text)) for text in texts}
    errors = []
    barrier = threading.Barrier(8)

    def worker(k):
        barrier.wait()
        try:
            for _ in range(20):
                for text in texts[k % 2::2]:
                    got, want = dataset.plan(dataset.resolve_query(text)), wants[text]
                    assert repr(got.query) == repr(want.query), text
                    assert got.afcs == want.afcs
        except AssertionError as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(dataset.query_texts) == len(texts)
    assert dataset.query_texts.hits + dataset.query_texts.misses == 8 * 20 * 8
    assert dataset.query_texts.hits >= 8 * 20 * 8 - 8 * len(texts)


def count_passes(monkeypatch):
    """Counters of lexer+parser runs and rewrite fixpoints."""
    counts = {"parse": 0, "rewrite": 0}
    real_parse, real_rewrite = parser_module.tokenize, rewrite_module.rewrite_where

    def parse(text):
        counts["parse"] += 1
        return real_parse(text)

    def rewrite(where):
        counts["rewrite"] += 1
        return real_rewrite(where)

    monkeypatch.setattr(parser_module, "tokenize", parse)
    monkeypatch.setattr(rewrite_module, "rewrite_where", rewrite)
    return counts


@pytest.fixture(scope="module")
def storm_env(tmp_path_factory):
    from repro.storm.cluster import VirtualCluster

    cluster = VirtualCluster.create(
        str(tmp_path_factory.mktemp("texts_storm")), IPARS.num_nodes
    )
    text, _ = ipars.generate(IPARS, "L0", cluster.mount())
    return text, cluster


def front_doors(text, cluster):
    """Both front doors, each over a dataset with a cold text cache."""
    from repro.core import GeneratedDataset, Virtualizer
    from repro.storm import QueryService

    service = QueryService(GeneratedDataset(text), cluster)
    virtualizer = Virtualizer(text, cluster.mount())
    return [
        (service, lambda sql, opts: service.submit(sql, opts)),
        (virtualizer, lambda sql, opts: virtualizer.query(sql, options=opts)),
    ]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("cache_mode", ["off", "exact", "subsume"])
def test_one_rewrite_per_submission_and_none_on_a_hit(
    storm_env, monkeypatch, cache_mode, strict
):
    opts = ExecOptions(cache_mode=cache_mode, strict=strict)
    first = (
        "SELECT X, SOIL FROM IparsData WHERE TIME >= 2 AND TIME <= 3 "
        "AND SOIL > 0.5"
    )
    second = (
        "SELECT X, SOIL FROM IparsData WHERE TIME >= 4 AND TIME <= 6 "
        "AND SOIL > 0.7"
    )
    for door, submit in front_doors(*storm_env):
        counts = count_passes(monkeypatch)
        for text, want in (
            (first, 1), (first, 1), (second, 2), (first, 2), (second, 2),
        ):
            submit(text, opts)
            assert counts == {"parse": want, "rewrite": want}, door
        assert door.dataset.query_texts.hits == 3
        monkeypatch.undo()
        door.close()


def test_traced_hit_keeps_the_rewrite_steps_tag(storm_env):
    text = "SELECT X FROM IparsData WHERE 5 > TIME AND TIME BETWEEN 1 AND 3"
    reference = rewrite_where(parse_query(text).where)[1]
    for door, submit in front_doors(*storm_env):
        seen = []
        for _ in range(2):
            tracer = Tracer()
            submit(text, ExecOptions(trace=tracer))
            found = tracer.find("rewrite")
            (span,) = [s for s in found if s.phase != "i"]
            events = [s.tags for s in found if s.phase == "i"]
            seen.append((span.tags["steps"], [e["code"] for e in events]))
            assert [e["detail"] for e in events] == [
                step.detail for step in reference
            ]
        assert door.dataset.query_texts.hits == 1
        assert seen[0] == seen[1] == (
            len(reference), [step.code for step in reference]
        )
        assert seen[0][0] > 0
        door.close()


def test_tcp_node_execute_of_a_canonical_text_hits(tmp_path):
    import repro
    from repro.core import GeneratedDataset, local_mount
    from tests.test_net_cluster import ONE_NODE, serving

    text, _ = ipars.generate(ONE_NODE, "L0", local_mount(str(tmp_path)))
    dataset = GeneratedDataset(text)
    spellings = (
        "SELECT X, SOIL FROM IparsData WHERE 6 > TIME AND TIME > 2 AND REL = 1",
        "SELECT X, SOIL FROM IparsData WHERE REL = 1 AND TIME < 6 AND 2 < TIME",
    )
    with serving("osu0", str(tmp_path), dataset) as server:
        host, port = server.address
        with repro.connect(f"tcp://{host}:{port}", descriptor=text) as db:
            for sql in spellings + spellings:
                assert db.query(sql).num_rows > 0
    # The node plans the canonical text it is shipped, which both
    # spellings share: one miss, then hits.
    assert dataset.query_texts.misses == 1 and dataset.query_texts.hits == 3


def test_plans_share_the_datasets_dtypes_and_never_write_them(storm_env):
    from repro.core.options import ExecOptions as Opts

    text, cluster = storm_env
    for door, submit in front_doors(text, cluster):
        dtypes = door.dataset.dtypes
        snapshot = dict(dtypes)
        for sql, opts in (
            ("SELECT X, SOIL FROM IparsData WHERE TIME <= 3", Opts()),
            ("SELECT REL, COUNT(*), MAX(SOIL) FROM IparsData GROUP BY REL",
             Opts()),
            ("SELECT REL, SUM(SOIL) FROM IparsData WHERE TIME = 2 GROUP BY REL",
             Opts(agg_pushdown=False)),
            ("SELECT X, SOIL FROM IparsData WHERE TIME <= 3 AND SOIL > 0.4",
             Opts(cache_mode="subsume")),
            ("SELECT X, SOIL FROM IparsData WHERE TIME <= 3 AND SOIL > 0.6",
             Opts(cache_mode="subsume")),
            ("SELECT * FROM IparsData WHERE TIME > 100", Opts()),
        ):
            submit(sql, opts)
            assert door.dataset.plan(sql).dtypes is dtypes
        assert dtypes == snapshot
        door.close()
