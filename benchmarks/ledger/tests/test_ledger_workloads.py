"""Generators are deterministic and every workload is cost-homogeneous."""

import pytest

from repro import GeneratedDataset
from repro.datasets import ipars, titan

from workloads import DATASETS, WORKLOADS


def _dataset(name: str, smoke: bool) -> GeneratedDataset:
    spec = DATASETS[name]
    config = spec.pick(smoke)
    if spec.kind == "ipars":
        return GeneratedDataset(ipars.descriptor_text(config, spec.layout))
    return GeneratedDataset(titan.descriptor_text(config))


@pytest.fixture(scope="module")
def planners():
    return {
        (name, smoke): _dataset(name, smoke)
        for name in DATASETS
        for smoke in (False, True)
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_queries_other_seed_other_queries(name):
    workload = WORKLOADS[name]
    for rnd in (0, 1):
        assert workload.queries(3, rnd) == workload.queries(3, rnd)
        assert workload.queries(3, rnd) != workload.queries(4, rnd)
        assert len(workload.queries(3, rnd)) == workload.k


@pytest.mark.parametrize("smoke", (False, True))
@pytest.mark.parametrize("name", sorted(set(WORKLOADS) - {"reuse-local"}))
def test_every_query_plans_to_the_same_afc_count(planners, name, smoke):
    workload = WORKLOADS[name]
    dataset = planners[workload.dataset, smoke]
    counts = {
        seed: {len(dataset.plan(q).afcs) for q in workload.queries(seed, 0, smoke)}
        for seed in (1, 2, 3)
    }
    # One plan size per list, and the seed does not move it.
    assert all(len(c) == 1 for c in counts.values()), counts
    assert len({next(iter(c)) for c in counts.values()}) == 1, counts


def test_scan_cells_are_disjoint_and_exceed_the_segment_cache():
    workload = WORKLOADS["scan-local"]
    config = DATASETS[workload.dataset].config
    queries = workload.queries(5, 0)
    cells = set()
    for sql in queries:
        columns = sql.split(" FROM ")[0].split(", ")[3:]
        start = int(sql.split("TIME>=")[1].split()[0])
        for column in columns:
            for t in range(start, start + 6):
                assert (column, t) not in cells
                cells.add((column, t))
    per_node = len(cells) * config.num_rels * config.cells_per_node * 4
    assert per_node > 32 * 1024 * 1024


def test_scan_tcp_runs_the_scan_local_list():
    assert WORKLOADS["scan-tcp"].queries(9, 0) == WORKLOADS[
        "scan-local"
    ].queries(9, 0)


def test_point_texts_are_distinct():
    queries = WORKLOADS["point-local"].queries(1, 0)
    assert len(set(queries)) == len(queries)


def test_reuse_round_is_one_exact_three_narrowings_one_miss(planners):
    workload = WORKLOADS["reuse-local"]
    dataset = planners[workload.dataset, False]
    anchors = set()
    for rnd in range(3):
        queries = workload.queries(2, rnd)
        for i in range(0, len(queries), 5):
            exact, *narrow, miss = queries[i:i + 5]
            anchors.add(exact)
            assert "SOIL>" not in exact and "POIL" in exact
            assert all("SOIL>" in q and "POIL" in q for q in narrow)
            assert "PWAT" in miss and miss not in anchors
            # Full windows share one plan size; narrowings never plan
            # (they are refiltered from a cached anchor).
            assert len(dataset.plan(exact).afcs) == len(dataset.plan(miss).afcs)
    assert len(anchors) == 8


def test_reuse_rounds_differ_but_keep_their_anchors():
    workload = WORKLOADS["reuse-local"]
    rounds = [workload.queries(2, rnd) for rnd in range(4)]
    assert rounds[0] != rounds[1]
    assert len({q for queries in rounds for q in queries[0::5]}) == 8
