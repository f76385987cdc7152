"""The ledger's datasets and its six cost-homogeneous workloads.

Everything here is a pure function of ``(dataset config, seed, round)``:
the program under test only ever receives the generated SQL text.  Within
one workload every query has the same shape and plans to the same number
of aligned file chunk sets (asserted by ``tests/test_ledger_workloads.py``
through ``dataset.plan``); the seed moves window positions, realization
ids, variable choices and thresholds only, so a run's latencies are
unimodal and its median cannot sit on a boundary between query classes.
``reuse-local`` is the deliberate exception: it is tri-modal by
construction (exact hit / subsumption refilter / miss) with 60 % of the
queries in the refilter class, so the median sits firmly inside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

from repro.datasets.ipars import STATE_VARS, IparsConfig
from repro.datasets.titan import TitanConfig

Config = Union[IparsConfig, TitanConfig]

#: Width (in TIME steps) of every scan / reuse window.
SCAN_WIDTH = 6
#: Width of every aggregate window.
AGG_WIDTH = 21
#: Queries per round under ``--smoke``.
SMOKE_K = 10


@dataclass(frozen=True)
class DatasetSpec:
    """A deterministic generator configuration, full-size and smoke-size."""

    name: str
    kind: str  # "ipars" | "titan"
    config: Config
    smoke_config: Config
    layout: str = ""  # IPARS layout name; Titan has one layout
    table: str = ""

    def pick(self, smoke: bool) -> Config:
        return self.smoke_config if smoke else self.config


DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        # 3.0 M rows, 204 MB: 102 MB per node against a 32 MiB segment
        # cache per node, so a query list that walks enough of it misses
        # the program's own cache on every read.
        DatasetSpec(
            name="ipars-l0-2n",
            kind="ipars",
            config=IparsConfig(
                num_rels=4, num_times=100, cells_per_node=3750,
                num_nodes=2, seed=7,
            ),
            smoke_config=IparsConfig(
                num_rels=4, num_times=24, cells_per_node=120,
                num_nodes=2, seed=7,
            ),
            layout="L0",
            table="IparsData",
        ),
        # fig6-shaped lattice, 0.82 M rows, 29.5 MB: fits one node's
        # 32 MiB segment cache by design (the issue's 1000 elements per
        # chunk is 36.9 MB and thrashes it; see README "Reshaped").
        DatasetSpec(
            name="titan-1n",
            kind="titan",
            config=TitanConfig(8, 8, 4, 4, elems_per_chunk=800,
                               num_nodes=1, seed=11),
            smoke_config=TitanConfig(4, 4, 2, 2, elems_per_chunk=100,
                                     num_nodes=1, seed=11),
            table="TitanData",
        ),
    )
}


# ---------------------------------------------------------------------------
# Query generators: (config, seed, round, k) -> k SQL strings
# ---------------------------------------------------------------------------


def _windows(config: IparsConfig, width: int, rng: random.Random) -> List[int]:
    """Start times of the disjoint ``width``-step windows tiling TIME.

    The seed shifts the whole tiling by an offset, so positions move with
    the seed while the windows of one list never share a chunk.
    """
    count = config.num_times // width
    offset = rng.randint(1, config.num_times - count * width + 1)
    return [offset + i * width for i in range(count)]


def scan_queries(config: IparsConfig, seed: int, rnd: int, k: int) -> List[str]:
    """Time-window scans over pairwise-disjoint (variable triple, window)
    cells: the list's working set is ``k`` x 1.08 MB per node, so with
    ``k`` = 40 (43 MB against a 32 MiB LRU) every chunk read misses the
    segment cache, in every round, for every query alike."""
    rng = random.Random(seed)
    names = list(STATE_VARS)
    rng.shuffle(names)
    triples = [names[i:i + 3] for i in range(0, len(names) - 2, 3)]
    starts = _windows(config, SCAN_WIDTH, rng)
    cells = [(triple, start) for triple in triples for start in starts]
    return [
        f"SELECT X, Y, Z, {', '.join(triple)} FROM IparsData "
        f"WHERE TIME>={start} AND TIME<={start + SCAN_WIDTH - 1}"
        for triple, start in rng.sample(cells, min(k, len(cells)))
    ]


def filter_queries(config: TitanConfig, seed: int, rnd: int, k: int) -> List[str]:
    """Compound WHERE with a vectorized UDF over a 0.4 x 0.4 X/Y box."""
    rng = random.Random(seed)
    ex, ey, _ = config.extent
    out = []
    for _ in range(k):
        x0 = rng.uniform(0.0, 0.6) * ex
        y0 = rng.uniform(0.0, 0.6) * ey
        theta = rng.uniform(0.45, 0.55)
        radius = rng.uniform(0.80, 0.95) * ex
        out.append(
            "SELECT X, Y, Z, S1 FROM TitanData "
            f"WHERE X>={x0:.0f} AND X<={x0 + 0.4 * ex:.0f} "
            f"AND Y>={y0:.0f} AND Y<={y0 + 0.4 * ey:.0f} "
            f"AND S1<{theta:.4f} AND S2>0.1 "
            f"AND DISTANCE(X, Y, Z)<{radius:.0f}"
        )
    return out


def point_queries(config: IparsConfig, seed: int, rnd: int, k: int) -> List[str]:
    """One (TIME, REL) cell each — 2 AFCs, a few hundred rows, every
    text distinct, so the fixed per-query cost is all there is."""
    rng = random.Random(seed)
    cells = [
        (t, r)
        for t in range(1, config.num_times + 1)
        for r in range(config.num_rels)
    ]
    return [
        f"SELECT X, Y, SOIL FROM IparsData "
        f"WHERE TIME={t} AND REL={r} AND SOIL>{rng.uniform(0.93, 0.95):.4f}"
        for t, r in rng.sample(cells, min(k, len(cells)))
    ]


def agg_queries(config: IparsConfig, seed: int, rnd: int, k: int) -> List[str]:
    """GROUP BY REL over a fixed-width window: a few hundred bytes out."""
    rng = random.Random(seed)
    width = min(AGG_WIDTH, config.num_times)
    return [
        "SELECT REL, COUNT(*), SUM(SOIL), AVG(SGAS), MAX(POIL) "
        f"FROM IparsData WHERE TIME>={t} AND TIME<={t + width - 1} "
        f"AND SWAT>{rng.uniform(0.18, 0.22):.4f} GROUP BY REL"
        for t in (
            rng.randint(1, config.num_times - width + 1) for _ in range(k)
        )
    ]


#: reuse-local keeps this many anchor windows resident in the result cache.
REUSE_ANCHORS = 8


def reuse_queries(config: IparsConfig, seed: int, rnd: int, k: int) -> List[str]:
    """Cache reads *and* writes in one list.  Every group of five is one
    exact repeat of an anchor window, three fresh narrowings of anchors
    (sub-window + ``SOIL>t``, served by subsumption refilter) and one
    window that is not in the cache (miss -> store -> LRU eviction):
    20/60/20, so the median sits firmly in the refilter class.

    A cached window is 180 k rows x 7 columns (the SELECT list plus
    TIME, which the WHERE needs) = 5.04 MB, so the 64 MiB result cache
    holds the eight anchors and five misses; from the sixth miss on,
    every store evicts.  Groups are numbered across rounds and anchor
    ``j`` is touched at groups ``j``, ``j+3`` and ``j+6`` of every eight,
    so no anchor ever goes more than three stores untouched and the LRU
    victim is always the oldest miss — the hit classes stay what the
    list says they are.  Windows all have one width, so two different
    starts never contain one another and a miss is a miss.
    """
    rng = random.Random(seed)
    # Anchors come from a disjoint tiling: were two to overlap, a
    # narrowing of one could be refiltered from the other instead.
    tiles = _windows(config, SCAN_WIDTH, rng)
    anchors = rng.sample(tiles, min(REUSE_ANCHORS, len(tiles)))
    others = [
        start for start in range(1, config.num_times - SCAN_WIDTH + 2)
        if start not in anchors
    ]
    rng.shuffle(others)

    def select(cols: str, start: int, lo: int, hi: int) -> str:
        return (
            f"SELECT X, Y, Z, SOIL, SGAS, {cols} FROM IparsData "
            f"WHERE TIME>={start + lo} AND TIME<={start + hi}"
        )

    rrng = random.Random(seed * 1_000_003 + rnd)
    out: List[str] = []
    for i in range(k // 5):
        group = rnd * (k // 5) + i
        # Until every anchor was stored once (the first groups of round
        # 0), narrow only anchors that already were: a narrowing of an
        # absent anchor would be a miss that stores a small table, which
        # later narrowings could be refiltered from at another cost.
        live = min(group + 1, len(anchors))
        out.append(
            select("POIL", anchors[group % len(anchors)], 0, SCAN_WIDTH - 1)
        )
        for back in (0, 3, 6):
            lo = rrng.randint(0, 2)
            out.append(
                select("POIL", anchors[(group - back) % live], lo, lo + 3)
                + f" AND SOIL>{rrng.uniform(0.70, 0.75):.4f}"
            )
        # Misses walk the non-anchor windows cyclically across rounds: a
        # window comes round again long after its cache slot was
        # recycled.  They project PWAT where the anchors project POIL,
        # so a stored miss can never subsume a narrowing (which needs
        # POIL) and steal the touch that keeps its anchor off the LRU end.
        out.append(select("PWAT", others[group % len(others)], 0, SCAN_WIDTH - 1))
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "local" | "tcp"
    dataset: str
    k: int  # queries per round
    rounds: int  # timed rounds when no --seconds is given
    generate: Callable[[Config, int, int, int], List[str]]
    why: str
    #: ExecOptions fields that differ from ``repro.connect`` defaults.
    options: Tuple[Tuple[str, object], ...] = ()
    #: Aggregates are summed in another order by the reference, so their
    #: float64 columns compare within 1e-9 relative; all else is bit-exact.
    exact_oracle: bool = True

    def queries(self, seed: int, rnd: int, smoke: bool = False) -> List[str]:
        spec = DATASETS[self.dataset]
        k = SMOKE_K if smoke else self.k
        return self.generate(spec.pick(smoke), seed, rnd, k)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "scan-local", "local", "ipars-l0-2n", 40, 15, scan_queries,
            "180k-row time-window scans over data larger than the segment "
            "cache: extractor read/decode/concat and mover delivery dominate",
        ),
        Workload(
            "filter-local", "local", "titan-1n", 20, 12, filter_queries,
            "compound WHERE with a vectorized UDF over record-structured "
            "chunks that fit the cache: kernels and chunk decode dominate",
        ),
        Workload(
            "point-local", "local", "ipars-l0-2n", 200, 25, point_queries,
            "2-AFC, few-hundred-row lookups with distinct texts: parse, "
            "plan, index, scheduler hop and fan-out are the whole cost",
        ),
        Workload(
            "reuse-local", "local", "ipars-l0-2n", 50, 25, reuse_queries,
            "20/60/20 exact/subsumed/missed windows with cache_mode=subsume:"
            " result-cache serve, refilter, store and LRU eviction in one run",
            options=(("cache_mode", "subsume"),),
        ),
        Workload(
            "scan-tcp", "tcp", "ipars-l0-2n", 40, 15, scan_queries,
            "the scan-local list over a 2-process cluster: adds table "
            "encode/decode, framing, socket copy and coordinator merge",
        ),
        Workload(
            "agg-tcp", "tcp", "ipars-l0-2n", 20, 16, agg_queries,
            "GROUP BY pushdown over a 2-process cluster with a sub-KB reply:"
            " partial aggregation, plan encoding and per-RPC fixed cost",
            exact_oracle=False,
        ),
    )
}

#: The workloads ``BENCHMARK.json`` lists, i.e. the ones the driver gates
#: a change on.  Its time limit covers 4 + 22 runs per listed workload:
#: six workloads leave 15 s a run, four leave 26 s, and on this shared
#: host a run's best round repeats much better over the longer run (see
#: README "The first refusal").  The other two are run by the same
#: command and recorded in ``baseline.json``: ``reuse-local`` (the only
#: one on the result cache) and ``agg-tcp`` (plan encoding, aggregate
#: fold).
DRIVER_WORKLOADS = ("scan-local", "filter-local", "point-local", "scan-tcp")

#: The fixed query every set-up repeat answers first (per table).
WARMUP_QUERY = {
    "IparsData": "SELECT X, Y, SOIL FROM IparsData WHERE TIME=1 AND REL=0",
    "TitanData": "SELECT X, Y, S1 FROM TitanData WHERE S1<0.01",
}
