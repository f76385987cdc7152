#!/usr/bin/env python
"""A/B ablations beyond the paper's figures: one table of option pairs.

Each row of ``ROWS`` names one knob and everything needed to measure
it: a dataset, its queries, a baseline side, the value the variant side
gives the knob (the only thing the two sides differ in), the row's
counter bars and, on two knobs, a wall-clock floor.  A side is dataset
kwargs (``chunk_row_cap``, ``generated`` or interpreted), service
kwargs (``segment_cache_bytes``, ``handle_cache``), an ``ExecOptions``,
and nodes in-process or as two ``repro serve`` processes.

The runner generates each dataset once and runs each side cold — a
fresh service, every query in order, ``repeats`` passes.  Both sides
must return bit-identical canonical tables and every bar must hold.
Each side's counters are reported under the ledger's ``per_layer``
names (``benchmarks/ledger/catalog.py``): per-query means of the merged
``IOStats``, and the median query latency.

Usage::

    PYTHONPATH=src python benchmarks/bench_ablations.py            # full
    PYTHONPATH=src python benchmarks/bench_ablations.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_ablations.py codegen    # one row

``--smoke`` shrinks the datasets and skips the wall-clock floors.
Writes ``BENCH_ablations.json`` under the results directory and exits
1 if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import os
import random
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.bench import fig6_titan_config, fig9_ipars_config
from repro.bench.load import write_bench_json
from repro.core import CompiledDataset, ExecOptions, GeneratedDataset, IOStats
from repro.datasets import ipars, titan
from repro.net import ProcessCluster
from repro.storm import QueryService, VirtualCluster

#: The dataset and service knobs a side may set, with the values it
#: gets otherwise; every other knob is an ``ExecOptions`` field.
DATASET_KNOBS = {"chunk_row_cap": None, "generated": True}
SERVICE_KNOBS = {"segment_cache_bytes": 32 << 20, "handle_cache": 64}

LOCAL = ExecOptions(remote=False)


@dataclass(frozen=True)
class Side:
    """How one side of a row builds its dataset and service and submits."""

    dataset: Mapping[str, object] = field(default_factory=dict)
    service: Mapping[str, object] = field(default_factory=dict)
    options: ExecOptions = LOCAL
    processes: bool = False

    def settings(self) -> Dict[str, object]:
        """Every setting of this side, flat: what two sides compare by."""
        options = {
            f.name: getattr(self.options, f.name)
            for f in dataclasses.fields(ExecOptions)
        }
        return {
            **options, **DATASET_KNOBS, **self.dataset, **SERVICE_KNOBS,
            **self.service, "processes": self.processes,
        }

    def vary(self, knob: str, value) -> "Side":
        if knob in DATASET_KNOBS:
            return dataclasses.replace(self, dataset={**self.dataset, knob: value})
        if knob in SERVICE_KNOBS:
            return dataclasses.replace(self, service={**self.service, knob: value})
        return dataclasses.replace(self, options=self.options.replace(**{knob: value}))


class Answer(NamedTuple):
    """One query's outcome, its table kept only as a digest."""

    digest: str
    rows: int
    stats: IOStats
    nodes: Tuple[str, ...]  # real nodes that reported stats
    afcs: int
    seconds: float


@dataclass
class Run:
    """One side's outcome: an answer per query per pass, in order."""

    answers: List[Answer]
    plans: list  # the planned AFC table of each query
    cache_stats: Optional[dict]

    @functools.cached_property
    def stats(self) -> IOStats:
        total = IOStats()
        for answer in self.answers:
            total.merge(answer.stats)
        return total

    @property
    def seconds(self) -> float:
        return sum(answer.seconds for answer in self.answers)


Bar = Tuple[str, Callable[[Run, Run], bool]]


@dataclass(frozen=True)
class Row:
    """One ablation: ``base`` against ``base`` with ``knob = value``."""

    name: str
    data: str  # a DATASETS key
    queries: Callable[[object], List[str]]  # dataset config -> SQL
    base: Side
    knob: str
    value: object
    bars: Tuple[Bar, ...]
    repeats: int = 1
    #: Full mode only: the variant must be more than this many times
    #: faster than the baseline, over the whole row.
    floor: Optional[float] = None

    @property
    def variant(self) -> Side:
        return self.base.vary(self.knob, self.value)


def mean(counter: str) -> Callable[[Run], float]:
    return lambda run: getattr(run.stats, counter) / len(run.answers)


#: What each side reports, under its ledger per_layer name.
METRICS: Dict[str, Callable[[Run], float]] = {
    "planner.afcs_per_query": lambda r: statistics.fmean(a.afcs for a in r.answers),
    "extractor.bytes_read": mean("bytes_read"),
    "extractor.read_calls": mean("read_calls"),
    "extractor.reads_coalesced": mean("reads_coalesced"),
    "extractor.readahead_waste_frac": (
        lambda r: r.stats.readahead_waste_bytes / max(1, r.stats.bytes_read)
    ),
    "extractor.segment_hit_ratio": (
        lambda r: r.stats.cache_hits / max(1, r.stats.chunks_read)
    ),
    "extractor.rows_extracted": mean("rows_extracted"),
    "kernels.rows_vectorized": mean("rows_vectorized"),
    "cache.hit_ratio": mean("result_cache_hits"),
    "cache.subsume_ratio": mean("subsumption_hits"),
    "cache.rows_refiltered": mean("rows_refiltered"),
    "cache.saved_bytes": mean("cache_saved_bytes"),
    "mover.bytes_sent": mean("bytes_sent"),
    "client.query_p50_all_ms": (
        lambda r: statistics.median(a.seconds for a in r.answers) * 1e3
    ),
}


# -- datasets -----------------------------------------------------------------


def _ipars(nodes: int):
    full = dataclasses.replace(fig9_ipars_config(), num_nodes=nodes)
    smoke = dataclasses.replace(full, num_times=12, cells_per_node=400)
    return (lambda c, mount: ipars.generate(c, "L0", mount)[0], full, smoke)


#: name -> (generate(config, mount) -> descriptor text, full, smoke config)
DATASETS = {
    "ipars": _ipars(2),
    "ipars-1node": _ipars(1),
    "titan": (
        lambda c, mount: titan.generate(c, mount)[0],
        fig6_titan_config(),
        dataclasses.replace(
            fig6_titan_config(), chunks_x=4, chunks_y=4, chunks_z=2,
            chunks_t=2, elems_per_chunk=200,
        ),
    ),
}


# -- queries ------------------------------------------------------------------


def bands(attr: str, count: int = 32, width: float = 0.015) -> str:
    """An iso-band union: ``attr`` in any of ``count`` narrow bands."""
    return " OR ".join(
        f"({attr} BETWEEN {i / (count + 4):.4f} AND {i / (count + 4) + width:.4f})"
        for i in range(count)
    )


def ipars_bands(config) -> List[str]:
    """fig8 shapes: time window, bare bands, Speed() threshold."""
    b = bands("SOIL")
    lo, hi = config.num_times // 8, config.num_times - config.num_times // 8
    return [
        f"SELECT SOIL FROM IparsData WHERE TIME>{lo} AND TIME<{hi} AND ({b})",
        f"SELECT SOIL FROM IparsData WHERE {b}",
        f"SELECT SOIL FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) < 45 AND ({b})",
    ]


def titan_bands(config) -> List[str]:
    """fig7 shapes: selected frames, bare bands, distance threshold."""
    b = bands("S1")
    frames = config.chunks_t * 10
    steps = sorted(random.Random(20260808).sample(range(frames), frames // 2))
    return [
        f"SELECT TIME, S1 FROM TitanData WHERE TIME IN ({', '.join(map(str, steps))}) "
        f"AND ({b})",
        f"SELECT S1 FROM TitanData WHERE {b}",
        f"SELECT S1 FROM TitanData WHERE DISTANCE(X, Y, Z) < 5000 AND ({b})",
    ]


def windows(config, count: int = 12) -> List[str]:
    """One broad range scan, then overlapping narrower windows inside it."""
    select = "SELECT X, Y, SOIL, SGAS FROM IparsData WHERE TIME >="
    lo = max(2, config.num_times // 10)
    span = max(3, (config.num_times - lo) // 3)
    room = max(1, config.num_times - lo - span - 1)
    starts = [lo + 1 + i % room for i in range(count)]
    return [f"{select} {lo}"] + [f"{select} {s} AND TIME <= {s + span}" for s in starts]


def aggregates(config) -> List[str]:
    """Full-scan COUNT+SUM first; predicate-free COUNT(*) last.

    The full scan sums an integer: a float ``SUM`` over every row
    differs in its last bit between node partials and one fold at the
    coordinator, so the two sides could not be bit-identical.
    """
    quarter = config.num_times // 4
    return [
        "SELECT COUNT(*), SUM(TIME), MAX(SOIL) FROM IparsData",
        "SELECT REL, COUNT(*), SUM(SOIL), AVG(SOIL) FROM IparsData GROUP BY REL",
        f"SELECT REL, MIN(SOIL), MAX(SOIL) FROM IparsData "
        f"WHERE TIME > {quarter} AND TIME <= {3 * quarter} GROUP BY REL",
        "SELECT COUNT(*) FROM IparsData",
    ]


def fixed(*sql: str) -> Callable[[object], List[str]]:
    return lambda config: list(sql)


# -- rows ---------------------------------------------------------------------


def same(counter: str) -> Bar:
    return (f"same {counter}",
            lambda b, v: getattr(b.stats, counter) == getattr(v.stats, counter))


def cut(counter: str, factor: int) -> Bar:
    return (f"{counter} at least {factor}x fewer", lambda b, v:
            getattr(v.stats, counter) * factor <= getattr(b.stats, counter))


CHUNK_CAP_BARS = (
    same("bytes_read"),
    ("more read_calls", lambda b, v: v.stats.read_calls > b.stats.read_calls),
    same("seeks"),
)
#: Plan memoisation on and a 0-byte result cache in both modes: every
#: pass still extracts and filters, but plans identically.
BANDS = LOCAL.replace(
    cache_mode="exact", result_cache_bytes=0, plan_cache_entries=64,
    vectorize="off",
)
VECTORIZE_BARS = (
    ("every query returns rows", lambda b, v: all(a.rows for a in b.answers)),
    ("no result-cache hits",
     lambda b, v: b.stats.result_cache_hits == v.stats.result_cache_hits == 0),
    ("off vectorizes no row", lambda b, v: b.stats.rows_vectorized == 0),
    ("on vectorizes every extracted row",
     lambda b, v: v.stats.rows_vectorized == v.stats.rows_extracted),
)
CACHE_COUNTERS = ("result_cache_hits", "subsumption_hits", "cache_saved_bytes",
                  "rows_refiltered")
FULL_SCAN = fixed("SELECT * FROM IparsData")
EARLY = fixed("SELECT * FROM IparsData WHERE TIME <= 20")
S1_SCAN = fixed("SELECT X, S1 FROM TitanData WHERE S1 < 0.3")
NO_SEGMENTS = Side(service={"segment_cache_bytes": 0})
NO_COALESCE = Side(options=LOCAL.replace(coalesce_gap_bytes=0))
#: One read per chunk: every reopen and every chunk boundary shows.
RAW = NO_COALESCE.vary("segment_cache_bytes", 0)

ROWS = (
    Row("coalescing", "ipars", FULL_SCAN, NO_COALESCE, "coalesce_gap_bytes", 64 << 10, (
        ("reads coalesced", lambda b, v: v.stats.reads_coalesced > 0),
        cut("read_calls", 2),
        ("fewer seeks", lambda b, v: v.stats.seeks < b.stats.seeks),
        ("bytes_read under 2x",
         lambda b, v: v.stats.bytes_read < 2 * b.stats.bytes_read),
    )),
    # Read counters too: a chunk the workers' AFCs share (L0's COORDS)
    # is read once, its other misses waiting for that read.
    Row("intra_node_workers", "ipars-1node", FULL_SCAN, NO_COALESCE,
        "intra_node_workers", 4, (same("rows_extracted"), same("afcs_processed"),
                                  same("chunks_read"), same("read_calls"),
                                  same("bytes_read"))),
    Row("segment_cache", "ipars", EARLY, RAW, "segment_cache_bytes", 32 << 20, (
        ("segment cache hits only when on",
         lambda b, v: b.stats.cache_hits == 0 < v.stats.cache_hits),
        ("fewer bytes_read", lambda b, v: v.stats.bytes_read < b.stats.bytes_read),
    )),
    Row("handle_cache", "ipars", EARLY, RAW, "handle_cache", 4, (
        ("more than 10x files_opened",
         lambda b, v: v.stats.files_opened > 10 * b.stats.files_opened),
        same("bytes_read"),
    )),
    Row("chunk_row_cap_100", "titan", S1_SCAN, RAW, "chunk_row_cap", 100,
        CHUNK_CAP_BARS),
    Row("chunk_row_cap_10", "titan", S1_SCAN, RAW.vary("chunk_row_cap", 100),
        "chunk_row_cap", 10, CHUNK_CAP_BARS),
    Row("codegen", "ipars",
        fixed("SELECT * FROM IparsData WHERE TIME>10 AND TIME<30 AND REL = 1"),
        Side(dataset={"generated": False}), "generated", True, (
            ("same AFCs row for row",
             lambda b, v: all(list(x) == list(y) for x, y in zip(b.plans, v.plans))),
        )),
    Row("vectorize_fig8", "ipars", ipars_bands,
        Side(dataset={"chunk_row_cap": 32}, options=BANDS), "vectorize", "on",
        VECTORIZE_BARS, repeats=3, floor=5.0),
    Row("vectorize_fig7", "titan", titan_bands,
        Side(dataset={"chunk_row_cap": 32}, options=BANDS), "vectorize", "on",
        VECTORIZE_BARS, repeats=3, floor=5.0),
    Row("cache_mode", "ipars", windows, NO_SEGMENTS, "cache_mode", "subsume", (
        ("off touches no cache counter", lambda b, v: b.cache_stats is None
         and not any(getattr(b.stats, c) for c in CACHE_COUNTERS)),
        ("subsumption hits", lambda b, v: v.stats.subsumption_hits > 0),
        cut("read_calls", 10),
    ), repeats=3, floor=1.0),
    Row("agg_pushdown", "ipars", aggregates,
        Side(options=LOCAL.replace(agg_pushdown=False), processes=True),
        "agg_pushdown", True, (
            ("full-scan COUNT+SUM sends at least 100x fewer bytes",
             lambda b, v: 100 * v.answers[0].stats.bytes_sent
             <= b.answers[0].stats.bytes_sent),
            ("each aggregate sends some bytes, but fewer",
             lambda b, v: all(0 < p.stats.bytes_sent < c.stats.bytes_sent
                              for p, c in zip(v.answers[:3], b.answers[:3]))),
            ("predicate-free COUNT(*) reads 0 bytes on no real node",
             lambda b, v: v.answers[3].nodes == ()
             and v.answers[3].stats.bytes_read == 0),
        )),
)


# -- runner -------------------------------------------------------------------


def digest(table) -> str:
    """Bit-level identity of a table's canonical (sorted) rows."""
    rows = table.canonical().to_structured()
    return hashlib.sha256(repr(rows.dtype).encode() + rows.tobytes()).hexdigest()


@contextlib.contextmanager
def open_service(side: Side, text: str, cluster: VirtualCluster):
    if side.processes:
        with ProcessCluster(text, cluster.root) as procs, procs.connect() as db:
            yield db.service
        return
    knobs = side.settings()
    kind = GeneratedDataset if knobs["generated"] else CompiledDataset
    dataset = kind(text, chunk_row_cap=knobs["chunk_row_cap"])
    service_kwargs = {knob: knobs[knob] for knob in SERVICE_KNOBS}
    with QueryService(dataset, cluster, **service_kwargs) as service:
        yield service


def run_side(side: Side, text: str, cluster, queries: List[str], repeats: int) -> Run:
    answers = []
    with open_service(side, text, cluster) as service:
        for sql in queries * repeats:
            start = time.perf_counter()
            result = service.submit(sql, side.options)
            seconds = time.perf_counter() - start
            answers.append(Answer(
                digest(result.table), result.num_rows, result.total_stats,
                tuple(n for n in result.per_node_stats if not n.startswith("_")),
                result.afc_count, seconds,
            ))
        plans = [service.dataset.plan(sql).afcs for sql in queries]
        return Run(answers, plans, service.cache_stats())


def run_row(row: Row, built, smoke: bool) -> Dict:
    config, text, cluster = built
    queries = row.queries(config)
    base, variant = (
        run_side(side, text, cluster, queries, row.repeats)
        for side in (row.base, row.variant)
    )
    failures = [
        f"tables differ: {sql[:70]}"
        for sql, a, b in zip(queries * row.repeats, base.answers, variant.answers)
        if a.digest != b.digest
    ]
    failures += [check for check, holds in row.bars if not holds(base, variant)]
    speedup = base.seconds / max(variant.seconds, 1e-9)
    if row.floor is not None and not smoke and speedup <= row.floor:
        failures.append(f"wall {speedup:.2f}x, floor {row.floor}x")
    metrics = {
        side: {name: round(fn(run), 4) for name, fn in METRICS.items()}
        for side, run in (("baseline", base), ("variant", variant))
    }
    moved = ", ".join(
        f"{name} {metrics['baseline'][name]:g} -> {metrics['variant'][name]:g}"
        for name in METRICS if name != "client.query_p50_all_ms"
        and metrics["baseline"][name] != metrics["variant"][name]
    )
    print(f"{row.name}: {row.knob} {row.base.settings()[row.knob]} -> {row.value}, "
          f"wall {speedup:.2f}x; {moved or 'no counter moved'}"
          + "".join(f"\n  FAIL {f}" for f in failures))
    return {
        "row": row.name, "dataset": row.data, "knob": row.knob,
        "baseline": row.base.settings()[row.knob], "variant": row.value,
        "queries": queries, "repeats": row.repeats, "speedup": round(speedup, 3),
        "metrics": metrics, "failures": failures,
    }


def build(name: str, smoke: bool, root: str):
    generate, full, small = DATASETS[name]
    config = small if smoke else full
    cluster = VirtualCluster.create(os.path.join(root, name), config.num_nodes)
    return config, generate(config, cluster.mount()), cluster


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="*", metavar="ROW",
                        help="run only these rows (default: every row)")
    parser.add_argument("--smoke", action="store_true",
                        help="small datasets, no wall-clock floors (CI)")
    args = parser.parse_args(argv)
    unknown = set(args.rows) - {row.name for row in ROWS}
    if unknown:
        parser.error(f"unknown row(s): {', '.join(sorted(unknown))}")
    reports, built = [], {}
    with tempfile.TemporaryDirectory(prefix="ablations_") as root:
        for row in ROWS:
            if args.rows and row.name not in args.rows:
                continue
            if row.data not in built:
                built[row.data] = build(row.data, args.smoke, root)
            reports.append(run_row(row, built[row.data], args.smoke))
    path = write_bench_json("BENCH_ablations", {
        "mode": "smoke" if args.smoke else "full", "rows": reports,
    })
    failed = sum(bool(r["failures"]) for r in reports)
    print(f"wrote {path}; {len(reports) - failed}/{len(reports)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
