#!/usr/bin/env python3
"""The performance ledger: one command, every metric, checked results.

    python benchmarks/ledger/run.py                      # all six workloads
    python benchmarks/ledger/run.py --workload scan-tcp  # one of them
    python benchmarks/ledger/run.py --traced --out ledger.json
    python benchmarks/ledger/run.py --smoke              # tiny data, 2 rounds

Prints every metric as ``workload/metric value unit``, checks results
against an independent oracle, and exits non-zero on any mismatch, error,
degraded result or leaked process/thread/port.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of an untraced run (``--trace 0``), the per-layer
metrics of a traced one (``--trace 1``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

#: One malloc arena: by default glibc gives each of the scheduler's worker
#: threads its own, so peak RSS would count how many of them happened to
#: serve a query (162/190/222 MB on one workload) instead of the
#: program's working set (the same to 0.3 MB with one).  Fixed mmap and
#: trim thresholds: left to adapt, glibc serves the 4-9 MB result buffers
#: from fresh mmaps or from the heap depending on the order of earlier
#: frees, so some runs page-fault on every query (315 faults per
#: scan-local query) and others never do; with the heap never trimmed,
#: no run does after warm-up.  Node servers inherit the settings; they
#: must be in place before the interpreter starts, hence the re-exec.
PINNED_ENV = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),  # the largest glibc accepts
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(
    os.environ.get(key) != value for key, value in PINNED_ENV.items()
):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.exit(f"error: the program under test is not at {SRC}/repro")
sys.path[:0] = [SRC, HERE]

import numpy  # noqa: E402

import repro  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
import probes  # noqa: E402
from catalog import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from datacache import cached_dataset, ensure_dataset  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_DATA_DIR = os.path.join(REPO, ".bench_build", "ledger-data")
#: Rounds of ``QueryService.submit`` / traced pipeline in a traced run.
TRACED_ROUNDS = 2
WATCHDOG_SECONDS = 170


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    data_dir: str,
    seconds: Optional[float] = None,
    traced: bool = False,
    smoke: bool = False,
) -> Dict[str, object]:
    """Measure one workload; returns its report (metrics, counts, spans)."""
    workload = WORKLOADS[name]
    if workload.transport == "local":
        # Client, scheduler and both node threads share this process and
        # its GIL.  Left on two cores they run in one of two states, and
        # the kernel's thread placement picks which, for seconds or for
        # a whole run: taking turns (scan-local 10 ms a query, 35 context
        # switches) or waking one another on every GIL release (22-28 ms,
        # 560 switches, 2.5x the CPU).  On one core there is only the
        # first.  The last core, because interrupts land on the first.
        # The tcp workloads stay unpinned: their processes do not share
        # a GIL, and the kernel places them more steadily than we can.
        probes.pin(0, max(os.sched_getaffinity(0)))
    dataset = ensure_dataset(workload.dataset, data_dir, smoke)
    m: Dict[str, float] = {"datagen_s": dataset.datagen_s}
    failures: List[str] = []
    spans: List[Dict[str, object]] = []

    setup = measure.measure_setup(
        workload, dataset,
        1 if smoke else measure.SETUP_REPEATS[workload.transport],
    )
    m["setup_s"] = probes.median(setup["setup"])
    m["net.launch_s"] = probes.median(setup["launch"])
    m["net.connect_ms"] = probes.median(setup["connect"]) * 1e3
    m["client.first_query_ms"] = probes.median(setup["first"]) * 1e3

    rounds = 2 if smoke else workload.rounds
    if seconds is not None:
        rounds = measure.MIN_TIMED_ROUNDS
        if traced:
            seconds /= 2.0  # the other half goes to the traced phases
    elif traced and not smoke:
        rounds = max(measure.MIN_TIMED_ROUNDS, rounds // 3)

    oracle = measure.Oracle(workload)
    session = measure.Session(workload, dataset)
    try:
        client = session.open().client
        # Warm-up: caches fill and lazy set-up finishes; round 0 feeds the
        # oracle, the last one yields the per-query counts.
        first = measure.run_rounds(
            client, workload, seed, smoke, 0, 1, oracle=oracle
        )
        warm = measure.run_rounds(
            client, workload, seed, smoke, first.next_round, 1, counts=True
        )
        timed = measure.run_rounds(
            client, workload, seed, smoke, warm.next_round, rounds, seconds
        )
        m["peak_rss_mb"] = measure.peak_rss_mb()
        blocks = (first, warm, timed)
        attempted = sum(b.attempted for b in blocks)
        failed = sum(b.failed for b in blocks)
        m.update(end_to_end_metrics(timed))
        m.update(count_metrics(warm, client))
        if traced:
            extra, spans, bad = traced_phases(
                session, workload, seed, smoke, timed, oracle
            )
            m.update(extra)
            failures += bad
    finally:
        session.close()

    mismatches = oracle.verify(dataset)
    attempted += len(oracle.seen)
    failures += [f"oracle mismatch: {sql}" for sql in mismatches]
    failures += measure.hygiene_violations(session.addresses)
    failed += len(failures)
    return {
        "workload": name,
        "why": workload.why,
        "samples": timed.samples,
        "rounds": len(timed.round_walls),
        "queries_per_round": timed.k,
        # How disturbed the run was: every timed round, in order.
        "round_p50_ms": [s * 1e3 for s in timed.round_p50s],
        "round_wall_s": timed.round_walls,
        "round_cpu_s": timed.round_cpus,
        "oracle_checked": len(oracle.seen),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "dataset": dataset.manifest,
        "metrics": m,
        "spans": spans,
    }


def end_to_end_metrics(timed: measure.Rounds) -> Dict[str, float]:
    """The three gated timings are those of the run's quietest round.

    This guest shares its host, and for seconds to minutes at a time
    everything on it runs 20-30 % slower (CPU time rises with the wall
    time; nothing in the guest competes).  Such an episode only ever
    adds time: it moves a run's median as soon as it covers half the
    run, and the best round only when it covers all of it.  A change to
    the program moves every round, the best one with them.  The tail
    and the rates beside them are over every timed sample.
    """
    lat_ms = [s * 1e3 for s in timed.latencies]
    wall = sum(timed.round_walls)
    n = max(1, timed.samples)
    return {
        "query_p50_ms": min(timed.round_p50s) * 1e3,
        "queries_per_s": timed.k / min(timed.round_walls),
        "cpu_ms_per_query": min(timed.round_cpus) * 1e3 / timed.k,
        "client.query_p50_all_ms": probes.median(lat_ms),
        "client.query_p90_ms": probes.percentile(lat_ms, 90),
        "client.query_p99_ms": probes.percentile(lat_ms, 99),
        "client.rows_per_s": timed.rows / wall,
        "client.result_mb_per_s": timed.result_bytes / 1e6 / wall,
        "cost.sim_over_wall": probes.median(timed.sim_over_wall),
        "net.server_cpu_ms_per_query": timed.server_cpu * 1e3 / n,
        "net.client_cpu_ms_per_query": timed.client_cpu * 1e3 / n,
    }


def count_metrics(warm: measure.Rounds, client) -> Dict[str, float]:
    """Per-query means of one untimed round's counters; with one client
    and no timers they repeat exactly from run to run."""
    k = max(1, warm.k)
    s = warm.stats
    dataset = client.service.dataset
    total_afcs = len(dataset.index({}))
    rows_in = s.rows_extracted + s.rows_refiltered
    return {
        "planner.afcs_per_query": warm.afcs / k,
        "index.afcs_pruned_frac": 1.0 - warm.afcs / k / max(1, total_afcs),
        "extractor.bytes_read": s.bytes_read / k,
        "extractor.read_calls": s.read_calls / k,
        "extractor.reads_coalesced": s.reads_coalesced / k,
        "extractor.readahead_waste_frac": (
            s.readahead_waste_bytes / s.bytes_read if s.bytes_read else 0.0
        ),
        "extractor.segment_hit_ratio": (
            s.cache_hits / s.chunks_read if s.chunks_read else 0.0
        ),
        "extractor.rows_extracted": s.rows_extracted / k,
        "kernels.rows_in": rows_in / k,
        "kernels.selectivity": s.rows_output / rows_in if rows_in else 0.0,
        "kernels.rows_vectorized": s.rows_vectorized / k,
        "aggregate.groups": s.groups_emitted / k,
        "aggregate.rows_aggregated": s.rows_aggregated / k,
        "cache.hit_ratio": s.result_cache_hits / k,
        "cache.subsume_ratio": s.subsumption_hits / k,
        "cache.evictions": warm.evictions / k,
        "cache.rows_refiltered": s.rows_refiltered / k,
        "cache.saved_bytes": s.cache_saved_bytes / k,
        "mover.bytes_sent": warm.transfer_bytes / k,
    }


def traced_phases(session, workload, seed, smoke, timed, oracle):
    """The separate traced run: ``(metrics, spans, failures)``."""
    client = session.client
    rnd = timed.next_round
    m: Dict[str, float] = {}

    # The scheduler hop: the same list through QueryService.submit,
    # bypassing Client.submit's scheduler, and through Client.schedule
    # for the queue wait the scheduler itself reports.
    direct = measure.run_rounds(
        client, workload, seed, smoke, rnd, TRACED_ROUNDS,
        submit=lambda sql: client.service.submit(sql, client.options),
    )
    rnd = direct.next_round
    waits: List[float] = []

    def scheduled(sql):
        handle = client.schedule(sql)
        result = handle.result()
        waits.append(handle.wait_seconds * 1e3)
        return result

    queued = measure.run_rounds(
        client, workload, seed, smoke, rnd, 1, submit=scheduled
    )
    rnd = queued.next_round
    submit_p50 = probes.median([s * 1e3 for s in direct.latencies])
    m["query_service.submit_ms"] = submit_p50
    m["sched.overhead_ms"] = (
        probes.median([s * 1e3 for s in timed.latencies]) - submit_p50
    )
    m["sched.wait_ms"] = probes.median(waits)

    log = layers.SpanLog()
    local = None
    failures = ["a submit of the traced run failed"] * (
        direct.failed + queued.failed
    )
    try:
        if workload.transport == "tcp":
            local = repro.connect(
                f"local://{session.dataset.root}", session.dataset.descriptor
            )
        pipeline = layers.Pipeline(client, log, local)
        try:
            def check(sql, table):
                if oracle.differs(sql, table):
                    failures.append(f"traced pipeline differs: {sql}")

            layers.trace_rounds(
                pipeline, workload, seed, smoke, rnd, TRACED_ROUNDS,
                warm=1 if pipeline.cache is not None else 0, check=check,
            )
        finally:
            pipeline.close()
    finally:
        if local is not None:
            local.close()

    m.update(
        layers.layer_metrics(log, workload.transport == "tcp", submit_p50)
    )
    m["net.ping_ms"] = layers.ping_ms(client)
    # The codegen cache goes beside the data root, not inside it.
    m.update(
        layers.setup_stages(
            session.dataset.descriptor, os.path.dirname(session.dataset.root)
        )
    )
    return m, log.spans, failures


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def print_report(report: Dict[str, object]) -> None:
    name = report["workload"]
    metrics = dict(report["metrics"])
    metrics["samples"] = report["samples"]
    order = [n for n, *_ in END_TO_END] + ["samples"] + [
        n for n, *_ in PER_LAYER
    ]
    for metric in order:
        if metric in metrics:
            print(f"{name}/{metric} {metrics[metric]:.6g} {UNITS[metric]}")
    print(f"{name}/ops_attempted {report['attempted']} count")
    print(f"{name}/ops_failed {report['failed']} count")
    for failure in report["failures"]:
        print(f"{name}: FAILED {failure}", file=sys.stderr)


def contract_line(reports: List[Dict[str, object]], traced: bool) -> str:
    """The driver's result object: end-to-end metrics of an untraced
    run, per-layer metrics of a traced one; ``workload/``-prefixed when
    several workloads ran."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = [
        m["name"] for m in spec["per_layer" if traced else "end_to_end"]
    ]
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}/" if len(reports) > 1 else ""
        for name in wanted:
            metrics[prefix + name] = {
                "value": report["metrics"][name], "unit": UNITS[name]
            }
    failed = sum(r["failed"] for r in reports)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    })


def run_in_child(name: str, args, data_dir: str) -> Dict[str, object]:
    """One workload in a fresh interpreter, so no workload inherits
    another's heap, caches or threads."""
    os.makedirs(data_dir, exist_ok=True)
    fd, out = tempfile.mkstemp(prefix="report-", suffix=".json", dir=data_dir)
    os.close(fd)
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--trace", str(int(args.trace)),
        "--data-dir", data_dir, "--out", out,
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))  # the child's own result line is ours
        with open(out) as handle:
            text = handle.read()
        if not text:
            sys.exit(f"error: workload {name} exited {done.returncode}")
        return json.loads(text)["workloads"][0]
    finally:
        os.unlink(out)


def _out_of_time(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_SECONDS} s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all six)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time whole rounds for this long instead of a fixed count",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced run (per-layer metrics)",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny datasets, 2 rounds"
    )
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument(
        "--generate-only", action="store_true",
        help="generate the workloads' datasets into --data-dir and exit",
    )
    parser.add_argument(
        "--data-dir", default=DEFAULT_DATA_DIR,
        help="dataset cache (default: .bench_build/ledger-data in the repo)",
    )
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    data_dir = os.path.abspath(args.data_dir)
    if args.generate_only:
        for name in names:
            ensure_dataset(WORKLOADS[name].dataset, data_dir, args.smoke)
        return 0

    if len(names) == 1:
        dataset = WORKLOADS[names[0]].dataset
        if cached_dataset(dataset, data_dir, args.smoke) is None:
            # Generating allocates (29 MB buffers for titan-1n) and peak
            # RSS survives exec: generate in a child, measure in here.
            subprocess.run(
                [
                    sys.executable, os.path.abspath(__file__), "--workload",
                    names[0], "--data-dir", data_dir, "--generate-only",
                ] + (["--smoke"] if args.smoke else []),
                check=True,
            )
        # The driver allows a run 180 s; one that hangs should fail with a
        # traceback and its node servers torn down, not be killed blind.
        signal.signal(signal.SIGALRM, _out_of_time)
        signal.alarm(WATCHDOG_SECONDS)
        reports = [
            run_workload(
                names[0], args.seed, data_dir, args.seconds,
                bool(args.trace), args.smoke,
            )
        ]
        print_report(reports[0])
    else:
        reports = [run_in_child(name, args, data_dir) for name in names]

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"provenance": provenance(args.seed), "workloads": reports},
                handle, indent=1,
            )
    print(contract_line(reports, bool(args.trace)))
    return 0 if all(r["failed"] == 0 for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
