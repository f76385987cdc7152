#!/usr/bin/env python3
"""Noise calibration: how far do two sets of runs of the same code differ?

    python benchmarks/ledger/calibrate.py --runs 10 [--write]

Runs two interleaved sets (A1 B1 A2 B2 ...) of ``--runs`` untraced runs of
every workload ``BENCHMARK.json`` lists (or each ``--workload``) — run
``i`` of either set uses seed ``i`` — and prints, per
``workload/metric``: both set medians, each set's interquartile range as a
share of its median (``statistics.quantiles(values, n=4)``, the spread the
driver's acceptance check uses) and how much worse set B's median is than
set A's.  ``--write`` stores the bounds in ``BENCHMARK.json``: per metric,
over the workloads, max(catalogue default, 2 x the largest set-to-set
difference, 3 x the largest spread), capped at the 0.25 a bound may be at
most.  A metric whose spread alone exceeds that cap cannot be gated at
all: it is moved from ``end_to_end`` to ``per_layer`` — still reported —
and named on stderr so the reason can go in the README; bounds are never
silently widened.  ``setup_s`` has to stay gated whatever its spread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(REPO, "src"), HERE]

from catalog import END_TO_END  # noqa: E402
from workloads import DRIVER_WORKLOADS, WORKLOADS  # noqa: E402

BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")
#: The largest bound ``BENCHMARK.json`` may state.
MAX_BOUND = 0.25


def one_run(workload: str, seed: int, seconds: float, data_dir: str):
    """One untraced run; its end-to-end metric values by name."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if data_dir:
        command += ["--data-dir", data_dir]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def calibrate(workloads: List[str], runs: int, seconds: float, data_dir: str):
    """``{workload: {metric: {"a": [...], "b": [...]}}}``, interleaved."""
    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        w: {name: {"a": [], "b": []} for name, *_ in END_TO_END}
        for w in workloads
    }
    for i in range(runs):
        for which in ("a", "b"):
            for workload in workloads:
                values = one_run(workload, i + 1, seconds, data_dir)
                for name, value in values.items():
                    if name in samples[workload]:
                        samples[workload][name][which].append(value)
                print(f"  run {i + 1}{which} {workload} done", file=sys.stderr)
    return samples


def report(samples):
    """Print the table; returns ``(needed bound, largest spread)`` per
    metric, over the workloads."""
    needed = {name: default for name, _, _, default in END_TO_END}
    widest = {name: 0.0 for name in needed}
    print(
        f"{'workload/metric':<32}{'median A':>12}{'median B':>12}"
        f"{'iqr A':>8}{'iqr B':>8}{'B worse':>9}"
    )
    for workload, metrics in samples.items():
        for name, _, better, _ in END_TO_END:
            a, b = metrics[name]["a"], metrics[name]["b"]
            med_a, med_b = statistics.median(a), statistics.median(b)
            iqr_a, iqr_b = spread(a), spread(b)
            diff = worse_by(med_a, med_b, better)
            print(
                f"{workload + '/' + name:<32}{med_a:>12.5g}{med_b:>12.5g}"
                f"{iqr_a:>8.3f}{iqr_b:>8.3f}{diff:>+9.3f}"
            )
            widest[name] = max(widest[name], iqr_a, iqr_b)
            needed[name] = max(needed[name], 2 * abs(diff), 3 * widest[name])
    return needed, widest


def write_bounds(needed: Dict[str, float], widest: Dict[str, float]) -> None:
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    gated = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if widest.get(name, 0.0) > MAX_BOUND and name != "setup_s":
            print(
                f"DEMOTED {name}: its spread {widest[name]:.2f} exceeds the "
                f"largest bound {MAX_BOUND}; now reported per layer, not "
                "gated — record why in README.md",
                file=sys.stderr,
            )
            spec["per_layer"].append(
                {k: metric[k] for k in ("name", "unit", "better")}
            )
            continue
        bound = min(MAX_BOUND, needed.get(name, metric["bound"]))
        gated.append({**metric, "bound": math.ceil(bound * 100) / 100})
    spec["end_to_end"] = gated
    with open(BENCHMARK_JSON, "w") as handle:
        json.dump(spec, handle, indent=2)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (>= 5)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS)
    )
    parser.add_argument("--data-dir", default="")
    parser.add_argument(
        "--write", action="store_true",
        help="store the calibrated bounds in BENCHMARK.json",
    )
    parser.add_argument("--out", help="also write the raw samples here")
    parser.add_argument(
        "--samples", help="re-read raw samples from this file; run nothing"
    )
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    seconds = args.seconds
    if seconds is None:
        with open(BENCHMARK_JSON) as handle:
            seconds = json.load(handle)["run_seconds"]
    if args.samples:
        with open(args.samples) as handle:
            samples = json.load(handle)
    else:
        samples = calibrate(
            args.workload or list(DRIVER_WORKLOADS), args.runs, seconds,
            args.data_dir,
        )
    needed, widest = report(samples)
    for name, bound in needed.items():
        print(
            f"{name}: largest spread {widest[name]:.3f}, "
            f"bound {min(MAX_BOUND, bound):.3f}"
            + (" (capped)" if bound > MAX_BOUND else "")
        )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(samples, handle, indent=1)
    if args.write:
        write_bounds(needed, widest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
