"""The whole command on tiny data: every metric, well-formed spans."""

import json
import os
import subprocess
import sys
import time

import pytest

from catalog import END_TO_END, PER_LAYER
from conftest import LEDGER, REPO
from workloads import DRIVER_WORKLOADS, WORKLOADS


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_catalogue(benchmark_json):
    spec = benchmark_json
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in spec["workloads"]] == list(DRIVER_WORKLOADS)
    assert set(DRIVER_WORKLOADS) <= set(WORKLOADS)
    for listed in spec["workloads"]:
        assert listed["why"] == WORKLOADS[listed["name"]].why
    # The driver's time limit: 4 + 22 runs per workload within 3420 s,
    # each run_seconds of timed rounds plus up to 9 s of set-up, warm-up,
    # oracle and teardown.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 9) <= 3420
    units = {n: (u, b) for n, u, b, _ in END_TO_END}
    units.update({n: (u, b) for n, u, b in PER_LAYER})
    listed = spec["end_to_end"] + spec["per_layer"]
    # Calibration may demote a metric to per_layer, never drop or add one.
    assert sorted(m["name"] for m in listed) == sorted(units)
    for metric in listed:
        assert (metric["unit"], metric["better"]) == units[metric["name"]]
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("ledger-smoke")
    out = work / "report.json"
    start = time.monotonic()
    done = subprocess.run(
        [
            sys.executable, os.path.join(LEDGER, "run.py"), "--smoke",
            "--traced", "--seed", "3", "--data-dir", str(work / "data"),
            "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return done.stdout.splitlines(), json.load(handle), elapsed


def test_smoke_is_quick_and_emits_every_metric(smoke_run, benchmark_json):
    lines, report, elapsed = smoke_run
    assert elapsed < 20.0
    printed = {line.split()[0] for line in lines[:-1]}
    names = [
        m["name"]
        for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]
    ]
    for workload in WORKLOADS:
        missing = [n for n in names if f"{workload}/{n}" not in printed]
        assert not missing, (workload, missing)
        assert f"{workload}/ops_failed" in printed
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert report["provenance"]["seed"] == 3
    assert {"nproc", "python", "numpy", "commit"} <= set(report["provenance"])
    for entry in report["workloads"]:
        assert entry["failed"] == 0 and entry["oracle_checked"] > 0
        assert entry["samples"] > 0 and entry["dataset"]["datagen_s"] > 0


def test_span_file_is_well_formed(smoke_run):
    _, report, _ = smoke_run
    for entry in report["workloads"]:
        spans = {s["id"]: s for s in entry["spans"]}
        assert spans, entry["workload"]
        roots = [s for s in spans.values() if s["parent"] is None]
        assert roots and all(s["name"] == "query" for s in roots)
        for span in spans.values():
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["qid"] == span["qid"]
                if span["path"]:  # on-path spans nest inside their parent
                    assert parent["start"] <= span["start"]
                    assert span["end"] <= parent["end"]


def test_single_workload_result_lines(tmp_path, benchmark_json):
    """The driver's calling convention: one workload, --seconds, --trace."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [
                sys.executable, os.path.join(LEDGER, "run.py"), "--smoke",
                "--workload", "point-local", "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--data-dir", str(tmp_path),
            ],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert sorted(result["metrics"]) == sorted(
            m["name"] for m in benchmark_json[key]
        )
        assert all(
            isinstance(m["value"], (int, float)) and m["unit"]
            for m in result["metrics"].values()
        )
