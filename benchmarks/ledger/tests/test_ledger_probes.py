"""Order statistics and /proc readers."""

import os
import subprocess
import sys

import pytest

import probes


def test_nearest_rank_percentile():
    values = [15, 20, 35, 40, 50]
    assert probes.percentile(values, 5) == 15
    assert probes.percentile(values, 30) == 20
    assert probes.percentile(values, 40) == 20
    assert probes.percentile(values, 50) == 35
    assert probes.percentile(values, 100) == 50
    assert probes.percentile([7], 99) == 7
    # It is always a member of the sample, never interpolated.
    assert probes.percentile([1.0, 2.0], 50) == 1.0
    with pytest.raises(ValueError):
        probes.percentile([], 50)


def test_gated_timings_are_those_of_the_best_round():
    import measure
    import run

    def rounds(walls):
        # Two queries a round, each half the round; CPU equals wall.
        return measure.Rounds(
            k=2,
            latencies=[w / 2 for w in walls for _ in range(2)],
            round_walls=list(walls),
            round_p50s=[w / 2 for w in walls],
            round_cpus=list(walls),
            rows=1, result_bytes=1, sim_over_wall=[1.0],
        )

    quiet = run.end_to_end_metrics(rounds([1.0, 1.0, 1.0, 1.0]))
    # A host episode over three rounds in four moves the all-sample
    # median, not the gated timings ...
    episode = run.end_to_end_metrics(rounds([1.3, 1.4, 1.0, 1.3]))
    for name in ("query_p50_ms", "queries_per_s", "cpu_ms_per_query"):
        assert episode[name] == quiet[name]
    assert (episode["query_p50_ms"], episode["queries_per_s"]) == (500.0, 2.0)
    assert episode["client.query_p50_all_ms"] == 650.0
    # ... and a slower program moves every round, so them too.
    slower = run.end_to_end_metrics(rounds([1.1, 1.1, 1.1, 1.1]))
    assert slower["query_p50_ms"] == pytest.approx(550.0)
    assert slower["cpu_ms_per_query"] == pytest.approx(550.0)


def test_pin_confines_a_process_to_one_cpu():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        cpu = max(os.sched_getaffinity(0))
        probes.pin(child.pid, cpu)
        assert os.sched_getaffinity(child.pid) == {cpu}
    finally:
        child.kill()
        child.wait()


def test_children_are_seen_from_outside_and_gone_after_exit():
    assert probes.child_pids() == []
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert probes.child_pids() == [child.pid]
        assert probes.cpu_seconds(child.pid) >= 0.0
        assert probes.peak_rss_mb(child.pid) > 1.0
    finally:
        child.kill()
        child.wait()
    assert probes.child_pids() == []
    assert probes.self_peak_rss_mb() > 1.0
    assert probes.cpu_seconds(os.getpid()) > 0.0
    assert probes.extra_threads() == []
