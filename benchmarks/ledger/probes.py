"""Order statistics and ``/proc`` readers the ledger measures with.

Processes are observed from outside, through ``/proc`` and ``getrusage``:
the program under test is not asked how much CPU or memory it used.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
from typing import List, Sequence

_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p`` %
    of the sample at or below it (``p`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def pin(pid: int, cpu: int) -> None:
    """Confine every thread of process ``pid`` (0: this one) to ``cpu``;
    threads and children started afterwards inherit it."""
    for tid in os.listdir(f"/proc/{pid or os.getpid()}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended between listdir and here


def child_pids() -> List[int]:
    """Live direct children of this process (the node servers)."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # raced with an exit
        # After "pid (comm)": state ppid ...; zombies are already dead.
        if int(fields[1]) == me and fields[0] != "Z":
            out.append(int(entry))
    return sorted(out)


def cpu_seconds(pid: int) -> float:
    """utime + stime of another process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"/proc/{pid}/status has no VmHWM")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def extra_threads() -> List[str]:
    """Names of live threads other than the main one."""
    return [
        t.name for t in threading.enumerate()
        if t is not threading.main_thread() and t.is_alive()
    ]
