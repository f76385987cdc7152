"""Run one workload end to end: set-up, warm-up, timed rounds, oracle.

The yardstick is ``Client.submit`` on a client a user would get from
``repro.connect(url, descriptor)`` — default ``ExecOptions`` except what
the workload names — driven by one closed-loop thread.  Everything a
timed run reports is measured from outside the program: wall clocks
around ``submit``, CPU and peak memory from ``getrusage`` and ``/proc``.
"""

from __future__ import annotations

import atexit
import hashlib
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import CompiledDataset, ExecOptions, QueryService, VirtualCluster
from repro.core.stats import IOStats
from repro.errors import ReproError
from repro.net.procs import ProcessCluster
from repro.storm.query_service import TRANSFER_NODE

import probes
from datacache import Dataset
from workloads import DATASETS, WARMUP_QUERY, Workload

#: Timed rounds a ``--seconds`` run completes whatever the clock says.
MIN_TIMED_ROUNDS = 3
#: Distinct queries of the first warm-up round checked against the oracle.
ORACLE_QUERIES = 10
#: Set-up repeats; a local set-up is ~30 ms, a cluster launch ~1 s.
SETUP_REPEATS = {"local": 21, "tcp": 3}

#: The independent reference: interpreted planning, interpreted filter,
#: no cache, coordinator-side aggregation, no mover.
REFERENCE_OPTIONS = ExecOptions(
    vectorize="off", cache_mode="off", agg_pushdown=False, remote=False
)


# ---------------------------------------------------------------------------
# Sessions: a (cluster, client) pair torn down on every exit path
# ---------------------------------------------------------------------------

_OPEN: List["Session"] = []


def _close_all() -> None:
    for session in list(_OPEN):
        session.close()


atexit.register(_close_all)


class Session:
    """One connected endpoint as a user sets it up; ``close`` undoes it."""

    def __init__(self, workload: Workload, dataset: Dataset):
        self.workload = workload
        self.dataset = dataset
        self.cluster: Optional[ProcessCluster] = None
        self.client: Optional[repro.Client] = None
        self.addresses: List[Tuple[str, int]] = []
        #: launch / connect / first-result seconds of this set-up.
        self.timing: Dict[str, float] = {}

    def open(self) -> "Session":
        _OPEN.append(self)
        options = dict(self.workload.options)
        table = DATASETS[self.workload.dataset].table
        t0 = time.perf_counter()
        if self.workload.transport == "tcp":
            self.cluster = ProcessCluster(
                self.dataset.descriptor, self.dataset.root
            ).launch()
            self.addresses = list(self.cluster.addresses.values())
            target: object = self.cluster
        else:
            target = f"local://{self.dataset.root}"
        t1 = time.perf_counter()
        self.client = repro.connect(target, self.dataset.descriptor, **options)
        t2 = time.perf_counter()
        self.client.submit(WARMUP_QUERY[table])
        t3 = time.perf_counter()
        self.timing = {"launch": t1 - t0, "connect": t2 - t1, "first": t3 - t2}
        return self

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            self.client = None
            try:
                if self.cluster is not None:
                    # SIGTERM, then SIGKILL after ProcessCluster's grace.
                    self.cluster.terminate()
            finally:
                self.cluster = None
                if self in _OPEN:
                    _OPEN.remove(self)

    def __enter__(self) -> "Session":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()


def measure_setup(
    workload: Workload, dataset: Dataset, repeats: int
) -> Dict[str, List[float]]:
    """Repeat launch -> connect -> first result -> close; seconds each."""
    out: Dict[str, List[float]] = {
        "setup": [], "launch": [], "connect": [], "first": []
    }
    for _ in range(repeats):
        start = time.perf_counter()
        with Session(workload, dataset) as session:
            timing = session.timing
        out["setup"].append(time.perf_counter() - start)
        for name in ("launch", "connect", "first"):
            out[name].append(timing[name])
    return out


def hygiene_violations(addresses: List[Tuple[str, int]]) -> List[str]:
    """What survived a workload that should not have: children, threads,
    listening ports.  Stragglers get a short grace to finish exiting."""
    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline and (
        probes.child_pids() or probes.extra_threads()
    ):
        time.sleep(0.05)
    problems = [f"child process {pid} alive" for pid in probes.child_pids()]
    problems += [f"thread {name!r} alive" for name in probes.extra_threads()]
    for host, port in addresses:
        with socket.socket() as sock:
            sock.settimeout(0.5)
            if sock.connect_ex((host, port)) == 0:
                problems.append(f"port {host}:{port} still listening")
    return problems


# ---------------------------------------------------------------------------
# Correctness oracle
# ---------------------------------------------------------------------------


def fingerprint(table) -> str:
    """Digest of a table's canonical (row-sorted) form: equal digests
    mean bit-identical multisets of rows with identical column dtypes."""
    canon = table.canonical()
    digest = hashlib.sha256()
    for name in canon.column_names:
        column = np.ascontiguousarray(canon.column(name))
        digest.update(f"{name}:{column.dtype.str}:{len(column)};".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def tables_close(a, b) -> bool:
    """Aggregate comparison: float64 sums/averages within 1e-9 relative
    (the reference adds in another order); every other column exact."""
    a, b = a.canonical(), b.canonical()
    if a.column_names != b.column_names or a.num_rows != b.num_rows:
        return False
    for name in a.column_names:
        x, y = a.column(name), b.column(name)
        if x.dtype != y.dtype:
            return False
        if x.dtype == np.float64:
            if not np.allclose(x, y, rtol=1e-9, atol=0.0, equal_nan=True):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


class Oracle:
    """Remembers the first results of a run; verifies them afterwards.

    Row results are kept as digests (a 4 MB table per query would show in
    ``peak_rss_mb``); the tiny aggregate tables are kept whole because
    they compare within a tolerance.  Verification runs after the timed
    rounds and after peak memory was read, so the reference's own
    allocations never count against the program.
    """

    def __init__(self, workload: Workload, limit: int = ORACLE_QUERIES):
        self.exact = workload.exact_oracle
        self.limit = limit
        self.seen: Dict[str, object] = {}

    def record(self, sql: str, table) -> None:
        if sql in self.seen or len(self.seen) >= self.limit:
            return
        self.seen[sql] = fingerprint(table) if self.exact else table

    def differs(self, sql: str, table) -> bool:
        """True when ``sql`` was recorded and ``table`` is not its result."""
        seen = self.seen.get(sql)
        if seen is None:
            return False
        if self.exact:
            return seen != fingerprint(table)
        return not tables_close(seen, table)

    def verify(self, dataset: Dataset) -> List[str]:
        """SQL texts whose recorded result differs from the reference."""
        compiled = CompiledDataset(dataset.descriptor)
        cluster = VirtualCluster.for_storage(
            dataset.root, compiled.descriptor.storage
        )
        with QueryService(compiled, cluster) as reference:
            return [
                sql for sql in self.seen
                if self.differs(
                    sql, reference.submit(sql, REFERENCE_OPTIONS).table
                )
            ]


# ---------------------------------------------------------------------------
# Timed rounds
# ---------------------------------------------------------------------------


@dataclass
class Rounds:
    """What a block of closed-loop rounds observed."""

    k: int = 0
    latencies: List[float] = field(default_factory=list)  # seconds
    #: Per round: wall seconds, median latency (seconds), client + node
    #: server CPU seconds.
    round_walls: List[float] = field(default_factory=list)
    round_p50s: List[float] = field(default_factory=list)
    round_cpus: List[float] = field(default_factory=list)
    rows: int = 0
    result_bytes: int = 0
    sim_over_wall: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    client_cpu: float = 0.0
    server_cpu: float = 0.0
    #: Summed per-node counters and cache evictions of the *last* round.
    stats: IOStats = field(default_factory=IOStats)
    transfer_bytes: int = 0
    afcs: int = 0
    evictions: int = 0
    next_round: int = 0

    @property
    def samples(self) -> int:
        return len(self.latencies)


def _evictions(client) -> int:
    stats = client.cache_stats()
    return stats["result"]["evictions"] if stats else 0


def run_rounds(
    client,
    workload: Workload,
    seed: int,
    smoke: bool,
    first_round: int,
    rounds: int,
    seconds: Optional[float] = None,
    oracle: Optional[Oracle] = None,
    submit=None,
    counts: bool = False,
) -> Rounds:
    """Closed loop, one thread: ``rounds`` rounds of the workload's list,
    or — with ``seconds`` — whole rounds until that much time has passed
    (at least ``rounds``).  ``submit`` defaults to ``client.submit``.
    ``counts`` also sums the results' per-node counters (untimed rounds
    only: the bookkeeping would sit inside the round wall)."""
    submit = submit or client.submit
    out = Rounds()
    servers = probes.child_pids()

    def cpu_now() -> Tuple[float, float]:
        return (
            time.process_time(),
            sum(probes.cpu_seconds(pid) for pid in servers),
        )

    rnd = first_round
    begin = time.perf_counter()
    while True:
        queries = workload.queries(seed, rnd, smoke)
        out.k = len(queries)
        out.stats = IOStats()
        out.transfer_bytes = out.afcs = 0
        evictions0 = _evictions(client) if counts else 0
        answered = len(out.latencies)
        cpu_before = cpu_now()
        round_start = time.perf_counter()
        for sql in queries:
            out.attempted += 1
            start = time.perf_counter()
            try:
                result = submit(sql)
            except ReproError:
                out.failed += 1
                continue
            wall = time.perf_counter() - start
            out.latencies.append(wall)
            if result.degraded:
                out.failed += 1
            out.rows += result.num_rows
            out.result_bytes += result.table.nbytes
            out.sim_over_wall.append(result.simulated_seconds / wall)
            if counts:
                out.stats.merge(result.total_stats)
                transfer = result.per_node_stats.get(TRANSFER_NODE)
                if transfer is not None:
                    out.transfer_bytes += transfer.bytes_sent
                out.afcs += result.afc_count
            if oracle is not None:
                oracle.record(sql, result.table)
        out.round_walls.append(time.perf_counter() - round_start)
        cpu_after = cpu_now()
        out.client_cpu += cpu_after[0] - cpu_before[0]
        out.server_cpu += cpu_after[1] - cpu_before[1]
        out.round_cpus.append(sum(cpu_after) - sum(cpu_before))
        if len(out.latencies) > answered:
            out.round_p50s.append(probes.median(out.latencies[answered:]))
        if counts:
            out.evictions = _evictions(client) - evictions0
        rnd += 1
        done = len(out.round_walls)
        if done >= rounds and (
            seconds is None or time.perf_counter() - begin >= seconds
        ):
            break
    out.next_round = rnd
    return out


def peak_rss_mb() -> float:
    """Client peak RSS plus every node server's, read before teardown."""
    return probes.self_peak_rss_mb() + sum(
        probes.peak_rss_mb(pid) for pid in probes.child_pids()
    )
