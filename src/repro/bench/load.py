"""Closed-loop load generation: sustained concurrency, latency percentiles.

The figure benchmarks run one query at a time; a server's latency
story only appears under *sustained concurrent* load.  This module
generates it: each tenant runs ``clients`` closed-loop client threads
(a client submits, waits for the result, submits again — classic
closed-loop arrival), every query's wall latency is recorded, and the
report carries p50/p99 latency, throughput, queue waits, and a
starvation ratio per tenant.

Workloads come from :mod:`repro.bench.workloads` (deterministic seeded
IPARS/Titan/MRI mixes) or any explicit query list; scheduling choices
come from each tenant's :class:`~repro.core.options.ExecOptions`, so the
same harness measures fair-share scheduling and its ``scheduler="off"``
ablation.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.options import ExecOptions
from ..errors import (
    AdmissionError,
    QueryCancelledError,
    QuotaExceededError,
    ReproError,
)
from .harness import results_dir


def percentile(values: List[float], q: float) -> float:
    """The q-th percentile (0..100) by nearest-rank; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class TenantSpec:
    """One tenant class of a load mix."""

    name: str
    queries: List[str]
    clients: int = 1
    queries_per_client: int = 10
    priority: int = 0
    #: Base options for this tenant's submissions; ``tenant`` and
    #: ``priority`` are overridden from this spec.
    options: Optional[ExecOptions] = None


@dataclass
class TenantReport:
    """Latency/throughput outcome of one tenant class."""

    name: str
    priority: int
    completed: int = 0
    rejected: int = 0
    cancelled: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 99)

    @property
    def mean(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def starvation_ratio(self) -> float:
        """Tail blow-up within the class: p99 / p50 (1.0 = no tail).

        Under a fair scheduler every query of a class waits about the
        same; starvation shows up as a tail that is many times the
        median.
        """
        p50 = self.p50
        return self.p99 / p50 if p50 > 0 else 0.0

    def as_dict(self, duration: float) -> Dict:
        return {
            "priority": self.priority,
            "completed": self.completed,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "p50_ms": round(self.p50 * 1000, 3),
            "p99_ms": round(self.p99 * 1000, 3),
            "mean_ms": round(self.mean * 1000, 3),
            "throughput_qps": round(
                self.completed / duration if duration > 0 else 0.0, 3
            ),
            "wait_p50_ms": round(percentile(self.waits, 50) * 1000, 3),
            "wait_p99_ms": round(percentile(self.waits, 99) * 1000, 3),
            "starvation_ratio": round(self.starvation_ratio, 3),
        }


@dataclass
class LoadReport:
    """Everything one closed-loop run measured."""

    duration_seconds: float
    tenants: Dict[str, TenantReport]
    threads_before: int
    threads_peak: int
    threads_after: int

    def as_dict(self) -> Dict:
        return {
            "duration_seconds": round(self.duration_seconds, 3),
            "tenants": {
                name: report.as_dict(self.duration_seconds)
                for name, report in sorted(self.tenants.items())
            },
            "threads": {
                "before": self.threads_before,
                "peak": self.threads_peak,
                "after": self.threads_after,
            },
        }


def run_closed_loop(
    scheduler,
    tenants: List[TenantSpec],
    base_options: Optional[ExecOptions] = None,
) -> LoadReport:
    """Drive a tenant mix through a scheduler with closed-loop clients.

    ``scheduler`` is a :class:`repro.sched.Scheduler`; the ablation is
    expressed in the options (``scheduler="off"`` runs each submission
    inline on its client thread — unscheduled concurrency).  Client k
    of a tenant starts at query offset ``k * queries_per_client`` into
    the tenant's cycle, so a (spec, seed) pair always replays the same
    per-client streams.
    """
    base = base_options if base_options is not None else ExecOptions()
    reports = {
        spec.name: TenantReport(spec.name, spec.priority) for spec in tenants
    }
    lock = threading.Lock()
    peak = [threading.active_count()]
    stop_sampler = threading.Event()

    def sampler() -> None:
        while not stop_sampler.wait(0.02):
            count = threading.active_count()
            if count > peak[0]:
                peak[0] = count

    def client_loop(spec: TenantSpec, offset: int) -> None:
        opts = (spec.options or base).replace(
            tenant=spec.name, priority=spec.priority
        )
        report = reports[spec.name]
        for i in range(spec.queries_per_client):
            sql = spec.queries[(offset + i) % len(spec.queries)]
            started = time.perf_counter()
            try:
                handle = scheduler.submit(sql, opts)
                handle.result()
            except AdmissionError:
                with lock:
                    report.rejected += 1
                continue
            except QueryCancelledError:
                with lock:
                    report.cancelled += 1
                continue
            except (QuotaExceededError, ReproError):
                with lock:
                    report.failed += 1
                continue
            latency = time.perf_counter() - started
            with lock:
                report.completed += 1
                report.latencies.append(latency)
                wait = handle.wait_seconds
                if wait is not None:
                    report.waits.append(wait)

    threads_before = threading.active_count()
    workers = [
        threading.Thread(
            target=client_loop,
            args=(spec, k * spec.queries_per_client),
            name=f"load-{spec.name}-{k}",
        )
        for spec in tenants
        for k in range(spec.clients)
    ]
    sampler_thread = threading.Thread(target=sampler, name="load-sampler")
    started = time.perf_counter()
    sampler_thread.start()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    duration = time.perf_counter() - started
    stop_sampler.set()
    sampler_thread.join()
    return LoadReport(
        duration_seconds=duration,
        tenants=reports,
        threads_before=threads_before,
        threads_peak=peak[0],
        threads_after=threading.active_count(),
    )


def write_bench_json(name: str, payload: Dict) -> str:
    """Persist a benchmark payload under ``results_dir()``; returns path."""
    path = os.path.join(results_dir(), f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
