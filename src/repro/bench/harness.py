"""Benchmark harness: run query series, collect metrics, print figures.

Every benchmark in ``benchmarks/`` reproduces one table or figure of the
paper.  The harness gives them a common vocabulary:

* :func:`measure_storm` / :func:`measure_rowstore` — run one query cold
  (caches dropped) and return a :class:`Measurement` with simulated
  seconds, wall seconds, and the raw operation counts;
* :class:`Series` — a labelled list of measurements (one bar group of a
  figure);
* :func:`print_figure` — render series as the aligned text table the
  paper's figure reports, and persist the numbers as JSON next to the
  benchmarks so EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence

from ..baselines.rowstore import MiniRowStore
from ..core.options import ExecOptions
from ..core.stats import IOStats
from ..obs import Tracer
from ..storm.cost import CostModel, POSTGRES_COST
from ..storm.query_service import QueryService


@dataclass
class Measurement:
    """One query execution's outcome."""

    label: str
    query: str
    rows: int
    simulated_seconds: float
    wall_seconds: float
    bytes_read: int
    bytes_sent: int = 0
    files_opened: int = 0
    seeks: int = 0
    afcs: int = 0
    #: Wall seconds per pipeline stage (plan/index/extract/filter/...),
    #: filled when the measurement ran with tracing on.
    stages: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return asdict(self)


def measure_storm(
    service: QueryService,
    sql: str,
    label: str = "storm",
    remote: bool = False,
    trace: bool = False,
    **submit_kwargs,
) -> Measurement:
    """Run one query cold through the STORM query service.

    With ``trace=True`` the run carries a :class:`Tracer` and the
    measurement's ``stages`` breaks wall time down per pipeline stage.
    """
    service.drop_caches()
    options = ExecOptions(
        remote=remote,
        trace=Tracer() if trace else None,
        **submit_kwargs,
    )
    result = service.submit(sql, options)
    stats = result.total_stats
    return Measurement(
        label=label,
        query=sql,
        rows=result.num_rows,
        simulated_seconds=result.simulated_seconds,
        wall_seconds=result.wall_seconds,
        bytes_read=stats.bytes_read,
        bytes_sent=stats.bytes_sent,
        files_opened=stats.files_opened,
        seeks=stats.seeks,
        afcs=result.afc_count,
        stages=result.trace.stage_seconds() if result.trace else {},
    )


def measure_rowstore(
    store: MiniRowStore,
    sql: str,
    label: str = "postgresql",
    cost_model: CostModel = POSTGRES_COST,
) -> Measurement:
    """Run one query against the row-store baseline."""
    stats = IOStats()
    start = time.perf_counter()
    table = store.query(sql, stats)
    wall = time.perf_counter() - start
    simulated = cost_model.query_overhead + cost_model.node_time(stats)
    return Measurement(
        label=label,
        query=sql,
        rows=table.num_rows,
        simulated_seconds=simulated,
        wall_seconds=wall,
        bytes_read=stats.bytes_read,
        files_opened=stats.files_opened,
        seeks=stats.seeks,
    )


@dataclass
class Series:
    """One labelled series of a figure (e.g. one system across queries)."""

    label: str
    measurements: List[Measurement] = field(default_factory=list)

    def add(self, measurement: Measurement) -> None:
        self.measurements.append(measurement)

    @property
    def simulated(self) -> List[float]:
        return [m.simulated_seconds for m in self.measurements]


def results_dir() -> str:
    """Where figure JSON outputs land (override with REPRO_RESULTS_DIR)."""
    path = os.environ.get("REPRO_RESULTS_DIR")
    if not path:
        path = os.path.join(os.getcwd(), "bench_results")
    os.makedirs(path, exist_ok=True)
    return path


def print_figure(
    figure: str,
    title: str,
    row_labels: Sequence[str],
    series: Sequence[Series],
    notes: Sequence[str] = (),
) -> None:
    """Print a figure as an aligned table and persist it as JSON."""
    width = max((len(r) for r in row_labels), default=8)
    width = max(width, 10)
    header = f"{'':{width}}" + "".join(f"{s.label:>16}" for s in series)
    lines = [f"=== {figure}: {title} ===", header]
    for i, row in enumerate(row_labels):
        cells = []
        for s in series:
            if i < len(s.measurements):
                cells.append(f"{s.measurements[i].simulated_seconds:>14.2f}s")
            else:
                cells.append(f"{'-':>15}")
        lines.append(f"{row:{width}}" + "".join(cells))
    for note in notes:
        lines.append(f"  note: {note}")
    text = "\n".join(lines)
    print("\n" + text)

    payload = {
        "figure": figure,
        "title": title,
        "rows": list(row_labels),
        "series": [
            {
                "label": s.label,
                "measurements": [m.as_dict() for m in s.measurements],
            }
            for s in series
        ],
        "notes": list(notes),
    }
    out = os.path.join(results_dir(), f"{figure}.json")
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)


def ratio(a: float, b: float) -> float:
    """Safe a/b for shape assertions."""
    return a / b if b else float("inf")
