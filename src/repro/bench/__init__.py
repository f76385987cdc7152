"""Benchmark harness and per-figure workload definitions."""

from .figures import (
    EXPECTED_SHAPES,
    IPARS_QUERY_NAMES,
    TITAN_QUERY_NAMES,
    fig6_titan_config,
    fig9_ipars_config,
    fig10_ipars_config,
    fig11_box_fractions,
    fig11_time_windows,
)
from .harness import (
    Measurement,
    Series,
    measure_rowstore,
    measure_storm,
    print_figure,
    ratio,
    results_dir,
)

__all__ = [
    "EXPECTED_SHAPES",
    "IPARS_QUERY_NAMES",
    "Measurement",
    "Series",
    "TITAN_QUERY_NAMES",
    "fig10_ipars_config",
    "fig11_box_fractions",
    "fig11_time_windows",
    "fig6_titan_config",
    "fig9_ipars_config",
    "measure_rowstore",
    "measure_storm",
    "print_figure",
    "ratio",
    "results_dir",
]
