"""Tests for the benchmark harness itself (measurement + reporting)."""

import importlib.util
import json
import pathlib
import sys

import pytest

from repro.bench import (
    Measurement,
    Series,
    measure_rowstore,
    measure_storm,
    print_figure,
    ratio,
)
from repro.bench.figures import (
    EXPECTED_SHAPES,
    fig6_titan_config,
    fig9_ipars_config,
    fig10_ipars_config,
)
from repro.bench.workloads import ipars_workload

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestMeasurement:
    def test_as_dict_roundtrips(self):
        m = Measurement(
            label="x", query="SELECT 1", rows=5, simulated_seconds=1.5,
            wall_seconds=0.1, bytes_read=100,
        )
        d = m.as_dict()
        assert d["rows"] == 5 and d["label"] == "x"
        assert json.dumps(d)  # JSON-serialisable

    def test_series_simulated(self):
        s = Series("a")
        s.add(Measurement("a", "q", 1, 2.0, 0.1, 10))
        s.add(Measurement("a", "q", 1, 3.0, 0.1, 10))
        assert s.simulated == [2.0, 3.0]


class TestPrintFigure:
    def test_writes_json_and_prints(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        s = Series("sys")
        s.add(Measurement("sys", "q1", 10, 1.25, 0.01, 100))
        print_figure("figX", "test title", ["row one"], [s], ["a note"])
        out = capsys.readouterr().out
        assert "figX" in out and "1.25s" in out and "a note" in out
        payload = json.load(open(tmp_path / "figX.json"))
        assert payload["series"][0]["measurements"][0]["rows"] == 10

    def test_uneven_series_padded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        a = Series("a")
        a.add(Measurement("a", "q", 1, 1.0, 0.1, 1))
        b = Series("b")  # empty
        print_figure("figY", "t", ["r1"], [a, b])
        out = capsys.readouterr().out
        assert "-" in out


class TestRatio:
    def test_basic(self):
        assert ratio(4, 2) == 2.0

    def test_zero_denominator(self):
        assert ratio(1, 0) == float("inf")


class TestMeasureFunctions:
    def test_measure_storm_cold(self, ipars_l0):
        from repro.core import GeneratedDataset
        from repro.storm import QueryService, VirtualCluster

        config, text, mount = ipars_l0
        root = mount("", "").rstrip("/")
        cluster = VirtualCluster(
            root, [f"osu{i}" for i in range(config.num_nodes)]
        )
        service = QueryService(GeneratedDataset(text), cluster)
        m1 = measure_storm(service, "SELECT X FROM IparsData WHERE TIME = 1")
        m2 = measure_storm(service, "SELECT X FROM IparsData WHERE TIME = 1")
        # drop_caches between measurements: identical cold numbers.
        assert m1.bytes_read == m2.bytes_read > 0
        assert m1.simulated_seconds == m2.simulated_seconds
        service.close()

    def test_measure_rowstore(self, tmp_path):
        import numpy as np

        from repro.baselines import MiniRowStore
        from repro.core.table import VirtualTable

        store = MiniRowStore(str(tmp_path))
        store.create_table(
            "t", VirtualTable({"A": np.arange(100.0)}), indexes=["A"]
        )
        m = measure_rowstore(store, "SELECT A FROM t WHERE A < 10")
        assert m.rows == 10
        assert m.simulated_seconds > 0

    def test_workload_seed_replays_the_same_rows(self, ipars_l0):
        from repro.core import Virtualizer

        config, text, mount = ipars_l0
        with Virtualizer(text, mount) as v:
            def rows(seed):
                return [
                    v.query(sql).num_rows
                    for sql in ipars_workload(config, 10, seed=seed)
                ]

            assert sum(rows(42)) > 0
            assert rows(42) == rows(42)
        assert ipars_workload(config, 10, seed=7) != ipars_workload(
            config, 10, seed=42
        )


class TestFigureConfigs:
    def test_expected_shapes_cover_all_figures(self):
        assert set(EXPECTED_SHAPES) == {
            "fig6", "fig9a", "fig9b", "fig10", "fig11a", "fig11b"
        }

    def test_fig10_configs_conserve_total_data(self):
        sizes = set()
        for nodes in (1, 2, 4, 8, 16):
            config = fig10_ipars_config(nodes)
            sizes.add(config.total_cells * config.num_times * config.num_rels)
        assert len(sizes) == 1

    def test_bench_configs_are_modest(self):
        # Guard against accidental multi-GB benchmark datasets.
        titan = fig6_titan_config()
        assert titan.total_rows * titan.row_bytes < 200e6
        ipars = fig9_ipars_config()
        assert ipars.total_rows * ipars.row_bytes < 200e6


def _load_ablations():
    """``benchmarks/bench_ablations.py``, imported without running it."""
    path = REPO / "benchmarks" / "bench_ablations.py"
    spec = importlib.util.spec_from_file_location("bench_ablations", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    spec.loader.exec_module(module)
    return module


ABLATIONS = _load_ablations()


class TestAblationTable:
    def test_reports_only_ledger_metric_names(self):
        catalog = json.loads((REPO / "BENCHMARK.json").read_text())
        names = {metric["name"] for metric in catalog["per_layer"]}
        assert set(ABLATIONS.METRICS) <= names | {"client.query_p50_all_ms"}

    @pytest.mark.parametrize("row", ABLATIONS.ROWS, ids=lambda row: row.name)
    def test_sides_differ_only_in_the_named_knob(self, row):
        base, variant = row.base.settings(), row.variant.settings()
        assert base.keys() == variant.keys()
        assert {k for k in base if base[k] != variant[k]} == {row.knob}
