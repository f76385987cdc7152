"""Tests for the IPARS / Titan generators and the descriptor-driven writer."""

import os

import numpy as np
import pytest

from repro.core import CompiledDataset, IOStats, Virtualizer, local_mount
from repro.datasets import (
    ALL_LAYOUTS,
    IparsConfig,
    STATE_VARS,
    TitanConfig,
    hash01,
    ipars,
    titan,
    write_dataset,
)
from repro.errors import ReproError
from tests.conftest import assert_tables_equal


class TestHash01:
    def test_deterministic(self):
        a = hash01(np.arange(100), 7)
        b = hash01(np.arange(100), 7)
        np.testing.assert_array_equal(a, b)

    def test_salt_changes_values(self):
        a = hash01(np.arange(100), 1)
        b = hash01(np.arange(100), 2)
        assert not np.array_equal(a, b)

    def test_range(self):
        values = hash01(np.arange(10000), 3)
        assert values.min() >= 0.0
        assert values.max() < 1.0

    def test_roughly_uniform(self):
        values = hash01(np.arange(100000), 5)
        hist, _ = np.histogram(values, bins=10, range=(0, 1))
        assert hist.min() > 8500 and hist.max() < 11500


class TestIparsGenerator:
    def test_seventeen_state_variables(self):
        assert len(STATE_VARS) == 17

    def test_schema_has_all_columns(self):
        config = IparsConfig()
        text = ipars.descriptor_text(config, "I")
        dataset = CompiledDataset(text)
        assert len(dataset.schema) == 2 + 3 + 17

    def test_file_counts_per_layout(self, tmp_path):
        config = IparsConfig(num_rels=2, num_times=4, cells_per_node=10,
                             num_nodes=2)
        expected_files = {
            "L0": 2 * (1 + 17 * 2),  # per node: coords + var x rel
            "I": 2,
            "II": 2,
            "III": 2 * 2 * 4,
            "IV": 2 * 2 * 4,
            "V": 2 * 7,
            "VI": 2 * 7,
        }
        for layout, count in expected_files.items():
            dataset = CompiledDataset(ipars.descriptor_text(config, layout))
            assert len(dataset.files) == count, layout

    def test_unknown_layout(self):
        with pytest.raises(ReproError, match="unknown IPARS layout"):
            ipars.layout_text(IparsConfig(), "VII")

    def test_value_scales(self, tmp_path):
        config = IparsConfig(num_rels=1, num_times=4, cells_per_node=50,
                             num_nodes=1)
        mount = local_mount(str(tmp_path))
        text, _ = ipars.generate(config, "I", mount)
        with Virtualizer(text, mount) as v:
            table = v.query("SELECT SOIL, POIL, OILVX FROM IparsData")
        assert 0 <= table["SOIL"].min() and table["SOIL"].max() < 1
        assert 500 <= table["POIL"].min() and table["POIL"].max() < 5000
        assert -20 <= table["OILVX"].min() and table["OILVX"].max() < 20

    def test_coordinates_form_lattice(self, ipars_l0):
        config, text, mount = ipars_l0
        with Virtualizer(text, mount) as v:
            table = v.query("SELECT X, Y, Z FROM IparsData WHERE TIME = 1 AND REL = 0")
        for name in ("X", "Y", "Z"):
            values = np.unique(table[name])
            assert np.allclose(values % 10.0, 0)

    def test_row_count_properties(self):
        config = IparsConfig(num_rels=3, num_times=7, cells_per_node=11,
                             num_nodes=2)
        assert config.total_cells == 22
        assert config.total_rows == 3 * 7 * 22
        assert config.row_bytes == 2 + 4 + 20 * 4


class TestLayoutEquivalence:
    """The heart of the Figure 9 experiment: every layout stores the same
    virtual table."""

    CONFIG = IparsConfig(num_rels=2, num_times=6, cells_per_node=20,
                         num_nodes=2)
    QUERIES = [
        "SELECT * FROM IparsData WHERE TIME>2 AND TIME<5",
        "SELECT REL, TIME, X, SOIL FROM IparsData WHERE SOIL > 0.5",
        "SELECT SGAS FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) < 20",
    ]

    @pytest.fixture(scope="class")
    def tables(self, tmp_path_factory):
        results = {}
        for layout in ALL_LAYOUTS:
            root = tmp_path_factory.mktemp(f"layout_{layout}")
            mount = local_mount(str(root))
            text, _ = ipars.generate(self.CONFIG, layout, mount)
            with Virtualizer(text, mount) as v:
                results[layout] = [v.query(q) for q in self.QUERIES]
        return results

    @pytest.mark.parametrize("layout", [l for l in ALL_LAYOUTS if l != "L0"])
    def test_layout_matches_l0(self, tables, layout):
        for got, expected in zip(tables[layout], tables["L0"]):
            assert_tables_equal(got, expected)


class TestTitanGenerator:
    def test_row_and_chunk_counts(self, titan_small):
        config, text, mount, _ = titan_small
        dataset = CompiledDataset(text)
        assert dataset.total_data_bytes == config.total_rows * config.row_bytes
        stats = IOStats()
        with Virtualizer(text, mount) as v:
            # A cold full scan reads every stored byte exactly once.
            v.query("SELECT * FROM TitanData", stats=stats)
            assert v.query("SELECT TIME FROM TitanData").num_rows == config.total_rows
        assert stats.bytes_read == dataset.total_data_bytes

    def test_chunks_are_spatially_local(self, titan_small):
        config, text, mount, summaries = titan_small
        # Each chunk's X extent is one lattice cell wide.
        cell_w = config.extent[0] / config.chunks_x
        for key in list(summaries.keys())[:10]:
            lo, hi = summaries.bounds(key)["X"]
            assert hi - lo <= cell_w

    def test_s1_selectivities(self, titan_small):
        config, text, mount, _ = titan_small
        with Virtualizer(text, mount) as v:
            q4 = v.query("SELECT S1 FROM TitanData WHERE S1 < 0.01").num_rows
            q5 = v.query("SELECT S1 FROM TitanData WHERE S1 < 0.5").num_rows
        # S1 is chunk-clustered: Q4 selectivity is ~1% in expectation but
        # noisy at small chunk counts; Q5 stays ~50%.
        assert q4 / config.total_rows < 0.08
        assert q5 / config.total_rows == pytest.approx(0.5, abs=0.07)

    def test_s1_clustering(self, titan_small):
        """Qualifying S1 rows concentrate in few chunks (index-friendly)."""
        config, text, mount, _ = titan_small
        with Virtualizer(text, mount) as v:
            # Chunk ids are not a schema attribute; use X/Y/Z buckets as a
            # proxy: count distinct chunk-sized TIME cells touched.
            low = v.query("SELECT TIME, X FROM TitanData WHERE S1 < 0.05")
            total = config.total_rows
        if low.num_rows:
            touched = len(
                {
                    (int(t) // max(1, config.time_extent // config.chunks_t),
                     int(x) // max(1, int(config.extent[0] // config.chunks_x)))
                    for t, x in zip(low["TIME"], low["X"])
                }
            )
            # Far fewer distinct cells than a uniform 5% spread would hit.
            assert touched <= config.total_chunks // 2

    def test_uneven_node_split_rejected(self):
        config = TitanConfig(chunks_x=3, chunks_y=1, chunks_z=1, chunks_t=1,
                             num_nodes=2)
        with pytest.raises(ReproError, match="divide"):
            config.chunks_per_node

    def test_time_is_integer_column(self, titan_small):
        _, text, mount, _ = titan_small
        with Virtualizer(text, mount) as v:
            table = v.query("SELECT TIME FROM TitanData WHERE TIME < 100")
        assert table["TIME"].dtype == np.dtype("<i4")


class TestWriter:
    def test_only_missing_skips_existing(self, tmp_path):
        config = IparsConfig(num_rels=1, num_times=2, cells_per_node=5,
                             num_nodes=1)
        mount = local_mount(str(tmp_path))
        text, first = ipars.generate(config, "I", mount)
        path = mount("osu0", "ipars/all.bin")
        before = os.path.getmtime(path)
        _, second = ipars.generate(config, "I", mount, only_missing=True)
        assert first == second
        assert os.path.getmtime(path) == before

    def test_rewrites_wrong_sized_files(self, tmp_path):
        config = IparsConfig(num_rels=1, num_times=2, cells_per_node=5,
                             num_nodes=1)
        mount = local_mount(str(tmp_path))
        text, _ = ipars.generate(config, "I", mount)
        path = mount("osu0", "ipars/all.bin")
        with open(path, "wb") as handle:
            handle.write(b"junk")
        ipars.generate(config, "I", mount, only_missing=True)
        dataset = CompiledDataset(text)
        assert os.path.getsize(path) == dataset.files[0].expected_size

    def test_value_fn_error_for_missing_var(self, tmp_path):
        # A value function asking for a variable the layout lacks fails
        # loudly instead of writing garbage.
        from repro.datasets.ipars import make_value_fn

        config = IparsConfig()
        fn = make_value_fn(config)
        with pytest.raises(ReproError, match="needs variable"):
            fn("SOIL", {}, {})
