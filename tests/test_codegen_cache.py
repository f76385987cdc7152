"""Tests for the persistent generated-module cache."""

import os
import time

import pytest

from repro.core import GeneratedDataset
from repro.core.codegen import _cache_path
from repro.metadata import parse_descriptor
from tests.conftest import PAPER_DESCRIPTOR, assert_tables_equal, run_plan


class TestCodegenCache:
    def test_miss_then_hit(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = GeneratedDataset(PAPER_DESCRIPTOR, cache_dir=cache)
        assert first.from_cache is False
        files = os.listdir(cache)
        assert len(files) == 1 and files[0].endswith(".generated.py")

        second = GeneratedDataset(PAPER_DESCRIPTOR, cache_dir=cache)
        assert second.from_cache is True
        assert second.source == first.source

    def test_cached_module_plans_identically(self, tmp_path):
        cache = str(tmp_path / "cache")
        fresh = GeneratedDataset(PAPER_DESCRIPTOR, cache_dir=cache)
        cached = GeneratedDataset(PAPER_DESCRIPTOR, cache_dir=cache)
        key = lambda afc: (
            afc.num_rows,
            tuple((c.node, c.path, c.offset) for c in afc.chunks),
            tuple(sorted(afc.constants)),
        )
        assert sorted(map(key, fresh.index({}))) == sorted(
            map(key, cached.index({}))
        )

    def test_cache_hit_skips_group_analysis(self, tmp_path):
        cache = str(tmp_path / "cache")
        GeneratedDataset(PAPER_DESCRIPTOR, cache_dir=cache)
        warm = GeneratedDataset(PAPER_DESCRIPTOR, cache_dir=cache)
        # Lazy groups were never forced on the cache-hit path.
        assert warm._groups is None
        # ...but remain available on demand.
        assert len(warm.groups) == 16

    def test_semantic_change_changes_key(self, tmp_path):
        changed = PAPER_DESCRIPTOR.replace("LOOP TIME 1:20:1", "LOOP TIME 1:21:1")
        a = _cache_path(str(tmp_path), parse_descriptor(PAPER_DESCRIPTOR))
        b = _cache_path(str(tmp_path), parse_descriptor(changed))
        assert a != b

    def test_formatting_change_keeps_key(self, tmp_path):
        reformatted = PAPER_DESCRIPTOR.replace("\n", "\n ").replace(
            "  ", " "
        )
        a = _cache_path(str(tmp_path), parse_descriptor(PAPER_DESCRIPTOR))
        b = _cache_path(str(tmp_path), parse_descriptor(reformatted))
        assert a == b

    def test_queries_through_cached_module(self, paper_dataset, tmp_path):
        from repro.core import Virtualizer

        text, mount = paper_dataset
        cache = str(tmp_path / "cache")
        GeneratedDataset(text, cache_dir=cache)  # populate

        from repro.core.extractor import Extractor

        cached = GeneratedDataset(text, cache_dir=cache)
        with Extractor(mount) as extractor:
            sql = "SELECT REL, SOIL FROM IparsData WHERE TIME <= 2"
            got = run_plan(extractor, cached.plan(sql))
        with Virtualizer(text, mount) as v:
            assert_tables_equal(got, v.query(sql))

    def test_no_cache_dir_regenerates(self):
        dataset = GeneratedDataset(PAPER_DESCRIPTOR)
        assert dataset.from_cache is False
