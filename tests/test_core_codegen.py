"""Tests for the code generator: generated index == interpreted index."""

import numpy as np
import pytest

from repro.core import CompiledDataset, GeneratedDataset, generate_index_source
from repro.core.afc import home_node
from repro.core.codegen_runtime import allowed_ordinals, ranges_match
from repro.datasets import ALL_LAYOUTS, ipars, titan
from repro.sql import parse_where
from repro.sql.ranges import IntervalSet, extract_ranges
from tests.conftest import PAPER_DESCRIPTOR, SMALL_IPARS, SMALL_TITAN
from tests.test_cross_node_groups import SPLIT_TEXT as CROSS_NODE_DESCRIPTOR

QUERIES = [
    "SELECT * FROM IparsData",
    "SELECT * FROM IparsData WHERE TIME > 5 AND TIME <= 9",
    "SELECT * FROM IparsData WHERE REL IN (0, 2)",
    "SELECT X, SOIL FROM IparsData WHERE REL = 1 AND TIME BETWEEN 3 AND 7",
    "SELECT * FROM IparsData WHERE SOIL > 0.9",
    "SELECT * FROM IparsData WHERE TIME > 100",
    "SELECT * FROM IparsData WHERE SGAS < 0.3 AND TIME = 7",
]


@pytest.fixture(scope="module")
def both():
    return CompiledDataset(PAPER_DESCRIPTOR), GeneratedDataset(PAPER_DESCRIPTOR)


def afc_key(afc):
    """Order- and representation-insensitive identity of an AFC."""
    return (
        afc.num_rows,
        tuple((c.node, c.path, c.offset, c.bytes_per_row) for c in afc.chunks),
        tuple(sorted(afc.constants)),
        afc.inner_vars,
    )


class TestEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_same_afcs(self, both, query):
        interpreted, generated = both
        plan_i = interpreted.plan(query)
        plan_g = generated.plan(query)
        assert sorted(map(afc_key, plan_i.afcs)) == sorted(
            map(afc_key, plan_g.afcs)
        )

    def test_same_afcs_for_empty_ranges(self, both):
        interpreted, generated = both
        assert len(generated.index({})) == 16 * 20
        assert sorted(map(afc_key, interpreted.index({}))) == sorted(
            map(afc_key, generated.index({}))
        )


NODE_INDEX_CASES = [
    *(
        (f"ipars-{layout}", ipars.descriptor_text(SMALL_IPARS, layout),
         "TIME > 3 AND TIME <= 9 AND REL = 1")
        for layout in ALL_LAYOUTS
    ),
    ("titan", titan.descriptor_text(SMALL_TITAN), "X >= 0 AND X <= 10000"),
    ("cross-node", CROSS_NODE_DESCRIPTOR, "T > 2"),  # groups span 2 nodes
]


class TestNodeRestrictedIndex:
    """A node server's lookup (``index(ranges, node=...)``) is exactly the
    coordinator's share for that node: same AFCs, same order, from both
    the generated and the interpreted index function."""

    @pytest.mark.parametrize(
        "text,where",
        [case[1:] for case in NODE_INDEX_CASES],
        ids=[case[0] for case in NODE_INDEX_CASES],
    )
    def test_per_node_lookup_is_the_home_node_share(self, text, where):
        interpreted, generated = CompiledDataset(text), GeneratedDataset(text)
        nodes = interpreted.descriptor.storage.nodes
        for ranges in ({}, extract_ranges(parse_where(where))):
            full = generated.index(ranges)
            assert full, "the case must plan something"
            assert list(map(afc_key, full)) == list(
                map(afc_key, interpreted.index(ranges))
            )
            covered = 0
            for node in nodes:
                share = [
                    afc_key(afc) for afc in full if home_node(afc) == node
                ]
                for dataset in (interpreted, generated):
                    got = dataset.index(ranges, node=node)
                    assert list(map(afc_key, got)) == share
                covered += len(share)
            assert covered == len(full)

    def test_summary_pruning_agrees_per_node(self, titan_small):
        _, text, _, summaries = titan_small
        ranges = extract_ranges(parse_where("X >= 0 AND X <= 10000 AND Z <= 100"))
        interpreted = CompiledDataset(text, summaries)
        generated = GeneratedDataset(text, summaries)
        full = generated.index(ranges)
        assert 0 < len(full) < len(generated.index({})), "must prune"
        for node in generated.descriptor.storage.nodes:
            share = [afc_key(a) for a in full if home_node(a) == node]
            for dataset in (interpreted, generated):
                got = dataset.index(ranges, node=node)
                assert list(map(afc_key, got)) == share

    def test_plan_takes_the_node_and_records_provenance(self, both):
        interpreted, generated = both
        sql = "SELECT X, SOIL FROM IparsData WHERE TIME BETWEEN 3 AND 7"
        for dataset in (interpreted, generated):
            full = dataset.plan(sql)
            assert str(full.query) == str(dataset.plan(str(full.query)).query)
            assert full.chunk_row_cap is None
            shares = [
                dataset.plan(sql, node=node).afcs
                for node in dataset.descriptor.storage.nodes
            ]
            assert sum(map(len, shares)) == len(full.afcs)
            for node, share in zip(dataset.descriptor.storage.nodes, shares):
                assert all(home_node(afc) == node for afc in share)

    def test_unknown_node_plans_nothing(self, both):
        for dataset in both:
            assert dataset.index({}, node="nowhere") == []


class TestGeneratedSource:
    def test_source_is_python(self, both):
        _, generated = both
        compile(generated.source, "<test>", "exec")

    def test_source_has_one_layout_per_group(self, both):
        interpreted, generated = both
        assert generated.source.count("= GroupLayout(") == len(interpreted.groups)
        # ...and one runtime call, no per-group code.
        assert generated.source.count("def ") == 1

    def test_offsets_are_constant_folded(self, both):
        _, generated = both
        # DATA0's chunk offset is base 0 plus 80 bytes per TIME step.
        assert "Member('osu0', 'ipars/DATA0', _S1, 8, 0, (80,))" in generated.source

    def test_loop_bounds_are_constants(self, both):
        _, generated = both
        assert "outer=(('TIME', 1, 20, 1, None),)" in generated.source

    def test_source_written_to_path(self, tmp_path):
        path = tmp_path / "generated.py"
        GeneratedDataset(PAPER_DESCRIPTOR, source_path=str(path))
        text = path.read_text()
        assert "def index(ranges" in text

    def test_generate_source_function(self, both):
        interpreted, _ = both
        source = generate_index_source(interpreted)
        assert "DATASET_NAME = 'IparsData'" in source


class TestRuntimeHelpers:
    @staticmethod
    def allowed_values(allowed, start, stop, step, pin=None):
        ordinals = allowed_ordinals(allowed, start, stop, step, pin)
        return (start + step * ordinals).tolist()

    def test_allowed_values_no_constraint(self):
        assert self.allowed_values(None, 1, 10, 2) == [1, 3, 5, 7, 9]

    def test_allowed_values_filtered(self):
        allowed = IntervalSet.of(4, 8)
        assert self.allowed_values(allowed, 1, 10, 1) == [4, 5, 6, 7, 8]
        # Open ends and bounds off the lattice.
        allowed = IntervalSet.of(2.5, 7, lo_open=True, hi_open=True)
        assert self.allowed_values(allowed, 1, 10, 2) == [3, 5]

    def test_allowed_values_pinned(self):
        assert self.allowed_values(None, 1, 10, 1, pin=7) == [7]
        assert self.allowed_values(None, 1, 10, 2, pin=8) == []  # off-lattice
        assert self.allowed_values(IntervalSet.of(0, 3), 1, 10, 1, pin=7) == []

    def test_ranges_match(self):
        ranges = extract_ranges(parse_where("T >= 5 AND T <= 6"))
        assert ranges_match(ranges, (("T", 1, 20),))
        assert not ranges_match(ranges, (("T", 10, 20),))
        assert ranges_match(ranges, (("OTHER", 0, 0),))
