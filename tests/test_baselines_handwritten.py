"""Hand-written baselines must agree exactly with the generated planner."""

import numpy as np
import pytest

from repro.baselines import HandwrittenIparsL0, HandwrittenTitan
from repro.core import Extractor, Virtualizer
from repro.datasets import figure7_queries, figure8_queries
from repro.errors import QueryValidationError
from tests.conftest import (
    SMALL_IPARS, SMALL_TITAN, assert_tables_equal, run_plan,
)

IPARS_QUERIES = [
    "SELECT * FROM IparsData",
    "SELECT * FROM IparsData WHERE TIME>3 AND TIME<9",
    "SELECT REL, SOIL FROM IparsData WHERE REL = 1 AND SOIL > 0.6",
    "SELECT * FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) < 15",
    "SELECT X FROM IparsData WHERE TIME IN (2, 4)",
]


class TestHandwrittenIpars:
    @pytest.fixture(scope="class")
    def env(self, ipars_l0):
        config, text, mount = ipars_l0
        return (
            Virtualizer(text, mount),
            HandwrittenIparsL0(config),
            Extractor(mount),
        )

    @pytest.mark.parametrize("sql", IPARS_QUERIES)
    def test_matches_generated(self, env, sql):
        generated, hand, extractor = env
        expected = generated.query(sql)
        got = run_plan(extractor, hand.plan(sql))
        assert_tables_equal(got, expected)

    def test_figure8_queries(self, env):
        generated, hand, extractor = env
        for sql in figure8_queries(SMALL_IPARS):
            expected = generated.query(sql)
            got = run_plan(extractor, hand.plan(sql))
            assert_tables_equal(got, expected)

    def test_afc_shape_matches_paper(self, env):
        _, hand, _ = env
        afcs = hand.index({})
        # 18 chunks per AFC: COORDS + 17 variable files.
        assert all(len(a.chunks) == 18 for a in afcs)
        assert len(afcs) == (
            SMALL_IPARS.num_nodes * SMALL_IPARS.num_rels * SMALL_IPARS.num_times
        )

    def test_unknown_attribute(self, env):
        _, hand, _ = env
        with pytest.raises(QueryValidationError):
            hand.plan("SELECT GHOST FROM IparsData")


class TestHandwrittenTitan:
    @pytest.fixture(scope="class")
    def env(self, titan_small):
        config, text, mount, summaries = titan_small
        return (
            Virtualizer(text, mount, summaries=summaries),
            HandwrittenTitan(config, summaries),
            Extractor(mount),
        )

    @pytest.mark.parametrize("qi", range(5))
    def test_figure7_queries_match(self, env, qi):
        generated, hand, extractor = env
        sql = figure7_queries(SMALL_TITAN)[qi]
        expected = generated.query(sql)
        got = run_plan(extractor, hand.plan(sql))
        assert_tables_equal(got, expected)

    def test_prunes_with_summaries(self, env):
        _, hand, _ = env
        from repro.sql import parse_where
        from repro.sql.ranges import extract_ranges

        all_chunks = hand.index({})
        box = extract_ranges(
            parse_where("X >= 0 AND X <= 5000 AND Y >= 0 AND Y <= 5000")
        )
        pruned = hand.index(box)
        assert 0 < len(pruned) < len(all_chunks)

    def test_without_summaries_keeps_everything(self, titan_small):
        config, _, _, _ = titan_small
        hand = HandwrittenTitan(config, summaries=None)
        from repro.sql import parse_where
        from repro.sql.ranges import extract_ranges

        box = extract_ranges(parse_where("X <= 100"))
        assert len(hand.index(box)) == config.total_chunks
