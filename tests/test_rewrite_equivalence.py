"""Randomized equivalence harness + engine-level rewrite acceptance.

Part 1 generates ~1000 seeded random predicate trees and checks that the
rewrite pass preserves vectorised evaluation *bit-identically* over
random column data — including a float column seeded with NaNs, the case
that makes classical boolean algebra (law of excluded middle, ``!=`` as
a range complement) unsound here.

Part 2 drives the rewrite through the full engine: commuted/flipped/
constant-folded WHERE spellings share one cache entry, a provably-FALSE
WHERE executes with zero read calls, and rewritten queries return tables
bit-identical to their original spellings.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cache import query_key
from repro.core import ExecOptions, Virtualizer
from repro.core.stats import IOStats
from repro.sql.ast import (
    And,
    Between,
    BoolLiteral,
    Column,
    Comparison,
    FunctionCall,
    InList,
    Literal,
    Not,
    Or,
)
from repro.sql.functions import DEFAULT_REGISTRY
from repro.sql.parser import parse_query, parse_where
from repro.sql.rewrite import rewrite_where
from tests.conftest import assert_tables_equal

# ---------------------------------------------------------------------------
# Part 1: randomized mask equivalence
# ---------------------------------------------------------------------------

N_ROWS = 64
N_TREES = 1000

COLUMNS = ["A", "B", "C"]
OPS = ["=", "==", "!=", "<>", "<", "<=", ">", ">="]
#: Small literal pool so contradictions, subsumptions and overlaps are
#: common — the interesting rewrites actually fire.
VALUES = [-3, -1, 0, 1, 2, 3, 5, 8, 0.5, 2.5, -1.5, 4.0]


def make_columns(rng: random.Random):
    nprng = np.random.default_rng(rng.randrange(2**32))
    b = nprng.uniform(-5.0, 10.0, N_ROWS)
    b[nprng.random(N_ROWS) < 0.25] = np.nan  # NaN-bearing float column
    return {
        "A": nprng.integers(-5, 11, N_ROWS).astype(np.int64),
        "B": b,
        "C": nprng.integers(0, 5, N_ROWS).astype(np.int32),
    }


def rand_operand(rng: random.Random, allow_function: bool):
    roll = rng.random()
    if roll < 0.75 or not allow_function:
        return Column(rng.choice(COLUMNS))
    cols = [Column(rng.choice(COLUMNS)) for _ in range(3)]
    if rng.random() < 0.5:
        return FunctionCall("SPEED", tuple(cols))
    return FunctionCall("DISTANCE", tuple(cols[: rng.randrange(1, 4)]))


def rand_tree(rng: random.Random, depth: int):
    atoms = ("cmp", "cmp", "in", "between", "bool")
    kinds = atoms if depth <= 0 else atoms + ("and", "and", "or", "or", "not")
    kind = rng.choice(kinds)
    if kind == "cmp":
        left = rand_operand(rng, allow_function=True)
        if rng.random() < 0.2:  # literal-vs-literal and literal-left shapes
            left = Literal(rng.choice(VALUES))
        right = (
            Literal(rng.choice(VALUES))
            if rng.random() < 0.8
            else rand_operand(rng, allow_function=False)
        )
        return Comparison(rng.choice(OPS), left, right)
    if kind == "in":
        values = tuple(
            rng.choice(VALUES) for _ in range(rng.randrange(1, 5))
        )
        return InList(rand_operand(rng, allow_function=True), values)
    if kind == "between":
        return Between(
            rand_operand(rng, allow_function=True),
            rng.choice(VALUES),
            rng.choice(VALUES),
        )
    if kind == "bool":
        return BoolLiteral(rng.random() < 0.5)
    if kind == "not":
        return Not(rand_tree(rng, depth - 1))
    terms = tuple(rand_tree(rng, depth - 1) for _ in range(rng.randrange(2, 4)))
    return And(terms) if kind == "and" else Or(terms)


def mask_of(node, columns):
    if node is None:
        return np.ones(N_ROWS, dtype=bool)
    raw = np.asarray(node.evaluate(columns, DEFAULT_REGISTRY), dtype=bool)
    return np.broadcast_to(raw, (N_ROWS,))


class TestRandomizedEquivalence:
    def test_1000_random_trees_evaluate_bit_identically(self):
        rng = random.Random(987654321)
        rewritten_count = 0
        for i in range(N_TREES):
            tree = rand_tree(rng, rng.randrange(1, 5))
            columns = make_columns(rng)
            canonical, steps = rewrite_where(tree)
            if steps:
                rewritten_count += 1
            original = mask_of(tree, columns)
            result = mask_of(canonical, columns)
            np.testing.assert_array_equal(
                original,
                result,
                err_msg=f"case {i}: {tree} rewrote to {canonical}",
            )
            # the canonical tree must itself be valid, parseable AST
            if canonical is not None:
                assert parse_where(str(canonical)) == canonical, str(canonical)
        # the harness is vacuous if the generator never triggers rewrites
        assert rewritten_count > N_TREES // 2

    def test_rewritten_trees_are_a_fixpoint(self):
        rng = random.Random(13579)
        for _ in range(200):
            tree = rand_tree(rng, rng.randrange(1, 5))
            canonical, _ = rewrite_where(tree)
            again, steps = rewrite_where(canonical)
            assert again == canonical
            assert steps == []


# ---------------------------------------------------------------------------
# Part 2: engine-level acceptance
# ---------------------------------------------------------------------------

#: Four spellings of the same predicate: commuted conjuncts, a flipped
#: comparison, a foldable constant, and a duplicated conjunct.
SPELLINGS = [
    "SELECT X, SOIL FROM IparsData WHERE TIME > 2 AND SOIL > 0.1",
    "SELECT X, SOIL FROM IparsData WHERE SOIL > 0.1 AND 2 < TIME",
    "SELECT X, SOIL FROM IparsData WHERE TIME > 2 AND (SOIL > 0.1 AND 1 = 1)",
    "SELECT X, SOIL FROM IparsData WHERE SOIL > 0.1 AND TIME > 2 AND TIME > 2",
]

EXACT = ExecOptions(remote=False, cache_mode="exact")
OFF = ExecOptions(remote=False)


class TestSharedCacheEntry:
    def test_spellings_share_a_query_key(self):
        keys = {
            query_key("fp", parse_query(sql), ("X", "SOIL"))
            for sql in SPELLINGS
        }
        assert len(keys) == 1

    def test_spellings_hit_one_cache_entry(self, ipars_l0):
        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as virt:
            cold = IOStats()
            first = virt.query(SPELLINGS[0], stats=cold, options=EXACT)
            assert cold.result_cache_hits == 0
            assert cold.read_calls > 0
            for sql in SPELLINGS[1:]:
                run = IOStats()
                table = virt.query(sql, stats=run, options=EXACT)
                assert run.result_cache_hits == 1, sql
                assert run.read_calls == 0, sql
                assert_tables_equal(table, first)

    def test_different_predicates_do_not_collide(self):
        a = query_key(
            "fp", parse_query("SELECT X FROM T WHERE TIME > 2"), ("X",)
        )
        b = query_key(
            "fp", parse_query("SELECT X FROM T WHERE TIME > 3"), ("X",)
        )
        assert a != b


class TestProvablyFalseWhere:
    @pytest.mark.parametrize(
        "where",
        [
            "TIME > 5 AND TIME < 3",  # contradictory ranges
            "TIME BETWEEN 5 AND 3",  # inverted BETWEEN
            "TIME = 1 AND TIME = 2",  # contradictory equalities
            "REL = 2.5",  # no short int equals it: bound to FALSE
            "FALSE",
        ],
    )
    def test_zero_read_calls(self, ipars_l0, where):
        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as virt:
            run = IOStats()
            table = virt.query(
                f"SELECT X FROM IparsData WHERE {where}", stats=run, options=OFF
            )
            assert table.num_rows == 0
            assert run.read_calls == 0, where
            assert run.files_opened == 0, where


class TestEngineEquivalence:
    #: (original spelling, equivalent rewritable spelling) WHERE pairs.
    PAIRS = [
        ("TIME > 2 AND SOIL > 0.1", "NOT (TIME <= 2 OR SOIL <= 0.1)"),
        ("TIME >= 3 AND TIME <= 7", "TIME BETWEEN 3 AND 7"),
        ("REL IN (0, 1)", "REL IN (1, 0, 1)"),
        ("TIME > 4", "TIME > 2 AND 4 < TIME"),
        ("SOIL > 0.5 OR TIME = 1", "TIME = 1 OR SOIL > 0.5 OR FALSE"),
    ]

    @pytest.mark.parametrize("left,right", PAIRS)
    def test_rewritten_spelling_returns_identical_table(
        self, ipars_l0, left, right
    ):
        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as virt:
            a = virt.query(
                f"SELECT REL, TIME, X, SOIL FROM IparsData WHERE {left}",
                options=OFF,
            )
            b = virt.query(
                f"SELECT REL, TIME, X, SOIL FROM IparsData WHERE {right}",
                options=OFF,
            )
            assert_tables_equal(a, b)
