"""Unit tests for the equivalence-preserving rewrite pass (repro.sql.rewrite)."""

from __future__ import annotations

import pytest

from repro.sql.ast import (
    And,
    BoolLiteral,
    Column,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
)
from repro.sql.parser import parse_query, parse_where
from repro.sql.rewrite import RewriteStep, rewrite_query, rewrite_where


def rw(text):
    node, steps = rewrite_where(parse_where(text))
    return node, steps


def canon(text):
    node, _ = rw(text)
    return None if node is None else str(node)


def codes(steps):
    return {s.code for s in steps}


class TestConstantFolding:
    def test_numeric_comparison_folds(self):
        assert canon("3 < 5 AND A > 2") == "A > 2"
        node, steps = rw("3 < 5 AND A > 2")
        assert "RW400" in codes(steps)

    def test_false_constant_short_circuits_and(self):
        assert canon("3 > 5 AND A > 2") == "FALSE"

    def test_string_comparison_folds(self):
        assert canon("'a' < 'b' AND A > 2") == "A > 2"

    def test_mixed_type_constant_not_folded(self):
        # string-vs-number comparison is a type error, not a constant;
        # left for the typechecker to report.
        node, steps = rw("'a' < 3")
        assert "RW400" not in codes(steps)

    def test_literal_membership_folds(self):
        assert canon("5 IN (1, 2) OR A > 2") == "A > 2"
        assert canon("2 IN (1, 2) OR A > 2") is None  # TRUE: clause dropped

    def test_where_reduced_to_true_drops_clause(self):
        node, steps = rw("1 = 1")
        assert node is None
        assert "RW407" in codes(steps)


class TestComparisonCanonicalization:
    def test_literal_left_is_mirrored(self):
        assert canon("10 > A") == "A < 10"
        assert canon("10 = A") == "A = 10"

    def test_operator_spellings_normalize(self):
        assert canon("A == 3") == "A = 3"
        assert canon("A <> 3") == "A != 3"

    def test_column_pair_ordered_lexicographically(self):
        assert canon("SOIL > SGAS") == "SGAS < SOIL"
        assert canon("SGAS < SOIL") == "SGAS < SOIL"


class TestNotPushdown:
    def test_comparison_stays_wrapped(self):
        # NOT (A > 2) is True on a NaN row (mask complement of False);
        # A <= 2 is False there — flipping the operator is unsound.
        assert canon("NOT A > 2") == "NOT (A > 2)"

    def test_double_negation(self):
        assert canon("NOT NOT A > 2") == "A > 2"

    def test_not_bool_literal_flips(self):
        assert canon("NOT TRUE AND A > 2") == "FALSE"
        assert canon("NOT FALSE AND A > 2") == "A > 2"

    def test_de_morgan_and(self):
        assert canon("NOT (A > 1 AND B < 2)") == "NOT (A > 1) OR NOT (B < 2)"

    def test_de_morgan_or(self):
        assert canon("NOT (A > 1 OR B < 2)") == "NOT (A > 1) AND NOT (B < 2)"

    def test_de_morgan_enables_duplicate_elimination(self):
        assert canon("NOT (A > 1 OR A > 1)") == "NOT (A > 1)"

    def test_not_in_stays(self):
        assert canon("NOT A IN (1, 2)") == "NOT (A IN (1, 2))"


class TestBetweenAndIn:
    def test_between_expands(self):
        node, steps = rw("A BETWEEN 1 AND 5")
        assert str(node) == "A <= 5 AND A >= 1"
        assert "RW403" in codes(steps)

    def test_inverted_between_is_false(self):
        assert canon("A BETWEEN 5 AND 1") == "FALSE"

    def test_degenerate_between_is_equality(self):
        assert canon("A BETWEEN 3 AND 3") == "A = 3"

    def test_in_list_sorted_and_deduplicated(self):
        assert canon("A IN (5, 1, 5)") == "A IN (1, 5)"

    def test_singleton_in_becomes_equality(self):
        assert canon("A IN (7)") == "A = 7"

    def test_empty_in_is_false(self):
        node, steps = rewrite_where(InList(Column("A"), ()))
        assert node == BoolLiteral(False)


class TestConjunctAlgebra:
    def test_duplicate_conjunct_dropped(self):
        assert canon("A > 2 AND A > 2") == "A > 2"

    def test_subsumed_bound_merged(self):
        assert canon("A > 1 AND A > 3") == "A > 3"

    def test_closed_interval_collapses_to_point(self):
        assert canon("A >= 2 AND A <= 2") == "A = 2"

    def test_in_lists_intersect(self):
        assert canon("A IN (1, 2, 3) AND A IN (2, 3, 4)") == "A IN (2, 3)"

    def test_contradictory_bounds_fold_to_false(self):
        node, steps = rw("A > 1 AND A < 0")
        assert str(node) == "FALSE"
        assert "RW408" in codes(steps)

    def test_equalities_on_one_attribute_contradict(self):
        assert canon("A = 1 AND A = 2") == "FALSE"

    def test_an_open_infinite_end_is_kept(self):
        # A < 1e999 drops the rows holding +inf, so merging keeps it,
        # spelled so that it lexes back to infinity.
        assert canon("A < 1e999 AND A > 5") == "A < 1e999 AND A > 5"
        assert canon("A > -1e999 AND A > -1e999") == "A > -1e999"

    def test_function_operands_are_kept_as_written(self):
        # A function's result compares in a dtype known only when it
        # runs, so its literals are not bound and its ranges not merged.
        text = "SPEED(X, Y, Z) > 1 AND SPEED(X, Y, Z) <= 1"
        assert canon(text) == "SPEED(X, Y, Z) <= 1 AND SPEED(X, Y, Z) > 1"
        assert canon("SPEED(X, Y, Z) > 1 AND SPEED(X, Y, Z) > 2") == (
            "SPEED(X, Y, Z) > 1 AND SPEED(X, Y, Z) > 2"
        )

    def test_conjunct_order_canonicalized(self):
        assert canon("B < 2 AND A > 1") == canon("A > 1 AND B < 2")

    def test_nested_and_flattens(self):
        assert canon("A > 1 AND (B < 2 AND C = 3)") == "A > 1 AND B < 2 AND C = 3"


class TestDisjunctAlgebra:
    def test_duplicate_disjunct_dropped(self):
        assert canon("A > 1 OR A > 1") == "A > 1"

    def test_false_disjunct_dropped(self):
        assert canon("3 > 5 OR A > 1") == "A > 1"

    def test_true_disjunct_absorbs(self):
        assert canon("3 < 5 OR A > 1") is None

    def test_nested_or_flattens(self):
        assert canon("A > 1 OR (A > 1 OR B < 2)") == "A > 1 OR B < 2"

    def test_not_equal_conjuncts_never_interval_merged(self):
        # NaN != anything is True, so rendering "B != 5 AND B != 7" as an
        # OR of open ranges (False on NaN) would flip NaN rows.
        assert canon("B != 5 AND B != 7") == "B != 5 AND B != 7"
        assert canon("B != 5 AND B > 0") == "B != 5 AND B > 0"

    def test_nan_unsound_union_not_folded(self):
        # (-inf, 5) u [5, inf) covers every number, but a NaN row fails
        # both disjuncts — folding to TRUE would change results on float
        # columns, so the rewriter must keep the OR.
        assert canon("A < 5 OR A >= 5") == "A < 5 OR A >= 5"


class TestFixpointAndApi:
    CASES = [
        "10 > A",
        "A > 1 AND A > 3",
        "A BETWEEN 1 AND 5",
        "NOT (A > 1 AND B < 2)",
        "A IN (5, 1, 5)",
        "TRUE AND A > 2",
        "SOIL > SGAS",
        "A IN (1, 2, 3) AND A IN (2, 3, 4)",
        "A > 1 OR (A > 1 OR B < 2)",
        "A <> 3 AND A != 3",
        "A < 5 OR A >= 5",
        "NOT A IN (1, 2)",
        "SPEED(X, Y, Z) <= 30.0 AND TIME > 2",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_rewrite_is_idempotent(self, text):
        node, _ = rw(text)
        again, steps = rewrite_where(node)
        assert again == node
        assert steps == []

    def test_canonical_query_returned_unchanged(self):
        query = parse_query("SELECT X FROM T WHERE A > 2 AND B < 3")
        result, steps = rewrite_query(query)
        assert result is query
        assert steps == []

    def test_rewrite_query_preserves_select_and_grouping(self):
        query = parse_query(
            "SELECT TIME, COUNT(*) FROM T WHERE 10 > A GROUP BY TIME"
        )
        result, steps = rewrite_query(query)
        assert str(result.where) == "A < 10"
        assert result.select == query.select
        assert result.group_by == ["TIME"]
        assert steps

    def test_none_where_passes_through(self):
        assert rewrite_where(None) == (None, [])

    def test_steps_are_coded_and_rendered(self):
        _, steps = rw("10 > A AND TRUE")
        assert steps
        for step in steps:
            assert isinstance(step, RewriteStep)
            assert step.code.startswith("RW4")
            assert str(step).startswith(f"[{step.code}]")

    def test_canonical_form_collapses_spellings(self):
        spellings = [
            "TIME > 2 AND SOIL > 0.1",
            "SOIL > 0.1 AND 2 < TIME",
            "TIME > 2 AND (SOIL > 0.1 AND 1 = 1)",
            "SOIL > 0.1 AND TIME > 2 AND TIME > 2",
        ]
        forms = {canon(s) for s in spellings}
        assert forms == {"SOIL > 0.1 AND TIME > 2"}

    def test_rebuilt_trees_are_well_formed_ast(self):
        node, _ = rw("NOT (A > 1 AND (B < 2 OR B > 5)) AND C IN (3, 1)")
        assert isinstance(node, (And, Or, Not, Comparison, InList, Literal))
        # and they round-trip through the parser
        assert parse_where(str(node)) == node
