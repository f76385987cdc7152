"""Typed semantic analysis of queries (repro.sql.typecheck, RT3xx)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.diag import Collector, Severity, analyze_query
from repro.errors import QueryValidationError
from repro.metadata import parse_descriptor
from repro.metadata.schema import Attribute, Schema
from repro.metadata.types import ScalarType
from repro.sql.ast import Aggregate, BoolLiteral, Column, Comparison, Query
from repro.sql.functions import (
    DEFAULT_REGISTRY,
    FunctionSignature,
    filter_function,
)
from repro.sql.parser import parse_query
from repro.sql.typecheck import (
    ExprType,
    aggregate_output_dtype,
    aggregate_state_dtypes,
    infer_type,
    sum_accumulator_dtype,
    typecheck_query,
)

# One attribute per declarable scalar type (every descriptor type is
# numeric; string-kind attributes are only constructible programmatically).
TYPED_DESCRIPTOR = """
[TYPED]
T = int
S = short int
C = char
L = long int
F = float
D = double

[TypedData]
DatasetDescription = TYPED
DIR[0] = n0

DATASET "TypedData" {
  DATATYPE { TYPED }
  DATAINDEX { T }
  DATASPACE {
    LOOP T 1:4:1 { S C L F D }
  }
  DATA { DIR[0]/CHUNK$PART PART = 0:1:1 }
}
"""


@pytest.fixture(scope="module")
def typed():
    return parse_descriptor(TYPED_DESCRIPTOR)


def check(descriptor, sql, functions=None):
    return analyze_query(descriptor, sql, functions=functions)


def rt_codes(collector):
    return [c for c in collector.codes() if c.startswith("RT")]


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


class TestInference:
    def test_column_types_carry_declared_dtype(self, typed):
        for name, dtype in [
            ("T", "int32"), ("S", "int16"), ("C", "int8"),
            ("L", "int64"), ("F", "float32"), ("D", "float64"),
        ]:
            t = infer_type(Column(name), typed, DEFAULT_REGISTRY)
            assert t.kind == "numeric"
            assert t.dtype == np.dtype(dtype)

    def test_unknown_column_is_unknown(self, typed):
        assert infer_type(Column("NOPE"), typed, DEFAULT_REGISTRY).kind == "unknown"

    def test_literals(self, typed):
        from repro.sql.ast import Literal

        assert infer_type(Literal(3), typed, DEFAULT_REGISTRY).kind == "numeric"
        assert infer_type(Literal("x"), typed, DEFAULT_REGISTRY).kind == "string"
        assert infer_type(BoolLiteral(True), typed, DEFAULT_REGISTRY).kind == "bool"

    def test_registered_function_is_numeric(self, typed):
        from repro.sql.ast import FunctionCall

        node = FunctionCall("SPEED", (Column("F"), Column("F"), Column("D")))
        assert infer_type(node, typed, DEFAULT_REGISTRY) == ExprType("numeric")

    def test_unregistered_function_is_unknown(self, typed):
        from repro.sql.ast import FunctionCall

        node = FunctionCall("MYSTERY", ())
        assert infer_type(node, typed, DEFAULT_REGISTRY).kind == "unknown"


# ---------------------------------------------------------------------------
# RT301-RT303: incomparable operands
# ---------------------------------------------------------------------------


class TestIncomparable:
    def test_rt301_function_vs_string_literal(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE SPEED(F, F, D) = 'fast'")
        assert "RT301" in c.codes()
        assert c.has_errors

    def test_rt301_bool_vs_numeric_programmatic(self, typed):
        query = Query(
            table="TypedData",
            where=Comparison("=", BoolLiteral(True), Column("T")),
        )
        collector = Collector()
        typecheck_query(typed, query, DEFAULT_REGISTRY, collector)
        assert rt_codes(collector) == ["RT301"]

    def test_no_rt301_when_rq206_already_reports(self, typed):
        # numeric column vs string literal is RQ206's case; the
        # typechecker must not double-report it.
        c = check(typed, "SELECT * FROM TypedData WHERE T = 'abc'")
        assert "RQ206" in c.codes()
        assert "RT301" not in c.codes()

    def test_no_rt301_for_unknown_operands(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE NOPE = 'abc'")
        assert "RQ203" in c.codes()  # unknown attribute, reported once
        assert "RT301" not in c.codes()

    def test_rt302_string_argument_to_numeric_function(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE SPEED('a', F, D) < 3")
        assert "RT302" in c.codes()
        assert c.has_errors

    def test_rt303_in_list_value_mismatch(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE SPEED(F, F, D) IN ('a', 'b')")
        assert "RT303" in c.codes()

    def test_rt303_between_value_mismatch(self, typed):
        c = check(
            typed,
            "SELECT * FROM TypedData WHERE SPEED(F, F, D) BETWEEN 'a' AND 'b'",
        )
        assert "RT303" in c.codes()

    def test_no_rt303_when_rq206_covers_membership(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE T IN ('a', 'b')")
        assert "RQ206" in c.codes()
        assert "RT303" not in c.codes()


# ---------------------------------------------------------------------------
# RT304/RT305: aggregate typing
# ---------------------------------------------------------------------------


def string_schema_descriptor():
    """A descriptor-shaped object whose schema has a string attribute.

    No descriptor *type name* maps onto a string kind, so this shape is
    only reachable programmatically — the checker still has to reject it.
    """
    schema = Schema(
        "FAKE",
        [
            Attribute("NAME", ScalarType("char8", "S", 8)),
            Attribute("N", ScalarType("int", "i", 4)),
        ],
    )
    return SimpleNamespace(schema=schema)


class TestAggregateTyping:
    def test_rt304_sum_over_string_attribute(self):
        descriptor = string_schema_descriptor()
        query = Query(table="FAKE", select=[Aggregate("sum", "NAME")])
        collector = Collector()
        typecheck_query(descriptor, query, DEFAULT_REGISTRY, collector)
        assert rt_codes(collector) == ["RT304"]
        assert collector.has_errors

    def test_count_over_string_attribute_is_fine(self):
        descriptor = string_schema_descriptor()
        query = Query(table="FAKE", select=[Aggregate("count", "NAME")])
        collector = Collector()
        typecheck_query(descriptor, query, DEFAULT_REGISTRY, collector)
        assert rt_codes(collector) == []

    def test_rt305_sum_over_int64_warns(self, typed):
        c = check(typed, "SELECT SUM(L) FROM TypedData")
        assert "RT305" in c.codes()
        assert c.warnings and not c.has_errors

    def test_no_rt305_for_narrow_integers(self, typed):
        for col in ("T", "S", "C"):
            assert "RT305" not in check(
                typed, f"SELECT SUM({col}) FROM TypedData"
            ).codes()

    def test_no_rt305_for_floats(self, typed):
        assert "RT305" not in check(typed, "SELECT SUM(D) FROM TypedData").codes()


class TestDtypePolicy:
    def test_sum_accumulator(self):
        assert sum_accumulator_dtype(np.dtype(np.int16)) == np.dtype(np.int64)
        assert sum_accumulator_dtype(np.dtype(np.float32)) == np.dtype(np.float64)

    def test_output_dtypes(self):
        f32 = np.dtype(np.float32)
        assert aggregate_output_dtype("count", None) == np.dtype(np.int64)
        assert aggregate_output_dtype("avg", f32) == np.dtype(np.float64)
        assert aggregate_output_dtype("sum", f32) == np.dtype(np.float64)
        assert aggregate_output_dtype("min", f32) == f32

    def test_state_dtypes(self):
        f32 = np.dtype(np.float32)
        assert aggregate_state_dtypes("count", None) == (np.dtype(np.int64),)
        assert aggregate_state_dtypes("avg", f32) == (
            np.dtype(np.float64), np.dtype(np.int64),
        )
        assert aggregate_state_dtypes("max", f32) == (f32,)


# ---------------------------------------------------------------------------
# RT306/RT307: representability of literals
# ---------------------------------------------------------------------------


class TestRepresentability:
    def test_rt306_fractional_equality_against_integer(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE T = 2.5")
        assert "RT306" in c.codes()
        assert "never match" in [d.message for d in c if d.code == "RT306"][0]

    def test_rt306_fractional_inequality_always_matches(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE T != 2.5")
        assert "always match" in [d.message for d in c if d.code == "RT306"][0]

    def test_no_rt306_for_ordered_fractional_bound(self, typed):
        # T > 2.5 is a perfectly good half-open bound on an integer.
        assert "RT306" not in check(
            typed, "SELECT * FROM TypedData WHERE T > 2.5"
        ).codes()

    def test_no_rt306_for_a_float32_literal_numpy_rounds(self, typed):
        # NumPy casts 0.1 to float32 before comparing, so F = 0.1
        # matches float32(0.1): the comparison is not constant.
        assert "RT306" not in check(
            typed, "SELECT * FROM TypedData WHERE F = 0.1"
        ).codes()

    def test_no_rt306_for_representable_float32(self, typed):
        assert "RT306" not in check(
            typed, "SELECT * FROM TypedData WHERE F = 0.5"
        ).codes()

    def test_no_rt306_for_double(self, typed):
        assert "RT306" not in check(
            typed, "SELECT * FROM TypedData WHERE D = 0.1"
        ).codes()

    def test_rt306_applies_to_mirrored_literal_left(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE 2.5 = T")
        assert "RT306" in c.codes()

    def test_rt307_bound_above_short_range(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE S > 40000")
        assert "RT307" in c.codes()
        assert "always false" in [d.message for d in c if d.code == "RT307"][0]

    def test_rt307_bound_below_char_range(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE C >= -200")
        assert "RT307" in c.codes()
        assert "always true" in [d.message for d in c if d.code == "RT307"][0]

    def test_rt307_in_list_value_out_of_range(self, typed):
        c = check(typed, "SELECT * FROM TypedData WHERE C IN (1, 300)")
        assert "RT307" in c.codes()

    @pytest.mark.parametrize("where, constant", [
        ("L < 9223372036854775808", "always true"),
        # NumPy compares a long int with a float in float64, where the
        # type's largest value is 2**63 too: none is greater.
        ("L > 9223372036854775807.0", "always false"),
    ])
    def test_rt307_at_the_end_of_a_64_bit_range(self, typed, where, constant):
        c = check(typed, f"SELECT * FROM TypedData WHERE {where}")
        assert constant in [d.message for d in c if d.code == "RT307"][0]

    def test_no_rt307_inside_range(self, typed):
        assert "RT307" not in check(
            typed, "SELECT * FROM TypedData WHERE S > 30000"
        ).codes()


# ---------------------------------------------------------------------------
# RT308 + function signatures (variadic arity satellite)
# ---------------------------------------------------------------------------


class TestSignatures:
    def test_builtin_signatures_declared(self):
        assert DEFAULT_REGISTRY.arity("SPEED") == (3, 3)
        assert DEFAULT_REGISTRY.arity("DISTANCE") == (1, None)
        sig = DEFAULT_REGISTRY.signature("DISTANCE")
        assert sig == FunctionSignature(1, None)

    def test_variadic_zero_args_is_an_arity_error(self, typed):
        # regression: DISTANCE(*coords) introspects as (0, None), so the
        # analyzer used to accept DISTANCE() and fail at runtime.
        c = check(typed, "SELECT * FROM TypedData WHERE DISTANCE() > 1")
        assert "RQ205" in c.codes()

    @pytest.mark.parametrize("args", ["F", "F, D", "F, D, T"])
    def test_variadic_accepts_one_or_more(self, typed, args):
        c = check(typed, f"SELECT * FROM TypedData WHERE DISTANCE({args}) > 1")
        assert "RQ205" not in c.codes()

    def test_rt308_unsigned_function_reported_once(self, typed):
        registry = DEFAULT_REGISTRY.child()
        registry.register("CUBE", lambda x: x**3)
        c = check(
            typed,
            "SELECT * FROM TypedData WHERE CUBE(F) > 1 AND CUBE(D) < 9",
            functions=registry,
        )
        assert [d.code for d in c if d.code == "RT308"] == ["RT308"]
        assert c.by_severity(Severity.INFO)

    def test_no_rt308_with_declared_signature(self, typed):
        registry = DEFAULT_REGISTRY.child()

        @filter_function("CUBE", registry=registry, signature=FunctionSignature(1, 1))
        def cube(x):
            return x**3

        c = check(
            typed, "SELECT * FROM TypedData WHERE CUBE(F) > 1", functions=registry
        )
        assert "RT308" not in c.codes()

    def test_child_override_hides_parent_signature(self):
        registry = DEFAULT_REGISTRY.child()
        registry.register("SPEED", lambda a, b: a + b)  # no signature
        assert registry.signature("SPEED") is None
        assert registry.arity("SPEED") == (2, 2)  # introspection fallback
        # the parent is untouched
        assert DEFAULT_REGISTRY.arity("SPEED") == (3, 3)


# ---------------------------------------------------------------------------
# Spans and strict mode
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_rt_findings_carry_spans_into_sql_text(self, typed):
        sql = "SELECT * FROM TypedData WHERE S > 40000"
        c = check(typed, sql)
        diag = [d for d in c if d.code == "RT307"][0]
        assert diag.span is not None
        assert sql[diag.span.column - 1] == "S"

    def test_programmatic_query_without_spans(self, typed):
        query = parse_query("SELECT * FROM TypedData WHERE T = 2.5")
        collector = Collector()
        typecheck_query(typed, query, DEFAULT_REGISTRY, collector)
        assert rt_codes(collector) == ["RT306"]
        assert all(d.span is None for d in collector)

    def test_strict_mode_rejects_type_error_before_reading(self, ipars_l0):
        from repro.core import ExecOptions, Virtualizer

        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as virt:
            with pytest.raises(QueryValidationError) as exc:
                virt.query(
                    "SELECT X FROM IparsData WHERE SPEED(X, Y, Z) = 'fast'",
                    options=ExecOptions(remote=False, strict=True),
                )
            assert "static-analysis" in str(exc.value)
            assert virt.stats.read_calls == 0
            assert virt.stats.files_opened == 0

    def test_strict_mode_allows_clean_query(self, ipars_l0):
        from repro.core import ExecOptions, Virtualizer

        _, text, mount = ipars_l0
        with Virtualizer(text, mount) as virt:
            table = virt.query(
                "SELECT X FROM IparsData WHERE TIME > 2 AND SPEED(X, Y, Z) >= 0",
                options=ExecOptions(remote=False, strict=True),
            )
            assert table.num_rows > 0
