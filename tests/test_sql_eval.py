"""Tests for vectorised predicate evaluation and the function registry."""

import numpy as np
import pytest

from repro.errors import QueryValidationError
from repro.sql import DEFAULT_REGISTRY, FunctionRegistry, filter_function, parse_where
from repro.sql.functions import distance, speed


@pytest.fixture
def columns():
    return {
        "A": np.array([1.0, 2.0, 3.0, 4.0]),
        "B": np.array([4.0, 3.0, 2.0, 1.0]),
        "T": np.array([10, 20, 30, 40]),
    }


def evaluate(text, columns, functions=DEFAULT_REGISTRY):
    return np.asarray(parse_where(text).evaluate(columns, functions))


class TestEvaluation:
    def test_comparison(self, columns):
        np.testing.assert_array_equal(
            evaluate("A <= 2", columns), [True, True, False, False]
        )

    def test_and_or(self, columns):
        np.testing.assert_array_equal(
            evaluate("A <= 2 OR B <= 1", columns), [True, True, False, True]
        )
        np.testing.assert_array_equal(
            evaluate("A <= 3 AND B <= 3", columns), [False, True, True, False]
        )

    def test_not(self, columns):
        np.testing.assert_array_equal(
            evaluate("NOT A <= 2", columns), [False, False, True, True]
        )

    def test_in_list(self, columns):
        np.testing.assert_array_equal(
            evaluate("T IN (10, 40)", columns), [True, False, False, True]
        )

    def test_between(self, columns):
        np.testing.assert_array_equal(
            evaluate("T BETWEEN 20 AND 30", columns), [False, True, True, False]
        )

    def test_column_to_column(self, columns):
        np.testing.assert_array_equal(
            evaluate("A < B", columns), [True, True, False, False]
        )

    def test_boolean_literal(self, columns):
        assert evaluate("TRUE", columns) == np.True_

    def test_unknown_column(self, columns):
        with pytest.raises(QueryValidationError, match="unknown attribute"):
            evaluate("GHOST < 1", columns)


class TestBuiltinFunctions:
    def test_speed(self):
        out = speed(np.array([3.0]), np.array([4.0]), np.array([0.0]))
        np.testing.assert_allclose(out, [5.0])

    def test_distance(self):
        out = distance(np.array([1.0]), np.array([2.0]), np.array([2.0]))
        np.testing.assert_allclose(out, [3.0])

    def test_distance_any_arity(self):
        np.testing.assert_allclose(distance(np.array([5.0])), [5.0])

    def test_distance_no_args(self):
        with pytest.raises(QueryValidationError):
            distance()

    @staticmethod
    def old_distance(*coords):
        """The pre-accumulator formula: a fresh temporary per term."""
        acc = np.zeros_like(np.asarray(coords[0], dtype=np.float64))
        for coord in coords:
            c = np.asarray(coord, dtype=np.float64)
            acc = acc + c * c
        return np.sqrt(acc)

    @staticmethod
    def old_speed(vx, vy, vz):
        vx, vy, vz = (np.asarray(v, dtype=np.float64) for v in (vx, vy, vz))
        return np.sqrt(vx * vx + vy * vy + vz * vz)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_accumulation_is_bit_identical(self, dtype):
        info = np.finfo(dtype)
        special = [
            np.nan, np.inf, -np.inf, -0.0, 0.0, info.smallest_subnormal,
            -info.smallest_subnormal, info.tiny, info.max, -info.max, 1.0,
        ]
        rng = np.random.default_rng(21)
        cols = [
            np.concatenate(
                [rng.permutation(special), rng.normal(0, 1e3, 200)]
            ).astype(dtype)
            for _ in range(3)
        ]
        scalars = [2.5, -0.0, np.nan, np.float32(3.0)]
        cases = [
            cols, cols[:1], cols[:2], [scalars[0], cols[1]],
            [cols[0], scalars[1], cols[2]], [cols[2], scalars[2]],
            scalars[:2], [scalars[3]],
        ]
        with np.errstate(all="ignore"):  # info.max squared overflows
            for args in cases:
                want = self.old_distance(*args)
                got = distance(*args)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want, equal_nan=True), args
            for args in (cols, [cols[0], scalars[0], cols[2]], scalars[:3]):
                want = self.old_speed(*args)
                assert np.array_equal(speed(*args), want, equal_nan=True), args
            for col in cols:  # inputs are never written
                assert not np.shares_memory(distance(col), col)

    def test_speed_in_predicate(self, ):
        cols = {
            "VX": np.array([3.0, 30.0]),
            "VY": np.array([4.0, 40.0]),
            "VZ": np.array([0.0, 0.0]),
        }
        np.testing.assert_array_equal(
            evaluate("SPEED(VX, VY, VZ) < 30", cols), [True, False]
        )


class TestRegistry:
    def test_case_insensitive(self):
        assert "speed" in DEFAULT_REGISTRY
        assert "SPEED" in DEFAULT_REGISTRY

    def test_unknown_function(self):
        with pytest.raises(QueryValidationError, match="not registered"):
            DEFAULT_REGISTRY.get("NOPE")

    def test_register_custom(self):
        registry = FunctionRegistry()
        registry.register("DOUBLE", lambda x: x * 2)
        cols = {"A": np.array([1.0, 5.0])}
        out = evaluate("DOUBLE(A) > 4", cols, registry)
        np.testing.assert_array_equal(out, [False, True])

    def test_child_registry_layers(self):
        child = DEFAULT_REGISTRY.child()
        child.register("EXTRA", lambda x: x)
        assert "EXTRA" in child
        assert "SPEED" in child  # inherited
        assert "EXTRA" not in DEFAULT_REGISTRY

    def test_child_overrides(self):
        child = DEFAULT_REGISTRY.child()
        child.register("SPEED", lambda *a: np.zeros_like(a[0]))
        cols = {"V": np.array([100.0])}
        out = evaluate("SPEED(V, V, V) < 1", cols, child)
        assert out.all()

    def test_decorator(self):
        registry = FunctionRegistry()

        @filter_function("TRIPLE", registry)
        def triple(x):
            return x * 3

        assert registry.get("triple")(2) == 6

    def test_invalid_name(self):
        registry = FunctionRegistry()
        with pytest.raises(QueryValidationError, match="invalid"):
            registry.register("BAD NAME", lambda x: x)

    def test_names_listing(self):
        registry = FunctionRegistry(parent=DEFAULT_REGISTRY)
        registry.register("LOCAL", lambda x: x)
        names = set(registry.names())
        assert {"LOCAL", "SPEED", "DISTANCE"} <= names
