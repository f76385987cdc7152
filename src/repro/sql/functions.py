"""Registry of user-defined filter functions.

The query language admits application-specific filters such as
``SPEED(OILVX, OILVY, OILVZ) <= 30.0`` (paper Figure 1) and
``DISTANCE(X, Y, Z) < 1000`` (paper Figure 7).  Functions are vectorised:
they receive numpy arrays (one per argument, aligned element-wise) and must
return an array of the same length.  They are assumed *pure* — same
inputs, same outputs — which is what lets the rewrite pass deduplicate
repeated calls and the result cache replay answers.

The default registry ships the two functions used in the paper's
evaluation; applications register their own with
:meth:`FunctionRegistry.register` or the :func:`filter_function` decorator,
optionally declaring a :class:`FunctionSignature` so the static analyzer
can check arity and argument types without calling the function.

**Vectorization contract.**  ``register(..., vectorized=True)`` declares
that a function accepts full numpy arrays and returns an aligned array —
the contract the compiled predicate kernels (``repro.core.kernels``)
need to call it directly over an evaluation block, or over the block's
surviving rows once cheaper conjuncts rejected most.  Functions left
at the default ``vectorized=False`` still work everywhere: the
interpreted path calls them exactly as before, and the kernels wrap
them in a batched ``np.vectorize`` adapter (one Python call per row —
correct but slow; the static analyzer notes the regression as RT309).
Declared-vectorized functions must also be *elementwise* (row i of the
output depends only on row i of the inputs) and total, which is what
makes fusing several chunks into one evaluation block, and calling a
function on any subset of its rows, sound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..errors import QueryValidationError

FilterFunction = Callable[..., np.ndarray]


@dataclass(frozen=True)
class FunctionSignature:
    """Declared static type information for a filter function.

    ``min_args``/``max_args`` bound the positional argument count
    (``max_args=None`` means variadic).  A declared signature takes
    precedence over ``inspect``-based introspection in
    :meth:`FunctionRegistry.arity` — this is what lets a ``*coords``
    builtin like DISTANCE declare that it requires *at least one*
    argument, where introspection can only see "zero or more".

    ``arg_kind``/``result_kind`` describe the value domain
    (``"numeric"`` or ``"string"``) for the typechecker; every shipped
    filter is numeric-in/numeric-out.
    """

    min_args: int
    max_args: Optional[int] = None
    arg_kind: str = "numeric"
    result_kind: str = "numeric"


_REGISTRATIONS = itertools.count(1)


class FunctionRegistry:
    """Case-insensitive name -> vectorised function mapping."""

    #: Moves on every registration in any registry: what was derived
    #: from a registry (static analysis findings) is stale once it has.
    generation = 0

    def __init__(self, parent: Optional["FunctionRegistry"] = None):
        self._functions: Dict[str, FilterFunction] = {}
        self._signatures: Dict[str, FunctionSignature] = {}
        self._vectorized: Dict[str, bool] = {}
        self._parent = parent

    def register(
        self,
        name: str,
        func: FilterFunction,
        signature: Optional[FunctionSignature] = None,
        vectorized: bool = False,
    ) -> None:
        key = name.upper()
        if not key.isidentifier():
            raise QueryValidationError(f"invalid function name {name!r}")
        self._functions[key] = func
        self._vectorized[key] = vectorized
        if signature is not None:
            self._signatures[key] = signature
        # Drawn, not incremented: racing registrations never share a value.
        FunctionRegistry.generation = next(_REGISTRATIONS)

    def get(self, name: str) -> FilterFunction:
        key = name.upper()
        registry: Optional[FunctionRegistry] = self
        while registry is not None:
            if key in registry._functions:
                return registry._functions[key]
            registry = registry._parent
        raise QueryValidationError(
            f"filter function {name!r} is not registered; "
            f"known functions: {sorted(self.names())}"
        )

    def __contains__(self, name: str) -> bool:
        try:
            self.get(name)
            return True
        except QueryValidationError:
            return False

    def signature(self, name: str) -> Optional[FunctionSignature]:
        """The declared signature of a function, or None if undeclared.

        Walks the parent chain from the registry that owns the
        function's name, so a child-registry override without a
        signature also hides the parent's signature.
        """
        key = name.upper()
        registry: Optional[FunctionRegistry] = self
        while registry is not None:
            if key in registry._functions:
                return registry._signatures.get(key)
            registry = registry._parent
        return None

    def is_vectorized(self, name: str) -> bool:
        """Whether the function declared the vectorized calling contract.

        Resolved at the registry that owns the *function* (same walk as
        :meth:`signature`): a child-registry override that does not
        declare ``vectorized=True`` also hides the parent's declaration —
        the override's body is what actually runs, so the parent's
        promise says nothing about it.  Unregistered names are False.
        """
        key = name.upper()
        registry: Optional[FunctionRegistry] = self
        while registry is not None:
            if key in registry._functions:
                return registry._vectorized.get(key, False)
            registry = registry._parent
        return False

    def arity(self, name: str) -> "Tuple[int, Optional[int]]":
        """(min, max) positional argument count of a registered function.

        ``max`` is None for variadic functions (``*args``).  A declared
        :class:`FunctionSignature` wins over introspection: a variadic
        ``*args`` builtin introspects as ``(0, None)`` even when it
        raises at runtime on zero arguments, so DISTANCE declares
        ``(1, None)`` and the static analyzer rejects ``DISTANCE()``
        instead of passing it through to a runtime error.  Used by the
        static query analyzer to flag arity mismatches before execution.
        """
        declared = self.signature(name)
        if declared is not None:
            return declared.min_args, declared.max_args

        import inspect

        func = self.get(name)
        try:
            signature = inspect.signature(func)
        except (TypeError, ValueError):  # builtins without introspection
            return 0, None
        minimum, maximum = 0, 0
        variadic = False
        for param in signature.parameters.values():
            if param.kind in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            ):
                maximum += 1
                if param.default is inspect.Parameter.empty:
                    minimum += 1
            elif param.kind is inspect.Parameter.VAR_POSITIONAL:
                variadic = True
        return minimum, (None if variadic else maximum)

    def names(self) -> Iterator[str]:
        registry: Optional[FunctionRegistry] = self
        seen = set()
        while registry is not None:
            for name in registry._functions:
                if name not in seen:
                    seen.add(name)
                    yield name
            registry = registry._parent

    def child(self) -> "FunctionRegistry":
        """A registry layered on this one (per-query overrides)."""
        return FunctionRegistry(parent=self)


#: Global default registry with the paper's two evaluation functions.
DEFAULT_REGISTRY = FunctionRegistry()


def filter_function(
    name: str,
    registry: Optional[FunctionRegistry] = None,
    signature: Optional[FunctionSignature] = None,
    vectorized: bool = False,
):
    """Decorator: register a filter function.

    >>> @filter_function("HALF", signature=FunctionSignature(1, 1),
    ...                  vectorized=True)
    ... def half(x):
    ...     return x / 2

    ``vectorized=True`` declares the array-in/array-out elementwise
    contract (see the module docstring); leave it off for scalar
    functions and the compiled kernels fall back to ``np.vectorize``.
    """

    def wrap(func: FilterFunction) -> FilterFunction:
        (registry or DEFAULT_REGISTRY).register(
            name, func, signature=signature, vectorized=vectorized
        )
        return func

    return wrap


def _root_sum_of_squares(values) -> np.ndarray:
    """``sqrt(v0*v0 + v1*v1 + ...)`` in float64, left to right, in one
    accumulator of the arguments' broadcast shape: the same operations
    in the same order as summing fresh temporaries (``0.0 + x == x``),
    so bit-identical, minus one allocation per term.  All-scalar
    arguments give a scalar."""
    terms = [np.asarray(value, dtype=np.float64) for value in values]
    acc = np.empty(np.broadcast_shapes(*(c.shape for c in terms)))
    np.square(terms[0], out=acc)
    for c in terms[1:]:
        np.add(acc, c * c, out=acc)
    return np.sqrt(acc, out=acc)[()]


@filter_function("SPEED", signature=FunctionSignature(3, 3), vectorized=True)
def speed(vx, vy, vz):
    """Magnitude of a velocity vector — the paper's IPARS Speed() filter."""
    return _root_sum_of_squares((vx, vy, vz))


@filter_function(
    "DISTANCE", signature=FunctionSignature(1, None), vectorized=True
)
def distance(*coords):
    """Euclidean distance from the origin — the paper's Titan filter."""
    if not coords:
        raise QueryValidationError("DISTANCE requires at least one argument")
    return _root_sum_of_squares(coords)
