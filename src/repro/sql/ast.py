"""Abstract syntax tree for the SQL subset.

Expression nodes know how to evaluate themselves vectorised over a mapping
of column name -> numpy array (plus a function registry for user-defined
filters), which is how the STORM filtering service applies the residual
predicate to extracted rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import QueryValidationError

Number = Union[int, float]
Value = Union[int, float, str]


def _render_value(value: Value) -> str:
    """A literal value as query text (strings quoted, infinities as
    ``1e999``), so the rendered form lexes back to the same value."""
    if isinstance(value, str):
        return f"'{value}'"
    if value in (math.inf, -math.inf):
        return "1e999" if value > 0 else "-1e999"
    return str(value)


def in_list_mask(data: np.ndarray, values: Sequence[Value]) -> np.ndarray:
    """Membership mask over ``data``: the OR of ``data == v`` over the
    values, each compared as the binary ``==`` compares it (NumPy 2's
    NEP 50, value by value), in one ``np.isin`` pass where it can:

    * values whose kind cannot match the column (a string against a
      numeric column, a number against a string column) are dropped —
      elementwise ``==`` across kinds is False everywhere;
    * on a float column each value is cast to the column's dtype, as
      ``==`` casts it (``0.1`` is float32(0.1) on float32), and on an
      integer column an int value stays exact, or is dropped outside
      the dtype's range, where it matches nothing; those go through
      ``np.isin`` in the column's dtype;
    * a float value on an integer column (or any value on another
      kind) is compared on its own, as ``==`` does: in float64, where
      ``2**53 + 1`` is ``2**53``;
    * NaN matches nothing either way (``NaN == NaN`` is False, and
      ``np.isin``'s sort-based path detects equality with ``==`` on
      adjacent elements).

    Shared by the interpreted :meth:`InList.evaluate` and the compiled
    predicate kernels, so both paths agree by construction.
    """
    kind = data.dtype.kind
    if kind in "US":
        return np.isin(data, [v for v in values if isinstance(v, str)])
    mask = np.zeros(data.shape, dtype=bool)
    same: List[Value] = []
    for value in values:
        if isinstance(value, (str, bool)):
            continue
        if kind == "f":
            with np.errstate(over="ignore"):
                same.append(data.dtype.type(value))
        elif kind not in "iu" or not isinstance(value, int):
            mask |= data == value
        elif np.iinfo(data.dtype).min <= value <= np.iinfo(data.dtype).max:
            same.append(value)
    return mask | np.isin(data, np.array(same, dtype=data.dtype))


class Node:
    """Base class for query AST nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Column(Node):
    """A reference to a virtual-table attribute."""

    name: str

    __slots__ = ("name",)

    def evaluate(self, columns: Mapping[str, np.ndarray], functions) -> np.ndarray:
        try:
            return columns[self.name]
        except KeyError:
            raise QueryValidationError(f"unknown attribute {self.name!r}") from None

    def referenced_columns(self) -> Tuple[str, ...]:
        return (self.name,)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Node):
    """A numeric or string constant."""

    value: Value

    __slots__ = ("value",)

    def evaluate(self, columns: Mapping[str, np.ndarray], functions):
        return self.value

    def referenced_columns(self) -> Tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return _render_value(self.value)


@dataclass(frozen=True)
class FunctionCall(Node):
    """A user-defined filter function applied to operands.

    The paper's Figure 1 example: ``SPEED(OILVX, OILVY, OILVZ) <= 30.0``.
    """

    name: str
    args: Tuple[Node, ...]

    __slots__ = ("name", "args")

    def evaluate(self, columns: Mapping[str, np.ndarray], functions) -> np.ndarray:
        func = functions.get(self.name)
        values = [arg.evaluate(columns, functions) for arg in self.args]
        return func(*values)

    def referenced_columns(self) -> Tuple[str, ...]:
        out: List[str] = []
        for arg in self.args:
            out.extend(arg.referenced_columns())
        return tuple(out)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


Operand = Union[Column, Literal, FunctionCall]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

_CMP = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Mirror of each comparison operator when operands are swapped.
MIRROR_OP = {"=": "=", "==": "==", "!=": "!=", "<>": "<>",
             "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: Negation of each comparison operator.
NEGATE_OP = {"=": "!=", "==": "!=", "!=": "=", "<>": "=",
             "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


@dataclass(frozen=True)
class Comparison(Node):
    """``left op right`` where op is a comparison operator."""

    op: str
    left: Node
    right: Node

    __slots__ = ("op", "left", "right")

    def __post_init__(self):
        if self.op not in _CMP:
            raise QueryValidationError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, columns, functions) -> np.ndarray:
        left = self.left.evaluate(columns, functions)
        right = self.right.evaluate(columns, functions)
        return _CMP[self.op](left, right)

    def referenced_columns(self) -> Tuple[str, ...]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class InList(Node):
    """``column IN (v1, v2, ...)`` — e.g. ``RID in (0,6,26,27)``."""

    operand: Node
    values: Tuple[Value, ...]

    __slots__ = ("operand", "values")

    def evaluate(self, columns, functions) -> np.ndarray:
        data = np.asarray(self.operand.evaluate(columns, functions))
        return in_list_mask(data, self.values)

    def referenced_columns(self) -> Tuple[str, ...]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        vals = ", ".join(_render_value(v) for v in self.values)
        return f"{self.operand} IN ({vals})"


@dataclass(frozen=True)
class Between(Node):
    """``column BETWEEN lo AND hi`` (inclusive both ends, SQL semantics)."""

    operand: Node
    lo: Value
    hi: Value

    __slots__ = ("operand", "lo", "hi")

    def evaluate(self, columns, functions) -> np.ndarray:
        data = self.operand.evaluate(columns, functions)
        return (data >= self.lo) & (data <= self.hi)

    def referenced_columns(self) -> Tuple[str, ...]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        return (
            f"{self.operand} BETWEEN {_render_value(self.lo)} "
            f"AND {_render_value(self.hi)}"
        )


@dataclass(frozen=True)
class And(Node):
    terms: Tuple[Node, ...]

    __slots__ = ("terms",)

    def __post_init__(self):
        # An empty conjunction used to evaluate to None, which every
        # consumer downstream misread as "no mask".  The rewrite pass
        # never builds one (it folds empty AND to TRUE); hand-built
        # trees fail here, at construction, with a typed error.
        if not self.terms:
            raise QueryValidationError(
                "AND requires at least one term; use BoolLiteral(True) "
                "for the empty conjunction"
            )

    def evaluate(self, columns, functions) -> np.ndarray:
        mask = None
        for term in self.terms:
            value = np.asarray(term.evaluate(columns, functions))
            mask = value if mask is None else (mask & value)
        return mask

    def referenced_columns(self) -> Tuple[str, ...]:
        out: List[str] = []
        for term in self.terms:
            out.extend(term.referenced_columns())
        return tuple(out)

    def __str__(self) -> str:
        # Nested And must be parenthesized too: AND is left-associative
        # in the parser, so an unparenthesized nested conjunction would
        # reparse flattened instead of round-tripping bit-identically.
        return " AND ".join(
            f"({t})" if isinstance(t, (And, Or)) else str(t)
            for t in self.terms
        )


@dataclass(frozen=True)
class Or(Node):
    terms: Tuple[Node, ...]

    __slots__ = ("terms",)

    def __post_init__(self):
        if not self.terms:
            raise QueryValidationError(
                "OR requires at least one term; use BoolLiteral(False) "
                "for the empty disjunction"
            )

    def evaluate(self, columns, functions) -> np.ndarray:
        mask = None
        for term in self.terms:
            value = np.asarray(term.evaluate(columns, functions))
            mask = value if mask is None else (mask | value)
        return mask

    def referenced_columns(self) -> Tuple[str, ...]:
        out: List[str] = []
        for term in self.terms:
            out.extend(term.referenced_columns())
        return tuple(out)

    def __str__(self) -> str:
        # A nested Or needs parens for the same reason as nested And;
        # an And term does not (AND binds tighter than OR).
        return " OR ".join(
            f"({t})" if isinstance(t, Or) else str(t) for t in self.terms
        )


@dataclass(frozen=True)
class Not(Node):
    term: Node

    __slots__ = ("term",)

    def evaluate(self, columns, functions) -> np.ndarray:
        return ~np.asarray(self.term.evaluate(columns, functions))

    def referenced_columns(self) -> Tuple[str, ...]:
        return self.term.referenced_columns()

    def __str__(self) -> str:
        return f"NOT ({self.term})"


@dataclass(frozen=True)
class BoolLiteral(Node):
    """``TRUE`` / ``FALSE`` — useful in tests and generated queries."""

    value: bool

    __slots__ = ("value",)

    def evaluate(self, columns, functions):
        return self.value

    def referenced_columns(self) -> Tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return "TRUE" if self.value else "FALSE"


# ---------------------------------------------------------------------------
# Aggregate select items
# ---------------------------------------------------------------------------

#: The supported reduction vocabulary (lower-case canonical spelling).
AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class Aggregate(Node):
    """One aggregate select item: ``COUNT(*)``, ``SUM(X)``, ``AVG(Y)`` ...

    ``column`` is ``None`` only for ``COUNT(*)``.  In this storage model
    no attribute is ever NULL, so ``COUNT(attr)`` counts exactly the same
    rows as ``COUNT(*)`` (documented in docs/language.md).
    """

    # No __slots__ here: the defaulted ``column`` field would collide
    # with the slot descriptor (a dataclass default is a class variable).
    func: str
    column: Optional[str] = None

    def __post_init__(self):
        if self.func not in AGGREGATE_FUNCTIONS:
            raise QueryValidationError(
                f"unknown aggregate function {self.func!r}; supported: "
                f"{', '.join(f.upper() for f in AGGREGATE_FUNCTIONS)}"
            )
        if self.column is None and self.func != "count":
            raise QueryValidationError(
                f"{self.func.upper()}(*) is not defined; only COUNT "
                "accepts '*'"
            )

    @property
    def label(self) -> str:
        """The output column name of this item, e.g. ``SUM(SOIL)``."""
        arg = "*" if self.column is None else self.column
        return f"{self.func.upper()}({arg})"

    def referenced_columns(self) -> Tuple[str, ...]:
        return () if self.column is None else (self.column,)

    def __str__(self) -> str:
        return self.label


#: A select-list entry: a bare attribute name or an aggregate.
SelectItem = Union[str, Aggregate]


# ---------------------------------------------------------------------------
# The query
# ---------------------------------------------------------------------------


@dataclass
class Query:
    """A parsed ``SELECT ... FROM ... [WHERE ...] [GROUP BY ...]`` query.

    ``select`` is ``None`` for ``SELECT *`` (all schema attributes, schema
    order); otherwise a list of select items in SELECT order — bare
    attribute names and/or :class:`Aggregate` items.  ``group_by`` lists
    the grouping attributes, or is ``None`` for an ungrouped query.
    """

    table: str
    select: Optional[List[SelectItem]] = None
    where: Optional[Node] = None
    group_by: Optional[List[str]] = None

    @property
    def is_select_star(self) -> bool:
        return self.select is None

    @property
    def is_aggregate(self) -> bool:
        """Whether this query runs through the aggregation pipeline
        (any aggregate select item, or a GROUP BY clause — the latter
        alone has DISTINCT semantics)."""
        if self.group_by is not None:
            return True
        return any(
            isinstance(item, Aggregate) for item in (self.select or [])
        )

    def aggregates(self) -> List[Aggregate]:
        """The aggregate select items, in SELECT order."""
        return [
            item for item in (self.select or []) if isinstance(item, Aggregate)
        ]

    def bare_select_names(self) -> List[str]:
        """The non-aggregate select items, in SELECT order."""
        return [
            item for item in (self.select or []) if isinstance(item, str)
        ]

    def projected_names(self, schema_names: Sequence[str]) -> List[str]:
        """Resolve the output column list against a schema.

        Only meaningful for plain (row) queries; aggregate queries
        project computed labels, resolved by the aggregate planner.
        """
        if self.select is None:
            return list(schema_names)
        names: List[str] = []
        for item in self.select:
            if isinstance(item, Aggregate):
                raise QueryValidationError(
                    f"aggregate item {item.label} has no schema projection; "
                    "aggregate queries are planned through the aggregation "
                    "pipeline"
                )
            if item not in schema_names:
                raise QueryValidationError(
                    f"SELECT references unknown attribute {item!r}"
                )
            names.append(item)
        return names

    def referenced_columns(self) -> Tuple[str, ...]:
        """All attributes the WHERE clause reads (deduplicated, ordered)."""
        if self.where is None:
            return ()
        seen: List[str] = []
        for name in self.where.referenced_columns():
            if name not in seen:
                seen.append(name)
        return tuple(seen)

    def __str__(self) -> str:
        cols = (
            "*"
            if self.select is None
            else ", ".join(str(item) for item in self.select)
        )
        text = f"SELECT {cols} FROM {self.table}"
        if self.where is not None:
            text += f" WHERE {self.where}"
        if self.group_by is not None:
            text += f" GROUP BY {', '.join(self.group_by)}"
        return text
