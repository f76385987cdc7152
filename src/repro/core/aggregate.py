"""Partial aggregation: the vectorised kernel behind aggregate pushdown.

An aggregate query (``COUNT``/``SUM``/``MIN``/``MAX``/``AVG``, optionally
``GROUP BY``) is planned as a *base row plan* — the grouping attributes
plus every aggregate argument — with an :class:`AggregateSpec` attached.
Each data-source node folds its extracted blocks into a **partial state
frame** instead of shipping rows; the coordinator merges the per-node
frames and finalises them into the result table.  A terabyte scan thus
returns kilobytes: the wire carries one state row per (node, group).

The state frame is an ordinary :class:`~repro.core.table.VirtualTable`
whose columns are the group keys plus one or two state columns per
aggregate item (``AVG`` travels as an exact (sum, count) pair; the
division happens once, at finalisation), so the existing wire encoding of
result tables serialises partial aggregates with no new frame types.

Merging is exact by construction: COUNT and SUM states add, MIN/MAX
states take min/max, and AVG divides only after every partial sum and
count has been combined — a merge of partials can never drift from a
single-pass aggregation the way a mean-of-means would.

Semantics notes (docs/language.md):

* No attribute is ever NULL in this storage model, so ``COUNT(attr)``
  equals ``COUNT(*)`` and SUM/MIN/MAX/AVG never skip rows.
* A query matching zero rows returns a **zero-row** table — including
  ungrouped aggregates, where SQL would return one all-NULL row.  With
  no NULL representation, a zero-row frame is the only shape that keeps
  dtypes stable and merges associative.
* Result rows are ordered by the group key ascending (deterministic
  regardless of node count, thread interleaving, or transport).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryValidationError
from ..sql.ast import Aggregate, BoolLiteral, Query
from ..sql.typecheck import (
    aggregate_output_dtype,
    aggregate_state_dtypes,
    sum_accumulator_dtype,
)
from .table import VirtualTable

__all__ = [
    "AggregateSpec",
    "aggregate_spec",
    "partial_aggregate",
    "merge_partials",
    "finalize",
    "aggregate_rows",
    "summary_answer",
]


@dataclass(frozen=True)
class AggregateSpec:
    """Everything execution needs to know about one aggregate query.

    ``group_by``    grouping attributes, in GROUP BY order.
    ``items``       aggregate select items, in SELECT order.
    ``output``      final output column labels, in SELECT order (bare
                    group attributes and aggregate labels like
                    ``SUM(SOIL)``); for a pure GROUP BY query (DISTINCT
                    semantics) this is just the selected group columns.
    """

    group_by: Tuple[str, ...]
    items: Tuple[Aggregate, ...]
    output: Tuple[str, ...]

    # -- state-frame schema ---------------------------------------------------

    def state_columns(
        self, dtypes: Mapping[str, np.dtype]
    ) -> List[Tuple[str, np.dtype]]:
        """(name, dtype) of every column of the partial state frame.

        State column names are index-based (``__agg0_sum`` ...) so two
        identical items — or a ``SUM(X)`` next to an ``AVG(X)`` — never
        collide, and can never shadow a schema attribute.
        """
        out: List[Tuple[str, np.dtype]] = [
            (name, np.dtype(dtypes.get(name, np.float64)))
            for name in self.group_by
        ]
        for i, item in enumerate(self.items):
            for suffix, dtype in self._state_parts(item, dtypes):
                out.append((f"__agg{i}_{suffix}", dtype))
        return out

    @staticmethod
    def _state_parts(
        item: Aggregate, dtypes: Mapping[str, np.dtype]
    ) -> List[Tuple[str, np.dtype]]:
        # The accumulator/output widths are the *static dtype policy*,
        # decided once in repro.sql.typecheck (shared with the RT305
        # overflow warning): int64 keeps integer sums exact, float64
        # keeps float partials merge-order independent for inputs whose
        # sums are representable.
        if item.func == "count":
            return [("count", np.dtype(np.int64))]
        col_dtype = np.dtype(dtypes.get(item.column, np.float64))
        if item.func in ("min", "max"):
            return [(item.func, col_dtype)]
        state = aggregate_state_dtypes(item.func, col_dtype)
        if item.func == "sum":
            return [("sum", state[0])]
        return [("sum", state[0]), ("count", state[1])]  # avg

    def empty_state(self, dtypes: Mapping[str, np.dtype]) -> VirtualTable:
        """The zero-row partial frame (what an empty node contributes)."""
        schema = self.state_columns(dtypes)
        return VirtualTable(
            {name: np.empty(0, dtype=dt) for name, dt in schema},
            order=[name for name, _ in schema],
        )

    def output_dtypes(
        self, dtypes: Mapping[str, np.dtype]
    ) -> Dict[str, np.dtype]:
        """dtype of every final output column, by label: in native byte
        order, like every result column."""
        out: Dict[str, np.dtype] = {}
        for name in self.group_by:
            out[name] = np.dtype(dtypes.get(name, np.float64))
        for item in self.items:
            col_dtype = (
                None
                if item.column is None
                else np.dtype(dtypes.get(item.column, np.float64))
            )
            out[item.label] = aggregate_output_dtype(item.func, col_dtype)
        return {name: out[name].newbyteorder("=") for name in self.output}


def aggregate_spec(query: Query, schema_names: Sequence[str]) -> AggregateSpec:
    """Build and validate the spec for a resolved aggregate query.

    Enforces the SQL grouping rule: a bare select item must appear in
    GROUP BY (the diag analyzer reports the same condition as RQ211
    before execution).
    """
    group_by: List[str] = []
    for name in query.group_by or []:
        if name not in schema_names:
            raise QueryValidationError(
                f"GROUP BY references unknown attribute {name!r}"
            )
        if name not in group_by:
            group_by.append(name)
    items: List[Aggregate] = []
    output: List[str] = []
    for item in query.select or []:
        if isinstance(item, Aggregate):
            if item.column is not None and item.column not in schema_names:
                raise QueryValidationError(
                    f"{item.label} references unknown attribute "
                    f"{item.column!r}"
                )
            items.append(item)
            output.append(item.label)
        else:
            if item not in schema_names:
                raise QueryValidationError(
                    f"SELECT references unknown attribute {item!r}"
                )
            if item not in group_by:
                raise QueryValidationError(
                    f"bare attribute {item!r} in an aggregate SELECT must "
                    "appear in GROUP BY"
                )
            output.append(item)
    if query.select is None:
        # SELECT * with GROUP BY: project the group key (DISTINCT rows).
        output = list(group_by)
    return AggregateSpec(tuple(group_by), tuple(items), tuple(output))


# ---------------------------------------------------------------------------
# Vectorised grouping
# ---------------------------------------------------------------------------


def _group_layout(keys: List[np.ndarray], num_rows: int):
    """Sort-based grouping of parallel key arrays.

    Returns ``(order, starts, uniques)``: ``order`` permutes rows so
    equal keys are adjacent, ``starts`` indexes the first row of each
    group within the permuted view, and ``uniques`` holds each group's
    key values (one array per key column).  ``np.*.reduceat`` over the
    permuted values then folds every group in one vectorised call.
    """
    if not keys:
        order = np.arange(num_rows)
        starts = np.zeros(1 if num_rows else 0, dtype=np.intp)
        return order, starts, []
    # lexsort's last key is primary; group_by order is primary-first.
    order = np.lexsort(tuple(reversed(keys)))
    sorted_keys = [np.asarray(k)[order] for k in keys]
    if num_rows == 0:
        return order, np.zeros(0, dtype=np.intp), [k[:0] for k in sorted_keys]
    new_group = np.zeros(num_rows, dtype=bool)
    new_group[0] = True
    for k in sorted_keys:
        new_group[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new_group)
    uniques = [k[starts] for k in sorted_keys]
    return order, starts, uniques


def partial_aggregate(
    spec: AggregateSpec,
    columns: Mapping[str, np.ndarray],
    num_rows: int,
    dtypes: Mapping[str, np.dtype],
) -> VirtualTable:
    """Fold one block of base rows into a partial state frame.

    ``columns`` holds the base plan's output columns (group keys and
    aggregate arguments) after filtering; ``num_rows`` is their length
    (passed explicitly so pure ``COUNT(*)`` plans, which materialise no
    columns at all, still count their rows).
    """
    schema = spec.state_columns(dtypes)
    if num_rows == 0:
        return spec.empty_state(dtypes)
    keys = [np.asarray(columns[name]) for name in spec.group_by]
    order, starts, uniques = _group_layout(keys, num_rows)
    counts = np.diff(starts, append=num_rows).astype(np.int64)

    out: Dict[str, np.ndarray] = {}
    for name, unique in zip(spec.group_by, uniques):
        out[name] = unique
    for i, item in enumerate(spec.items):
        if item.func == "count":
            out[f"__agg{i}_count"] = counts
            continue
        values = np.asarray(columns[item.column])[order]
        if item.func in ("sum", "avg"):
            sum_dtype = sum_accumulator_dtype(values.dtype)
            sums = np.add.reduceat(values.astype(sum_dtype), starts)
            out[f"__agg{i}_sum"] = np.atleast_1d(sums)
            if item.func == "avg":
                out[f"__agg{i}_count"] = counts
        elif item.func == "min":
            out[f"__agg{i}_min"] = np.atleast_1d(
                np.minimum.reduceat(values, starts)
            )
        else:
            out[f"__agg{i}_max"] = np.atleast_1d(
                np.maximum.reduceat(values, starts)
            )
    # Cast to the declared state schema so every partial frame — from any
    # node, any transport — concatenates and merges without promotion.
    final = {
        name: np.ascontiguousarray(out[name], dtype=dt)
        for name, dt in schema
    }
    return VirtualTable(final, order=[name for name, _ in schema])


def merge_partials(
    spec: AggregateSpec,
    frames: Sequence[VirtualTable],
    dtypes: Mapping[str, np.dtype],
) -> VirtualTable:
    """Combine partial state frames into one (still a state frame).

    Exact for every item: counts and sums add, mins/maxes reduce, and
    AVG pairs merge component-wise — associative and commutative, so the
    result is independent of how rows were split across nodes or blocks.
    """
    frames = [f for f in frames if f is not None and f.num_rows > 0]
    if not frames:
        return spec.empty_state(dtypes)
    schema = spec.state_columns(dtypes)
    merged: Dict[str, np.ndarray] = {
        name: np.concatenate([np.asarray(f.column(name)) for f in frames])
        for name, _ in schema
    }
    num_rows = len(next(iter(merged.values()))) if merged else 0
    keys = [merged[name] for name in spec.group_by]
    order, starts, uniques = _group_layout(keys, num_rows)

    out: Dict[str, np.ndarray] = {}
    for name, unique in zip(spec.group_by, uniques):
        out[name] = unique
    for i, item in enumerate(spec.items):
        for suffix in _state_suffixes(item):
            name = f"__agg{i}_{suffix}"
            values = merged[name][order]
            if suffix in ("count", "sum"):
                out[name] = np.atleast_1d(np.add.reduceat(values, starts))
            elif suffix == "min":
                out[name] = np.atleast_1d(np.minimum.reduceat(values, starts))
            else:
                out[name] = np.atleast_1d(np.maximum.reduceat(values, starts))
    final = {
        name: np.ascontiguousarray(out[name], dtype=dt)
        for name, dt in schema
    }
    return VirtualTable(final, order=[name for name, _ in schema])


def _state_suffixes(item: Aggregate) -> Tuple[str, ...]:
    if item.func == "count":
        return ("count",)
    if item.func == "avg":
        return ("sum", "count")
    return (item.func,)


def finalize(
    spec: AggregateSpec,
    state: VirtualTable,
    dtypes: Mapping[str, np.dtype],
) -> VirtualTable:
    """Turn a fully-merged state frame into the user-facing result table.

    Rows come out sorted by the group key ascending; AVG divides its
    exact (sum, count) pair here, once.
    """
    num_rows = state.num_rows
    if spec.group_by and num_rows:
        keys = [np.asarray(state.column(name)) for name in spec.group_by]
        order = np.lexsort(tuple(reversed(keys)))
    else:
        order = np.arange(num_rows)
    out_dtypes = spec.output_dtypes(dtypes)
    columns: Dict[str, np.ndarray] = {}
    agg_arrays: Dict[str, np.ndarray] = {}
    for i, item in enumerate(spec.items):
        if item.func == "count":
            values = np.asarray(state.column(f"__agg{i}_count"))[order]
        elif item.func == "avg":
            sums = np.asarray(state.column(f"__agg{i}_sum"))[order]
            counts = np.asarray(state.column(f"__agg{i}_count"))[order]
            with np.errstate(invalid="ignore", divide="ignore"):
                values = sums.astype(np.float64) / counts
        else:
            values = np.asarray(state.column(f"__agg{i}_{item.func}"))[order]
        agg_arrays[item.label] = values
    for label in spec.output:
        if label in spec.group_by:
            source = np.asarray(state.column(label))[order]
        else:
            source = agg_arrays[label]
        columns[label] = np.ascontiguousarray(source, dtype=out_dtypes[label])
    return VirtualTable(columns, order=list(spec.output))


def summary_answer(plan, summaries) -> Optional[VirtualTable]:
    """Answer a residual-free ungrouped COUNT/MIN/MAX from metadata.

    When every AFC's bounds are known — implicit attributes carry theirs
    in the plan, stored attributes need a chunk-summary entry for every
    chunk storing them — the final result table is computable with zero
    data-chunk reads: COUNT is the planned row total, MIN/MAX fold the
    per-chunk bounds.  Returns ``None`` whenever anything falls outside
    that envelope (a residual predicate, a GROUP BY, an AVG/SUM item, a
    chunk without a summary), in which case the caller extracts normally.

    Sound only because the plan has no residual predicate: every planned
    row is in the result, so chunk-level bounds are exact global bounds.
    That includes a WHERE the index function decided entirely
    (``plan.decided``): each decided conjunct holds for every planned
    row, so ``... WHERE TIME BETWEEN a AND b`` is answered here too.
    """
    spec = plan.aggregate
    if spec is None or spec.group_by:
        return None
    where = plan.where
    if where is not None and not (
        isinstance(where, BoolLiteral) and where.value
    ):
        return None
    if any(item.func not in ("count", "min", "max") for item in spec.items):
        return None

    total = plan.planned_rows
    out_dtypes = spec.output_dtypes(plan.dtypes)
    if total == 0:
        return VirtualTable(
            {
                label: np.empty(0, dtype=out_dtypes[label])
                for label in spec.output
            },
            order=list(spec.output),
        )

    def attr_bounds(attr: str) -> Optional[Tuple[object, object]]:
        """(min, max) of ``attr`` across every planned AFC, or None: the
        parts' implicit hulls and their member chunks' summary columns,
        reduced by ``np.min``/``np.max`` in the field's dtype, so a NaN
        propagates as extraction's MIN/MAX propagates it."""
        lows: List[np.ndarray] = []
        highs: List[np.ndarray] = []
        for part in plan.afcs.parts:
            implicit = part.implicit_bounds(attr)
            if implicit is not None:
                lows.append(np.array([implicit[0]]))
                highs.append(np.array([implicit[1]]))
                continue
            stored = [
                (j, m) for j, m in enumerate(part.layout.members)
                if attr in m.strip.attrs
            ]
            if not stored or summaries is None:
                return None
            for j, m in stored:
                zone = summaries.gather(
                    m.node, m.path, (attr,), part.offsets[:, j]
                ).get(attr)
                if zone is None or not zone[0].all():
                    return None
                lows.append(zone[1])
                highs.append(zone[2])
        if not lows:
            return None
        return (
            np.min(np.concatenate(lows)).item(),
            np.max(np.concatenate(highs)).item(),
        )

    columns: Dict[str, np.ndarray] = {}
    for item in spec.items:
        if item.func == "count":
            value: object = total
        else:
            bounds = attr_bounds(item.column)
            if bounds is None:
                return None
            value = bounds[0] if item.func == "min" else bounds[1]
        columns[item.label] = np.array([value], dtype=out_dtypes[item.label])
    return VirtualTable(
        {label: columns[label] for label in spec.output},
        order=list(spec.output),
    )


def aggregate_rows(
    spec: AggregateSpec,
    table: VirtualTable,
    dtypes: Mapping[str, np.dtype],
    num_rows: Optional[int] = None,
) -> VirtualTable:
    """Client-side reference: aggregate a materialised base-row table.

    This is the pushdown ablation (``ExecOptions(agg_pushdown=False)``)
    and the oracle the pushdown path is tested bit-identical against.
    ``num_rows`` overrides the table's own count for the degenerate pure
    ``COUNT(*)`` case where the base plan materialised zero columns.
    """
    columns = {name: table.column(name) for name in table.column_names}
    n = table.num_rows if num_rows is None else num_rows
    state = partial_aggregate(spec, columns, n, dtypes)
    return finalize(spec, merge_partials(spec, [state], dtypes), dtypes)
