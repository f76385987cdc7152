"""Filtering service: vectorised residual predicate evaluation.

STORM's filtering service "is responsible for execution of user-defined
filters" (paper Section 2.3).  Chunk- and file-level pruning uses only the
*necessary* range conditions; every extracted row still passes through the
full WHERE expression here, including user-defined filter functions, so
pruning can never change results.

Two evaluation paths produce bit-identical masks (see
docs/architecture.md, "Vectorized execution"):

* ``vectorize=True`` compiles the WHERE once per distinct predicate into
  a fused numpy batch kernel (:mod:`repro.core.kernels`, cached per
  service) — the default through ``ExecOptions.vectorize="on"``;
* ``vectorize=False`` walks the AST per block, the interpreted oracle
  retained for the ablation knob and the equivalence tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.kernels import CompiledPredicate, KernelCache
from ..core.stats import IOStats
from ..core.table import VirtualTable, own_column
from ..obs.tracer import NULL_TRACER
from ..sql.ast import Node
from ..sql.functions import DEFAULT_REGISTRY, FunctionRegistry


class FilteringService:
    """Applies a query's residual predicate to extracted column blocks."""

    def __init__(self, functions: Optional[FunctionRegistry] = None):
        self.functions = functions or DEFAULT_REGISTRY
        self._kernels = KernelCache(self.functions)

    def kernel_for(self, where: Node, tracer=NULL_TRACER):
        """The compiled kernel for a WHERE node (cached per predicate)."""
        return self._kernels.get(where, tracer)

    def apply(
        self,
        where: Optional[Node],
        columns: Dict[str, np.ndarray],
        output: List[str],
        num_rows: int,
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
        vectorize: bool = False,
        kernel: Optional[CompiledPredicate] = None,
    ) -> Optional[Dict[str, np.ndarray]]:
        """Filter one block; returns projected columns or None if empty.

        ``columns`` may contain WHERE-only attributes beyond ``output``;
        the result contains exactly ``output``, as owned arrays.
        ``kernel`` is a pre-resolved :meth:`kernel_for` ``where`` —
        callers filtering many blocks with one predicate pass it to skip
        the per-block cache lookup (a hash of the whole WHERE tree).
        """
        if tracer.enabled and where is not None:
            with tracer.span(
                "filter", rows=num_rows, vectorized=vectorize
            ) as span:
                selected = self._apply(
                    where, columns, output, num_rows, stats, tracer,
                    vectorize, kernel,
                )
                if selected is None:
                    span.tag(out=0)
                elif output:
                    span.tag(out=int(len(selected[output[0]])))
            return selected
        return self._apply(
            where, columns, output, num_rows, stats, tracer, vectorize, kernel
        )

    def refilter(
        self,
        where: Optional[Node],
        table: VirtualTable,
        output: List[str],
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
        vectorize: bool = False,
    ) -> VirtualTable:
        """Re-run a full WHERE over a cached superset table (subsumption).

        The cached table stores every column the original query needed,
        so the predicate has all its inputs; the result carries exactly
        ``output`` in order.  ``own_column`` inside :meth:`apply` copies
        the frozen cached arrays, so callers get writable columns and
        can never mutate the cache through the result.
        """
        columns = {name: table.column(name) for name in table.column_names}
        selected = self.apply(
            where, columns, output, table.num_rows, stats, tracer, vectorize
        )
        if selected is None:
            # Even the empty projection must go through own_column: a bare
            # ``columns[name][:0]`` is a zero-length *view* of the frozen
            # cached array, and callers are promised writable columns that
            # never alias the cache.
            return VirtualTable(
                {name: own_column(columns[name][:0]) for name in output},
                order=output,
            )
        return VirtualTable(selected, order=output)

    def _apply(
        self,
        where: Optional[Node],
        columns: Dict[str, np.ndarray],
        output: List[str],
        num_rows: int,
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
        vectorize: bool = False,
        kernel: Optional[CompiledPredicate] = None,
    ) -> Optional[Dict[str, np.ndarray]]:
        # own_column: extracted columns can be read-only zero-copy views
        # over segment-cache payloads; never emit those to callers.
        if where is None:
            selected = {name: own_column(columns[name]) for name in output}
            count = num_rows
        else:
            if vectorize:
                if kernel is None:
                    kernel = self._kernels.get(where, tracer)
                mask = np.asarray(
                    kernel.evaluate(columns, num_rows, tracer=tracer)
                )
                if stats is not None:
                    stats.rows_vectorized += num_rows
            else:
                mask = np.asarray(where.evaluate(columns, self.functions))
            if mask.ndim == 0:
                if not bool(mask):
                    return None
                selected = {name: own_column(columns[name]) for name in output}
                count = num_rows
            else:
                count = int(mask.sum())
                if count == 0:
                    return None
                selected = {
                    name: own_column(columns[name][mask])
                    for name in output
                }
        if stats is not None:
            stats.rows_output += count
        return selected
