"""Filtering service: vectorised residual predicate evaluation.

STORM's filtering service "is responsible for execution of user-defined
filters" (paper Section 2.3).  Chunk- and file-level pruning uses only the
*necessary* range conditions; every extracted row still passes through the
residual WHERE here — every conjunct the index did not decide true for
all planned rows, user-defined filter functions included — so pruning can
never change results.

The service is a :class:`repro.core.kernels.KernelCache`: it owns the
predicate *evaluators*; the loop that applies one to columns is
:class:`repro.core.kernels.BlockPipeline`, the same for extracted
chunks, for one hand-fed block (:meth:`FilteringService.apply`) and for
a cached table re-filtered on a subsumption hit
(``KernelCache.refilter``).  Two evaluators produce
bit-identical masks (see docs/architecture.md, "Vectorized execution"):

* ``vectorize=True`` compiles the WHERE once per distinct predicate into
  a fused numpy batch kernel (:mod:`repro.core.kernels`, cached per
  service) — the default through ``ExecOptions.vectorize="on"``;
* ``vectorize=False`` walks the AST per block, the interpreted oracle
  retained for the ablation knob and the equivalence tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.kernels import (
    BlockPipeline,
    CompiledPredicate,
    KernelCache,
)
from ..core.stats import IOStats
from ..core.table import own_column
from ..obs.tracer import NULL_TRACER
from ..sql.ast import Node
from ..sql.functions import DEFAULT_REGISTRY, FunctionRegistry


class FilteringService(KernelCache):
    """Applies a query's residual predicate to extracted column blocks:
    the node services' :class:`~repro.core.kernels.KernelCache`, over
    the default function registry unless given one."""

    def __init__(self, functions: Optional[FunctionRegistry] = None):
        super().__init__(functions or DEFAULT_REGISTRY)

    #: The compiled kernel for a WHERE node (cached per predicate).
    kernel_for = KernelCache.get

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
        evaluator = kernel or self.evaluator(where, vectorize, tracer)
        block = BlockPipeline(
            evaluator, list(columns), output, 1, stats, tracer
        ).add(columns, num_rows)
        if block is None:
            return None
        return {name: own_column(column) for name, column in block[0].items()}
