"""Compiled vectorized predicate kernels.

The paper's central move is shifting work from query time to compile
time: the descriptor is compiled once into a generated index function,
then every query reuses it.  This module extends that philosophy to the
row path.  The interpreted evaluator in ``repro.sql.ast`` walks the AST
once per chunk set — one Python dispatch and one intermediate array per
node per AFC — which dominates filter-heavy workloads now that the I/O
side is coalesced.  A :class:`CompiledPredicate` walks the (already
rewrite-canonicalized) WHERE **once**, producing a fused batch kernel
that every evaluation block reuses:

* **constant folding** — subtrees referencing no column are evaluated
  once at compile time (functions are pure by contract) and become
  scalars; a fully constant predicate never touches row data at all;
* **selectivity-ordered conjuncts** — the kernel tracks each top-level
  AND term's observed pass fraction (an EWMA over evaluated blocks) and
  runs the most selective terms first, short-circuiting the rest of the
  conjunction as soon as the running mask drains to all-False;
* **expensive conjuncts on the survivors only** — a conjunct that costs
  more than one pass over the block (a function call on row data, or an
  AND/OR/NOT combination, surviving constant folding) runs after every
  single-test one, and once the running mask keeps less than
  :data:`SELECTION_SHARE` of the block it runs on the surviving rows
  alone (a selection vector: ``np.flatnonzero`` of the mask, its
  columns taken by index), writing its verdict back into the mask;
* **in-place boolean ops** — AND/OR/NOT combine into reusable
  per-thread mask buffers (``np.logical_and(..., out=...)``) instead of
  allocating a fresh array per AST node;
* **IN via one pass** — membership tests lower to the shared
  :func:`repro.sql.ast.in_list_mask` (``np.isin``, sort-based) instead
  of one full-column equality scan per value;
* **vectorized UDFs** — functions registered with ``vectorized=True``
  are called directly on whole blocks; undeclared functions fall back
  to a batched ``np.vectorize`` adapter (correct but one Python call
  per row — the static analyzer flags the regression as RT309 and the
  tracer counts ``kernel.scalar_udf_calls``).

Bit-identity with the interpreted oracle is by construction: every leaf
uses the same elementwise operations (``ast._CMP``, ``in_list_mask``)
as the oracle, so a row gets the same bits whether it is evaluated in
the full block or among the survivors; boolean combination is
commutative so reordering cannot change bits; and early exit and the
selection vector only skip rows an earlier conjunct already rejected,
which no later term can bring back.  A term that evaluates to a
non-boolean array (no parser-produced predicate does) makes the kernel
defer the whole block to the interpreted evaluator, so even degenerate
hand-built trees agree exactly.

:class:`BlockPipeline` is where any predicate — this kernel, the
interpreted oracle, or none — meets extracted columns.  With a kernel,
small AFCs form fused evaluation blocks (one kernel evaluation, one
index gather per output column), which amortizes the per-chunk
Python overhead while preserving serial row order exactly.  The
extractor decodes a block's AFCs as one run straight into contiguous
columns (``AfcReader.columns``): the kernel is never handed strided
record views, over which every elementwise pass runs markedly slower.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..errors import QueryValidationError
from ..obs.tracer import NULL_TRACER
from ..sql.ast import (
    And,
    Between,
    Column,
    Comparison,
    FunctionCall,
    InList,
    Node,
    Not,
    Or,
    _CMP,
    in_list_mask,
)
from ..sql.functions import FunctionRegistry
from .stats import IOStats
from .table import Block, VirtualTable, own_column

#: Target bytes of needed-column data per fused evaluation block.  Small
#: AFCs are concatenated up to this much before one kernel pass; large
#: AFCs simply form their own block.  256 KiB keeps a block, its masks
#: and the kernel's temporaries L2-resident; the block-size sweep in
#: EXPERIMENTS.md ("Ablations") shows both sides of that optimum.
KERNEL_BLOCK_BYTES = 256 * 1024


def block_rows_for(needed: Sequence[str], dtypes: Mapping[str, np.dtype]) -> int:
    """Rows per fused block for a plan: :data:`KERNEL_BLOCK_BYTES` over
    the needed columns' row width, clamped to [1Ki, 64Ki] so very wide
    rows still amortize per-block overhead and very narrow ones keep
    mask buffers small."""
    width = sum(np.dtype(dtypes.get(n, np.float64)).itemsize for n in needed)
    return min(65536, max(1024, KERNEL_BLOCK_BYTES // max(1, width)))

#: Compile returns this for "not a compile-time constant".
_NOT_CONST = object()

#: EWMA smoothing for observed conjunct selectivity.
_SELECTIVITY_ALPHA = 0.25

#: An expensive conjunct runs on the surviving rows alone when the
#: conjuncts before it kept fewer than this share of the block; above
#: it, the index and the taken columns cost more than the rows they
#: save.
SELECTION_SHARE = 0.5

MaskLike = Union[np.ndarray, bool]


class _NonBooleanTerm(Exception):
    """A combinator term produced a non-boolean array; the kernel defers
    the block to the interpreted evaluator to mirror its exact (bitwise)
    semantics."""


class _Ctx:
    """One evaluation's state: the column block plus this thread's
    reusable mask buffers, indexed by compile-time slot."""

    __slots__ = ("columns", "num_rows", "bufs")

    def __init__(self, columns: Mapping[str, np.ndarray], num_rows: int,
                 bufs: List[Optional[np.ndarray]]):
        self.columns = columns
        self.num_rows = num_rows
        self.bufs = bufs

    def buffer(self, slot: int, n: int) -> np.ndarray:
        buf = self.bufs[slot]
        if buf is None or buf.shape[0] != n:
            buf = np.empty(n, dtype=bool)
            self.bufs[slot] = buf
        return buf


class _Conjunct:
    """One top-level AND term with its cost class and observed-selectivity
    estimate.

    ``expensive`` terms call a function on row data or combine several
    tests; they run after every single-test (cheap) term, over ``names``
    (the columns they read) taken at the surviving rows when few
    survive.  ``ewma`` is advisory only — it chooses evaluation *order*,
    never result bits — so it is updated without a lock; a lost update
    under concurrent blocks just leaves a slightly stale estimate.
    """

    __slots__ = ("fn", "expensive", "names", "ewma", "seen")

    def __init__(
        self,
        fn: Callable[[_Ctx], MaskLike],
        expensive: bool,
        names: Tuple[str, ...],
    ):
        self.fn = fn
        self.expensive = expensive
        self.names = names
        self.ewma = 1.0
        self.seen = False

    def observe(self, selectivity: float) -> None:
        if self.seen:
            self.ewma += _SELECTIVITY_ALPHA * (selectivity - self.ewma)
        else:
            self.ewma = selectivity
            self.seen = True


class CompiledPredicate:
    """A WHERE clause compiled once into a fused numpy batch kernel.

    Thread safe: mask buffers are per-thread, selectivity statistics are
    advisory, and the compiled closures themselves are immutable.  The
    returned mask may alias an internal per-thread buffer — consume it
    (count/gather) before the next ``evaluate`` call on the same thread,
    exactly like every in-repo consumer does.
    """

    def __init__(self, where: Node, functions: FunctionRegistry):
        self._where = where
        self._functions = functions
        self._num_slots = 0
        self._num_nodes = 0
        #: Nodes compiled so far that cost a conjunct more than one pass
        #: over its block: function calls and AND/OR/NOT combinations
        #: that constant folding left.
        self._num_costly = 0
        #: Names of referenced functions running through the np.vectorize
        #: fallback (registered without ``vectorized=True``).
        self.scalar_udfs: List[str] = []
        self._tls = threading.local()
        self._const: Union[object, bool] = _NOT_CONST
        self._conjuncts: List[_Conjunct] = []
        self._root_slot = 0
        self._compile_root(where)

    # -- compilation ---------------------------------------------------------

    def _compile_root(self, where: Node) -> None:
        if not where.referenced_columns():
            self._const = bool(self._fold(where))
            return
        terms = where.terms if isinstance(where, And) else (where,)
        conjuncts: List[_Conjunct] = []
        for term in terms:
            costly = self._num_costly
            fn, const = self._compile(term)
            if const is not _NOT_CONST:
                if not const:
                    self._const = False  # one False term drains the AND
                    return
                continue  # True is neutral in a conjunction
            names = tuple(dict.fromkeys(term.referenced_columns()))
            conjuncts.append(_Conjunct(fn, self._num_costly > costly, names))
        if not conjuncts:
            self._const = True
            return
        self._root_slot = self._new_slot()
        self._conjuncts = conjuncts

    def _fold(self, node: Node):
        """Evaluate a column-free subtree once, at compile time."""
        value = node.evaluate({}, self._functions)
        if isinstance(value, np.ndarray) and value.ndim == 0:
            value = value.item()
        return value

    def _new_slot(self) -> int:
        self._num_slots += 1
        return self._num_slots - 1

    def _compile(self, node: Node) -> Tuple[Callable[[_Ctx], MaskLike], object]:
        """Closure for one subtree, plus its folded value when constant."""
        self._num_nodes += 1
        if not node.referenced_columns() and not isinstance(node, (Column,)):
            value = self._fold(node)
            return (lambda ctx: value), value
        if isinstance(node, Column):
            name = node.name

            def load(ctx: _Ctx):
                try:
                    return ctx.columns[name]
                except KeyError:
                    raise QueryValidationError(
                        f"unknown attribute {name!r}"
                    ) from None

            return load, _NOT_CONST
        if isinstance(node, Comparison):
            return self._compile_comparison(node), _NOT_CONST
        if isinstance(node, Between):
            return self._compile_between(node), _NOT_CONST
        if isinstance(node, InList):
            return self._compile_in(node), _NOT_CONST
        if isinstance(node, And):
            return self._compile_chain(node.terms, is_and=True), _NOT_CONST
        if isinstance(node, Or):
            return self._compile_chain(node.terms, is_and=False), _NOT_CONST
        if isinstance(node, Not):
            return self._compile_not(node), _NOT_CONST
        if isinstance(node, FunctionCall):
            return self._compile_call(node), _NOT_CONST
        # Unknown node type (an extension subclass): defer to its own
        # interpreted evaluate, which is by definition the oracle.
        functions = self._functions
        return (lambda ctx: node.evaluate(ctx.columns, functions)), _NOT_CONST

    def _compile_comparison(self, node: Comparison):
        op = _CMP[node.op]
        left, _ = self._compile(node.left)
        right, _ = self._compile(node.right)

        def run(ctx: _Ctx):
            return op(left(ctx), right(ctx))

        return run

    def _compile_between(self, node: Between):
        operand, _ = self._compile(node.operand)
        lo, hi = node.lo, node.hi

        def run(ctx: _Ctx):
            data = operand(ctx)
            low = data >= lo
            high = data <= hi
            if (
                isinstance(low, np.ndarray)
                and low.dtype == np.bool_
                and isinstance(high, np.ndarray)
            ):
                # ``low`` is a fresh comparison result, safe to reuse.
                return np.logical_and(low, high, out=low)
            return low & high

        return run

    def _compile_in(self, node: InList):
        operand, _ = self._compile(node.operand)
        values = node.values

        def run(ctx: _Ctx):
            return in_list_mask(np.asarray(operand(ctx)), values)

        return run

    def _compile_not(self, node: Not):
        term, _ = self._compile(node.term)
        self._num_costly += 1
        slot = self._new_slot()

        def run(ctx: _Ctx):
            arr = np.asarray(term(ctx))
            if arr.ndim == 0:
                return not bool(arr)
            if arr.dtype != np.bool_:
                return ~arr  # mirror the interpreted bitwise ~
            return np.logical_not(arr, out=ctx.buffer(slot, arr.shape[0]))

        return run

    def _compile_chain(self, terms: Sequence[Node], is_and: bool):
        """A nested AND/OR: in-place combination with early exit, source
        order (only the *root* conjunction reorders by selectivity)."""
        fns = []
        costly = self._num_costly
        for term in terms:
            fn, const = self._compile(term)
            if const is not _NOT_CONST:
                if bool(const) != is_and:
                    # False in an AND / True in an OR decides the chain:
                    # the terms compiled into it never run.
                    self._num_costly = costly
                    decided = not is_and
                    return lambda ctx: decided
                continue  # neutral element
            fns.append(fn)
        if not fns:
            neutral = is_and
            return lambda ctx: neutral
        if len(fns) == 1:
            return fns[0]
        self._num_costly += 1
        slot = self._new_slot()
        combine = np.logical_and if is_and else np.logical_or

        def run(ctx: _Ctx):
            out = None
            for fn in fns:
                arr = np.asarray(fn(ctx))
                if arr.ndim == 0:
                    if bool(arr) != is_and:
                        return not is_and
                    continue
                if arr.dtype != np.bool_:
                    raise _NonBooleanTerm
                if out is None:
                    out = ctx.buffer(slot, arr.shape[0])
                    np.copyto(out, arr)
                else:
                    combine(out, arr, out=out)
                # Early exit: a drained AND / saturated OR is decided.
                if is_and:
                    if not out.any():
                        return out
                elif out.all():
                    return out
            if out is None:
                return is_and
            return out

        return run

    def _compile_call(self, node: FunctionCall):
        func = self._functions.get(node.name)
        if self._functions.is_vectorized(node.name):
            call = func
        else:
            # Batched elementwise adapter: correct for any pure scalar
            # function, but one Python call per row — the visible
            # regression RT309/kernel.scalar_udf_calls report.
            call = np.vectorize(func)
            self.scalar_udfs.append(node.name.upper())
        self._num_costly += 1
        args = [self._compile(arg)[0] for arg in node.args]

        def run(ctx: _Ctx):
            return call(*[fn(ctx) for fn in args])

        return run

    # -- evaluation ----------------------------------------------------------

    @property
    def num_conjuncts(self) -> int:
        return len(self._conjuncts)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def is_constant(self) -> bool:
        return self._const is not _NOT_CONST

    def _buffers(self) -> List[Optional[np.ndarray]]:
        bufs = getattr(self._tls, "bufs", None)
        if bufs is None or len(bufs) != self._num_slots:
            bufs = [None] * self._num_slots
            self._tls.bufs = bufs
        return bufs

    def evaluate(
        self,
        columns: Mapping[str, np.ndarray],
        num_rows: int,
        tracer=NULL_TRACER,
    ) -> MaskLike:
        """The predicate's mask over one block: a bool array of
        ``num_rows`` (possibly aliasing a per-thread buffer) or a scalar
        bool meaning all/no rows pass."""
        if self._const is not _NOT_CONST:
            return bool(self._const)
        if num_rows == 0:
            return np.zeros(0, dtype=bool)
        ctx = _Ctx(columns, num_rows, self._buffers())
        conjuncts = self._conjuncts
        if len(conjuncts) > 1:
            # Cheap before expensive, then most selective first: stable
            # sort keeps source order for ties and for the first,
            # unobserved block.
            conjuncts = sorted(conjuncts, key=lambda c: (c.expensive, c.ewma))
        try:
            return self._evaluate_ordered(ctx, conjuncts, num_rows, tracer)
        except _NonBooleanTerm:
            # Degenerate tree (non-boolean term): the interpreted
            # evaluator IS the semantics; defer the whole block.
            return np.asarray(self._where.evaluate(columns, self._functions))

    def _evaluate_ordered(self, ctx, conjuncts, num_rows, tracer) -> MaskLike:
        out: Optional[np.ndarray] = None
        result: MaskLike = True
        compressed = 0
        for index, conjunct in enumerate(conjuncts):
            sel = None
            rows = num_rows
            if (
                conjunct.expensive
                and out is not None
                and np.count_nonzero(out) < SELECTION_SHARE * num_rows
            ):
                # Few survivors: run the conjunct on those rows only.  A
                # name missing from the block raises in the column
                # loader, as it does at full length.
                sel = np.flatnonzero(out)
                rows = sel.size
                compressed += rows
                taken = {
                    name: ctx.columns[name].take(sel)
                    for name in conjunct.names
                    if name in ctx.columns
                }
                value = conjunct.fn(_Ctx(taken, rows, ctx.bufs))
            else:
                value = conjunct.fn(ctx)
            arr = np.asarray(value)
            if arr.ndim == 0:
                if not arr:
                    result = False
                    break
                continue
            if arr.dtype != np.bool_:
                raise _NonBooleanTerm
            conjunct.observe(np.count_nonzero(arr) / rows)
            if out is None:
                out = ctx.buffer(self._root_slot, arr.shape[0])
                np.copyto(out, arr)
            elif sel is None:
                np.logical_and(out, arr, out=out)
            else:
                out[sel] = arr  # every row outside ``sel`` is already False
            result = out
            if not out.any():
                if tracer.enabled and index + 1 < len(conjuncts):
                    tracer.metrics.record("kernel.early_exits")
                break
        if compressed and tracer.enabled:
            tracer.metrics.record("kernel.compressed_rows", compressed)
            span = tracer.current()  # BlockPipeline's ``filter`` span
            if span is not None:
                span.tag(compressed=compressed)
        return result


class KernelCache:
    """Bounded LRU of compiled predicates, keyed by the (hashable,
    rewrite-canonicalized) WHERE node.  One cache per consumer, bound to
    that consumer's function registry; thread safe."""

    def __init__(self, functions: FunctionRegistry, capacity: int = 256):
        self.functions = functions
        self.capacity = capacity
        self._lock = threading.Lock()
        self._kernels: "OrderedDict[Node, CompiledPredicate]" = OrderedDict()

    def get(self, where: Node, tracer=NULL_TRACER) -> CompiledPredicate:
        with self._lock:
            kernel = self._kernels.get(where)
            if kernel is not None:
                self._kernels.move_to_end(where)
                return kernel
        # Compile outside the lock: a racing duplicate compile is
        # harmless (last one wins) and compilation may call UDFs
        # (constant folding) that must not serialize other queries.
        if tracer.enabled:
            with tracer.span("kernel_compile") as span:
                kernel = CompiledPredicate(where, self.functions)
                span.tag(
                    conjuncts=kernel.num_conjuncts,
                    nodes=kernel.num_nodes,
                    scalar_udfs=len(kernel.scalar_udfs),
                )
            tracer.metrics.record("kernel.compiles")
            for name in kernel.scalar_udfs:
                tracer.metrics.record("kernel.scalar_udf_calls")
                tracer.event("kernel_scalar_udf", function=name)
        else:
            kernel = CompiledPredicate(where, self.functions)
        with self._lock:
            self._kernels[where] = kernel
            while len(self._kernels) > self.capacity:
                self._kernels.popitem(last=False)
        return kernel

    def evaluator(
        self,
        where: Optional[Node],
        vectorize: bool,
        tracer=NULL_TRACER,
        decided: Sequence[Node] = (),
    ) -> "Evaluator":
        """What a :class:`BlockPipeline` filters ``where`` with: the
        cached compiled kernel, the interpreted oracle
        (``vectorize=False``), or None for no WHERE at all.  ``decided``
        are the plan's conjuncts the index settled; when they are all
        there was (``where`` is None), vectorized, that is
        :data:`INDEX_DECIDED`."""
        if where is None:
            return INDEX_DECIDED if decided and vectorize else None
        if vectorize:
            return self.get(where, tracer)
        return InterpretedPredicate(where, self.functions)

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
        ``output`` in order.  The table goes through the same
        :class:`BlockPipeline` as extracted chunks, in
        :func:`block_rows_for`-sized slices — never one table-sized
        kernel evaluation — and :func:`assemble_table` owns the result,
        so callers get writable columns (the empty result included) and
        can never mutate the frozen cached arrays through the result.
        """
        columns = {name: table.column(name) for name in table.column_names}
        names = list(columns)
        dtypes = {name: column.dtype for name, column in columns.items()}
        step = block_rows_for(names, dtypes)
        pipeline = BlockPipeline(
            self.evaluator(where, vectorize, tracer),
            names, output, step, stats, tracer,
        )
        blocks = [
            pipeline.add(
                {name: columns[name][lo:lo + step] for name in names},
                min(step, table.num_rows - lo),
            )
            for lo in range(0, table.num_rows, step)
        ]
        blocks.append(pipeline.finish())
        return assemble_table(output, dtypes, blocks)

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels)


class InterpretedPredicate:
    """The ``vectorize="off"`` oracle behind a kernel's ``evaluate``
    signature: the interpreted AST walk over one block."""

    def __init__(self, where: Node, functions: FunctionRegistry):
        self._where = where
        self._functions = functions

    def evaluate(
        self,
        columns: Mapping[str, np.ndarray],
        num_rows: int,
        tracer=NULL_TRACER,
    ) -> MaskLike:
        return self._where.evaluate(columns, self._functions)


class IndexDecided:
    """The evaluator of a WHERE the index function decided for every
    planned row, under ``vectorize="on"``: nothing runs per row and
    every row is kept, like ``None`` — but the rows still count as
    ``rows_vectorized``, so the cost model prices them as it did when a
    kernel passed them all."""


#: The one :class:`IndexDecided` instance.
INDEX_DECIDED = IndexDecided()

#: What a :class:`BlockPipeline` filters with; ``None`` keeps every row.
Evaluator = Union[CompiledPredicate, InterpretedPredicate, IndexDecided, None]


class BlockPipeline:
    """The one place a predicate meets extracted columns.

    ``add`` takes the needed columns of one AFC, or of a run of AFCs
    the extractor already decoded as one, and returns a finished
    :data:`Block` when one closes (``None`` otherwise, and for blocks no
    row survives); ``finish`` closes the remainder.  Row order is the
    ``add`` order throughout.  What closes a block depends on the
    evaluator:

    * a :class:`CompiledPredicate` accumulates until ``block_rows`` rows
      are pending, evaluates the kernel once and gathers each output
      column with one ``take`` of the survivors' indices
      (``block_rows=1`` closes a block per ``add``).  The extractor
      sizes its runs by :attr:`pending_rows`, so a block is normally one
      ``add``; only pieces that meet at a part boundary are
      concatenated, once per needed column;
    * an :class:`InterpretedPredicate` closes a block per AFC whatever
      ``block_rows`` says — the oracle evaluates exactly as before
      kernels existed;
    * ``None`` (no WHERE) and :data:`INDEX_DECIDED` keep every row of
      every AFC: no mask, no concatenation, no copy.

    Blocks are emitted without copying: a kept column may be a view of
    the chunk it was decoded from.  Ownership is taken once, where a
    block leaves for a caller (:func:`assemble_table`,
    ``FilteringService.apply``).
    """

    def __init__(
        self,
        evaluator: Evaluator,
        needed: Sequence[str],
        output: Sequence[str],
        block_rows: int,
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
    ):
        self.compiled = isinstance(evaluator, CompiledPredicate)
        #: Rows counted as ``rows_vectorized``: a kernel's, and those of
        #: a WHERE the index decided.
        self.vectorized = self.compiled or evaluator is INDEX_DECIDED
        self.evaluator = None if evaluator is INDEX_DECIDED else evaluator
        self.needed = list(needed)
        self.output = list(output)
        self.block_rows = max(1, block_rows) if self.compiled else 1
        self.stats = stats
        self.tracer = tracer
        self._pending: List[Tuple[Mapping[str, np.ndarray], int]] = []
        self._pending_rows = 0

    @property
    def pending_rows(self) -> int:
        """Rows added since the last block closed."""
        return self._pending_rows

    def add(
        self, columns: Mapping[str, np.ndarray], num_rows: int
    ) -> Optional[Block]:
        self._pending.append((columns, num_rows))
        self._pending_rows += num_rows
        if self._pending_rows >= self.block_rows:
            return self.finish()
        return None

    def finish(self) -> Optional[Block]:
        if not self._pending:
            return None
        num_rows = self._pending_rows
        if len(self._pending) == 1:
            block = self._pending[0][0]
        else:
            block = {
                name: np.concatenate(
                    [columns[name] for columns, _ in self._pending]
                )
                for name in self.needed
            }
        self._pending = []
        self._pending_rows = 0
        if self.vectorized and self.stats is not None:
            self.stats.rows_vectorized += num_rows
        if self.evaluator is not None and self.tracer.enabled:
            with self.tracer.span(
                "filter", rows=num_rows, vectorized=self.compiled
            ) as span:
                selected = self._select(block, num_rows)
                span.tag(out=selected[1] if selected else 0)
            if self.compiled:
                self.tracer.metrics.record("kernel.blocks")
        else:
            selected = self._select(block, num_rows)
        if selected is not None and self.stats is not None:
            self.stats.rows_output += selected[1]
        return selected

    def _select(
        self, block: Mapping[str, np.ndarray], num_rows: int
    ) -> Optional[Block]:
        count = num_rows
        if self.evaluator is not None:
            mask = np.asarray(
                self.evaluator.evaluate(block, num_rows, tracer=self.tracer)
            )
            if mask.ndim:
                count = int(np.count_nonzero(mask))
            elif not mask:
                count = 0
        if not count:
            return None
        # Every row kept (no WHERE, or a constant-true one): the columns
        # are the result, as they are.  Otherwise the survivors' indices
        # are found once and each output column is taken by them — a
        # copy, which also frees the kernel's mask buffer for the next
        # block.
        if count == num_rows:
            return {n: block[n] for n in self.output}, count
        index = np.flatnonzero(mask)
        return {n: block[n].take(index) for n in self.output}, count


def assemble_table(
    output: Sequence[str],
    dtypes: Mapping[str, np.dtype],
    blocks: Iterable[Optional[Block]],
) -> VirtualTable:
    """Finished blocks (``None`` entries skipped) as one table of
    ``output``, taking ownership: the concatenation of several pieces is
    the one copy; a lone piece is copied only when it is read-only (a
    view of a segment-cache payload or of a shared inner column), not
    contiguous or big-endian.  Every column is in native byte order,
    however many blocks made it — so a result's dtypes do not depend on
    block sizes, ``vectorize``, pruning or worker counts."""
    pieces: Dict[str, List[np.ndarray]] = {name: [] for name in output}
    for block in blocks:
        if block is not None:
            for name in output:
                pieces[name].append(block[0][name])
    final: Dict[str, np.ndarray] = {}
    for name, parts in pieces.items():
        if len(parts) == 1:
            final[name] = own_column(parts[0])
        elif parts:
            final[name] = np.concatenate(parts)
        else:
            final[name] = np.empty(
                0, np.dtype(dtypes.get(name, np.float64)).newbyteorder("=")
            )
    return VirtualTable(final, order=output)
