"""Query planning: descriptor + SQL -> extraction plan.

:class:`CompiledDataset` is the interpreted realisation of the paper's
two-phase design.  At construction ("compile time") it enumerates every
physical file with its strip geometry, forms all consistent file groups,
and computes each group's static alignment.  At query time it only
evaluates integer range checks and emits aligned file chunks — no
meta-data parsing or expression evaluation happens per query.

The code generator (:mod:`repro.core.codegen`) emits a specialised module
with the same query-time interface but all tables constant-folded; this
class doubles as the semantics reference the generated code is tested
against.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Tuple, Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycles
    from ..diag.core import Collector
    from ..index.summaries import MinMaxSummaries

from ..errors import PlanningError, QueryValidationError
from ..metadata.descriptor import Descriptor, parse_descriptor
from ..obs.tracer import NULL_TRACER
from ..sql.ast import And, Node, Query
from ..sql.parser import parse_query
from ..sql.ranges import (
    RangeMap, extract_ranges, leaf_range, query_is_unsatisfiable,
)
from ..sql.rewrite import rewrite_of
from ..sql.textcache import QueryTextCache
from ..sql.typecheck import bind_where
from .afc import AfcTable, ExtractionPlan
from .analysis import (
    Alignment,
    compute_alignment,
    enumerate_afcs,
    match_file,
)
from .strips import PhysicalFile, enumerate_files, row_variable_order


@dataclass
class StaticGroup:
    """One precomputed consistent file group with its chunk geometry."""

    files: Tuple[PhysicalFile, ...]
    env: Dict[str, int]
    alignment: Alignment

    @property
    def home_node(self) -> str:
        """Where this group's AFCs are processed: the node of the file
        contributing their first chunk, i.e.
        :func:`~repro.core.afc.home_node` of every AFC the group emits."""
        for file in self.files:
            if file.strips:
                return file.node
        return "local"


class CompiledDataset:
    """A descriptor compiled into query-ready planning tables.

    The tables follow from the descriptor alone and are never changed
    once built, so any number of datasets may share them
    (:meth:`over`).  What one connection owns is its own: the chunk
    summaries, ``chunk_row_cap``, the query-text cache and the token its
    rewrite memos carry.
    """

    #: ``QueryService`` passes a tracer to ``plan`` only when this is set,
    #: so duck-typed datasets (hand-written planners with a bare
    #: ``plan(sql)``) keep working unchanged.
    supports_tracing = True

    def __init__(
        self,
        descriptor: Union[Descriptor, str],
        summaries: Optional[MinMaxSummaries] = None,
        chunk_row_cap: Optional[int] = None,
        lazy_groups: bool = False,
    ):
        if isinstance(descriptor, str):
            descriptor = parse_descriptor(descriptor)
        self.descriptor = descriptor
        #: Optional cap on rows per aligned chunk; plans split larger AFCs
        #: (see repro.core.afc.AfcTable.split).  None keeps natural
        #: granularity.
        self.chunk_row_cap = chunk_row_cap
        self.schema = descriptor.schema
        self.files = enumerate_files(descriptor)
        self.row_var_order = row_variable_order(descriptor)
        self.leaf_order = [leaf.name for leaf in descriptor.leaves()]
        self.index_attrs = descriptor.index_attrs
        self.summaries = summaries

        stored_attrs = self._stored_attrs()
        #: DATAINDEX attributes that are physically stored (Titan's X/Y/Z):
        #: these need the chunk-summary index; implicit ones prune for free.
        self.stored_index_attrs = tuple(
            a for a in self.index_attrs if a in stored_attrs
        )
        self.stored_index_leaves = self._stored_index_leaves()
        #: Attributes a WHERE conjunct may be decided on, with the range
        #: their values compare exactly in (see :func:`decide_conjuncts`).
        self.decidable = decidable_ranges(
            {a.name: a.dtype for a in self.schema if a.name not in stored_attrs}
        )
        #: Attribute dtypes, shared read-only by every plan.
        self.dtypes: Dict[str, np.dtype] = {
            a.name: a.dtype for a in self.schema
        }
        #: Query texts resolved once each (repro.sql.textcache).
        self.query_texts = QueryTextCache()
        #: Marks column lists this dataset derived (a rewrite memo may
        #: reach another dataset); a token, not ``self``, so a cached
        #: entry never keeps its dataset alive through a cycle.
        self._token = object()
        self._groups: Optional[List[StaticGroup]] = None
        #: Warnings and digest, derived on first use and
        #: shared with every dataset :meth:`over` this one.
        self._derived: Dict[str, object] = {}
        if not lazy_groups:
            _ = self.groups  # surface group/alignment errors at load time

    def over(
        self,
        summaries: Optional[MinMaxSummaries] = None,
        chunk_row_cap: Optional[int] = None,
    ):
        """A dataset sharing this one's compiled tables (and generated
        module), with summaries, cap, query-text cache and rewrite token
        of its own."""
        dataset = copy.copy(self)
        dataset.summaries = summaries
        dataset.chunk_row_cap = chunk_row_cap
        dataset.query_texts = QueryTextCache()
        dataset._token = object()
        return dataset

    @property
    def groups(self) -> List["StaticGroup"]:
        """Consistent file groups with their alignments (built lazily when
        a cached generated module makes the analysis unnecessary)."""
        if self._groups is None:
            self._groups = self._build_groups()
        return self._groups

    @property
    def warnings(self) -> List[str]:
        """Performance diagnostics discovered at compile time (never
        errors — the plans are correct, just slow)."""
        if "warnings" not in self._derived:
            self._derived["warnings"] = self._collect_warnings()
        return self._derived["warnings"]

    @property
    def diagnostics(self) -> "Collector":
        """Static-analysis findings for the descriptor (a
        :class:`repro.diag.Collector`): the ones its validation at load
        kept, or — for a descriptor built with ``validate=False`` —
        linted on first use.  Validation raised any error, so these are
        warnings/infos in practice; ``ExecOptions(strict=True)`` refuses
        queries when any are present."""
        descriptor = self.descriptor
        if descriptor.findings is None:
            from ..diag.linter import lint_descriptor

            descriptor.findings = lint_descriptor(descriptor)
        return descriptor.findings

    @property
    def digest(self) -> str:
        """:func:`~repro.core.codegen.descriptor_digest` of the
        descriptor, hashed once."""
        if "digest" not in self._derived:
            from .codegen import descriptor_digest

            self._derived["digest"] = descriptor_digest(self.descriptor)
        return self._derived["digest"]

    # -- compile-time -----------------------------------------------------------

    def _stored_attrs(self) -> Set[str]:
        out: Set[str] = set()
        for file in self.files:
            for strip in file.strips:
                out.update(strip.attrs)
        return out

    def _stored_index_leaves(self) -> Tuple[str, ...]:
        """Leaves that store at least one DATAINDEX attribute."""
        index_set = set(self.stored_index_attrs)
        names: List[str] = []
        for file in self.files:
            if file.leaf_name in names:
                continue
            for strip in file.strips:
                if index_set & set(strip.attrs):
                    names.append(file.leaf_name)
                    break
        return tuple(names)

    def _build_groups(self) -> List[StaticGroup]:
        """All consistent file groups, via an incremental consistency join.

        A naive cartesian product across leaves is exponential (the paper's
        L0 layout has 18 leaves); joining one leaf at a time and rejecting
        inconsistent partial groups early keeps the work proportional to
        the number of *surviving* groups.
        """
        classes: List[List[PhysicalFile]] = [
            [f for f in self.files if f.leaf_name == name]
            for name in self.leaf_order
        ]
        for name, cls in zip(self.leaf_order, classes):
            if not cls:
                raise PlanningError(f"leaf {name!r} enumerates no files")

        # partial: (files tuple, merged env, merged geometry)
        partials: List[Tuple[Tuple[PhysicalFile, ...], Dict[str, int], Dict]] = [
            ((), {}, {})
        ]
        for cls in classes:
            extended = []
            for files, env, geometry in partials:
                for file in cls:
                    merged_env = _merge_env(env, file.env)
                    if merged_env is None:
                        continue
                    merged_geo = _merge_geometry(geometry, file.loop_geometry())
                    if merged_geo is None:
                        continue
                    if not _env_within_geometry(merged_env, merged_geo):
                        continue
                    extended.append((files + (file,), merged_env, merged_geo))
            partials = extended
            if not partials:
                break

        groups: List[StaticGroup] = []
        for files, env, _ in partials:
            strips = [s for f in files for s in f.strips]
            alignment = compute_alignment(
                strips, self.index_attrs, self.stored_index_leaves
            )
            groups.append(StaticGroup(files, env, alignment))
        if not groups:
            raise PlanningError(
                "no consistent file groups exist; check that shared loop "
                "variables iterate identical ranges across leaves"
            )
        return groups

    def _collect_warnings(self) -> List[str]:
        out: List[str] = []
        degenerate = [
            g for g in self.groups if g.alignment.num_rows == 1
            and any(s.dims for f in g.files for s in f.strips)
        ]
        if degenerate:
            sample = degenerate[0]
            names = ", ".join(f.relpath for f in sample.files)
            out.append(
                f"{len(degenerate)} file group(s) have no common dense loop "
                f"suffix (e.g. {{{names}}}); every row becomes its own "
                "aligned chunk set, which is correct but slow — consider "
                "matching the innermost loop order across leaves"
            )
        if not self.index_attrs:
            big = sum(f.expected_size for f in self.files)
            if big > 64 * 1024 * 1024:
                out.append(
                    f"no DATAINDEX declared on a {big / 1e6:.0f} MB dataset: "
                    "every query will scan all chunks"
                )
        chunky = [
            g for g in self.groups
            if g.alignment.num_rows * max(
                (s.record_size for f in g.files for s in f.strips),
                default=0,
            ) > 256 * 1024 * 1024
        ]
        if chunky:
            out.append(
                f"{len(chunky)} group(s) have aligned chunks over 256 MB; "
                "consider chunk_row_cap to bound extraction buffers"
            )
        return out

    # -- query-time ---------------------------------------------------------------

    def resolve_query(self, query: Union[Query, str]) -> Query:
        """The query as written, validated against this dataset, its
        WHERE bound to the schema's dtypes
        (:func:`~repro.sql.typecheck.bind_where`).

        A text goes through the query-text cache
        (:mod:`repro.sql.textcache`): one resolved before is copied
        without lexing, parsing, binding or rewriting, and carries its
        canonical form and column lists for :meth:`plan`.  A
        :class:`Query` comes back as it is when binding changes
        nothing, else as a bound copy.
        """
        if isinstance(query, str):
            return self.query_texts.resolve(query, self._bind)
        return self._bind(query)

    def _bind(self, query: Union[Query, str]) -> Query:
        """``query`` (parsed, if a text), or a copy with its WHERE bound;
        its rewrite memo keeps this dataset's token, so a query bound
        here is not bound again, and what binding decided, for
        RT306/RT307."""
        if isinstance(query, str):
            query = parse_query(query)
        else:
            memo = query.__dict__.get("_rewrite")
            bound = memo and memo.matches(query) and memo.bound
            if bound and bound[0] is self._token:
                return query
        self._check_table(query)
        where, verdicts = bind_where(query.where, self.dtypes)
        if where is not query.where:
            query = replace(query, where=where)
        rewrite_of(query).bound = (self._token, verdicts)
        return query

    def _check_table(self, query: Query) -> None:
        if query.table != self.descriptor.name:
            raise QueryValidationError(
                f"query targets table {query.table!r}, but this dataset is "
                f"{self.descriptor.name!r}"
            )

    def _columns(self, canonical: Query):
        """What planning derives from a canonical query alone: this
        dataset's token, the needed and output columns, the aggregate
        spec."""
        needed, output = self.needed_columns(canonical)
        spec = None
        if canonical.is_aggregate:
            from .aggregate import aggregate_spec

            spec = aggregate_spec(canonical, self.schema.names)
        return self._token, tuple(needed), tuple(output), spec

    def needed_columns(self, query: Query) -> Tuple[List[str], List[str]]:
        """(needed, output) column lists, validated against the schema.

        For aggregate queries both lists describe the *base row plan*:
        the group keys and aggregate arguments extraction must
        materialise, not the computed output labels (those come from the
        plan's :class:`~repro.core.aggregate.AggregateSpec`).
        """
        if query.is_aggregate:
            from .aggregate import aggregate_spec

            spec = aggregate_spec(query, self.schema.names)
            output = list(spec.group_by)
            for item in spec.items:
                if item.column is not None and item.column not in output:
                    output.append(item.column)
        else:
            output = query.projected_names(self.schema.names)
        needed = list(output)
        for name in query.referenced_columns():
            if name not in self.schema:
                raise QueryValidationError(
                    f"WHERE references unknown attribute {name!r} "
                    f"(schema {self.schema.name!r} has {self.schema.names})"
                )
            if name not in needed:
                needed.append(name)
        return needed, output

    def index(
        self, ranges: RangeMap, *, node: Optional[str] = None
    ) -> AfcTable:
        """The paper's *index function*: query ranges -> matching AFCs.

        ``node`` restricts the lookup to file groups homed on that node
        (what a node server runs): exactly the unrestricted table's AFCs
        whose :func:`~repro.core.afc.home_node` is ``node``, same order.
        This interpreted realisation enumerates AFC objects per group
        (:func:`~repro.core.analysis.enumerate_afcs`, the semantics
        reference) and tabulates them.
        """
        return AfcTable.of(
            afc
            for group in self.groups
            if (node is None or group.home_node == node)
            and all(match_file(f, ranges) for f in group.files)
            for afc in enumerate_afcs(
                group.files,
                group.env,
                group.alignment,
                self.row_var_order,
                ranges,
                summaries=self.summaries,
                summary_attrs=self.stored_index_attrs,
            )
        )

    def plan(
        self,
        query: Union[Query, str],
        tracer=NULL_TRACER,
        *,
        node: Optional[str] = None,
    ) -> ExtractionPlan:
        """Full planning: parse/validate, derive ranges, emit the plan.

        ``node`` plans only that node's share (see :meth:`index`).  The
        plan's residual WHERE leaves out the conjuncts the index decided
        over the planned AFCs (:func:`decide_conjuncts`), whoever runs
        it: the generated and interpreted index alike, and node servers
        over their own share.
        """
        with tracer.span("plan", dataset=self.descriptor.name) as span:
            resolved = self.resolve_query(query)
            with tracer.span("rewrite") as rewrite_span:
                memo = rewrite_of(resolved)
                query = memo.canonical(resolved)
                rewrite_span.tag(steps=len(memo.steps))
                if tracer.enabled:
                    for step in memo.steps:
                        tracer.event(
                            "rewrite", code=step.code, detail=step.detail
                        )
            columns = memo.columns
            if columns is None or columns[0] is not self._token:
                columns = memo.columns = self._columns(query)
            _, needed, output, spec = columns
            needed, output = list(needed), list(output)
            ranges = extract_ranges(query.where)
            dtypes = self.dtypes
            if query_is_unsatisfiable(ranges):
                span.tag(unsatisfiable=True, afcs=0)
                return ExtractionPlan(
                    AfcTable(), needed, output, query.where, dtypes,
                    aggregate=spec, query=query,
                    chunk_row_cap=self.chunk_row_cap, ranges=ranges,
                )
            # Note: no ``len(self.groups)`` tag here — touching ``groups``
            # would defeat the lazy analysis on the cached-codegen path.
            with tracer.span("index") as index_span:
                afcs = self.index(ranges, node=node)
                index_span.tag(afcs=len(afcs))
            afcs = afcs.split(self.chunk_row_cap)
            residual, decided = decide_conjuncts(
                query.where, afcs, self.decidable
            )
            span.tag(afcs=len(afcs), decided=len(decided))
            return ExtractionPlan(
                afcs, needed, output, residual, dtypes, aggregate=spec,
                query=query, chunk_row_cap=self.chunk_row_cap,
                decided=decided, ranges=ranges,
            )

    # -- introspection ------------------------------------------------------------

    def explain(self, query: Union[Query, str]) -> str:
        """Human-readable plan summary (for the examples and debugging)."""
        plan = self.plan(query)
        decided = " AND ".join(str(term) for term in plan.decided)
        lines = [
            f"dataset: {self.descriptor.name}",
            f"groups: {len(self.groups)} static, AFCs planned: {len(plan.afcs)}",
            f"rows planned: {plan.planned_rows}, bytes planned: {plan.planned_bytes}",
            f"needed columns: {plan.needed}",
            f"output columns: {plan.output}",
            f"residual WHERE: {plan.where if plan.where is not None else 'none'}",
            f"decided by the index: {decided or 'none'}",
        ]
        if plan.aggregate is not None:
            spec = plan.aggregate
            lines.append(
                f"aggregate: {', '.join(spec.output)}"
                + (f" GROUP BY {', '.join(spec.group_by)}" if spec.group_by else "")
            )
        for afc in plan.afcs[:5]:
            lines.append(f"  {afc}")
        if len(plan.afcs) > 5:
            lines.append(f"  ... {len(plan.afcs) - 5} more")
        return "\n".join(lines)

    @property
    def total_data_bytes(self) -> int:
        return sum(f.expected_size for f in self.files)


#: Integers up to this magnitude are exact in float64, so a ``double``
#: column materialised from them holds them exactly.
_EXACT = 2 ** 53

def decidable_ranges(dtypes: Mapping[str, np.dtype]) -> Dict[str, Tuple[int, int]]:
    """Per implicit attribute, the value range inside which a hull check
    in Python answers exactly what numpy's comparison of the
    materialised column with its bound literal would: the declared
    integer type's range (a wider hull wraps in that type — lint
    RV124), or ±2**53 for ``double``.  Narrower float types are left
    out: they round the values they hold."""
    out: Dict[str, Tuple[int, int]] = {}
    for name, dtype in dtypes.items():
        dtype = np.dtype(dtype)
        if dtype.kind in "iu":
            info = np.iinfo(dtype)
            out[name] = (int(info.min), int(info.max))
        elif dtype.kind == "f" and dtype.itemsize == 8:
            out[name] = (-_EXACT, _EXACT)
    return out


def decide_conjuncts(
    where: Optional[Node],
    afcs: AfcTable,
    decidable: Mapping[str, Tuple[int, int]],
) -> Tuple[Optional[Node], Tuple[Node, ...]]:
    """``(residual, decided)``: the top-level conjuncts of a rewritten
    WHERE split by whether they hold for every row of ``afcs``.

    A conjunct is decided only in exact cases: a comparison (``=``,
    ``<``, ``<=``, ``>``, ``>=``) or IN of ``attr`` with literals bound
    to its dtype, whose exact range (:func:`~repro.sql.ranges.leaf_range`)
    holds the attribute's whole hull over every part — where ``attr`` is
    implicit in every part (never stored) and the hull fits
    ``decidable[attr]``.  Stored attributes, functions, OR, NOT, ``!=``
    and NaN stay in the residual; so does everything when ``afcs`` is
    empty.  Dropping a decided conjunct changes no row: each one is true
    of every row extraction produces.
    """
    if where is None or not len(afcs):
        return where, ()
    terms = where.terms if isinstance(where, And) else (where,)
    hulls: Dict[str, Optional[Tuple[int, int]]] = {}
    residual: List[Node] = []
    decided: List[Node] = []
    for term in terms:
        holds = _decides(term, afcs, decidable, hulls)
        (decided if holds else residual).append(term)
    if not decided:
        return where, ()
    if len(residual) > 1:
        return And(tuple(residual)), tuple(decided)
    return (residual[0] if residual else None), tuple(decided)


def _decides(
    term: Node,
    afcs: AfcTable,
    decidable: Mapping[str, Tuple[int, int]],
    hulls: Dict[str, Optional[Tuple[int, int]]],
) -> bool:
    leaf = leaf_range(term)
    if leaf is None or getattr(term, "op", "=") in ("!=", "<>"):
        return False
    name, allowed = leaf
    if name not in decidable:
        return False
    if name not in hulls:
        hulls[name] = _hull(afcs, name, decidable[name])
    hull = hulls[name]
    return hull is not None and any(
        iv.contains(hull[0]) and iv.contains(hull[1]) for iv in allowed.intervals
    )


def _hull(
    afcs: AfcTable, name: str, fits: Tuple[int, int]
) -> Optional[Tuple[int, int]]:
    """(min, max) of implicit ``name`` over every row of ``afcs``; None
    when some part does not supply it or a value falls outside
    ``fits``."""
    lo = hi = None
    for part in afcs.parts:
        bounds = part.implicit_bounds(name)
        if bounds is None:
            return None
        lo = bounds[0] if lo is None else min(lo, bounds[0])
        hi = bounds[1] if hi is None else max(hi, bounds[1])
    if lo < fits[0] or hi > fits[1]:
        return None
    return lo, hi


def _merge_env(a: Dict[str, int], b: Dict[str, int]) -> Optional[Dict[str, int]]:
    """Merge binding environments; None when a shared variable differs."""
    for name, value in b.items():
        if name in a and a[name] != value:
            return None
    out = dict(a)
    out.update(b)
    return out


def _merge_geometry(a: Dict, b: Dict) -> Optional[Dict]:
    """Merge loop geometries; None when a shared loop iterates differently."""
    for name, geo in b.items():
        if name in a and a[name] != geo:
            return None
    out = dict(a)
    out.update(b)
    return out


def _env_within_geometry(env: Dict[str, int], geometry: Dict) -> bool:
    """A binding constant shared with a loop must lie on the loop's lattice."""
    for name, value in env.items():
        geo = geometry.get(name)
        if geo is None:
            continue
        start, stop, step = geo
        if not (start <= value <= stop and (value - start) % step == 0):
            return False
    return True
