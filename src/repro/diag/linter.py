"""The descriptor linter: collecting analyzers over assembled descriptors.

:func:`lint_descriptor` runs every analyzer and returns a
:class:`~repro.diag.core.Collector`.  The first block of analyzers mirrors
the historical fail-fast validator check-for-check **in the same order and
with the same message text** — :meth:`Descriptor.validate
<repro.metadata.descriptor.Descriptor.validate>` raises the collector's
first error, so the mirrored ordering is what keeps descriptor loading's
observable behaviour unchanged.  The analyzers
after that are new: they only ever *append* findings, so they cannot
perturb the first error.

:func:`lint_text` lints raw descriptor text: parse failures become
``RV001`` (syntax) / ``RV002`` (assembly) diagnostics instead of
exceptions, and when the text parses, the descriptor analyzers run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from ..errors import (
    MetadataError,
    MetadataEvaluationError,
    MetadataSyntaxError,
    MetadataValidationError,
)
from ..metadata.expressions import RangeExpr
from ..metadata.layout import (
    AttrGroup,
    DatasetNode,
    LoopNode,
    iter_attr_names,
    iter_loop_vars,
)
from ..metadata.spans import Span
from .core import Collector

if TYPE_CHECKING:  # pragma: no cover
    from ..metadata.descriptor import Descriptor


def lint_descriptor(
    descriptor: "Descriptor", collector: Optional[Collector] = None
) -> Collector:
    """Run every descriptor analyzer; never raises on findings."""
    if collector is None:
        collector = Collector(source=descriptor.name)

    # ---- mirrored validator checks (order and messages preserved) ----------
    leaves = descriptor.layout.leaves()
    if not leaves:
        collector.emit(
            "RV101",
            f"dataset {descriptor.name!r} has no leaf DATASET with a DATASPACE",
            span=descriptor.layout.span,
            fix="add a DATASPACE clause to the innermost DATASET block",
        )
        return collector
    _lint_tree_shape(descriptor.layout, collector)
    attr_owner: Dict[str, Tuple[str, Optional[Span]]] = {}
    for leaf in leaves:
        _lint_leaf(descriptor, leaf, attr_owner, collector)
    _lint_schema_coverage(descriptor, leaves, collector)
    _lint_index_attrs(descriptor, collector)

    # ---- extended analyzers (new codes; append-only) ------------------------
    _lint_loop_ranges(leaves, collector)
    _lint_unused_bindings(descriptor, leaves, collector)
    _lint_duplicate_files(leaves, collector)
    _lint_implicit_widths(descriptor, leaves, collector)
    _lint_dir_usage(descriptor, leaves, collector)
    _lint_index_presence(descriptor, collector)
    return collector


def lint_text(
    text: str,
    dataset_name: Optional[str] = None,
    source: Optional[str] = None,
) -> Collector:
    """Lint raw descriptor text; parse errors become diagnostics."""
    from ..metadata.descriptor import build_descriptor
    from ..metadata.layout import parse_layout
    from ..metadata.schema import parse_schemas
    from ..metadata.storage import parse_storage

    collector = Collector(source=source)
    try:
        schemas = parse_schemas(text)
        storages = parse_storage(text)
        layouts = parse_layout(text)
    except MetadataSyntaxError as exc:
        span = None
        line = getattr(exc, "line", 0)
        if line:
            span = Span(line, getattr(exc, "column", 0) or 1)
        collector.emit("RV001", str(exc), span=span)
        return collector
    except MetadataError as exc:
        collector.emit("RV002", str(exc))
        return collector
    try:
        descriptor = build_descriptor(
            schemas, storages, layouts, dataset_name, validate=False
        )
    except MetadataError as exc:
        collector.emit("RV002", str(exc))
        return collector
    if collector.source is None:
        collector.source = descriptor.name
    return lint_descriptor(descriptor, collector)


# ---------------------------------------------------------------------------
# Mirrored validator analyzers
# ---------------------------------------------------------------------------


def _lint_tree_shape(root: DatasetNode, collector: Collector) -> None:
    for node in root.walk():
        if node.is_leaf:
            if not node.data.is_leaf:
                collector.emit(
                    "RV102",
                    f"leaf dataset {node.name!r} has a DATASPACE but its "
                    "DATA clause lists no files",
                    span=node.span,
                    fix="add DIR[...]/... file patterns to the DATA clause",
                )
        else:
            if not node.children:
                collector.emit(
                    "RV103",
                    f"dataset {node.name!r} has neither a DATASPACE nor "
                    "nested DATASETs",
                    span=node.span,
                )
            if node.data.patterns:
                collector.emit(
                    "RV104",
                    f"non-leaf dataset {node.name!r} lists file patterns",
                    span=node.data.patterns[0].span or node.span,
                    fix="move the file patterns into the leaf DATASET",
                )


def _lint_leaf(
    descriptor: "Descriptor",
    leaf: DatasetNode,
    attr_owner: Dict[str, Tuple[str, Optional[Span]]],
    collector: Collector,
) -> None:
    schema = descriptor.schema
    schema_name = leaf.effective_schema_name()
    if schema_name is not None and schema_name != descriptor.storage.schema_name:
        if schema_name not in descriptor.all_schemas:
            collector.emit(
                "RV105",
                f"leaf {leaf.name!r} references undefined schema {schema_name!r}",
                span=leaf.schema_span or leaf.span,
                fix=f"declare a [{schema_name}] schema section or fix the "
                "DATATYPE reference",
            )

    binding_vars = {b.var for b in leaf.data.bindings}
    _lint_bindings_unique(leaf, collector)

    seen_here: Set[str] = set()
    for name, span in _iter_attr_names_spans(leaf.dataspace):
        if name not in schema:
            collector.emit(
                "RV106",
                f"leaf {leaf.name!r} stores {name!r}, which is not an "
                f"attribute of schema {schema.name!r}",
                span=span,
                fix=f"declare {name} in the schema or remove it from the "
                "DATASPACE",
            )
        if name in seen_here:
            collector.emit(
                "RV107",
                f"leaf {leaf.name!r} stores attribute {name!r} twice",
                span=span,
            )
        seen_here.add(name)
        if name in attr_owner:
            owner, _ = attr_owner[name]
            if owner != leaf.name:
                collector.emit(
                    "RV108",
                    f"attribute {name!r} is stored by both {owner!r} "
                    f"and {leaf.name!r}; each attribute must live in one leaf",
                    span=span,
                )
        else:
            attr_owner[name] = (leaf.name, span)

    _lint_loops(leaf, binding_vars, collector)

    patterns_ok = True
    for pattern in leaf.data.patterns:
        unbound = pattern.free_vars() - binding_vars
        if unbound:
            patterns_ok = False
            collector.emit(
                "RV113",
                f"file pattern {pattern} in leaf {leaf.name!r} uses unbound "
                f"variables {sorted(unbound)}",
                span=pattern.span,
                fix="bind the variables in the DATA clause "
                "(VAR = lo:hi:stride)",
            )

    # The historical validator hits bad binding ranges while advancing
    # binding_env_iter() during the DIR check; surface the same message at
    # the same position, then skip enumeration for this leaf.
    bindings_ok = _lint_binding_ranges(leaf, collector)
    if not bindings_ok or not patterns_ok:
        return

    valid_dirs = {e.index for e in descriptor.storage.dirs}
    reported: Set[Tuple[int, str]] = set()
    for env in leaf.data.binding_env_iter():
        for pat_index, pattern in enumerate(leaf.data.patterns):
            try:
                dir_index, relpath = pattern.expand(env)
            except MetadataEvaluationError as exc:
                if (pat_index, "eval") not in reported:
                    reported.add((pat_index, "eval"))
                    collector.emit("RV121", str(exc), span=pattern.span)
                continue
            except MetadataValidationError as exc:
                if (pat_index, "expand") not in reported:
                    reported.add((pat_index, "expand"))
                    collector.emit("RV113", str(exc), span=pattern.span)
                continue
            if dir_index not in valid_dirs:
                if (pat_index, "dir") not in reported:
                    reported.add((pat_index, "dir"))
                    collector.emit(
                        "RV114",
                        f"pattern {pattern} in leaf {leaf.name!r} evaluates to "
                        f"DIR[{dir_index}] under {env}, but the storage section "
                        f"only declares indices {sorted(valid_dirs)}",
                        span=pattern.span,
                        fix=f"declare DIR[{dir_index}] in the storage section "
                        "or adjust the pattern's directory expression",
                    )
            if not relpath or relpath.startswith("/"):
                if (pat_index, "path") not in reported:
                    reported.add((pat_index, "path"))
                    collector.emit(
                        "RV115",
                        f"pattern {pattern} expands to invalid path {relpath!r}",
                        span=pattern.span,
                    )


def _lint_bindings_unique(leaf: DatasetNode, collector: Collector) -> None:
    seen: Set[str] = set()
    for binding in leaf.data.bindings:
        if binding.var in seen:
            collector.emit(
                "RV109",
                f"leaf {leaf.name!r} binds variable {binding.var!r} twice",
                span=binding.span,
            )
        seen.add(binding.var)


def _lint_loops(
    leaf: DatasetNode, binding_vars: Set[str], collector: Collector
) -> None:
    def recurse(items, path_vars: List[str]) -> None:
        for item in items:
            if isinstance(item, AttrGroup):
                continue
            assert isinstance(item, LoopNode)
            if item.var in path_vars:
                collector.emit(
                    "RV110",
                    f"leaf {leaf.name!r}: LOOP variable {item.var!r} shadows "
                    "an enclosing loop with the same name",
                    span=item.span,
                    fix="rename the inner loop variable",
                )
            if item.var in binding_vars:
                collector.emit(
                    "RV111",
                    f"leaf {leaf.name!r}: LOOP variable {item.var!r} collides "
                    "with a DATA binding variable",
                    span=item.span,
                )
            bad = item.range.free_vars() - binding_vars
            if bad:
                collector.emit(
                    "RV112",
                    f"leaf {leaf.name!r}: bounds of LOOP {item.var} use "
                    f"{sorted(bad)}; only DATA binding variables may appear "
                    "in loop bounds (chunk sizes must be per-file constants)",
                    span=item.range.span or item.span,
                )
            recurse(item.body, path_vars + [item.var])

    recurse(leaf.dataspace, [])


def _lint_binding_ranges(leaf: DatasetNode, collector: Collector) -> bool:
    """Check every binding range evaluates; mirror evaluator messages."""
    ok = True
    for binding in leaf.data.bindings:
        span = binding.range.span or binding.span
        try:
            binding.range.evaluate({})
        except MetadataEvaluationError as exc:
            ok = False
            collector.emit("RV121", str(exc), span=exc.span or span)
        except MetadataValidationError as exc:
            ok = False
            code = "RV120" if "stride" in str(exc) else "RV119"
            collector.emit(code, str(exc), span=span)
    return ok


def _lint_schema_coverage(
    descriptor: "Descriptor", leaves: List[DatasetNode], collector: Collector
) -> None:
    stored: Set[str] = set()
    implicit: Set[str] = set()
    for leaf in leaves:
        stored.update(iter_attr_names(leaf.dataspace))
        implicit.update(iter_loop_vars(leaf.dataspace))
        implicit.update(b.var for b in leaf.data.bindings)
    for attr in descriptor.schema:
        if attr.name in stored:
            continue
        if attr.name in implicit:
            if not attr.type.is_integer:
                collector.emit(
                    "RV117",
                    f"attribute {attr.name!r} is implicit (a loop or binding "
                    f"variable) and must have an integer type, not "
                    f"{attr.type.name!r}",
                    span=attr.span,
                    fix=f"change {attr.name}'s type to an integer type or "
                    "store it explicitly in a DATASPACE",
                )
            continue
        collector.emit(
            "RV116",
            f"schema attribute {attr.name!r} is neither stored in any leaf "
            "nor supplied implicitly by a loop or binding variable",
            span=attr.span,
            fix=f"add {attr.name} to a DATASPACE group or name a loop/"
            "binding variable after it",
        )


def _lint_index_attrs(descriptor: "Descriptor", collector: Collector) -> None:
    for node in descriptor.layout.walk():
        for i, attr in enumerate(node.index_attrs):
            if attr not in descriptor.schema:
                span = None
                if i < len(node.index_attr_spans):
                    span = node.index_attr_spans[i]
                collector.emit(
                    "RV118",
                    f"DATAINDEX attribute {attr!r} in dataset {node.name!r} "
                    f"is not in schema {descriptor.schema.name!r}",
                    span=span or node.span,
                )


# ---------------------------------------------------------------------------
# Extended analyzers
# ---------------------------------------------------------------------------


def _iter_attr_names_spans(items) -> Iterator[Tuple[str, Optional[Span]]]:
    """Like :func:`iter_attr_names` but paired with per-name spans."""
    for item in items:
        if isinstance(item, AttrGroup):
            for i, name in enumerate(item.names):
                yield name, item.name_span(i)
        else:
            yield from _iter_attr_names_spans(item.body)


def _iter_loops(items) -> Iterator[LoopNode]:
    for item in items:
        if isinstance(item, LoopNode):
            yield item
            yield from _iter_loops(item.body)


def _const_range(rng: RangeExpr) -> Optional[Tuple[int, int, int]]:
    """(lo, hi, stride) when all three bounds are variable-free and
    evaluate cleanly; None otherwise (deferred to runtime checks)."""
    if rng.free_vars():
        return None
    try:
        lo = rng.lo.evaluate({})
        hi = rng.hi.evaluate({})
        stride = rng.stride.evaluate({})
    except MetadataError:
        return None
    return lo, hi, stride


def _lint_loop_ranges(leaves: List[DatasetNode], collector: Collector) -> None:
    """RV119/RV120/RV121 for constant LOOP bounds.

    The historical validator never evaluated loop bounds — a descriptor
    with ``LOOP T 5:1:1`` loaded fine and only failed when strips were
    enumerated.  The linter proves these at check time.
    """
    for leaf in leaves:
        for loop in _iter_loops(leaf.dataspace):
            rng = loop.range
            if rng.free_vars():
                continue
            span = rng.span or loop.span
            try:
                lo = rng.lo.evaluate({})
                hi = rng.hi.evaluate({})
                stride = rng.stride.evaluate({})
            except MetadataEvaluationError as exc:
                collector.emit("RV121", str(exc), span=exc.span or span)
                continue
            if stride <= 0:
                collector.emit(
                    "RV120",
                    f"LOOP {loop.var} in leaf {leaf.name!r} has non-positive "
                    f"stride {stride} in range {rng}",
                    span=span,
                    fix="use a positive stride (ranges are lo:hi:stride)",
                )
                continue
            if hi < lo:
                collector.emit(
                    "RV119",
                    f"LOOP {loop.var} in leaf {leaf.name!r} has provably "
                    f"empty range {lo}:{hi}:{stride}",
                    span=span,
                    fix="swap the bounds or widen the range",
                )
                continue
            if stride > 1 and (hi - lo) % stride != 0:
                last = lo + ((hi - lo) // stride) * stride
                collector.emit(
                    "RV125",
                    f"LOOP {loop.var} stride {stride} never reaches upper "
                    f"bound {hi} (last iteration value is {last})",
                    span=span,
                )


def _lint_unused_bindings(
    descriptor: "Descriptor", leaves: List[DatasetNode], collector: Collector
) -> None:
    """RV122: a DATA binding variable nothing ever reads.

    A binding is *used* when a file pattern or a loop bound references it,
    or when it names a schema attribute (then it supplies that column
    implicitly).  An unused binding silently multiplies the file set.
    """
    for leaf in leaves:
        used: Set[str] = set()
        for pattern in leaf.data.patterns:
            used |= pattern.free_vars()
        for loop in _iter_loops(leaf.dataspace):
            used |= loop.range.free_vars()
        for binding in leaf.data.bindings:
            if binding.var in used or binding.var in descriptor.schema:
                continue
            collector.emit(
                "RV122",
                f"binding variable {binding.var!r} in leaf {leaf.name!r} is "
                "never used by a file pattern, loop bound, or schema "
                "attribute",
                span=binding.span,
                fix="remove the binding or reference it in a pattern",
            )


def _lint_duplicate_files(
    leaves: List[DatasetNode], collector: Collector
) -> None:
    """RV123: two enumerations produce the same physical file."""
    owners: Dict[Tuple[int, str], Tuple[str, Optional[Span]]] = {}
    reported: Set[Tuple[int, str]] = set()
    for leaf in leaves:
        try:
            envs = list(leaf.data.binding_env_iter())
        except MetadataError:
            continue  # bad bindings already reported
        for env in envs:
            for pattern in leaf.data.patterns:
                try:
                    key = pattern.expand(env)
                except MetadataError:
                    continue
                if key in owners and key not in reported:
                    reported.add(key)
                    other_leaf, other_span = owners[key]
                    where = (
                        "twice"
                        if other_leaf == leaf.name
                        else f"by both {other_leaf!r} and {leaf.name!r}"
                    )
                    collector.emit(
                        "RV123",
                        f"file DIR[{key[0]}]/{key[1]} is bound {where}; "
                        "each file must belong to exactly one enumeration",
                        span=pattern.span or other_span,
                    )
                else:
                    owners.setdefault(key, (leaf.name, pattern.span))


def _lint_implicit_widths(
    descriptor: "Descriptor", leaves: List[DatasetNode], collector: Collector
) -> None:
    """RV124: an implicit attribute's declared type cannot hold every
    value its loop/binding range produces (silent wraparound on extract)."""
    stored = set()
    for leaf in leaves:
        stored.update(iter_attr_names(leaf.dataspace))
    # Attainable constant hull per implicit variable name.
    hulls: Dict[str, Tuple[int, int]] = {}

    def widen(name: str, lo: int, hi: int) -> None:
        if name in hulls:
            old_lo, old_hi = hulls[name]
            hulls[name] = (min(old_lo, lo), max(old_hi, hi))
        else:
            hulls[name] = (lo, hi)

    for leaf in leaves:
        for binding in leaf.data.bindings:
            const = _const_range(binding.range)
            if const and const[2] > 0 and const[1] >= const[0]:
                widen(binding.var, const[0], const[1])
        for loop in _iter_loops(leaf.dataspace):
            const = _const_range(loop.range)
            if const and const[2] > 0 and const[1] >= const[0]:
                widen(loop.var, const[0], const[1])

    for attr in descriptor.schema:
        if attr.name in stored or attr.name not in hulls:
            continue
        if not attr.type.is_integer:
            continue  # RV117 already covers non-integer implicit attrs
        bits = attr.type.size * 8
        if attr.type.kind == "u":
            type_lo, type_hi = 0, (1 << bits) - 1
        else:
            type_lo, type_hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        lo, hi = hulls[attr.name]
        if lo < type_lo or hi > type_hi:
            collector.emit(
                "RV124",
                f"implicit attribute {attr.name!r} ranges over [{lo}, {hi}] "
                f"but its type {attr.type.name!r} only holds "
                f"[{type_lo}, {type_hi}]",
                span=attr.span,
                fix=f"widen {attr.name}'s type (e.g. to 'int' or 'long int')",
            )


def _lint_dir_usage(
    descriptor: "Descriptor", leaves: List[DatasetNode], collector: Collector
) -> None:
    """RV127: storage DIR entries no file pattern ever resolves to."""
    used: Set[int] = set()
    for leaf in leaves:
        try:
            envs = list(leaf.data.binding_env_iter())
        except MetadataError:
            return  # enumeration unreliable; skip the whole analyzer
        for env in envs:
            for pattern in leaf.data.patterns:
                try:
                    dir_index, _ = pattern.expand(env)
                except MetadataError:
                    return
                used.add(dir_index)
    if not used:
        return
    for entry in descriptor.storage.dirs:
        if entry.index not in used:
            collector.emit(
                "RV127",
                f"storage DIR[{entry.index}] ({entry.spec}) is never "
                "referenced by any file pattern",
                span=entry.span,
                fix="remove the entry or extend the pattern enumeration",
            )


def _lint_index_presence(
    descriptor: "Descriptor", collector: Collector
) -> None:
    """RV126: no DATAINDEX anywhere — every query scans every chunk."""
    for node in descriptor.layout.walk():
        if node.index_attrs:
            return
    collector.emit(
        "RV126",
        f"dataset {descriptor.name!r} declares no DATAINDEX; queries "
        "cannot prune chunks and will scan every file",
        span=descriptor.layout.span,
        fix="add a DATAINDEX clause naming the attributes queries filter on",
    )
