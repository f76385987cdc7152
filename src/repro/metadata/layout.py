"""Component III of the meta-data descriptor: the dataset layout.

The layout component describes how virtual-table values are physically
arranged within and across files, using the six keywords of the paper
(Section 3.2): ``DATASET``, ``DATATYPE``, ``DATAINDEX``, ``DATASPACE``,
``DATA``, and ``LOOP``.  Grammar (case-insensitive keywords)::

    layout     := dataset+
    dataset    := DATASET name '{' clause* '}'
    clause     := DATATYPE  '{' schema_ref | attr_def+ '}'
                | DATAINDEX '{' ident+ '}'
                | DATASPACE '{' item* '}'
                | DATA      '{' data_body '}'
                | dataset                      // inline child definition
    attr_def   := ident '=' typename
    item       := LOOP ident range '{' item* '}'
                | ident+                       // attribute record group
    range      := expr ':' expr [':' expr]     // inclusive bounds
    data_body  := (DATASET name)+              // non-leaf: child datasets
                | (pattern | binding)+         // leaf: file enumeration
    pattern    := DIR '[' expr ']' '/' template
    binding    := ident '=' lo:hi[:stride]     // no whitespace inside

Semantics highlights:

* Sibling items in a ``DATASPACE`` occupy consecutive byte ranges; a
  ``LOOP`` repeats its body once per iteration value; an attribute group
  stores its attributes consecutively per innermost iteration (a packed
  record).  "Each variable stored as an array" layouts are expressed as
  one single-attribute group per loop.
* A leaf ``DATA`` clause enumerates files over the cartesian product of
  its binding variables; the binding values become *implicit attributes*
  of each file, as do loop bounds that depend on them.
* Loop / binding variables whose names match schema attributes (``TIME``,
  ``REL``) supply those column values implicitly; other variables
  (``GRID``, ``DIRID``) are pure ordering/placement coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import MetadataSyntaxError, MetadataValidationError
from .expressions import Env, Expr, RangeExpr, parse_expr, parse_range
from .schema import Attribute
from .spans import Span
from .tokens import Scanner
from .types import parse_type

_KEYWORDS = {"DATASET", "DATATYPE", "DATAINDEX", "DATASPACE", "DATA", "LOOP", "DIR"}

_TEMPLATE_VAR = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")


# ---------------------------------------------------------------------------
# Dataspace AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttrGroup:
    """A packed record of attributes stored once per innermost iteration."""

    names: Tuple[str, ...]
    #: Source span of the whole group / of each name (parse-time only;
    #: excluded from equality so programmatic ASTs compare as before).
    span: Optional[Span] = field(default=None, compare=False, repr=False)
    name_spans: Optional[Tuple[Span, ...]] = field(
        default=None, compare=False, repr=False
    )

    def name_span(self, index: int) -> Optional[Span]:
        """Span of ``names[index]``, or the group span when unknown."""
        if self.name_spans is not None and index < len(self.name_spans):
            return self.name_spans[index]
        return self.span

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def __str__(self) -> str:
        return " ".join(self.names)


@dataclass(frozen=True)
class LoopNode:
    """``LOOP var lo:hi:stride { body }`` — a repetition dimension."""

    var: str
    range: RangeExpr
    body: Tuple["SpaceItem", ...]
    #: Span of the ``LOOP var lo:hi:stride`` header (parse-time only).
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def free_vars(self) -> FrozenSet[str]:
        out = self.range.free_vars()
        for item in self.body:
            out |= item.free_vars()
        return out - {self.var}

    def __str__(self) -> str:
        inner = " ".join(str(i) for i in self.body)
        return f"LOOP {self.var} {self.range} {{ {inner} }}"


SpaceItem = Union[AttrGroup, LoopNode]


def iter_attr_names(items: Sequence[SpaceItem]):
    """All attribute names mentioned anywhere in a dataspace body."""
    for item in items:
        if isinstance(item, AttrGroup):
            yield from item.names
        else:
            yield from iter_attr_names(item.body)


def iter_loop_vars(items: Sequence[SpaceItem]):
    """All loop variables in a dataspace body (pre-order)."""
    for item in items:
        if isinstance(item, LoopNode):
            yield item.var
            yield from iter_loop_vars(item.body)


# ---------------------------------------------------------------------------
# File patterns and bindings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilePattern:
    """A ``DIR[expr]/template`` file pattern from a leaf DATA clause.

    ``template`` is the path within the directory; ``$VAR`` occurrences in
    it are substituted from binding values at enumeration time.
    """

    dir_expr: Expr
    template: str
    #: Span of the pattern text in the DATA clause (parse-time only).
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def free_vars(self) -> FrozenSet[str]:
        vars_ = set(self.dir_expr.free_vars())
        vars_.update(m.group(1) for m in _TEMPLATE_VAR.finditer(self.template))
        return frozenset(vars_)

    def expand(self, env: Env) -> Tuple[int, str]:
        """(directory index, relative path) under a binding environment."""
        dir_index = self.dir_expr.evaluate(env)

        def sub(match: "re.Match") -> str:
            name = match.group(1)
            if name not in env:
                raise MetadataValidationError(
                    f"unbound variable ${name} in file pattern {self}"
                )
            return str(env[name])

        return dir_index, _TEMPLATE_VAR.sub(sub, self.template)

    def __str__(self) -> str:
        return f"DIR[{self.dir_expr}]/{self.template}"


@dataclass(frozen=True)
class Binding:
    """``VAR = lo:hi:stride`` — enumerates a file-set dimension."""

    var: str
    range: RangeExpr
    #: Span of the whole binding in the DATA clause (parse-time only).
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.var} = {self.range}"


@dataclass(frozen=True)
class DataClause:
    """The DATA clause of a dataset: child refs (non-leaf) or files (leaf)."""

    child_refs: Tuple[str, ...] = ()
    patterns: Tuple[FilePattern, ...] = ()
    bindings: Tuple[Binding, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return bool(self.patterns)

    def binding_env_iter(self) -> Iterator[Dict[str, int]]:
        """Iterate all binding environments (cartesian product, row-major
        in declaration order — deterministic file enumeration order)."""
        names = [b.var for b in self.bindings]
        ranges = [list(b.range.evaluate({})) for b in self.bindings]
        if not names:
            yield {}
            return
        indices = [0] * len(names)
        while True:
            yield {n: ranges[i][indices[i]] for i, n in enumerate(names)}
            for axis in range(len(names) - 1, -1, -1):
                indices[axis] += 1
                if indices[axis] < len(ranges[axis]):
                    break
                indices[axis] = 0
            else:
                return


# ---------------------------------------------------------------------------
# Dataset nodes
# ---------------------------------------------------------------------------


@dataclass
class DatasetNode:
    """One DATASET block; a tree node of the layout component."""

    name: str
    schema_name: Optional[str] = None
    extra_attrs: List[Attribute] = field(default_factory=list)
    index_attrs: Tuple[str, ...] = ()
    dataspace: Tuple[SpaceItem, ...] = ()
    data: DataClause = field(default_factory=DataClause)
    children: List["DatasetNode"] = field(default_factory=list)
    parent: Optional["DatasetNode"] = None
    #: Spans recorded by the parser: the ``DATASET name`` header, the
    #: schema reference inside DATATYPE, and each DATAINDEX attribute.
    span: Optional[Span] = field(default=None, compare=False, repr=False)
    schema_span: Optional[Span] = field(default=None, compare=False, repr=False)
    index_attr_spans: Tuple[Span, ...] = field(
        default=(), compare=False, repr=False
    )

    @property
    def is_leaf(self) -> bool:
        return bool(self.dataspace)

    def effective_schema_name(self) -> Optional[str]:
        node: Optional[DatasetNode] = self
        while node is not None:
            if node.schema_name:
                return node.schema_name
            node = node.parent
        return None

    def effective_index_attrs(self) -> Tuple[str, ...]:
        """Index attributes, own plus inherited, outermost first."""
        chain: List[str] = []
        node: Optional[DatasetNode] = self
        stack = []
        while node is not None:
            stack.append(node)
            node = node.parent
        for ancestor in reversed(stack):
            for attr in ancestor.index_attrs:
                if attr not in chain:
                    chain.append(attr)
        return tuple(chain)

    def leaves(self) -> List["DatasetNode"]:
        """All leaf datasets under (and including) this node, in order."""
        if self.is_leaf:
            return [self]
        out: List[DatasetNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def walk(self) -> Iterator["DatasetNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __str__(self) -> str:
        return f'DATASET "{self.name}"'


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_layout(text: str) -> Dict[str, DatasetNode]:
    """Parse all top-level DATASET blocks in ``text``.

    Schema/storage sections (``[Name]`` + key lines) may precede the layout
    in a combined descriptor file; they are skipped here.
    Child references in non-leaf DATA clauses are resolved against the
    returned mapping (a child may be defined inline or as a sibling
    top-level block, matching the paper's Figure 4 style).
    """
    scanner = Scanner(text)
    datasets: Dict[str, DatasetNode] = {}
    while not scanner.at_end():
        ch = scanner.peek_char()
        if ch == "[":
            _skip_ini_section(scanner)
            continue
        word = scanner.peek_ident()
        if word.upper() != "DATASET":
            raise scanner.error(
                f"expected DATASET block or [section], got {word or ch!r}"
            )
        node = _parse_dataset(scanner)
        if node.name in datasets:
            raise MetadataValidationError(f"dataset {node.name!r} defined twice")
        datasets[node.name] = node
    _resolve_children(datasets)
    return datasets


def _skip_ini_section(scanner: Scanner) -> None:
    """Skip a ``[Name]`` section and its key lines."""
    scanner.expect("[")
    scanner.read_balanced_until("]")
    scanner.expect("]")
    while not scanner.at_end():
        saved = scanner.pos
        ch = scanner.peek_char()
        if ch == "[":
            return
        word = scanner.peek_ident()
        if word.upper() == "DATASET":
            return
        # consume one "key = value" line
        scanner.skip_trivia()
        scanner.read_rest_of_line()
        if scanner.pos == saved:  # pragma: no cover - safety against stall
            raise scanner.error("could not parse descriptor section body")


def _parse_dataset(scanner: Scanner) -> DatasetNode:
    header_start = scanner.mark()
    keyword = scanner.read_ident()
    if keyword.upper() != "DATASET":
        raise scanner.error(f"expected DATASET, got {keyword!r}")
    name = scanner.read_name()
    node = DatasetNode(name=name, span=scanner.span(header_start))
    scanner.expect("{")
    while True:
        if scanner.try_consume("}"):
            break
        word = scanner.peek_ident()
        upper = word.upper()
        if upper == "DATATYPE":
            scanner.read_ident()
            _parse_datatype(scanner, node)
        elif upper == "DATAINDEX":
            scanner.read_ident()
            names, spans = _parse_ident_list(scanner)
            node.index_attrs = tuple(names)
            node.index_attr_spans = tuple(spans)
        elif upper == "DATASPACE":
            scanner.read_ident()
            scanner.expect("{")
            node.dataspace = tuple(_parse_space_items(scanner))
        elif upper == "DATA":
            scanner.read_ident()
            node.data = _parse_data_clause(scanner)
        elif upper == "DATASET":
            child = _parse_dataset(scanner)
            child.parent = node
            node.children.append(child)
        else:
            raise scanner.error(
                f"unexpected {word!r} in DATASET {name!r} "
                "(expected DATATYPE, DATAINDEX, DATASPACE, DATA, or DATASET)"
            )
    if node.is_leaf and node.children:
        raise MetadataValidationError(
            f"dataset {name!r} has both a DATASPACE and nested DATASETs"
        )
    return node


def _parse_datatype(scanner: Scanner, node: DatasetNode) -> None:
    """DATATYPE { SchemaName }  or  DATATYPE { NAME = type ... }."""
    scanner.expect("{")
    first_start = scanner.mark()
    first = scanner.read_ident("schema name or attribute")
    first_span = scanner.span(first_start)
    if scanner.peek_char() == "=":
        # Inline attribute definitions: NAME = typename, repeated.
        attrs: List[Attribute] = []
        name, name_span = first, first_span
        while True:
            scanner.expect("=")
            attrs.append(Attribute(name, _read_type(scanner), span=name_span))
            if scanner.try_consume("}"):
                break
            name_start = scanner.mark()
            name = scanner.read_ident("attribute name")
            name_span = scanner.span(name_start)
            if scanner.peek_char() != "=":
                raise scanner.error(f"expected '=' after attribute {name!r}")
        node.extra_attrs.extend(attrs)
    else:
        node.schema_name = first
        node.schema_span = first_span
        scanner.expect("}")


_TYPE_FIRST_WORDS = {"short", "long", "unsigned"}
_TYPE_SECOND_WORDS = {"int", "char", "short", "long"}


def _read_type(scanner: Scanner):
    """Read a one- or two-word type name (``double``, ``short int``)."""
    first = scanner.read_ident("type name")
    if first.lower() in _TYPE_FIRST_WORDS:
        follow = scanner.peek_ident()
        if follow and follow.lower() in _TYPE_SECOND_WORDS:
            scanner.read_ident()
            return parse_type(f"{first} {follow}")
    return parse_type(first)


def _parse_ident_list(scanner: Scanner) -> Tuple[List[str], List[Span]]:
    scanner.expect("{")
    names: List[str] = []
    spans: List[Span] = []
    while not scanner.try_consume("}"):
        start = scanner.mark()
        names.append(scanner.read_ident())
        spans.append(scanner.span(start))
    return names, spans


def _parse_space_items(scanner: Scanner) -> List[SpaceItem]:
    """Parse dataspace items until the closing '}' (consumed)."""
    items: List[SpaceItem] = []
    pending: List[str] = []
    pending_spans: List[Span] = []

    def flush() -> None:
        if pending:
            group_span = pending_spans[0].merge(pending_spans[-1])
            items.append(
                AttrGroup(tuple(pending), group_span, tuple(pending_spans))
            )
            pending.clear()
            pending_spans.clear()

    while True:
        if scanner.try_consume("}"):
            flush()
            return items
        word_start = scanner.mark()
        word = scanner.read_ident("attribute or LOOP")
        word_span = scanner.span(word_start)
        if word.upper() == "LOOP":
            flush()
            var = scanner.read_ident("loop variable")
            range_start = scanner.mark()
            range_text = scanner.read_balanced_until("{")
            range_span = scanner.span(range_start)
            loop_range = parse_range(range_text, span=range_span)
            header_span = scanner.span(word_start)
            scanner.expect("{")
            body = _parse_space_items(scanner)
            if not body:
                raise MetadataValidationError(
                    f"LOOP {var} has an empty body"
                )
            items.append(LoopNode(var, loop_range, tuple(body), header_span))
        else:
            pending.append(word)
            pending_spans.append(word_span)


def _parse_data_clause(scanner: Scanner) -> DataClause:
    scanner.expect("{")
    child_refs: List[str] = []
    patterns: List[FilePattern] = []
    bindings: List[Binding] = []
    while not scanner.try_consume("}"):
        word = scanner.peek_ident()
        if word.upper() == "DATASET":
            scanner.read_ident()
            child_refs.append(scanner.read_name())
            continue
        # Either "VAR = range" binding or a file pattern.
        start = scanner.mark()
        saved = scanner.pos
        if word and word.upper() != "DIR":
            ident = scanner.read_ident()
            if scanner.peek_char() == "=":
                scanner.expect("=")
                range_start = scanner.mark()
                range_text = scanner.read_until_whitespace()
                range_span = scanner.span(range_start)
                binding_span = scanner.span(start)
                bindings.append(
                    Binding(
                        ident,
                        parse_range(range_text, span=range_span),
                        binding_span,
                    )
                )
                continue
            scanner.pos = saved
        raw = scanner.read_until_whitespace()
        patterns.append(parse_file_pattern(raw, span=scanner.span(start)))
    if child_refs and (patterns or bindings):
        raise MetadataValidationError(
            "a DATA clause cannot mix DATASET references with file patterns"
        )
    for binding in bindings:
        free = binding.range.free_vars()
        if free:
            raise MetadataValidationError(
                f"binding {binding} bounds must be constant, "
                f"found variables {sorted(free)}"
            )
    return DataClause(tuple(child_refs), tuple(patterns), tuple(bindings))


def parse_file_pattern(raw: str, span: Optional[Span] = None) -> FilePattern:
    """Parse ``DIR[expr]/template`` (the only supported pattern form)."""
    if not raw.upper().startswith("DIR["):
        raise MetadataSyntaxError(
            f"file pattern must start with DIR[...], got {raw!r}"
        )
    close = raw.find("]")
    if close < 0:
        raise MetadataSyntaxError(f"missing ']' in file pattern {raw!r}")
    dir_expr = parse_expr(raw[4:close])
    rest = raw[close + 1 :]
    if not rest.startswith("/"):
        raise MetadataSyntaxError(
            f"expected '/' after DIR[...] in pattern {raw!r}"
        )
    template = rest[1:]
    if not template:
        raise MetadataSyntaxError(f"empty file name in pattern {raw!r}")
    return FilePattern(dir_expr, template, span)


def _resolve_children(datasets: Dict[str, DatasetNode]) -> None:
    """Attach datasets referenced by name in non-leaf DATA clauses."""
    for node in list(datasets.values()):
        for tree_node in node.walk():
            for ref in tree_node.data.child_refs:
                child = _find_dataset(datasets, ref)
                if child is None:
                    raise MetadataValidationError(
                        f"dataset {tree_node.name!r} references undefined "
                        f"dataset {ref!r}"
                    )
                if child.parent is not None and child.parent is not tree_node:
                    raise MetadataValidationError(
                        f"dataset {ref!r} is claimed by two parents"
                    )
                if child not in tree_node.children:
                    child.parent = tree_node
                    tree_node.children.append(child)


def _find_dataset(
    datasets: Dict[str, DatasetNode], name: str
) -> Optional[DatasetNode]:
    if name in datasets:
        return datasets[name]
    for root in datasets.values():
        for node in root.walk():
            if node.name == name:
                return node
    return None


def root_datasets(datasets: Dict[str, DatasetNode]) -> List[DatasetNode]:
    """Datasets that are not referenced as children of any other dataset."""
    return [d for d in datasets.values() if d.parent is None]
