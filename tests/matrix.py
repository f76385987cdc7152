"""Hypothesis strategies for the differential test matrix.

One home for the axes a differential test crosses, so a new oracle test
draws from these instead of growing its own ``random.Random`` generator:

* :func:`exec_axes` — the option axes that must not change a result:
  segment-cache size (0, tiny enough to evict mid-run, default),
  coalescing gap, fused-block size and intra-node workers;
* :func:`where_terms` — a WHERE conjunction over stored attributes:
  ordered comparisons of a column with a literal, either way round,
  mixed with ``!=``, ``NOT``, ``OR``, ``[NOT] IN`` lists and
  ``[NOT] BETWEEN``;
* :func:`where_trees` — a WHERE tree of up to three AND/OR/NOT atoms,
  literals per attribute given (e.g. :func:`chunk_literals`);
* :func:`chunk_columns` — per-chunk column values with adversarial
  bounds: NaN, +-inf, all-equal chunks, -0.0 beside +0.0, int64 beyond
  2**53, float32 values whose neighbours straddle a decimal literal,
  big-endian dtypes;
* :func:`query_shapes` — a query text with literal holes and several
  bindings of it, drawn from literals that steer the rewrite: equal and
  reversed bounds, integral floats, ``1e999``, ``-0.0``, ints beyond
  2**53, strings, IN lists with duplicates, BETWEEN/NOT/OR, ``X-1``
  next to ``X - 1``, ``--`` comments and non-ASCII digits;
* :func:`merge_axes` — what a multi-node result's merge must not be
  changed by: transport and node count, the plan's kind (a WHERE the
  index decides, a residual one, an aggregate, no AFC at all), a node
  lost under ``allow_partial`` or retried after its reply failed
  midway, intra-node workers, result-cache mode (widened plans),
  big-endian columns and reply frame size;
* :func:`option_values` — one judged ``ExecOptions`` field, a value for
  it (in range, an in-range NumPy scalar, on and past its boundary, a
  ``bool``, a float for an integer field, a string, ``None``) and
  whether the constructor must accept it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np
from hypothesis import strategies as st

#: Segment-cache sizes: off, small enough to evict inside one run, the
#: default.
CACHE_BYTES = (0, 300, 32 * 1024 * 1024)
#: Coalescing off, and merging chunks up to 64 KiB apart.
GAPS = (0, 64 * 1024)
#: Fused-block rows: one AFC a block, blocks that close mid-part, and
#: one block per part.
BLOCK_ROWS = (1, 7, 64, 10**6)
#: intra_node_workers.
WORKERS = (1, 3)

#: Operators chunk bounds can refute, and their mirror images.
ORDERED = ("<", "<=", ">", ">=")


@dataclasses.dataclass(frozen=True)
class Axes:
    cache_bytes: int
    gap: int
    block_rows: int
    workers: int


@st.composite
def exec_axes(
    draw,
    cache_bytes: Sequence[int] = CACHE_BYTES,
    gaps: Sequence[int] = GAPS,
    block_rows: Sequence[int] = BLOCK_ROWS,
    workers: Sequence[int] = WORKERS,
) -> Axes:
    """One point of the option axes, each drawn from its values."""
    return Axes(
        draw(st.sampled_from(cache_bytes)),
        draw(st.sampled_from(gaps)),
        draw(st.sampled_from(block_rows)),
        draw(st.sampled_from(workers)),
    )


def literal_text(value) -> str:
    """A number as SQL literal text (no exponent: the lexer reads plain
    decimals)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return np.format_float_positional(float(value), trim="-")


def _literals(attr: str, spans: Mapping[str, Tuple[float, float]],
              extra: Mapping[str, Sequence[str]]):
    lo, hi = spans[attr]
    fixed = [lo - 1, lo, (lo + hi) / 2, hi, hi + 1, *extra.get(attr, ())]
    return st.one_of(
        st.sampled_from([literal_text(v) for v in fixed]),
        st.floats(lo, hi).map(lambda v: literal_text(round(v, 3))),
    )


@st.composite
def where_terms(
    draw,
    spans: Mapping[str, Tuple[float, float]],
    extra: Mapping[str, Sequence[str]] = {},
    max_terms: int = 4,
) -> str:
    """A WHERE conjunction over the attributes of ``spans`` (each with
    the range its values span), literals drawn around those ranges and
    from ``extra`` per attribute."""
    names = sorted(spans)
    terms: List[str] = []
    for _ in range(draw(st.integers(1, max_terms))):
        attr = draw(st.sampled_from(names))
        lit = draw(_literals(attr, spans, extra))
        op = draw(st.sampled_from(ORDERED))
        kind = draw(st.sampled_from([
            "col-op-lit", "col-op-lit", "lit-op-col", "ne", "not", "or",
            "in", "between",
        ]))
        neg = draw(st.sampled_from(("", "", "NOT ")))
        if kind == "col-op-lit":
            terms.append(f"{attr} {op} {lit}")
        elif kind == "lit-op-col":
            terms.append(f"{lit} {op} {attr}")
        elif kind == "ne":
            terms.append(f"{attr} != {lit}")
        elif kind == "not":
            terms.append(f"NOT ({attr} {op} {lit})")
        elif kind == "in":
            more = draw(st.lists(_literals(attr, spans, extra), max_size=2))
            terms.append(f"{attr} {neg}IN ({', '.join([lit, *more])})")
        elif kind == "between":
            hi = draw(_literals(attr, spans, extra))
            terms.append(f"{attr} {neg}BETWEEN {lit} AND {hi}")
        else:
            other = draw(st.sampled_from(names))
            lit2 = draw(_literals(other, spans, extra))
            op2 = draw(st.sampled_from(ORDERED))
            terms.append(f"({attr} {op} {lit} OR {other} {op2} {lit2})")
    return " AND ".join(terms)


#: Dtypes a stored column may have, native and big-endian.
BOUND_DTYPES = ("<f4", ">f4", "<f8", ">f8", "<i8", ">i8", "<i4", "u1")

_BIG = 2**53


def _specials(dtype: np.dtype) -> List:
    if dtype.kind == "f":
        tiny = np.float32(0.1)
        return [
            np.nan, np.inf, -np.inf, -0.0, 0.0, 0.1, float(tiny),
            float(np.nextafter(tiny, np.float32(1))),
            float(np.nextafter(tiny, np.float32(0))), 1.5, -2.0,
        ]
    info = np.iinfo(dtype)
    values = [0, 1, -1, 7, info.max, info.min]
    if dtype.itemsize == 8:
        values += [_BIG - 1, _BIG, _BIG + 1, -_BIG - 1, -_BIG]
    return [v for v in values if info.min <= v <= info.max]


@st.composite
def chunk_columns(draw) -> Tuple[np.dtype, List[np.ndarray]]:
    """One column's chunks, in one dtype: each chunk all-equal, drawn
    from that dtype's adversarial values, or a mix of both with small
    numbers."""
    dtype = np.dtype(draw(st.sampled_from(BOUND_DTYPES)))
    specials = _specials(dtype)
    chunks = []
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.integers(1, 5))
        if draw(st.booleans()):
            values = [draw(st.sampled_from(specials))] * rows
        else:
            values = draw(st.lists(
                st.one_of(st.sampled_from(specials), st.integers(-3, 3)),
                min_size=rows, max_size=rows,
            ))
        chunks.append(np.array(values).astype(dtype))
    return dtype, chunks


def chunk_literals(dtype: np.dtype) -> List[str]:
    """Literal texts worth comparing a column of ``dtype`` with: its
    adversarial values and the decimals between float neighbours."""
    texts = ["0", "1", "-1", "0.1", "-0.0", "0.0", "1.5", "2.5"]
    if dtype.kind == "f":
        # float32(0.1) written out exactly, and its float32 neighbours.
        tiny = np.float32(0.1)
        texts += [
            literal_text(float(v)) for v in (
                tiny, np.nextafter(tiny, np.float32(1)),
                np.nextafter(tiny, np.float32(0)),
            )
        ]
    if dtype.kind in "iu" and dtype.itemsize == 8:
        texts += [str(_BIG), str(_BIG + 1), f"{_BIG}.0", f"{_BIG + 2}.0"]
    return texts


@st.composite
def where_trees(
    draw, literals: Mapping[str, Sequence[str]], max_atoms: int = 3
) -> str:
    """A WHERE tree of up to ``max_atoms`` atoms joined by AND, OR and
    NOT, each atom comparing an attribute of ``literals`` with one of
    its literals: an ordered comparison either way round, ``=``,
    ``!=``, ``[NOT] IN`` or ``[NOT] BETWEEN``."""
    names = sorted(literals)

    def atom() -> str:
        attr = draw(st.sampled_from(names))
        lit = draw(st.sampled_from(literals[attr]))
        kind = draw(st.sampled_from(
            ["col-op-lit", "col-op-lit", "lit-op-col", "eq", "ne", "in",
             "between"]
        ))
        op = draw(st.sampled_from(ORDERED))
        neg = draw(st.sampled_from(("", "", "NOT ")))
        if kind == "col-op-lit":
            return f"{attr} {op} {lit}"
        if kind == "lit-op-col":
            return f"{lit} {op} {attr}"
        if kind in ("eq", "ne"):
            return f"{attr} {'=' if kind == 'eq' else '!='} {lit}"
        other = draw(st.sampled_from(literals[attr]))
        if kind == "in":
            return f"{attr} {neg}IN ({lit}, {other})"
        return f"{attr} {neg}BETWEEN {lit} AND {other}"

    def tree(atoms: int) -> str:
        if atoms == 1:
            text = atom()
        else:
            left = draw(st.integers(1, atoms - 1))
            joiner = draw(st.sampled_from((" AND ", " OR ")))
            text = f"({tree(left)}{joiner}{tree(atoms - left)})"
        return f"NOT ({text})" if draw(st.integers(0, 4)) == 0 else text

    return tree(draw(st.integers(1, max_atoms)))


def where_over(names: Sequence[str], literals: Dict[str, List[str]]):
    """:func:`where_terms` over ``names``, every literal from
    ``literals``."""
    spans = {name: (0.0, 1.0) for name in names}
    return where_terms(spans, literals)


# ---------------------------------------------------------------------------
# Query shapes
# ---------------------------------------------------------------------------

#: Number literals as texts: ties across int and float, reversed and
#: equal bounds, integral floats, signed zeros, spellings that sort
#: unlike their values, ints beyond 2**53, non-finite floats.
SHAPE_NUMBERS = (
    "0", "1", "2", "3", "10", "-1", "+3", "007", "2.0", "1.0", "-0.0",
    "0.0", "1.5", ".5", "0.25", "1e3", "1e-3", "2E+2", "1e999", "-1e999",
    str(_BIG), str(_BIG + 1), f"{_BIG}.0", "12345678901234567890",
)
#: String literal texts, quoted; one holds a quote, one is empty.
SHAPE_STRINGS = ("'a'", "'b'", "'a b'", "''", "'10'", "\"it's\"")
#: Literal texts the lexer reads differently from ASCII or rejects.
SHAPE_ODD = ("\u0661", "\u0662\u0663", "\u00b2", "1.2.3", "- 1")


@dataclasses.dataclass(frozen=True)
class Shape:
    """A query text with ``{0}``, ``{1}``, ... literal holes."""

    template: str
    holes: int

    def text(self, literals: Sequence[str]) -> str:
        return self.template.format(*literals)


@st.composite
def _term(draw, names: Sequence[str], hole, depth: int = 0) -> str:
    a = draw(st.sampled_from(names))
    b = draw(st.sampled_from(names))
    op = draw(st.sampled_from(("=", "==", "!=", "<>", "<", "<=", ">", ">=")))
    kinds = [
        "col-lit", "col-lit", "col-lit", "lit-col", "lit-lit", "glued",
        "between", "in", "func", "col-col",
    ]
    if depth < 2:
        kinds += ["not", "or", "and"]
    kind = draw(st.sampled_from(kinds))
    if kind == "col-lit":
        return f"{a} {op} {hole()}"
    if kind == "lit-col":
        return f"{hole()} {op} {a}"
    if kind == "lit-lit":
        return f"{hole()} {op} {hole()}"
    if kind == "glued":  # X>-1, X-1 and X - 1 side by side
        return draw(st.sampled_from((
            f"{a}{op}{hole()}", f"{a}{hole()} > 0", f"{a} - {hole()} > 0",
        )))
    if kind == "between":
        neg = draw(st.sampled_from(("", "NOT ")))
        return f"{a} {neg}BETWEEN {hole()} AND {hole()}"
    if kind == "in":
        neg = draw(st.sampled_from(("", "NOT ")))
        values = ", ".join(hole() for _ in range(draw(st.integers(1, 4))))
        return f"{a} {neg}IN ({values})"
    if kind == "func":
        return f"F({a}, {hole()}) {op} {hole()}"
    if kind == "col-col":
        return f"{a} {op} {b}"
    inner = draw(_term(names, hole, depth + 1))
    if kind == "not":
        return f"NOT ({inner})"
    other = draw(_term(names, hole, depth + 1))
    joiner = " OR " if kind == "or" else " AND "
    return f"({inner}{joiner}{other})"


@st.composite
def query_shapes(
    draw, table: str, names: Sequence[str], group: Sequence[str] = ()
) -> Shape:
    """A query over ``table``: a SELECT list (rows, or aggregates over
    ``group``), and a WHERE of up to five terms over ``names``, with
    literal holes, odd spacing and ``--`` comments."""
    count = [0]

    def hole() -> str:
        count[0] += 1
        return "{%d}" % (count[0] - 1)

    if group and draw(st.booleans()):
        key = draw(st.sampled_from(group))
        select = f"{key}, COUNT(*), MIN({draw(st.sampled_from(names))})"
        tail = f" GROUP BY {key}"
    else:
        select = ", ".join(draw(st.lists(
            st.sampled_from(names), min_size=1, max_size=3, unique=True,
        )))
        tail = ""
    terms = [
        draw(_term(names, hole)) for _ in range(draw(st.integers(0, 5)))
    ]
    joiners = [
        draw(st.sampled_from((" AND ", " AND ", "  AND\n", " -- 7 'x'\nAND ")))
        for _ in terms[1:]
    ]
    where = terms[0] if terms else ""
    for joiner, term in zip(joiners, terms[1:]):
        where += joiner + term
    text = f"SELECT {select} FROM {table}"
    if where:
        text += f" WHERE {where}"
    return Shape(text + tail, count[0])


def shape_literals(holes: int):
    """Literal texts for ``holes`` holes: mostly numbers, some strings,
    now and then a literal the lexer reads otherwise."""
    pool = st.one_of(
        st.sampled_from(SHAPE_NUMBERS),
        st.sampled_from(SHAPE_NUMBERS),
        st.integers(-20, 20).map(str),
        st.sampled_from(SHAPE_STRINGS),
        st.sampled_from(SHAPE_ODD),
    )
    return st.lists(pool, min_size=holes, max_size=holes)


# ---------------------------------------------------------------------------
# The merge
# ---------------------------------------------------------------------------

TRANSPORTS = ("local", "tcp")
#: Several nodes first: a lone node's table is the result as it is.
NODE_COUNTS = (2, 3, 1)
#: ``decided``: a REL/TIME window the index settles, every planned row
#: kept (a tcp reply may land in the result buffer); ``residual``: the
#: window and a stored-attribute conjunct, which may empty whole nodes;
#: ``aggregate``: per-node state frames; ``empty``: a window no AFC is in.
PLAN_KINDS = ("decided", "residual", "aggregate", "empty")
#: ``lost``: a node down, dropped under ``allow_partial``; ``retried``:
#: a node whose first reply fails midway (a reset after its first frame
#: over tcp, a disk failing after two chunks locally), retried.
MERGE_FAULTS = ("none", "lost", "retried")
CACHE_MODES = ("off", "exact", "subsume")
#: Reply frames of a few rows, and of whole replies.
FRAME_ROWS = (5, 65536)


@dataclasses.dataclass(frozen=True)
class MergeAxes:
    transport: str
    nodes: int
    plan: str
    fault: str
    #: Index of the node the fault hits.
    faulty: int
    workers: int
    cache_mode: str
    big_endian: bool
    batch_rows: int


@st.composite
def merge_axes(draw) -> MergeAxes:
    """One point of the merge's axes."""
    nodes = draw(st.sampled_from(NODE_COUNTS))
    return MergeAxes(
        draw(st.sampled_from(TRANSPORTS)),
        nodes,
        draw(st.sampled_from(PLAN_KINDS)),
        draw(st.sampled_from(MERGE_FAULTS)),
        draw(st.integers(0, nodes - 1)),
        draw(st.sampled_from(WORKERS)),
        draw(st.sampled_from(CACHE_MODES)),
        draw(st.booleans()),
        draw(st.sampled_from(FRAME_ROWS)),
    )


# ---------------------------------------------------------------------------
# ExecOptions values
# ---------------------------------------------------------------------------

#: Each ExecOptions field with a value rule, and the kind of values it
#: accepts; a trailing ``?`` also accepts ``None``.  Stated here apart
#: from the product's table, so a rule loosened there shows.
OPTION_KINDS: Dict[str, str] = {
    "num_clients": "positive",
    "batch_rows": "positive",
    "coalesce_gap_bytes": "count",
    "intra_node_workers": "positive",
    "retries": "count",
    "retry_backoff": "non-negative number",
    "node_timeout": "positive number?",
    "vectorize": "enum",
    "connect_timeout": "positive number?",
    "max_connections_per_node": "positive",
    "inflight_limit": "positive",
    "cache_mode": "enum",
    "result_cache_bytes": "count",
    "plan_cache_entries": "count",
    "priority": "integer",
    "scheduler": "enum",
    "scheduler_workers": "count",
    "admission": "enum",
    "admission_budget": "positive number?",
    "row_quota": "positive?",
    "byte_quota": "positive?",
    "deadline": "positive number?",
}
OPTION_CHOICES: Dict[str, Tuple[str, ...]] = {
    "vectorize": ("on", "off"),
    "cache_mode": ("off", "exact", "subsume"),
    "scheduler": ("fair", "fifo", "off"),
    "admission": ("reject", "queue"),
}
VALUE_CLASSES = (
    "in", "numpy", "boundary", "out", "bool", "float", "str", "none"
)
#: The NumPy scalar types an in-range ``numpy`` value is drawn as.
NUMPY_INTEGERS = (np.int64, np.int32, np.uint32)
NUMPY_REALS = (np.float64, np.float32, np.int64)


@st.composite
def option_values(
    draw, fields: Sequence[str] = tuple(OPTION_KINDS)
) -> Tuple[str, object, bool]:
    """``(field, value, accepted)``: a value of one of ``fields`` and
    whether ``ExecOptions`` must accept it."""
    name = draw(st.sampled_from(fields))
    kind = OPTION_KINDS[name]
    optional = kind.endswith("?")
    kind = kind.rstrip("?")
    cls = draw(st.sampled_from(VALUE_CLASSES))
    if cls == "bool":
        return name, draw(st.booleans()), False
    if cls == "none":
        return name, None, optional
    if kind == "enum":
        choices = OPTION_CHOICES[name]
        if cls == "numpy":
            return name, np.str_(draw(st.sampled_from(choices))), True
        if cls == "in":
            return name, draw(st.sampled_from(choices)), True
        if cls == "float":
            return name, 1.0, False
        odd = draw(st.sampled_from(choices))
        return name, draw(st.sampled_from(
            (odd.upper(), f" {odd}", "maybe", "")
        )), False
    if kind.endswith("number"):
        edge_ok = kind.startswith("non-negative")
        if cls == "numpy":
            scalar = draw(st.sampled_from(NUMPY_REALS))
            return name, scalar(draw(st.integers(1, 10**6))), True
        if cls == "in":
            return name, draw(st.one_of(
                st.floats(1e-9, 1e9), st.integers(1, 10**9)
            )), True
        if cls == "boundary":
            value = draw(st.sampled_from((0.0, 0, -0.0, 5e-324)))
            return name, value, value > 0 or edge_ok
        if cls == "out":
            return name, draw(st.one_of(
                st.floats(max_value=-1e-9, allow_infinity=False),
                st.integers(max_value=-1),
                st.just(float("nan")),
            )), False
        return name, str(draw(st.integers(1, 99))), False  # "float", "str"
    low = {"positive": 1, "count": 0, "integer": None}[kind]
    if cls == "numpy":
        scalar = draw(st.sampled_from(NUMPY_INTEGERS))
        return name, scalar(draw(st.integers(
            0 if low is None else low + 1, 2**31 - 1
        ))), True
    if cls == "in":
        return name, draw(st.integers(
            -(2**40) if low is None else low + 1, 2**40
        )), True
    if cls == "boundary":
        value = draw(st.sampled_from((0, -1) if low is None else (low, low - 1)))
        return name, value, low is None or value >= low
    if cls == "out":
        if low is None:  # every integer is in range
            return name, draw(st.integers(2**63, 2**70)), True
        return name, draw(st.integers(-(2**40), low - 1)), False
    if cls == "float":
        return name, float(draw(st.integers(1, 99))), False
    return name, str(draw(st.integers(1, 99))), False
