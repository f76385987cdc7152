"""Tokenizer for the SQL subset (SELECT / FROM / WHERE / GROUP BY).

The paper's query language (Figure 1) supports attribute projection, range
predicates, ``IN`` lists, boolean connectives, and user-defined filter
functions.  We extend it with the reduction vocabulary dashboards need:
``COUNT``/``SUM``/``MIN``/``MAX``/``AVG`` select items and a ``GROUP BY``
clause (see docs/language.md).  Joins remain absent.  The aggregate
function names are *not* keywords — they are recognised contextually in
the select list, so attributes named ``count`` or ``min`` keep working.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Union

from ..errors import QuerySyntaxError

KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "AND",
    "OR",
    "NOT",
    "IN",
    "BETWEEN",
    "TRUE",
    "FALSE",
    "GROUP",
    "BY",
}

#: Multi-character operators, longest first so lexing is greedy.
_OPERATORS = ("<=", ">=", "<>", "!=", "==", "<", ">", "=")

_PUNCT = set("(),*;")


class Token(NamedTuple):
    """One lexical token with its 1-based source position.

    A named tuple, not a frozen dataclass: a query lexes a few dozen of
    them, and a tuple is built in a fraction of the time.  Fields,
    ``matches`` and value equality are the same either way.
    """

    kind: str  # 'keyword' | 'ident' | 'number' | 'string' | 'op' | 'punct' | 'end'
    value: Union[str, int, float]
    line: int
    column: int

    def matches(self, kind: str, value: object = None) -> bool:
        return self.kind == kind and (value is None or self.value == value)


def tokenize(text: str) -> List[Token]:
    """Lex a query string into a token list ending with an 'end' token."""
    return list(_iter_tokens(text))


def _iter_tokens(text: str) -> Iterator[Token]:
    pos, length = 0, len(text)
    line, line_start = 1, 0

    def location(p: int) -> tuple:
        return line, p - line_start + 1

    while pos < length:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        if ch == "-" and text.startswith("--", pos):
            nl = text.find("\n", pos)
            pos = length if nl < 0 else nl
            continue
        lin, col = location(pos)
        if ch.isdigit() or (
            ch in "+-." and pos + 1 < length and text[pos + 1].isdigit()
        ):
            token, pos = _lex_number(text, pos, lin, col)
            yield token
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < length and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            word = text[start:pos]
            upper = word.upper()
            if upper in KEYWORDS:
                yield Token("keyword", upper, lin, col)
            else:
                yield Token("ident", word, lin, col)
            continue
        if ch in ("'", '"'):
            end = text.find(ch, pos + 1)
            if end < 0:
                raise QuerySyntaxError("unterminated string literal", lin, col)
            yield Token("string", text[pos + 1 : end], lin, col)
            pos = end + 1
            continue
        for op in _OPERATORS:
            if text.startswith(op, pos):
                yield Token("op", op, lin, col)
                pos += len(op)
                break
        else:
            if ch in _PUNCT:
                yield Token("punct", ch, lin, col)
                pos += 1
            else:
                raise QuerySyntaxError(f"unexpected character {ch!r}", lin, col)
    lin, col = location(pos)
    yield Token("end", "", lin, col)


def _lex_number(text: str, pos: int, line: int, col: int):
    start = pos
    length = len(text)
    if text[pos] in "+-":
        pos += 1
    is_float = False
    while pos < length and (text[pos].isdigit() or text[pos] in ".eE+-"):
        ch = text[pos]
        if ch == ".":
            is_float = True
        elif ch in "eE":
            # exponent: only if followed by digit or sign+digit
            nxt = text[pos + 1] if pos + 1 < length else ""
            if not (nxt.isdigit() or (nxt in "+-" and pos + 2 < length and text[pos + 2].isdigit())):
                break
            is_float = True
        elif ch in "+-":
            # sign valid only right after exponent marker
            if text[pos - 1] not in "eE":
                break
        pos += 1
    raw = text[start:pos]
    try:
        value: Union[int, float] = float(raw) if is_float else int(raw)
    except ValueError:
        raise QuerySyntaxError(f"bad numeric literal {raw!r}", line, col) from None
    return Token("number", value, line, col), pos
