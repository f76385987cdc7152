"""Resolved query texts: the SQL front end runs once per distinct text.

The paper promises that "no code generation or expensive runtime
processing is required when a new query is submitted".  Lexing, parsing,
binding (:func:`~repro.sql.typecheck.bind_where`) and rewriting a text
to its canonical form is such processing, and
texts come back: a dashboard resubmits its panels, a client retries,
and a coordinator ships the same canonical text to every ``tcp://`` node
of a query.  A :class:`QueryTextCache` keeps, per exact text, the
:class:`~repro.sql.rewrite.Rewrite` of its first resolution: the query
as written, its canonical WHERE and RW4xx steps, and the columns the
planner derives from it.  A hit hands out a fresh :class:`Query`
carrying that memo, with no lexer, parser or rewrite run.

Only the exact text matches: one that differs in a literal, a blank or
a comment is a miss, lexed, parsed and rewritten as before.  A text
that does not parse is not cached, and a :class:`Query` object never
goes through the cache.  It holds :data:`QUERY_TEXT_CACHE_ENTRIES`
texts, least recently used first out.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from .ast import Query
from .rewrite import Rewrite, rewrite_of

__all__ = ["QUERY_TEXT_CACHE_ENTRIES", "QueryTextCache"]

#: Texts a dataset's cache holds (like ``KernelCache``'s 256).
QUERY_TEXT_CACHE_ENTRIES = 256


class QueryTextCache:
    """Bounded, thread-safe LRU from query text to its :class:`Rewrite`.

    :meth:`resolve` turns a text into a :class:`Query` carrying the
    memoized rewrite: a copy of the cached one on a hit, else whatever
    ``parse`` (lexer, parser, validation and binding) returns, rewritten
    once and remembered.  ``hits`` and ``misses`` count texts.
    """

    def __init__(self, capacity: int = QUERY_TEXT_CACHE_ENTRIES):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Rewrite]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def resolve(self, text: str, parse: Callable[[str], Query]) -> Query:
        with self._lock:
            memo = self._entries.get(text)
            if memo is not None:
                self._entries.move_to_end(text)
                self.hits += 1
            else:
                self.misses += 1
        if memo is not None:
            return memo.written()
        query = parse(text)
        memo = rewrite_of(query)
        with self._lock:
            self._entries[text] = memo
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return query

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
