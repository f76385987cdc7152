"""Semantic result caching and plan memoization (see docs/architecture.md,
"Caching & reuse").

Layering: this package sits beside :mod:`repro.core` — it imports core
and sql, never storm.  ``Virtualizer`` and ``QueryService`` construct a
:class:`QueryCache` lazily when ``ExecOptions.cache_mode`` enables it.
"""

from .keys import (
    QueryKey,
    exact_range,
    key_subsumes,
    query_key,
    split_where,
)
from .layer import CacheServe, QueryCache, project, widen_plan
from .result_cache import CacheEntry, PlanCache, ResultCache

__all__ = [
    "CacheEntry",
    "CacheServe",
    "PlanCache",
    "QueryCache",
    "QueryKey",
    "ResultCache",
    "exact_range",
    "key_subsumes",
    "project",
    "query_key",
    "split_where",
    "widen_plan",
]
