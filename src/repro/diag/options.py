"""Execution-option analysis: the RO3xx diagnostics.

A value no query can run with never reaches this module:
:class:`~repro.core.options.ExecOptions` refuses it at construction
(``OPTION_RULES``), on every transport alike.  What is left to judge
is how the fields combine — knobs that silently do nothing beside
another's value — and the ablation modes, in the same diagnostic
vocabulary as the descriptor and query analyses, so
``ExecOptions(strict=True)`` refuses the warnings at submit time and a
traced query records them.
"""

from __future__ import annotations

from typing import List

from .core import Collector, Diagnostic


def analyze_options(options) -> List[Diagnostic]:
    """Findings about one :class:`~repro.core.options.ExecOptions`.

    The default options produce no findings; warnings mark knob
    combinations that silently do nothing, infos the ablation modes.
    """
    out = Collector(source="options")
    if options.retry_backoff > 0 and options.retries == 0:
        out.emit(
            "RO303",
            f"retry_backoff={options.retry_backoff} has no effect with "
            "retries=0 (no retry ever sleeps)",
            fix="set retries >= 1 or drop retry_backoff",
        )
    if options.inflight_limit < options.max_connections_per_node:
        out.emit(
            "RO306",
            f"inflight_limit={options.inflight_limit} is below "
            f"max_connections_per_node={options.max_connections_per_node}; "
            "the extra pooled connections can never be used",
            fix="raise inflight_limit or shrink the per-node pool",
        )
    if not options.agg_pushdown:
        out.emit(
            "RO308",
            "agg_pushdown=False aggregates at the coordinator: every "
            "filtered base row crosses the wire instead of per-node "
            "partial aggregates (ablation/debugging mode)",
            fix="leave agg_pushdown at its default of True",
        )
    if options.vectorize == "off":
        out.emit(
            "RO314",
            "vectorize='off' evaluates the WHERE through the interpreted "
            "AST walker on every block instead of the compiled batch "
            "kernel (ablation/debugging mode; results are identical, "
            "only slower)",
            fix="leave vectorize at its default of 'on'",
        )
    if options.scheduler == "off" and (
        options.tenant != "default"
        or options.priority != 0
        or options.admission_budget is not None
    ):
        out.emit(
            "RO313",
            "scheduler='off' bypasses the scheduler: tenant, priority, "
            "and admission_budget have no effect on this query",
            fix="drop the scheduling knobs or use scheduler='fair'",
        )
    return list(out)
