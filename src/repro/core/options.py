"""Unified execution options for every query entry point.

:class:`ExecOptions` is the single carrier of execution knobs, accepted
by ``Virtualizer.query`` / ``query_iter``, ``QueryService.submit``,
``Catalog.submit`` and every ``repro.connect`` client method.  The
per-method keywords it replaced (``submit(num_clients=, partitioner=,
remote=, parallel=)``, ``query_iter(batch_rows)``) are gone: passing one
is a ``TypeError`` like any other unknown argument.

The dataclass is frozen: derive variants with :meth:`replace`, e.g.
``LOCAL = ExecOptions(remote=False); LOCAL.replace(trace=True)``.

Every numeric and enum field accepts the values :data:`OPTION_RULES`
states for it, and nothing else: the constructor and :meth:`replace`
raise ``ValueError`` naming the field, what it accepts and what it got.
So an options object that exists can run on every transport — a
``tcp://`` node server decodes the fields it acts on through the same
table (``repro.net.wire.decode_options``) — and code that reads a field
never clamps or re-checks it.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Union

from ..obs.tracer import NullTracer, Tracer, as_tracer

if TYPE_CHECKING:  # storm imports core; never the other way around
    from ..storm.partition import Partitioner


def _integer(value: Any) -> bool:
    """An ``Integral`` that is not a ``bool`` (``True`` is no count)."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _number(value: Any) -> bool:
    """A ``Real`` that is not a ``bool``."""
    return type(value) in (int, float) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


#: A rule: a test of one value and the phrase that says what it accepts.
Rule = Tuple[Callable[[Any], bool], str]

_POSITIVE: Rule = (lambda v: _integer(v) and v > 0, "a positive integer")
_COUNT: Rule = (lambda v: _integer(v) and v >= 0, "a non-negative integer")
_SECONDS: Rule = (lambda v: _number(v) and v > 0, "a positive number")


def _or_none(rule: Rule) -> Rule:
    test, phrase = rule
    return (lambda v: v is None or test(v)), f"{phrase} or None"


def _one_of(*choices: str) -> Rule:
    return (
        lambda v: isinstance(v, str) and v in choices,
        " or ".join(map(repr, choices)),
    )


#: The values each numeric and enum field of :class:`ExecOptions`
#: accepts.  The constructor, :meth:`ExecOptions.replace` and the wire
#: (``repro.net.wire.decode_options``) judge values by this table and
#: by nothing else.
OPTION_RULES: Dict[str, Rule] = {
    "num_clients": _POSITIVE,
    "batch_rows": _POSITIVE,
    "coalesce_gap_bytes": _COUNT,
    "intra_node_workers": _POSITIVE,
    "retries": _COUNT,
    "retry_backoff": (lambda v: _number(v) and v >= 0, "a non-negative number"),
    "node_timeout": _or_none(_SECONDS),
    "vectorize": _one_of("on", "off"),
    "connect_timeout": _or_none(_SECONDS),
    "max_connections_per_node": _POSITIVE,
    "inflight_limit": _POSITIVE,
    "cache_mode": _one_of("off", "exact", "subsume"),
    "result_cache_bytes": _COUNT,
    "plan_cache_entries": _COUNT,
    "priority": (_integer, "an integer"),
    "scheduler": _one_of("fair", "fifo", "off"),
    "scheduler_workers": _COUNT,
    "admission": _one_of("reject", "queue"),
    "admission_budget": _or_none(_SECONDS),
    "row_quota": _or_none(_POSITIVE),
    "byte_quota": _or_none(_POSITIVE),
    "deadline": _or_none(_SECONDS),
}


def _refuse(name: str, value: Any) -> ValueError:
    return ValueError(
        f"option {name!r} must be {OPTION_RULES[name][1]}, got {value!r}"
    )


@dataclass(frozen=True)
class ExecOptions:
    """How a query runs — transport, parallelism, batching, tracing.

    ``remote``      charge result transfer to the network (the paper's
                    client/server mode); ``False`` models a co-located
                    client and skips partition/mover entirely.
    ``parallel``    extract on one thread per node.
    ``num_clients`` destination processors for partition generation.
    ``partitioner`` row-distribution scheme (default round-robin).
    ``batch_rows``  rows per batch for streaming execution: exactly
                    this many in every batch but the last, which may
                    be shorter.
    ``trace``       ``True`` for a fresh tracer, a :class:`Tracer` to
                    collect into, or ``None``/``False`` for the no-op
                    tracer (the near-zero-overhead default).

    I/O shape (see docs/architecture.md, "The I/O path"):

    ``coalesce_gap_bytes``  chunk reads against one file that are
                      adjacent or separated by at most this many bytes
                      are merged into a single ``read()`` call (the gap
                      bytes are read and discarded).  ``0`` disables
                      coalescing entirely — every chunk pays its own
                      read, the paper's Section 4.2 access pattern.
    ``intra_node_workers``  threads extracting one node's AFCs
                      concurrently.  ``1`` (the default) keeps per-node
                      extraction serial; higher values overlap chunk
                      I/O and decode within a node while output row
                      order stays identical to serial execution.

    Resilience (see docs/architecture.md, "Failure model and degraded
    execution"):

    ``retries``       extra attempts per failed node extraction (and per
                      failed result transfer) before giving up on it.
    ``retry_backoff`` seconds slept before the first retry; doubles each
                      further retry (exponential backoff).
    ``node_timeout``  seconds one extraction attempt may run before it is
                      abandoned as hung; timeouts count as failed
                      attempts and are retried like any other failure.
    ``allow_partial`` when a node is still failing after all retries,
                      return a degraded result (``QueryResult.degraded``
                      True, the node listed in ``failed_nodes``) instead
                      of raising :class:`~repro.errors.NodeFailureError`.

    Static analysis (see docs/diagnostics.md):

    ``strict``        run the ``repro.diag`` analyzers before executing and
                      refuse the query when the descriptor or the query has
                      any finding — warnings are escalated to errors.  Off
                      by default: warnings then only flow to the tracer
                      (``diag`` events, ``diag.warnings`` counter).

    Network transport (see docs/architecture.md, "Deployment"; used only
    when the query service reaches real node-server processes over
    ``tcp://``, ignored by the in-process ``local://`` path):

    ``connect_timeout``  seconds the TCP dial, and each step of the
                      HELLO/WELCOME handshake after it, may take before
                      the attempt fails with a retryable connection
                      error (at ``connect()``: a ``TransportError``).
    ``max_connections_per_node``  size of the coordinator's connection
                      pool per node server; concurrent requests beyond
                      it queue for a pooled connection.
    ``inflight_limit``  admission control: total requests the
                      coordinator allows on the wire at once across all
                      nodes; excess submits queue until a slot frees.

    Aggregation (see docs/architecture.md, "Aggregate pushdown"):

    ``agg_pushdown``  compute partial aggregates on the data-source
                      nodes and merge the per-node state frames at the
                      coordinator (the default).  ``False`` is the
                      ablation: nodes ship full filtered rows and the
                      coordinator aggregates client-side — results are
                      identical, only the bytes moved change (diag RO308
                      notes the ablation).  Coordinator-side only; node
                      servers never see this flag.

    Vectorized execution (see docs/architecture.md, "Vectorized
    execution"):

    ``vectorize``     ``"on"`` (the default) compiles each query's
                      residual WHERE once into a fused numpy batch
                      kernel (``repro.core.kernels``) and batches small
                      chunk sets into shared evaluation blocks —
                      results are bit-identical to the interpreted
                      walk, only faster.  ``"off"`` is the ablation
                      oracle: the per-node interpreted AST evaluator,
                      exactly as before kernels existed (diag RO314
                      notes the ablation).  Honoured by every path —
                      local extraction, per-node services (the flag
                      crosses the wire to ``tcp://`` node servers), and
                      cache-subsumption refiltering.

    Caching (see docs/architecture.md, "Caching & reuse"):

    ``cache_mode``    ``"off"`` (default) runs every query cold, exactly
                      as before caching existed.  ``"exact"`` serves
                      repeats of an identical normalized query from the
                      result cache; ``"subsume"`` additionally answers a
                      query whose ranges are contained in a cached
                      entry's by re-filtering the cached superset.  Both
                      warm modes also memoize extraction plans.
    ``result_cache_bytes``  byte budget of the shared LRU result cache
                      (per Virtualizer / QueryService); results larger
                      than the budget are never cached.
    ``plan_cache_entries``  entry budget of the plan cache; ``0``
                      disables plan memoization while leaving result
                      caching on.

    Scheduling (see docs/architecture.md, "Scheduling & admission";
    these fields are read by :class:`repro.sched.Scheduler` — plain
    ``QueryService.submit`` honours only the quotas/deadline/run_state
    group):

    ``tenant``        fair-share accounting identity of the submitter;
                      each tenant gets its own weighted queue.
    ``priority``      ``> 0`` routes the query onto the priority lane,
                      which is served before any fair-share queue and
                      has a reserved dispatch slot (higher values
                      first).
    ``scheduler``     ``"fair"`` (default) weighted fair-share across
                      tenants; ``"fifo"`` one global arrival-order
                      queue (priority lane still honoured); ``"off"``
                      bypasses scheduling entirely — the ablation mode
                      used by the latency benchmarks.
    ``scheduler_workers``  concurrent queries the scheduler runs,
                      counting those a blocking ``submit`` runs on its
                      own thread (and the size of the query service's
                      shared node fan-out pool); ``0`` picks an
                      automatic size.
    ``admission``     what happens to a query predicted over its
                      ``admission_budget``: ``"reject"`` (default)
                      raises :class:`~repro.errors.AdmissionError`,
                      ``"queue"`` parks it on the backfill lane, served
                      only when every other lane is empty.
    ``admission_budget``  cost ceiling in *simulated seconds* (the
                      deterministic ``storm/cost.py`` scale, not wall
                      time); ``None`` disables admission control.
    ``row_quota``     max filtered rows the query may produce;
                      enforced cooperatively at data-source partial
                      boundaries, tripping with
                      :class:`~repro.errors.QuotaExceededError`.
    ``byte_quota``    max bytes the query may read from disk; same
                      cooperative enforcement.
    ``deadline``      seconds after submission at which the query is
                      auto-cancelled (queued work immediately,
                      in-flight work at its next boundary).
    ``run_state``     internal: the scheduler's live cancel/quota state
                      for this submission.  Never set by callers and
                      never serialised to node servers.
    """

    remote: bool = True
    parallel: bool = True
    num_clients: int = 1
    partitioner: Optional["Partitioner"] = None
    batch_rows: int = 65536
    trace: Union[bool, Tracer, None] = None
    coalesce_gap_bytes: int = 64 * 1024
    intra_node_workers: int = 1
    retries: int = 0
    retry_backoff: float = 0.0
    node_timeout: Optional[float] = None
    allow_partial: bool = False
    strict: bool = False
    agg_pushdown: bool = True
    vectorize: str = "on"
    connect_timeout: float = 5.0
    max_connections_per_node: int = 4
    inflight_limit: int = 64
    cache_mode: str = "off"
    result_cache_bytes: int = 64 * 1024 * 1024
    plan_cache_entries: int = 128
    tenant: str = "default"
    priority: int = 0
    scheduler: str = "fair"
    scheduler_workers: int = 0
    admission: str = "reject"
    admission_budget: Optional[float] = None
    row_quota: Optional[int] = None
    byte_quota: Optional[int] = None
    deadline: Optional[float] = None
    run_state: Optional[object] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        for name, (test, _) in OPTION_RULES.items():
            if not test(getattr(self, name)):
                raise _refuse(name, getattr(self, name))

    def replace(self, **changes) -> "ExecOptions":
        """A copy with the given fields changed.

        Only the changed values are judged (the others were when this
        object was built), and the copy skips ``__init__``: the
        scheduler derives one per query.
        """
        for name, value in changes.items():
            if name not in _FIELDS:
                raise TypeError(f"ExecOptions has no field {name!r}")
            if name in OPTION_RULES and not OPTION_RULES[name][0](value):
                raise _refuse(name, value)
        copy = object.__new__(ExecOptions)
        copy.__dict__.update(self.__dict__, **changes)
        return copy

    def tracer(self) -> Union[Tracer, NullTracer]:
        """Resolve :attr:`trace` to a tracer instance (see ``as_tracer``)."""
        return as_tracer(self.trace)


def resolve_workers(requested: int) -> int:
    """Concrete worker count for ``ExecOptions.scheduler_workers``.

    ``0`` (auto) sizes generously — enough lanes that a lone client
    never queues behind an idle machine — while staying bounded; any
    positive value is taken as-is.
    """
    if requested > 0:
        return requested
    import os

    return min(32, 4 * (os.cpu_count() or 2))


_FIELDS = frozenset(field.name for field in dataclasses.fields(ExecOptions))

#: Shared defaults, so call sites can write ``DEFAULT_OPTIONS.replace(...)``.
DEFAULT_OPTIONS = ExecOptions()
