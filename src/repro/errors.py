"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type.  Parsing errors carry source positions so
diagnostics can point at the offending token in a descriptor or query.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class MetadataError(ReproError):
    """Base class for errors in meta-data descriptors."""


class MetadataSyntaxError(MetadataError):
    """A descriptor failed to lex or parse.

    Parameters
    ----------
    message:
        Human readable description of the problem.
    line, column:
        1-based source position of the offending token, when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class MetadataValidationError(MetadataError):
    """A descriptor parsed but is semantically inconsistent.

    Examples: a layout references an undefined schema, a loop bound uses an
    unbound variable, a DATA clause enumerates zero files.
    """


class MetadataEvaluationError(MetadataValidationError):
    """Evaluating a descriptor expression failed at runtime.

    Raised when a LOOP-bound or file-enumeration expression divides by
    zero (or otherwise cannot produce a value) while being evaluated
    against concrete binding values.  Subclasses
    :class:`MetadataValidationError` so existing ``except`` clauses keep
    working; additionally carries the source ``span`` of the offending
    range expression when the descriptor was parsed from text.
    """

    def __init__(self, message: str, span=None):
        #: :class:`repro.metadata.spans.Span` of the expression, or None.
        self.span = span
        #: The message without the position prefix (diagnostics re-wrap it).
        self.bare_message = message
        if span is not None:
            message = f"line {span.line}, col {span.column}: {message}"
        super().__init__(message)


class SchemaError(MetadataError):
    """A schema is malformed (duplicate attribute, unknown type name...)."""


class QueryError(ReproError):
    """Base class for errors in SQL queries."""


class QuerySyntaxError(QueryError):
    """A query failed to lex or parse."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class QueryValidationError(QueryError):
    """A query parsed but does not match the schema it targets.

    Examples: unknown attribute in SELECT list, filter function not
    registered, type mismatch in a comparison.
    """


class PlanningError(ReproError):
    """The planner could not derive aligned file chunks for a query."""


class ExtractionError(ReproError):
    """Reading bytes for an aligned file chunk failed."""


class CodegenError(ReproError):
    """Generating or loading compiled index/extractor code failed."""


class InjectedFault(ExtractionError):
    """An artificial failure produced by the fault-injection harness.

    Subclasses :class:`ExtractionError` so the runtime's retry machinery
    treats injected faults exactly like real I/O failures — chaos tests
    exercise the same recovery paths production errors would.
    """


class StormError(ReproError):
    """Base class for errors in the STORM runtime services."""


class ClusterError(StormError):
    """A virtual cluster operation failed (unknown node, missing dir...)."""


class NodeTimeoutError(StormError):
    """One node's extraction exceeded ``ExecOptions.node_timeout``.

    Raised per attempt and retryable; if every attempt times out the
    query surfaces a :class:`NodeFailureError` instead.
    """

    def __init__(self, node: str, timeout: float):
        self.node = node
        self.timeout = timeout
        super().__init__(
            f"node {node!r} did not answer within {timeout:g}s"
        )


class NodeFailureError(StormError):
    """A node kept failing after every configured retry.

    Carries the failing ``node``, the number of ``attempts`` made, and the
    last underlying ``cause``.  Raised by ``QueryService.submit`` when
    ``ExecOptions.allow_partial`` is False; with ``allow_partial=True``
    the query instead returns a degraded result that lists the node.
    """

    def __init__(self, node: str, attempts: int, cause: "Optional[Exception]" = None):
        self.node = node
        self.attempts = attempts
        self.cause = cause
        message = f"node {node!r} failed after {attempts} attempt(s)"
        if cause is not None:
            message += f": {type(cause).__name__}: {cause}"
        super().__init__(message)


class FaultSpecError(StormError):
    """A fault rule or chaos profile specification is invalid."""


class TransportError(StormError):
    """The node wire protocol itself failed (handshake mismatch, bad
    frame, wrong dataset).  NOT retryable: a peer speaking the wrong
    protocol will not start speaking the right one on attempt two.
    """


class PlanMismatchError(TransportError):
    """A node server planned a different share of a query than the
    coordinator expected from it.

    With query shipping both sides enumerate AFCs from the same query
    text; a different count means they disagree on the data's layout or
    index, and the node's rows could be silently short or long.  NOT
    retryable, and never degraded away: the result would be wrong, not
    partial.
    """


class NodeConnectionError(ExtractionError):
    """A network operation against a data-source node failed.

    Covers refused/timed-out dials, connections reset mid-response, and
    truncated frames.  Subclasses :class:`ExtractionError` so the query
    service's retry machinery treats a flaky network exactly like a
    flaky disk: retried per ``ExecOptions.retries``, degradable under
    ``allow_partial``.
    """

    def __init__(self, node: str, cause: "Optional[BaseException]" = None):
        self.node = node
        self.cause = cause
        message = f"connection to node {node!r} failed"
        if cause is not None:
            message += f": {type(cause).__name__}: {cause}"
        super().__init__(message)


class RemoteError(StormError):
    """A node server reported a failure that is not a known I/O error.

    Carries the remote exception's type name and message.  Programming
    errors (planning bugs, bad plans) must propagate un-retried, exactly
    as they would in-process.
    """

    def __init__(self, etype: str, message: str, node: str = ""):
        self.etype = etype
        self.node = node
        prefix = f"node {node!r}: " if node else ""
        super().__init__(f"{prefix}remote {etype}: {message}")


class PartitionError(StormError):
    """Partition generation was asked for an unknown or invalid scheme."""


class SchedulerError(StormError):
    """Base class for errors raised by the workload scheduler.

    Deliberately NOT a subclass of :class:`ExtractionError`: scheduler
    decisions (admission refusals, quota trips, cancellations) are
    verdicts about the query, not transient I/O faults — they are never
    retried and never degraded away under ``allow_partial``.
    """


class AdmissionError(SchedulerError):
    """Admission control refused a query predicted over its cost budget.

    Raised by ``Scheduler.submit`` when ``ExecOptions.admission_budget``
    is set, the cost model predicts more simulated seconds than the
    budget, and ``ExecOptions.admission == "reject"`` (with
    ``"queue"`` the query is queued on the backfill lane instead).
    """

    def __init__(self, predicted_seconds: float, budget_seconds: float,
                 sql: str = ""):
        self.predicted_seconds = predicted_seconds
        self.budget_seconds = budget_seconds
        self.sql = sql
        suffix = f" for {sql[:120]!r}" if sql else ""
        super().__init__(
            f"admission refused: predicted {predicted_seconds:.3f}s exceeds "
            f"budget {budget_seconds:g}s{suffix}"
        )


class QueryCancelledError(SchedulerError):
    """A query was cancelled before it produced a result.

    ``reason`` distinguishes explicit ``handle.cancel()`` calls
    (``"cancelled"``) from deadline-based auto-cancel (``"deadline"``)
    and scheduler shutdown (``"scheduler closed"``).
    """

    def __init__(self, reason: str = "cancelled"):
        self.reason = reason
        super().__init__(f"query cancelled ({reason})")


class QuotaExceededError(SchedulerError):
    """A query tripped its cooperative row or byte quota mid-execution.

    Checked at data-source partial boundaries, so a query may briefly
    overshoot before the trip surfaces: bytes by at most one AFC, rows
    by at most one kernel block or one AFC, whichever is larger
    (locally); either by at most one node partial over ``tcp://``.
    """

    def __init__(self, kind: str, used: int, quota: int):
        self.kind = kind
        self.used = used
        self.quota = quota
        super().__init__(
            f"{kind} quota exceeded: {used} > {quota}"
        )


class RowStoreError(ReproError):
    """Base class for errors in the baseline relational row store."""
