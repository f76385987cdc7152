"""Per-query run state: the cooperative cancel/quota/deadline carrier.

A :class:`RunState` is created by the scheduler for each admitted query
and travels on ``ExecOptions.run_state`` through the coordinator into
the data-source services.  Execution code calls :meth:`charge` after
producing a partial (an AFC's bytes and a filtered block's rows
locally, a node partial over ``tcp://``) and :meth:`checkpoint` before
starting more work; both raise the typed scheduler error —
:class:`~repro.errors.QueryCancelledError` or
:class:`~repro.errors.QuotaExceededError` — once the query must stop.

Cooperative by design: a trip never interrupts a read mid-flight, it
surfaces at the next partial boundary, so a query overshoots its quota
by at most one partial — locally one AFC of bytes, and one kernel block
or one AFC of rows, whichever is larger.  The state is deliberately
dependency-free (``threading`` + ``repro.errors`` only) so any layer
can hold one without import cycles.

This module also owns the process-wide abandoned-thread ledger backing
the ``sched.threads_abandoned`` counter: every sacrificial extraction
thread the query service gives up on is recorded here, whatever service
instance abandoned it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..errors import QueryCancelledError, QuotaExceededError


class RunState:
    """Thread-safe live state of one scheduled query."""

    __slots__ = (
        "_lock",
        "_cancelled",
        "_cancel_reason",
        "_quota_trip",
        "row_quota",
        "byte_quota",
        "deadline_at",
        "rows",
        "nbytes",
        "clock",
    )

    def __init__(
        self,
        row_quota: Optional[int] = None,
        byte_quota: Optional[int] = None,
        deadline_at: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._lock = threading.Lock()
        self._cancelled = False
        self._cancel_reason = ""
        #: (kind, used, quota) of the first quota trip, or None.
        self._quota_trip: Optional[tuple] = None
        self.row_quota = row_quota
        self.byte_quota = byte_quota
        #: Absolute ``clock()`` time past which the query auto-cancels.
        self.deadline_at = deadline_at
        self.rows = 0
        self.nbytes = 0
        self.clock = clock

    # -- signalling -----------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation; the first call wins and returns True."""
        with self._lock:
            if self._cancelled:
                return False
            self._cancelled = True
            self._cancel_reason = reason
            return True

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    @property
    def should_stop(self) -> bool:
        """True once any stop condition holds (no exception raised)."""
        with self._lock:
            if self._cancelled or self._quota_trip is not None:
                return True
        if self.deadline_at is not None and self.clock() >= self.deadline_at:
            return True
        return False

    # -- cooperative boundaries -----------------------------------------------

    def charge(self, rows: int = 0, nbytes: int = 0) -> None:
        """Account one partial's output, then :meth:`checkpoint`.

        Called after a partial is produced; the counts are totals across
        every thread of the query (the lock makes concurrent node
        workers safe).  One critical section does both: the execution
        path charges once per AFC.
        """
        with self._lock:
            self.rows += rows
            self.nbytes += nbytes
            if self._quota_trip is None:
                if self.row_quota is not None and self.rows > self.row_quota:
                    self._quota_trip = ("row", self.rows, self.row_quota)
                elif (
                    self.byte_quota is not None
                    and self.nbytes > self.byte_quota
                ):
                    self._quota_trip = ("byte", self.nbytes, self.byte_quota)
            cancel_reason = self._cancel_reason if self._cancelled else None
            trip = self._quota_trip
        self._stop(cancel_reason, trip)

    def checkpoint(self) -> None:
        """Raise the pending stop condition, if any.

        Cancellation outranks a quota trip (an explicit cancel on a
        tripping query still reports as cancelled); a passed deadline
        converts into a cancellation with reason ``"deadline"`` so both
        auto-cancel paths — the scheduler's monitor thread and this
        in-band check — surface identically.
        """
        with self._lock:
            cancel_reason = self._cancel_reason if self._cancelled else None
            trip = self._quota_trip
        self._stop(cancel_reason, trip)

    def _stop(self, cancel_reason: Optional[str], trip: Optional[tuple]) -> None:
        """:meth:`checkpoint`'s raise, given the state read under the
        lock; the deadline is checked outside it."""
        if cancel_reason is not None:
            raise QueryCancelledError(cancel_reason)
        if trip is not None:
            raise QuotaExceededError(*trip)
        if self.deadline_at is not None and self.clock() >= self.deadline_at:
            self.cancel("deadline")
            raise QueryCancelledError("deadline")


class _AbandonedLedger:
    """Process-wide count of sacrificial threads abandoned on timeout."""

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def record(self) -> None:
        with self._lock:
            self._count += 1

    def count(self) -> int:
        with self._lock:
            return self._count


_ABANDONED = _AbandonedLedger()


def record_abandoned_thread() -> None:
    """Note one more sacrificial thread left behind (timeout/cancel)."""
    _ABANDONED.record()


def threads_abandoned() -> int:
    """Total sacrificial threads abandoned by this process so far."""
    return _ABANDONED.count()
