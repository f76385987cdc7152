"""Workload-aware scheduler in front of ``QueryService.submit``.

The paper's services assume one polite client; this module makes the
front door safe for heavy mixed traffic.  A :class:`Scheduler` owns
``workers`` dispatch slots and three lanes of queued work:

1. **Priority lane** — queries submitted with ``ExecOptions(priority>0)``
   jump every queue (higher values first, FIFO within a value).
   ``reserve_priority`` slots serve this lane only, so an interactive
   query never waits behind a bulk scan that took the last slot — the
   express-lane property the latency benchmarks measure.
2. **Fair-share lanes** — one weighted queue per ``ExecOptions.tenant``,
   served by weighted fair queuing over virtual time: each dispatch
   advances the tenant's virtual clock by ``cost / weight``, and the
   lane with the smallest clock goes next, so a tenant with weight 3
   gets 3x the dispatch share of a weight-1 tenant under contention.
   ``scheduler="fifo"`` collapses this to one arrival-order queue.
3. **Backfill lane** — queries predicted over their
   ``admission_budget`` with ``admission="queue"``; served only when
   every other lane is empty, so over-budget work scavenges idle
   capacity instead of competing.

A query runs on the thread that asked for it whenever nothing is
waiting ahead of it: :meth:`Scheduler.run` (behind ``Client.submit``)
dispatches inline when no query is queued and a slot is free for the
query's class — exactly when an idle worker would have dispatched it
next, so dispatch order is the same.  An inline run holds its slot like
a worker does and goes through the same admission, run state, deadline,
virtual-clock charge, counters and ``sched`` span.  Otherwise the query
queues for a dispatch worker; :meth:`Scheduler.submit` always queues,
since it returns at once.  Worker threads start with the first query
that queues, and pop only while a slot is free.

Admission control happens before a query runs or queues, using
``CostModel.estimate_plan`` (a-priori simulated seconds from the plan's
chunk layout): over budget with ``admission="reject"`` raises a typed
:class:`~repro.errors.AdmissionError` before any work is queued.

Every admitted query carries a :class:`~repro.sched.state.RunState` on
``ExecOptions.run_state``; ``handle.cancel()`` tears queued work down
immediately and flips the run state so in-flight work stops at its next
cooperative boundary, and a ``deadline`` is auto-enforced by a monitor
thread plus in-band checks.  ``ExecOptions(scheduler="off")`` bypasses
the whole apparatus (the ablation mode).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..core.options import DEFAULT_OPTIONS, ExecOptions, resolve_workers
from ..errors import (
    AdmissionError,
    QueryCancelledError,
    QuotaExceededError,
    SchedulerError,
)
from ..obs.metrics import MetricsRegistry
from .state import RunState, threads_abandoned

_FINISHED = ("done", "failed", "cancelled")

#: Virtual-time cost of a query with no cost estimate: each dispatch
#: counts as one unit, degrading fair-share to weighted round-robin.
_UNIT_COST = 1.0


class QueryHandle:
    """One submitted query's future: state, result, cancellation."""

    def __init__(
        self,
        sql,
        options: ExecOptions,
        run_state: RunState,
        predicted_seconds: Optional[float],
        clock: Callable[[], float],
        scheduler: Optional["Scheduler"],
        backfill: bool = False,
    ):
        self.sql = sql
        self.options = options
        self.tenant = options.tenant
        self.priority = options.priority
        self.run_state = run_state
        #: Simulated seconds the cost model predicted, when admission
        #: control ran; None otherwise.
        self.predicted_seconds = predicted_seconds
        #: Over budget under ``admission="queue"``: served by the
        #: backfill lane, as fair-lane work.
        self.backfill = backfill
        self.submitted_at = clock()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._clock = clock
        self._sched = scheduler
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._state = "queued"
        self._result = None
        self._error: Optional[BaseException] = None

    # -- inspection -----------------------------------------------------------

    @property
    def state(self) -> str:
        """``queued`` / ``running`` / ``done`` / ``failed`` / ``cancelled``."""
        with self._lock:
            return self._state

    def done(self) -> bool:
        return self.state in _FINISHED

    def cancelled(self) -> bool:
        return self.state == "cancelled"

    @property
    def wait_seconds(self) -> Optional[float]:
        """Queue wait before dispatch; None while still queued."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    # -- outcome --------------------------------------------------------------

    def result(self, timeout: Optional[float] = None):
        """Block for the :class:`~repro.storm.query_service.QueryResult`.

        Re-raises whatever ended the query: the execution error, a
        :class:`~repro.errors.QuotaExceededError`, or a
        :class:`~repro.errors.QueryCancelledError`.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query not finished within {timeout:g}s (state={self.state})"
            )
        with self._lock:
            if self._error is not None:
                raise self._error
            return self._result

    def cancel(self, reason: str = "cancelled") -> bool:
        """Stop this query; returns False if it already finished.

        Queued work is torn down immediately (``result()`` raises
        :class:`~repro.errors.QueryCancelledError` at once); running
        work stops at its next cooperative boundary, and a hung node
        attempt is abandoned through the timeout machinery.
        """
        self.run_state.cancel(reason)
        with self._lock:
            if self._state in _FINISHED:
                return False
            was_queued = self._state == "queued"
            if was_queued:
                self._state = "cancelled"
                self._error = QueryCancelledError(reason)
                self.finished_at = self._clock()
                self._event.set()
        if was_queued and self._sched is not None:
            self._sched._on_queued_cancel(reason)
        return True

    def _finish(self, state: str, result=None, error=None) -> bool:
        with self._lock:
            if self._state in _FINISHED:
                return False
            self._state = state
            self._result = result
            self._error = error
            self.finished_at = self._clock()
            self._event.set()
            return True

    def __repr__(self) -> str:
        return (
            f"<QueryHandle {self.tenant}/{self.priority} "
            f"[{self.state}] {str(self.sql)[:60]!r}>"
        )


class _TenantLane:
    __slots__ = ("name", "weight", "queue", "vtime")

    def __init__(self, name: str, weight: float):
        self.name = name
        self.weight = weight
        self.queue: deque = deque()
        self.vtime = 0.0


class Scheduler:
    """Fair-share dispatch, admission control, quotas, cancellation.

    Parameters
    ----------
    service:
        The :class:`~repro.storm.query_service.QueryService` (or any
        object with ``submit(sql, options)``) queries dispatch into.
    workers:
        Concurrent dispatches, inline runs included; ``0`` resolves
        like ``ExecOptions.scheduler_workers`` auto-sizing.
    reserve_priority:
        Dispatch slots reserved for the priority lane (clamped so at
        least one slot always serves the fair lanes); ``0`` disables
        the express lane's reservation.
    weights:
        Per-tenant fair-share weights (default 1.0 each).
    cost_model:
        Admission cost model; defaults to the service's.
    """

    def __init__(
        self,
        service,
        *,
        workers: int = 0,
        reserve_priority: int = 1,
        weights: Optional[Dict[str, float]] = None,
        cost_model=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.service = service
        self.workers = resolve_workers(workers)
        self._reserved = max(0, min(reserve_priority, self.workers - 1))
        self.cost_model = (
            cost_model
            if cost_model is not None
            else getattr(service, "cost_model", None)
        )
        self.metrics = MetricsRegistry()
        self._weights = dict(weights or {})
        self._clock = clock
        self._lock = threading.Lock()
        #: Dispatch workers (and ``close`` awaiting inline runs) wait
        #: here; the deadline monitor waits on its own condition, so a
        #: worker wake-up is one ``notify``.
        self._cond = threading.Condition(self._lock)
        self._deadline_cond = threading.Condition(self._lock)
        self._seq = itertools.count()
        #: Heap of (-priority, seq, handle): the express lane.
        self._priority: List[tuple] = []
        self._lanes: Dict[str, _TenantLane] = {}
        self._backfill: deque = deque()
        #: Heap of (deadline_at, seq, handle) for the monitor thread.
        self._deadlines: List[tuple] = []
        self._gvtime = 0.0
        self._queued = 0
        #: Dispatch slots per kind, and how many are taken — by worker
        #: dispatches and inline runs alike.
        self._slots = {
            "reserved": self._reserved,
            "general": self.workers - self._reserved,
        }
        self._busy = dict.fromkeys(self._slots, 0)
        self._closed = False
        self._threads: List[threading.Thread] = []
        self._monitor: Optional[threading.Thread] = None

    # -- submission -----------------------------------------------------------

    def submit(self, sql, options: Optional[ExecOptions] = None) -> QueryHandle:
        """Queue a query; returns its :class:`QueryHandle` immediately.

        With ``options.scheduler == "off"`` the query runs inline on
        the calling thread instead — no lanes, no admission, no quotas
        — and the returned handle is already finished (the ablation
        path the benchmarks compare against).
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        if opts.scheduler == "off":
            self._check_open()
            return self._run_bypassed(sql, opts)
        handle = self._admit(sql, opts)
        with self._cond:
            self._enqueue_locked(handle, self._register_locked(handle))
        return handle

    def run(self, sql, options: Optional[ExecOptions] = None):
        """Submit and block: the scheduled analogue of ``service.submit``.

        When no query is queued and a dispatch slot is free for the
        query's class, the query runs on the calling thread, holding
        that slot; otherwise it queues as :meth:`submit` would and this
        thread waits for its result.
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        if opts.scheduler == "off":
            return self.submit(sql, opts).result()
        handle = self._admit(sql, opts)
        with self._cond:
            seq = self._register_locked(handle)
            slot = None if self._queued else self._take_slot_locked(handle)
            if slot is None:
                self._enqueue_locked(handle, seq)
            elif not handle.backfill and handle.priority <= 0:
                self._charge_locked(self._lane_locked(handle), handle)
            self._update_gauges_locked()
        if slot is not None:
            self._run_in_slot(handle, slot)
        return handle.result()

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Queue depths, per-tenant lanes, counters, wait histograms."""
        with self._cond:
            tenants = {
                name: {
                    "queued": len(lane.queue),
                    "weight": lane.weight,
                    "vtime": round(lane.vtime, 6),
                }
                for name, lane in sorted(self._lanes.items())
            }
            snapshot = {
                "workers": self.workers,
                "reserved_priority_workers": self._reserved,
                "queued": self._queued,
                "running": sum(self._busy.values()),
                "priority_queued": len(self._priority),
                "backfill_queued": len(self._backfill),
                "tenants": tenants,
            }
        data = self.metrics.as_dict()
        snapshot["counters"] = data["counters"]
        snapshot["wait_seconds"] = {
            name[len("sched.wait_seconds.") :]: hist
            for name, hist in data["histograms"].items()
            if name.startswith("sched.wait_seconds.")
        }
        overall = data["histograms"].get("sched.wait_seconds")
        if overall is not None:
            snapshot["wait_seconds"]["*"] = overall
        snapshot["threads_abandoned"] = threads_abandoned()
        return snapshot

    # -- lifecycle ------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop dispatching; queued queries are cancelled, running ones
        finish (``wait=True`` waits for them, inline runs included)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            drained = [h for _, _, h in self._priority]
            drained.extend(self._backfill)
            for lane in self._lanes.values():
                drained.extend(lane.queue)
            self._priority.clear()
            self._backfill.clear()
            for lane in self._lanes.values():
                lane.queue.clear()
            self._queued = 0
            self._update_gauges_locked()
            self._cond.notify_all()
            self._deadline_cond.notify_all()
            threads = list(self._threads)
            monitor = self._monitor
        for handle in drained:
            if handle._finish(
                "cancelled", error=QueryCancelledError("scheduler closed")
            ):
                self.metrics.record("sched.cancelled")
        if wait:
            with self._cond:
                self._cond.wait_for(lambda: not any(self._busy.values()))
            for thread in threads:
                thread.join()
            if monitor is not None:
                monitor.join()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SchedulerError("scheduler is closed")

    def _run_bypassed(self, sql, opts: ExecOptions) -> QueryHandle:
        self.metrics.record("sched.bypassed")
        handle = QueryHandle(
            sql, opts, RunState(clock=self._clock), None, self._clock, None
        )
        handle.started_at = handle.submitted_at
        try:
            result = self.service.submit(sql, opts)
        except BaseException as exc:
            handle._finish("failed", error=exc)
        else:
            handle._finish("done", result=result)
        return handle

    def _admit(self, sql, opts: ExecOptions) -> QueryHandle:
        """Admission control, then the handle and its run state."""
        self._check_open()
        predicted = None
        backfill = False
        if opts.admission_budget is not None and self.cost_model is not None:
            predicted = self._predict(sql, opts)
            if predicted > opts.admission_budget:
                if opts.admission == "reject":
                    self.metrics.record("sched.rejected")
                    raise AdmissionError(
                        predicted, opts.admission_budget, str(sql)
                    )
                backfill = True
                self.metrics.record("sched.queued_over_budget")

        deadline_at = None
        if opts.deadline is not None:
            deadline_at = self._clock() + opts.deadline
        run_state = RunState(
            row_quota=opts.row_quota,
            byte_quota=opts.byte_quota,
            deadline_at=deadline_at,
            clock=self._clock,
        )
        return QueryHandle(
            sql, opts, run_state, predicted, self._clock, self, backfill
        )

    def _predict(self, sql, opts: ExecOptions) -> float:
        dataset = self.service.dataset
        resolve = getattr(dataset, "resolve_query", None)
        resolved = resolve(sql) if resolve is not None else sql
        plan = dataset.plan(resolved)
        return self.cost_model.estimate_plan(plan, remote=opts.remote)

    def _register_locked(self, handle: QueryHandle) -> int:
        """Count an admitted query and arm its deadline; its sequence
        number."""
        self._check_open()
        seq = next(self._seq)
        deadline_at = handle.run_state.deadline_at
        if deadline_at is not None:
            heapq.heappush(self._deadlines, (deadline_at, seq, handle))
            self._ensure_monitor_locked()
            self._deadline_cond.notify()
        self.metrics.record("sched.submitted")
        return seq

    def _enqueue_locked(self, handle: QueryHandle, seq: int) -> None:
        if handle.backfill:
            self._backfill.append(handle)
        elif handle.priority > 0:
            heapq.heappush(self._priority, (-handle.priority, seq, handle))
        else:
            self._lane_locked(handle).queue.append(handle)
        self._queued += 1
        self._update_gauges_locked()
        self._ensure_workers_locked()
        self._cond.notify()

    def _lane_locked(self, handle: QueryHandle) -> _TenantLane:
        # fifo mode funnels every tenant into one shared arrival-order
        # lane; fair mode keeps one per tenant.
        opts = handle.options
        name = "*" if opts.scheduler == "fifo" else opts.tenant
        lane = self._lanes.get(name)
        if lane is None:
            lane = _TenantLane(name, float(self._weights.get(name, 1.0)))
            self._lanes[name] = lane
        if not lane.queue:
            # An idle tenant's clock catches up to the global virtual
            # time, so sitting out earns no banked priority.
            lane.vtime = max(lane.vtime, self._gvtime)
        return lane

    def _charge_locked(self, lane: _TenantLane, handle: QueryHandle) -> None:
        """Advance ``lane``'s virtual clock for dispatching ``handle``."""
        self._gvtime = lane.vtime
        cost = handle.predicted_seconds
        lane.vtime += max(
            cost if cost is not None else _UNIT_COST, 1e-9
        ) / max(lane.weight, 1e-9)

    def _take_slot_locked(self, handle: QueryHandle) -> Optional[str]:
        """Take a free slot ``handle`` may run in; None when none is.

        Priority queries fill the reserved slots first, so the general
        ones stay free for fair-lane work, which may use no other.
        """
        express = handle.priority > 0 and not handle.backfill
        for kind in ("reserved", "general") if express else ("general",):
            if self._busy[kind] < self._slots[kind]:
                self._busy[kind] += 1
                return kind
        return None

    def _release_locked(self, slot: str) -> None:
        self._busy[slot] -= 1
        self._update_gauges_locked()
        # A worker that frees a slot pops again by itself; a slot an
        # inline run frees needs a worker woken, and close() may be
        # waiting for the last run.
        if self._closed:
            self._cond.notify_all()
        elif self._queued:
            self._cond.notify()

    def _ensure_workers_locked(self) -> None:
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker,
                name=f"sched-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _ensure_monitor_locked(self) -> None:
        if self._monitor is None:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="sched-deadline", daemon=True
            )
            self._monitor.start()

    def _pop_locked(self) -> Optional[Tuple[QueryHandle, str]]:
        """The next queued query a free slot may run, with that slot."""
        lane: Optional[_TenantLane] = None
        if self._priority:
            head = self._priority[0][2]
        else:
            for name in sorted(self._lanes):
                candidate = self._lanes[name]
                if candidate.queue and (
                    lane is None or candidate.vtime < lane.vtime
                ):
                    lane = candidate
            if lane is not None:
                head = lane.queue[0]
            elif self._backfill:
                head = self._backfill[0]
            else:
                return None
        slot = self._take_slot_locked(head)
        if slot is None:
            return None
        if self._priority:
            heapq.heappop(self._priority)
        elif lane is not None:
            lane.queue.popleft()
            self._charge_locked(lane, head)
        else:
            self._backfill.popleft()
        self._queued -= 1
        return head, slot

    def _worker(self) -> None:
        while True:
            with self._cond:
                popped = None
                while popped is None:
                    if self._closed:
                        return
                    popped = self._pop_locked()
                    if popped is None:
                        self._cond.wait()
                    elif popped[0].done():
                        # Cancelled while queued; already torn down.
                        self._release_locked(popped[1])
                        popped = None
                self._update_gauges_locked()
            self._run_in_slot(*popped)

    def _run_in_slot(self, handle: QueryHandle, slot: str) -> None:
        try:
            self._dispatch(handle)
        finally:
            with self._cond:
                self._release_locked(slot)

    def _dispatch(self, handle: QueryHandle) -> None:
        with handle._lock:
            if handle._state != "queued":
                return
            handle._state = "running"
            handle.started_at = self._clock()
        wait = handle.started_at - handle.submitted_at
        self.metrics.record("sched.dispatched")
        self.metrics.histogram("sched.wait_seconds").observe(wait)
        self.metrics.histogram(
            f"sched.wait_seconds.{handle.tenant}"
        ).observe(wait)
        opts = handle.options.replace(run_state=handle.run_state)
        tracer = opts.tracer()
        try:
            if tracer.enabled:
                with tracer.span(
                    "sched",
                    tenant=handle.tenant,
                    priority=handle.priority,
                    wait_seconds=round(wait, 6),
                    predicted_seconds=handle.predicted_seconds,
                ):
                    result = self.service.submit(handle.sql, opts)
            else:
                result = self.service.submit(handle.sql, opts)
        except QueryCancelledError as exc:
            self.metrics.record("sched.cancelled")
            if exc.reason == "deadline":
                self.metrics.record("sched.deadline_cancelled")
            handle._finish("cancelled", error=exc)
        except QuotaExceededError as exc:
            self.metrics.record("sched.quota_trips")
            handle._finish("failed", error=exc)
        except BaseException as exc:
            self.metrics.record("sched.failed")
            handle._finish("failed", error=exc)
        else:
            self.metrics.record("sched.completed")
            handle._finish("done", result=result)

    def _on_queued_cancel(self, reason: str) -> None:
        self.metrics.record("sched.cancelled")
        if reason == "deadline":
            self.metrics.record("sched.deadline_cancelled")
        with self._cond:
            self._update_gauges_locked()

    def _monitor_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                now = self._clock()
                fire = []
                while self._deadlines and self._deadlines[0][0] <= now:
                    fire.append(heapq.heappop(self._deadlines)[2])
                fire = [h for h in fire if not h.done()]
                if not fire:
                    timeout = None
                    if self._deadlines:
                        timeout = max(0.01, self._deadlines[0][0] - now)
                    self._deadline_cond.wait(timeout)
                    continue
            for handle in fire:
                handle.cancel("deadline")

    def _update_gauges_locked(self) -> None:
        self.metrics.gauge("sched.queue_depth").set(self._queued)
        self.metrics.gauge("sched.running").set(sum(self._busy.values()))
