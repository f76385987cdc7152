"""Trace exporters: Chrome trace-event JSON and a human-readable tree.

The JSON exporter emits the Trace Event Format understood by
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev): complete
events (``ph: "X"``) with microsecond timestamps/durations, instant
events (``ph: "i"``), and thread-name metadata.  The tracer's metrics
registry rides along under ``otherData`` so one file carries the full
profile of a query.
"""

from __future__ import annotations

import json
import numbers
import operator
import os
from typing import Any, Dict, List, Optional

from .tracer import Span, Tracer


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The tracer's spans as a Chrome trace-event JSON object."""
    events: List[Dict[str, Any]] = []
    for tid in sorted(set(s.tid for s in tracer.spans)):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"{tracer.name}-t{tid}"},
            }
        )
    for span in tracer.spans:
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": "repro",
            "ph": span.phase,
            "pid": 1,
            "tid": span.tid,
            "ts": round(span.start * 1e6, 3),
            "args": dict(span.tags),
        }
        event["args"]["span_id"] = span.span_id
        if span.parent_id is not None:
            event["args"]["parent_id"] = span.parent_id
        if span.phase == "X":
            event["dur"] = round((span.duration or 0.0) * 1e6, 3)
            if span.cpu_seconds is not None:
                event["args"]["cpu_us"] = round(span.cpu_seconds * 1e6, 3)
        else:
            event["s"] = "t"  # instant event, thread scope
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tracer": tracer.name,
            "metrics": tracer.metrics.as_dict(),
        },
    }


def _plain_number(value: Any) -> Any:
    """A tag ``json`` cannot write but that is a number — an option
    value held as a NumPy scalar, e.g. ``sched``'s ``priority`` — as the
    plain ``int`` or ``float`` it equals."""
    if isinstance(value, numbers.Integral):
        return operator.index(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def write_chrome_trace(tracer: Tracer, path) -> None:
    """Serialise :func:`chrome_trace` to ``path`` (str or Path)."""
    with open(os.fspath(path), "w") as handle:
        json.dump(chrome_trace(tracer), handle, indent=1, default=_plain_number)


def read_chrome_trace(path) -> Dict[str, Any]:
    """Load a trace file written by :func:`write_chrome_trace`."""
    with open(os.fspath(path)) as handle:
        return json.load(handle)


def spans_from_chrome(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Recover span records from a Chrome trace payload.

    Returns dicts with ``name``, ``start``/``duration`` (seconds),
    ``span_id``/``parent_id``, ``phase``, and ``tags`` — enough to
    round-trip structure and timing through the JSON file.
    """
    spans: List[Dict[str, Any]] = []
    for event in payload.get("traceEvents", []):
        if event.get("ph") not in ("X", "i"):
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_id", None)
        args.pop("cpu_us", None)
        spans.append(
            {
                "name": event["name"],
                "phase": event["ph"],
                "start": event["ts"] / 1e6,
                "duration": event.get("dur", 0.0) / 1e6,
                "span_id": span_id,
                "parent_id": parent_id,
                "tags": args,
            }
        )
    return spans


# -- tree summary --------------------------------------------------------------


def tree_summary(tracer: Tracer, min_fraction: float = 0.0) -> str:
    """Render the span forest as an indented tree with timings.

    ``min_fraction`` hides spans shorter than that fraction of their root
    (0 shows everything); sibling spans sort by start time.  Instant
    events are shown with a ``*`` marker.
    """
    spans = list(tracer.spans)
    if not spans:
        return "(no spans recorded)"
    by_parent: Dict[Optional[int], List[Span]] = {}
    ids = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(parent, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: s.start)

    lines: List[str] = []

    def fmt(span: Span, root_duration: float) -> str:
        tags = " ".join(
            f"{k}={v}" for k, v in span.tags.items() if k not in ("error",)
        )
        if span.phase != "X":
            return f"* {span.name}" + (f" [{tags}]" if tags else "")
        dur = span.duration or 0.0
        cpu = span.cpu_seconds or 0.0
        pct = f" ({dur / root_duration * 100:.0f}%)" if root_duration else ""
        text = f"{span.name}  {dur * 1e3:.2f}ms wall, {cpu * 1e3:.2f}ms cpu{pct}"
        if tags:
            text += f"  [{tags}]"
        if "error" in span.tags:
            text += f"  !! {span.tags['error']}"
        return text

    def walk(span: Span, prefix: str, is_last: bool, root_duration: float) -> None:
        connector = "" if not prefix and is_last is None else ("└─ " if is_last else "├─ ")
        lines.append(prefix + connector + fmt(span, root_duration))
        child_prefix = prefix + ("" if is_last is None else ("   " if is_last else "│  "))
        children = [
            c
            for c in by_parent.get(span.span_id, [])
            if c.phase != "X"
            or root_duration == 0
            or (c.duration or 0.0) >= min_fraction * root_duration
        ]
        for i, child in enumerate(children):
            walk(child, child_prefix, i == len(children) - 1, root_duration)

    for root in by_parent.get(None, []):
        walk(root, "", None, root.duration or 0.0)
    return "\n".join(lines)
