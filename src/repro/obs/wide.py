"""Wide events: one canonical record per completed request.

Modern operability practice ("observability 2.0") replaces scattered
log lines with a single *wide event* per unit of work — every fact a
responder might need, keyed by one request id.  Here that unit is a
:meth:`Session.run <repro.server.session.Session.run>` call: the query
text, mode, outcome, elapsed wall time, the per-request span trees the
tracer harvested, the deltas of the kernel/columnar/optimizer counters
that fired while the request ran, the optimizer's estimated-vs-actual
row counts from the feedback log, and whether the slow-query log kept
it.  Outside a session, a ``Plan.execute`` or EXPLAIN ANALYZE run that
takes at least the slow-query threshold gets one too (mode ``plan`` or
``explain``, the condensed plan as its query).

Sessions keep their wide events in a bounded :class:`RequestLog` ring,
browsable at the REPL via ``:requests [n]`` (local or remote — the
record is plain data and travels in ``obs`` frames).  The slow-query
log (:mod:`repro.obs.slowlog`) is one more ring of the same objects:
the events at or over its threshold, so a request's ``:slow`` row is
its ``:requests`` row.

Counter deltas are the counters that moved while the request ran.
The server broker runs requests on a pool of worker threads, so under
concurrent load they include whatever other requests did meanwhile;
they are exclusive to one request only when nothing else runs, as in
the single-threaded local REPL.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Mapping, Optional

from repro.obs import metrics as _metrics

__all__ = [
    "WideEvent",
    "RequestLog",
    "counters_snapshot",
    "counters_since",
    "format_table",
    "WATCHED_COUNTERS",
]

# Query text is stored truncated: wide events are a bounded ring, not
# an archive, and 200 chars identify any query a human is hunting.
_TEXT_CAP = 200

# The counter families whose per-request deltas a wide event records.
# Each entry is (field name, metric names summed into it) — e.g. pair
# counts add the generalized kernel's and the flat hash join's.
WATCHED_COUNTERS = (
    ("batches", ("columnar.batches",)),
    ("batch_rows", ("columnar.rows",)),
    (
        "pairs_tried",
        ("relation.join.pairs_tried", "flat.join.pairs_tried"),
    ),
    (
        "pairs_pruned",
        ("relation.join.pairs_pruned", "flat.join.pairs_pruned"),
    ),
    ("adaptive_corrections", ("stats.adaptive.corrections",)),
    ("feedback", ("stats.feedback.observations",)),
)

_COUNTER_FIELDS = tuple(field for field, __ in WATCHED_COUNTERS)


def counters_snapshot() -> Dict[str, int]:
    """Current values of every watched counter, keyed by field name.

    A pure read (absent counters read as 0); take one before a request
    and one after, and the difference is the request's activity.
    """
    registry = _metrics.REGISTRY
    return {
        field: sum(registry.value(name) for name in names)
        for field, names in WATCHED_COUNTERS
    }


def counters_since(before: Mapping[str, int]) -> Dict[str, int]:
    """How far each watched counter moved since the ``before``
    :func:`counters_snapshot`."""
    after = counters_snapshot()
    return {field: after[field] - before.get(field, 0) for field in after}


class WideEvent:
    """Everything known about one completed request, in one record.

    ``request_id`` is ``None`` for a plan run outside any request, and
    ``session`` for a run outside any session.  ``slow`` is set when
    the slow-query log keeps the event.
    """

    __slots__ = (
        "request_id",
        "session",
        "wall",
        "mode",
        "query",
        "ok",
        "error",
        "elapsed_ms",
        "spans",
        "counters",
        "est_rows",
        "act_rows",
        "slow",
    )

    def __init__(
        self,
        request_id: Optional[str],
        session: Optional[str],
        mode: str,
        query: str,
        ok: bool,
        elapsed_ms: float,
        error: Optional[str] = None,
        spans: Optional[List[Dict[str, object]]] = None,
        counters: Optional[Dict[str, int]] = None,
        est_rows: Optional[float] = None,
        act_rows: Optional[int] = None,
        wall: Optional[float] = None,
    ):
        self.request_id = request_id
        self.session = session
        self.wall = time.time() if wall is None else wall
        self.mode = mode
        self.query = query[:_TEXT_CAP]
        self.ok = ok
        self.error = error
        self.elapsed_ms = elapsed_ms
        # Structured span trees (Span.to_dict) harvested for this
        # request — present only while tracing was on.
        self.spans = spans or []
        self.counters = {
            field: int((counters or {}).get(field, 0))
            for field in _COUNTER_FIELDS
        }
        self.est_rows = est_rows
        self.act_rows = act_rows
        self.slow = False

    def to_dict(self, spans: bool = True) -> Dict[str, object]:
        """A JSON-safe dict (set ``spans=False`` to drop the trees)."""
        record = {
            "request_id": self.request_id,
            "session": self.session,
            "wall": self.wall,
            "mode": self.mode,
            "query": self.query,
            "ok": self.ok,
            "error": self.error,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "est_rows": self.est_rows,
            "act_rows": self.act_rows,
            "slow": self.slow,
        }
        record.update(self.counters)
        if spans:
            # Already JSON-safe: Span.to_dict scrubbed the tag values.
            record["spans"] = self.spans
        return record

    def format(self) -> str:
        """One table row (see :func:`format_table`)."""
        if self.est_rows is not None and self.act_rows is not None:
            rows_text = "%.0f/%d" % (self.est_rows, self.act_rows)
        else:
            rows_text = "-"
        counters = self.counters
        return "%-14s %-7s %9.3f %-3s %11s %7d %9d/%-9d %4d %s%s" % (
            (self.request_id or "-")[:14],
            self.mode,
            self.elapsed_ms,
            "ok" if self.ok else "ERR",
            rows_text,
            counters["batches"],
            counters["pairs_tried"],
            counters["pairs_pruned"],
            counters["adaptive_corrections"],
            "SLOW " if self.slow else "",
            self.query.replace("\n", " ")[:40],
        )

    def __repr__(self) -> str:
        return "WideEvent(%r, ok=%s, %.3fms)" % (
            self.request_id,
            self.ok,
            self.elapsed_ms,
        )


REPORT_HEADER = "%-14s %-7s %9s %-3s %11s %7s %9s/%-9s %4s %s" % (
    "request",
    "mode",
    "ms",
    "ok",
    "est/act",
    "batch",
    "tried",
    "pruned",
    "corr",
    "query",
)


def format_table(events: List[WideEvent]) -> str:
    """The ``:requests`` table of ``events`` (the ``:slow`` rows too)."""
    return "\n".join([REPORT_HEADER] + [event.format() for event in events])


class RequestLog:
    """A bounded, thread-safe ring of :class:`WideEvent` records.

    One per session, plus the slow-query log's.  ``capacity`` bounds
    memory like the event journal's ring does; ``total`` keeps counting
    past evictions so ``:requests`` can say how many were dropped.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.total = 0
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def append(self, event: WideEvent) -> WideEvent:
        with self._lock:
            self._events.append(event)
            self.total += 1
        return event

    def last(self, count: int = 10) -> List[WideEvent]:
        """The most recent ``count`` events, oldest first."""
        with self._lock:
            items = list(self._events)
        return items[-count:] if count > 0 else []

    def clear(self) -> None:
        """Drop the retained events (``total`` keeps counting)."""
        with self._lock:
            self._events.clear()

    def find(self, request_id: str) -> Optional[WideEvent]:
        """The retained event with this exact ``request_id`` (or None)."""
        with self._lock:
            for event in reversed(self._events):
                if event.request_id == request_id:
                    return event
        return None

    def format(self, count: int = 10) -> str:
        recent = self.last(count)
        if not recent:
            return "(no requests recorded)"
        lines = [format_table(recent)]
        with self._lock:
            dropped = self.total - len(self._events)
        if dropped > 0:
            lines.append("(%d older request(s) evicted)" % dropped)
        return "\n".join(lines)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:
        return "RequestLog(%d/%d, total=%d)" % (
            len(self),
            self.capacity,
            self.total,
        )
