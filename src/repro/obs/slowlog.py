"""The slow-query log: a bounded ring of queries that blew a budget.

Production monitoring needs more than aggregates: when the p95 drifts
up, the operator's next question is *which queries* — and by then the
offending runs are gone unless something captured them as they
happened.  The :class:`SlowLog` is that capture: every outermost
``Plan.execute`` / EXPLAIN ANALYZE / DBPL evaluation is wall-clocked,
and any run exceeding a configurable threshold lands in a bounded ring
as a :class:`SlowQueryEntry` carrying the query repr, a condensed plan
summary, the estimate drift (when EXPLAIN ANALYZE measured one), the
join pairs tried/pruned during the run, the trace-span ``seq`` so the
entry can be matched to its span in an exported trace file, and — when
the run happened inside a session request — the exact ``request_id``
from the per-thread request context, the same key wide events
(:mod:`repro.obs.wide`) and merged trace exports carry.

Like the tracer, journal, and profiler, the log is one process-global
object, :data:`CURRENT`, built at import and **off by default**:
instrumented sites pay one attribute check (``slowlog.CURRENT.enabled``)
until :func:`enable` flips its flag (the REPL's ``:slow on``).
Recording is *outermost-only* — a plan node's recursive ``execute``
calls share one entry — tracked with a per-thread depth counter so
threaded workloads don't cross-talk.

Every recorded entry also publishes a ``WARN slowlog.slow_query``
event into the flight recorder, so slow queries appear on the same
timeline as store anomalies and heap commits, survive
``write_journal``/``read_journal`` round-trips, and show up in
``:events``.

Usage::

    from repro.obs import slowlog

    slowlog.enable(threshold_ms=50.0)
    ...run queries...
    print(slowlog.slowlog_report())
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Union

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "SlowQueryEntry",
    "SlowLog",
    "CURRENT",
    "DEFAULT_THRESHOLD_MS",
    "DEFAULT_CAPACITY",
    "enable",
    "disable",
    "slowlog_report",
]

DEFAULT_THRESHOLD_MS = 100.0
DEFAULT_CAPACITY = 256

# Query/plan text is stored truncated: the log is a ring resident for
# the process lifetime, and a pathological generated query should not
# pin megabytes of source.
_TEXT_CAP = 200

Lazy = Union[str, Callable[[], str], None]


def _resolve(text: Lazy) -> Optional[str]:
    """Force a lazy string (callables are only evaluated on the slow
    path, so fast queries never pay for plan rendering)."""
    if text is None:
        return None
    if callable(text):
        text = text()
    text = " ".join(str(text).split())
    if len(text) > _TEXT_CAP:
        text = text[: _TEXT_CAP - 1] + "…"
    return text


class SlowQueryEntry:
    """One captured slow run.

    ``kind`` says which instrumented surface recorded it: ``"plan"``
    (``Plan.execute``), ``"explain"`` (EXPLAIN ANALYZE, the only kind
    that carries a measured ``drift``), or ``"lang"`` (a DBPL
    ``Interpreter.run``).  ``span`` is the ``Span.seq`` of the most
    recently opened trace span when tracing was live, else ``None``.
    ``request`` is the exact request id from the per-thread request
    context (:func:`repro.obs.trace.current_request_id`) when the run
    happened inside a session request — the precise correlation key
    wide events and exported traces share.
    """

    __slots__ = (
        "seq",
        "wall",
        "kind",
        "query",
        "plan",
        "elapsed_ms",
        "threshold_ms",
        "drift",
        "pairs_tried",
        "pairs_pruned",
        "span",
        "request",
    )

    def __init__(
        self,
        seq: int,
        kind: str,
        query: Optional[str],
        elapsed_ms: float,
        threshold_ms: float,
        plan: Optional[str] = None,
        drift: Optional[float] = None,
        pairs_tried: int = 0,
        pairs_pruned: int = 0,
        span: Optional[int] = None,
        request: Optional[str] = None,
        wall: Optional[float] = None,
    ):
        self.seq = seq
        self.wall = wall if wall is not None else time.time()
        self.kind = kind
        self.query = query
        self.plan = plan
        self.elapsed_ms = elapsed_ms
        self.threshold_ms = threshold_ms
        self.drift = drift
        self.pairs_tried = pairs_tried
        self.pairs_pruned = pairs_pruned
        self.span = span
        self.request = request

    def to_dict(self) -> Dict[str, object]:
        """A JSON-compatible rendering (JSONL exports, tests)."""
        return {
            "seq": self.seq,
            "wall": self.wall,
            "kind": self.kind,
            "query": self.query,
            "plan": self.plan,
            "elapsed_ms": self.elapsed_ms,
            "threshold_ms": self.threshold_ms,
            "drift": self.drift,
            "pairs_tried": self.pairs_tried,
            "pairs_pruned": self.pairs_pruned,
            "span": self.span,
            "request": self.request,
        }

    def format(self) -> str:
        """One table row (the ``:slow`` rendering)."""
        drift_text = "%.2f" % self.drift if self.drift is not None else "-"
        span_text = "#%d" % self.span if self.span is not None else "-"
        return "%-5d %-7s %10.3f %6s %7d/%-7d %-6s %-12s %s" % (
            self.seq,
            self.kind,
            self.elapsed_ms,
            drift_text,
            self.pairs_tried,
            self.pairs_pruned,
            span_text,
            self.request if self.request is not None else "-",
            self.query if self.query is not None else "-",
        )

    def __repr__(self) -> str:
        return "SlowQueryEntry(seq=%d, kind=%r, elapsed_ms=%.3f)" % (
            self.seq,
            self.kind,
            self.elapsed_ms,
        )


_REPORT_HEADER = "%-5s %-7s %10s %6s %7s/%-7s %-6s %-12s %s" % (
    "seq", "kind", "ms", "drift", "tried", "pruned", "span", "request",
    "query",
)


class _Measure:
    """Context manager timing one outermost run (see
    :meth:`SlowLog.measure`)."""

    __slots__ = ("_log", "_kind", "_query", "_plan", "_started", "_pairs")

    def __init__(self, log: "SlowLog", kind: str, query: Lazy, plan: Lazy):
        self._log = log
        self._kind = kind
        self._query = query
        self._plan = plan

    def __enter__(self) -> "_Measure":
        local = self._log._local
        local.depth = getattr(local, "depth", 0) + 1
        self._pairs = _metrics.join_pairs()
        self._started = self._log._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = self._log._clock() - self._started
        local = self._log._local
        local.depth = getattr(local, "depth", 1) - 1
        if self._log.would_record(elapsed):
            before_tried, before_pruned = self._pairs
            after_tried, after_pruned = _metrics.join_pairs()
            self._log.record(
                self._kind,
                _resolve(self._query),
                elapsed,
                plan=_resolve(self._plan),
                pairs_tried=after_tried - before_tried,
                pairs_pruned=after_pruned - before_pruned,
            )
        return False


class SlowLog:
    """A bounded ring of :class:`SlowQueryEntry`, newest last.

    ``total`` counts every entry ever recorded, so ``total -
    len(log)`` is the number evicted — the same accounting the event
    journal uses for its drop rate.  ``clock`` is injectable so tests
    can force a "slow" query deterministically.

    ``enabled`` is the on/off flag (on for a log you construct, off for
    :data:`CURRENT` until :func:`enable`).  While off nothing records,
    not even a :meth:`measure` block already open, and :meth:`report`
    says how to switch it on.
    """

    enabled = True

    def __init__(
        self,
        threshold_ms: float = DEFAULT_THRESHOLD_MS,
        capacity: int = DEFAULT_CAPACITY,
        clock=time.perf_counter,
    ):
        self.threshold_ms = float(threshold_ms)
        self.capacity = capacity
        self.total = 0
        self._clock = clock
        self._ring: List[SlowQueryEntry] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- instrumentation hooks ----------------------------------------------

    def outermost(self) -> bool:
        """Whether the log is on and no :meth:`measure` block is open on
        this thread."""
        return self.enabled and getattr(self._local, "depth", 0) == 0

    def measure(self, kind: str, query: Lazy, plan: Lazy = None) -> _Measure:
        """Time one run; record it if it exceeds the threshold.

        ``query`` and ``plan`` may be zero-argument callables — they are
        only evaluated when the run actually was slow, so the fast path
        never renders plan text.
        """
        return _Measure(self, kind, query, plan)

    def would_record(self, seconds: float) -> bool:
        """Whether the log is on and a run of ``seconds`` wall time
        crosses the threshold."""
        return self.enabled and seconds * 1000.0 >= self.threshold_ms

    def record(
        self,
        kind: str,
        query: Optional[str],
        elapsed_seconds: float,
        plan: Optional[str] = None,
        drift: Optional[float] = None,
        pairs_tried: int = 0,
        pairs_pruned: int = 0,
        span: Optional[int] = None,
        request: Optional[str] = None,
    ) -> Optional[SlowQueryEntry]:
        """Append one entry (callers have already checked the threshold);
        ``None`` while the log is off.

        ``request`` defaults to the recording thread's request context
        (:func:`repro.obs.trace.current_request_id`) — an *exact*
        correlation key: the session stamped it before dispatching the
        query, so the entry matches its wide event and exported spans
        precisely.  ``span`` (the best-effort most-recently-opened
        span ``seq``) is kept alongside for trace-file lookups when
        tracing was live.  Publishes ``WARN slowlog.slow_query`` into
        the journal and bumps the ``slowlog.recorded`` counter.
        """
        if request is None:
            request = _trace.current_request_id()
        if span is None:
            tracer = _trace.CURRENT
            if tracer.enabled and tracer.last_span is not None:
                span = tracer.last_span.seq
        with self._lock:
            if not self.enabled:
                return None
            entry = SlowQueryEntry(
                seq=self.total,
                kind=kind,
                query=_resolve(query),
                elapsed_ms=elapsed_seconds * 1000.0,
                threshold_ms=self.threshold_ms,
                plan=_resolve(plan),
                drift=drift,
                pairs_tried=pairs_tried,
                pairs_pruned=pairs_pruned,
                span=span,
                request=request,
            )
            self._ring.append(entry)
            if len(self._ring) > self.capacity:
                del self._ring[0]
            self.total += 1
        _metrics.REGISTRY.counter("slowlog.recorded").inc()
        journal = _events.CURRENT
        if journal.enabled:
            journal.publish(
                "WARN",
                "slowlog",
                "slow_query",
                kind=entry.kind,
                query=entry.query,
                plan=entry.plan,
                elapsed_ms=entry.elapsed_ms,
                threshold_ms=entry.threshold_ms,
                drift=entry.drift,
                pairs_tried=entry.pairs_tried,
                pairs_pruned=entry.pairs_pruned,
                span=entry.span,
                request=entry.request,
            )
        return entry

    # -- reads --------------------------------------------------------------

    def entries(self, limit: Optional[int] = None) -> List[SlowQueryEntry]:
        """The retained entries, oldest first (the last ``limit`` when
        given)."""
        with self._lock:
            retained = list(self._ring)
        if limit is not None and limit >= 0:
            retained = retained[-limit:] if limit else []
        return retained

    def for_request(self, request_id: str) -> List[SlowQueryEntry]:
        """Every retained entry recorded under this exact request id."""
        with self._lock:
            retained = list(self._ring)
        return [entry for entry in retained if entry.request == request_id]

    def clear(self) -> None:
        """Drop retained entries (``total`` keeps counting)."""
        with self._lock:
            self._ring = []

    def __len__(self) -> int:
        return len(self._ring)

    def report(self, limit: int = 10) -> str:
        """The ``:slow`` table: newest entries of the ring."""
        if not self.enabled:
            return "(slow-query log is off — :slow on)"
        retained = self.entries(limit)
        if not retained:
            return "(no slow queries over %.1fms)" % self.threshold_ms
        lines = [
            "slow queries (threshold %.1fms, showing %d of %d recorded):"
            % (self.threshold_ms, len(retained), self.total),
            _REPORT_HEADER,
        ]
        lines.extend(entry.format() for entry in retained)
        return "\n".join(lines)


# The process-global slow-query log: built once at import, never
# rebound, and off until enable() flips its flag.
CURRENT = SlowLog()
CURRENT.enabled = False


def enable(
    threshold_ms: Optional[float] = None,
    capacity: Optional[int] = None,
    clock=None,
) -> SlowLog:
    """Turn the slow-query log on; returns the process-global log.

    From off it starts empty with the given settings (the defaults for
    any left out); already on, it keeps its entries and applies only a
    new ``threshold_ms``.
    """
    if not CURRENT.enabled:
        CURRENT.threshold_ms = DEFAULT_THRESHOLD_MS
        CURRENT.capacity = DEFAULT_CAPACITY if capacity is None else capacity
        CURRENT._clock = time.perf_counter if clock is None else clock
    if threshold_ms is not None:
        CURRENT.threshold_ms = float(threshold_ms)
    CURRENT.enabled = True
    return CURRENT


def disable() -> None:
    """Turn the slow-query log off, dropping its entries."""
    with CURRENT._lock:
        CURRENT.enabled = False
        CURRENT._ring = []
        CURRENT.total = 0


def slowlog_report(limit: int = 10) -> str:
    """The process-global log's ``:slow`` table."""
    return CURRENT.report(limit)
