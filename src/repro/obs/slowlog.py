"""The slow-query log: the wide events at or over a wall-time threshold.

Production monitoring needs more than aggregates: when the p95 drifts
up, the operator's next question is *which queries* — and by then the
offending runs are gone unless something kept them as they happened.
The slow-query log keeps them, and it keeps them as the one record
each run already has: a :class:`~repro.obs.wide.WideEvent`.  Every
session request (``eval``, ``type`` or ``ast``, local or served) is
offered its wide event when it completes; outside a session, an
embedded ``Plan.execute`` or EXPLAIN ANALYZE run builds one (mode
``plan`` or ``explain``) only when it took at least the threshold.
Events at or over the threshold land in one process-wide, bounded
:class:`~repro.obs.wide.RequestLog` ring, flagged ``slow`` — the very
object a session's ``:requests`` row renders, so the two tables agree
on the request id and the wall time.

Like the tracer, journal, and profiler, the log is one process-global
object, :data:`CURRENT`, built at import and **off by default**:
instrumented sites pay one attribute check (``slowlog.CURRENT.enabled``)
until :func:`enable` flips its flag (the REPL's ``:slow on``).

Every kept event also publishes a ``WARN slowlog.slow_query`` event
(the wide event's fields plus ``threshold_ms``) into the flight
recorder, so slow queries appear on the same timeline as store
anomalies and heap commits, survive ``write_journal``/``read_journal``
round-trips, and show up in ``:events``.

Usage::

    from repro.obs import slowlog

    slowlog.enable(threshold_ms=50.0)
    ...run queries...
    print(slowlog.slowlog_report())
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.wide import RequestLog, WideEvent, format_table

__all__ = [
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


class SlowLog(RequestLog):
    """The :class:`~repro.obs.wide.WideEvent` records that took at least
    ``threshold_ms``, newest last.

    ``total`` counts every event ever kept, so ``total - len(log)`` is
    the number evicted.  ``enabled`` is the on/off flag (on for a log
    you construct, off for :data:`CURRENT` until :func:`enable`).  While
    off nothing is kept and :meth:`report` says how to switch it on.
    """

    enabled = True

    def __init__(
        self,
        threshold_ms: float = DEFAULT_THRESHOLD_MS,
        capacity: int = DEFAULT_CAPACITY,
    ):
        super().__init__(capacity)
        self.threshold_ms = float(threshold_ms)

    def offer(self, event: WideEvent) -> Optional[WideEvent]:
        """Keep ``event`` if the log is on and it took at least the
        threshold; returns it flagged ``slow``, else ``None``.

        Bumps ``slowlog.recorded`` and publishes ``WARN
        slowlog.slow_query`` for each event kept.
        """
        if not self.enabled or event.elapsed_ms < self.threshold_ms:
            return None
        with self._lock:
            if not self.enabled:  # switched off since the check above
                return None
            event.slow = True
            self._events.append(event)
            self.total += 1
        _metrics.REGISTRY.counter("slowlog.recorded").inc()
        journal = _events.CURRENT
        if journal.enabled:
            journal.publish(
                "WARN",
                "slowlog",
                "slow_query",
                threshold_ms=self.threshold_ms,
                **event.to_dict(spans=False),
            )
        return event

    def report(self, limit: int = 10) -> str:
        """The ``:slow`` table: the newest events, as ``:requests``
        rows."""
        if not self.enabled:
            return "(slow-query log is off — :slow on)"
        retained = self.last(limit)
        if not retained:
            return "(no slow queries over %.1fms)" % self.threshold_ms
        return "slow queries (threshold %.1fms, showing %d of %d recorded):\n%s" % (
            self.threshold_ms,
            len(retained),
            self.total,
            format_table(retained),
        )


# The process-global slow-query log: built once at import, never
# rebound, and off until enable() flips its flag.
CURRENT = SlowLog()
CURRENT.enabled = False


def enable(
    threshold_ms: Optional[float] = None,
    capacity: Optional[int] = None,
) -> SlowLog:
    """Turn the slow-query log on; returns the process-global log.

    From off it starts empty with the given settings (the defaults for
    any left out); already on, it keeps its events and applies only a
    new ``threshold_ms``.
    """
    if not CURRENT.enabled:
        CURRENT.threshold_ms = DEFAULT_THRESHOLD_MS
        CURRENT.capacity = DEFAULT_CAPACITY if capacity is None else capacity
        CURRENT._events = deque(maxlen=CURRENT.capacity)
    if threshold_ms is not None:
        CURRENT.threshold_ms = float(threshold_ms)
    CURRENT.enabled = True
    return CURRENT


def disable() -> None:
    """Turn the slow-query log off, dropping its events."""
    with CURRENT._lock:
        CURRENT.enabled = False
        CURRENT._events.clear()
        CURRENT.total = 0


def slowlog_report(limit: int = 10) -> str:
    """The process-global log's ``:slow`` table."""
    return CURRENT.report(limit)
