"""The flight recorder: a bounded, thread-safe structured event journal.

Spans (:mod:`repro.obs.trace`) answer *where time went*; counters
(:mod:`repro.obs.metrics`) answer *how often*.  The journal answers
*what happened, in order*: a ring buffer of structured
:class:`Event` records — monotonic sequence number, severity,
subsystem tag, event name, free-form payload — that the instrumented
layers publish into:

* ``trace``       — every closed span (name, elapsed, tags);
* ``query``       — ``optimize()`` runs, ``explain_analyze`` drift;
* ``kernel``      — generalized-join fast-path hits and misses;
* ``stats``       — automatic re-analyze decisions;
* ``store``       — log replays, torn records, checksum failures (WARN);
* ``heap``        — intrinsic commits: reachability-sweep size,
  written/collected object counts;
* ``replicating`` — extern/intern round-trips with their versions, and
  WARN events for divergent re-interns (the paper's update anomaly);
* ``image``       — all-or-nothing saves and resumes;
* ``txn``         — MVCC transaction begins, commits, conflicts,
  aborts, and vacuums;
* ``slowlog``     — WARN events for queries over the slow threshold;
* ``health``      — WARN events for probes that are not ok;
* ``server``      — listening, sessions opening and closing, rejected
  connections, idle timeouts, per-request and transaction events,
  shutdown.

The process-global journal :data:`CURRENT` is built once at import,
starts off, and is never rebound: :func:`enable` and :func:`disable`
flip its ``enabled`` flag.  Call sites guard on that one attribute
check and pay **zero allocations** while it is off::

    if _events.CURRENT.enabled:
        _events.publish("WARN", "store", "torn_record", line=42)

Like the tracer, the journal is process-global: ``enable()`` flips one
switch and every layer starts recording; a bounded ring (default 4096
events) keeps a long-lived REPL session or benchmark from growing
without limit while retaining the most recent evidence — the flight
recorder's point.  :mod:`repro.obs.export` serializes the ring to JSONL
and to Chrome/Perfetto trace files so a crashed or finished session can
be replayed.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics

__all__ = [
    "DEBUG",
    "INFO",
    "WARN",
    "ERROR",
    "SEVERITIES",
    "Event",
    "EventJournal",
    "ScopedJournal",
    "CURRENT",
    "enable",
    "disable",
    "publish",
    "scoped",
]

DEBUG = "DEBUG"
INFO = "INFO"
WARN = "WARN"
ERROR = "ERROR"

# Ascending order; used for minimum-severity filtering.
SEVERITIES: Tuple[str, ...] = (DEBUG, INFO, WARN, ERROR)
_RANK: Dict[str, int] = {name: rank for rank, name in enumerate(SEVERITIES)}


class Event:
    """One journal entry.

    ``seq`` is the journal-assigned monotonic sequence number (gaps
    never occur; eviction drops old events, not numbers).  ``wall`` is
    epoch seconds (``time.time``) for humans; ``mono`` is
    ``time.perf_counter`` seconds so events and spans share one
    monotonic timeline in exported traces.  ``payload`` is a plain dict
    of whatever the publishing site found useful.
    """

    __slots__ = ("seq", "wall", "mono", "severity", "subsystem", "name", "payload")

    def __init__(
        self,
        seq: int,
        wall: float,
        mono: float,
        severity: str,
        subsystem: str,
        name: str,
        payload: Dict[str, object],
    ):
        self.seq = seq
        self.wall = wall
        self.mono = mono
        self.severity = severity
        self.subsystem = subsystem
        self.name = name
        self.payload = payload

    def to_dict(self) -> Dict[str, object]:
        """A JSON-compatible rendering (payload values coerced via str
        when not already JSON-safe)."""
        return {
            "seq": self.seq,
            "wall": self.wall,
            "mono": self.mono,
            "severity": self.severity,
            "subsystem": self.subsystem,
            "name": self.name,
            "payload": {k: _json_safe(v) for k, v in self.payload.items()},
        }

    def format(self) -> str:
        """One human-readable line (what the REPL's ``:events`` prints)."""
        payload_text = " ".join(
            "%s=%s" % (key, self.payload[key]) for key in sorted(self.payload)
        )
        return "#%-5d %-5s %-12s %-24s %s" % (
            self.seq,
            self.severity,
            self.subsystem,
            self.name,
            payload_text,
        )

    def __repr__(self) -> str:
        return "Event(#%d %s %s.%s)" % (
            self.seq,
            self.severity,
            self.subsystem,
            self.name,
        )


def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class EventJournal:
    """A bounded ring of :class:`Event` records, safe for many writers.

    ``capacity`` bounds retained events (the oldest are evicted);
    ``total`` counts everything ever published, so ``total - len(ring)``
    is the evicted count.  A single lock serializes publishes and
    snapshot reads — events are published at per-operation (not
    per-row) granularity, so contention is negligible.

    ``enabled`` is the on/off flag (on for a journal you construct, off
    for :data:`CURRENT` until :func:`enable`).  While off,
    :meth:`publish` records nothing and returns ``None``.
    """

    enabled = True

    def __init__(self, capacity: int = 4096, clock=time.time, mono=time.perf_counter):
        if capacity <= 0:
            raise ValueError("journal capacity must be positive")
        self.capacity = capacity
        self._clock = clock
        self._mono = mono
        self._lock = threading.Lock()
        self._ring: List[Event] = []
        self._next = 0  # ring write position once full
        self.total = 0

    def publish(
        self, severity: str, subsystem: str, name: str, **payload: object
    ) -> Optional[Event]:
        """Record one event; returns it (``None`` while off).

        ``severity`` must be one of :data:`SEVERITIES`.  WARN and ERROR
        events additionally count into the metrics registry
        (``events.warnings`` / ``events.errors``) so anomaly totals
        survive ring eviction.
        """
        if not self.enabled:
            return None
        if severity not in _RANK:
            raise ValueError("unknown severity %r" % (severity,))
        event = Event(
            0, self._clock(), self._mono(), severity, subsystem, name, payload
        )
        with self._lock:
            if not self.enabled:  # switched off while this call ran
                return None
            event.seq = self.total
            self.total += 1
            if len(self._ring) < self.capacity:
                self._ring.append(event)
            else:
                self._ring[self._next] = event
                self._next = (self._next + 1) % self.capacity
        if severity == WARN or severity == ERROR:
            _metrics.REGISTRY.counter(
                "events.warnings" if severity == WARN else "events.errors"
            ).inc()
        return event

    def events(
        self,
        n: Optional[int] = None,
        severity: Optional[str] = None,
        subsystem: Optional[str] = None,
    ) -> List[Event]:
        """The retained events in publication order.

        ``n`` keeps only the most recent *n* (after filtering; none
        when ``n <= 0``); ``severity`` is a *minimum* (``"WARN"`` keeps
        WARN and ERROR); ``subsystem`` filters exactly.
        """
        with self._lock:
            ordered = self._ring[self._next:] + self._ring[: self._next]
        if severity is not None:
            floor = _RANK[severity]
            ordered = [e for e in ordered if _RANK[e.severity] >= floor]
        if subsystem is not None:
            ordered = [e for e in ordered if e.subsystem == subsystem]
        if n is not None:
            ordered = ordered[-n:] if n > 0 else []
        return ordered

    def clear(self) -> None:
        """Drop retained events (sequence numbers keep advancing)."""
        with self._lock:
            self._ring = []
            self._next = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class ScopedJournal:
    """A tagging view over a journal: fixed payload fields on publish,
    and reads filtered back down to them.

    The database server hands each connection
    ``scoped(session="s03")`` so every event that session publishes is
    tagged with its id, and ``events()`` answers only that session's
    slice of the shared ring — per-session journals without per-session
    rings.  With ``journal=None`` (the default) the view is over the
    process-global :data:`CURRENT`, so ``enable()`` / ``disable()``
    keep working mid-session.
    """

    __slots__ = ("tags", "_journal")

    def __init__(self, tags: Dict[str, object], journal=None):
        if not tags:
            raise ValueError("a scoped journal needs at least one tag")
        self.tags = dict(tags)
        self._journal = journal if journal is not None else CURRENT

    @property
    def enabled(self) -> bool:
        return self._journal.enabled

    def publish(self, severity: str, subsystem: str, name: str, **payload: object):
        """Publish with the scope's tags merged in (tags win on clash)."""
        merged = dict(payload)
        merged.update(self.tags)
        return self._journal.publish(severity, subsystem, name, **merged)

    def events(
        self,
        n: Optional[int] = None,
        severity: Optional[str] = None,
        subsystem: Optional[str] = None,
    ) -> List[Event]:
        """The underlying journal's events whose payload carries every
        one of this scope's tags, filtered like
        :meth:`EventJournal.events`."""
        matching = [
            event
            for event in self._journal.events(
                severity=severity, subsystem=subsystem
            )
            if all(event.payload.get(k) == v for k, v in self.tags.items())
        ]
        if n is not None:
            matching = matching[-n:] if n > 0 else []
        return matching

    def __len__(self) -> int:
        return len(self.events())

    def __repr__(self) -> str:
        return "ScopedJournal(%r)" % (self.tags,)


def scoped(journal=None, **tags: object) -> ScopedJournal:
    """A :class:`ScopedJournal` over ``journal`` (default: the
    process-global :data:`CURRENT`)."""
    return ScopedJournal(tags, journal=journal)


# The process-global journal: built once at import and never rebound,
# so instrumented modules may read ``events.CURRENT`` at any time; it
# starts off and enable()/disable() flip its flag.
CURRENT = EventJournal()
CURRENT.enabled = False


def enable(capacity: int = 4096) -> EventJournal:
    """Turn the journal on; returns the process-global journal.

    From off it starts empty with ``capacity`` and numbers events from
    0 again; already on, it keeps its events and its capacity.
    """
    if not CURRENT.enabled:
        if capacity <= 0:
            raise ValueError("journal capacity must be positive")
        CURRENT.capacity = capacity
        CURRENT.enabled = True
    return CURRENT


def disable() -> None:
    """Turn the journal off, dropping its events."""
    with CURRENT._lock:
        CURRENT.enabled = False
        CURRENT._ring = []
        CURRENT._next = 0
        CURRENT.total = 0


def publish(severity: str, subsystem: str, name: str, **payload: object):
    """Publish one event to the process-global journal.

    Call sites on hot paths should guard with ``CURRENT.enabled`` first
    so the disabled path never builds the payload dict.
    """
    return CURRENT.publish(severity, subsystem, name, **payload)
