"""Nestable wall-clock spans with a process-global default tracer.

The paper's efficiency claims — fast-path joins on flat cochains,
index-backed ``Get`` over extents, intrinsic persistence with commit —
need to be *attributable* at run time, not just asserted by benchmarks.
A :class:`Tracer` records a tree of named spans::

    from repro.obs import trace

    tracer = trace.enable()
    with trace.span("relation.join", left=3, right=3) as sp:
        r1.join(r2)
    print(tracer.roots[0].format())

Spans nest: a span opened while another is active becomes its child, so
an instrumented call stack (a plan execution, a heap commit replaying
into the store) renders as an indented tree.

**Disabled cost.**  The process-global tracer :data:`CURRENT` is built
once at import, starts off, and is never rebound: :func:`enable` and
:func:`disable` flip its ``enabled`` flag.  Hot paths guard their
instrumentation with that single attribute check and pay nothing else;
an off tracer's :meth:`~Tracer.span` hands out one shared do-nothing
span, so an unguarded call costs only the call::

    if trace.CURRENT.enabled:
        with trace.CURRENT.span("store.replay"):
            ...

Tracing is process-global (``CURRENT``), deliberately: the point is to
observe a whole program, and the REPL's ``:trace on`` flips one switch.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, Iterator, List, Optional

from repro.obs import events as _events

__all__ = [
    "Span",
    "Tracer",
    "CURRENT",
    "enable",
    "disable",
    "span",
    "current_request_id",
    "set_request_id",
]


# The per-thread request context: while a session executes a request,
# its ``request_id`` is visible here, so downstream recorders (the
# slow-query log, journal publishers) can stamp whatever they capture
# with the exact request it belongs to — no racy "most recent span"
# guessing across threads.
_REQUEST = threading.local()


def current_request_id() -> Optional[str]:
    """The request id the current thread is executing under (or None)."""
    return getattr(_REQUEST, "request_id", None)


def set_request_id(request_id: Optional[str]) -> Optional[str]:
    """Install ``request_id`` as this thread's request context.

    Returns the previous value so callers can restore it on the way
    out (requests nest during ``:load`` and re-entrant evaluation).
    """
    previous = getattr(_REQUEST, "request_id", None)
    _REQUEST.request_id = request_id
    return previous


class Span:
    """One timed, tagged region of execution (a node in the trace tree).

    ``elapsed`` is wall-clock seconds, filled in when the span closes
    (``None`` while still open).  ``tags`` are free-form annotations;
    :meth:`annotate` adds more after the span has been opened — how plan
    nodes attach ``rows_out`` once the result cardinality is known.
    """

    __slots__ = ("name", "seq", "tags", "elapsed", "children", "_started")

    _SEQ = itertools.count(1)

    def __init__(self, name: str, tags: Optional[Dict[str, object]] = None):
        self.name = name
        # A process-wide monotone id.
        self.seq = next(Span._SEQ)
        self.tags: Dict[str, object] = dict(tags) if tags else {}
        self.elapsed: Optional[float] = None
        self.children: List["Span"] = []
        self._started: float = 0.0

    def annotate(self, **tags: object) -> "Span":
        """Attach more tags to an open (or closed) span."""
        self.tags.update(tags)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            for descendant in child.walk():
                yield descendant

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe nested dict of the subtree (for wire transport).

        ``started`` is the opening ``perf_counter()`` reading — meaningful
        only relative to other spans from the same process, which is why
        merged exports carry a clock offset estimated at handshake.
        """
        return {
            "name": self.name,
            "seq": self.seq,
            "started": self._started,
            "elapsed": self.elapsed,
            "tags": {
                key: _events._json_safe(value)
                for key, value in self.tags.items()
            },
            "children": [child.to_dict() for child in self.children],
        }

    def format(self, indent: int = 0) -> str:
        """An indented one-line-per-span rendering of the subtree."""
        pad = "  " * indent
        tag_text = " ".join(
            "%s=%s" % (key, self.tags[key]) for key in sorted(self.tags)
        )
        elapsed_text = (
            "%.3fms" % (self.elapsed * 1000.0)
            if self.elapsed is not None
            else "open"
        )
        line = "%s%s [%s]%s" % (
            pad,
            self.name,
            elapsed_text,
            " " + tag_text if tag_text else "",
        )
        return "\n".join(
            [line] + [child.format(indent + 1) for child in self.children]
        )

    def __repr__(self) -> str:
        return "Span(%r, elapsed=%s, children=%d)" % (
            self.name,
            self.elapsed,
            len(self.children),
        )


class _OpenSpan:
    """Context manager wiring one span into a tracer's active stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_obj: Span):
        self._tracer = tracer
        self._span = span_obj

    def __enter__(self) -> Span:
        tracer = self._tracer
        span_obj = self._span
        if tracer._stack:
            tracer._stack[-1].children.append(span_obj)
        else:
            # A new root: stamp it with the thread's request context so a
            # pooled server can harvest each request's trees by id even
            # when several worker threads grow roots concurrently.
            request_id = current_request_id()
            if request_id is not None and "request_id" not in span_obj.tags:
                span_obj.tags["request_id"] = request_id
            with tracer._roots_lock:
                if tracer.enabled:  # not switched off since span()
                    tracer.roots.append(span_obj)
        tracer._stack.append(span_obj)
        span_obj._started = tracer._clock()
        return span_obj

    def __exit__(self, *exc_info) -> bool:
        tracer = self._tracer
        span_obj = self._span
        span_obj.elapsed = tracer._clock() - span_obj._started
        # Pop back to this span even if an inner span leaked (an
        # exception skipped its __exit__ — defensive, should not happen).
        stack = tracer._stack
        while stack and stack.pop() is not span_obj:
            pass
        # Closed spans also chronicle into the flight recorder, so an
        # exported journal shows spans and anomalies on one timeline —
        # unless tracing was switched off while this span was open.
        journal = _events.CURRENT
        if tracer.enabled and journal.enabled:
            payload = {
                key: value
                for key, value in span_obj.tags.items()
                if key not in ("severity", "subsystem", "name")
            }
            payload["elapsed_ms"] = span_obj.elapsed * 1000.0
            journal.publish("DEBUG", "trace", span_obj.name, **payload)
        return False


class Tracer:
    """A recording tracer: spans opened through it build a forest.

    ``roots`` holds completed-and-open top-level spans in order; nested
    spans hang off their parents.  ``clock`` is injectable for tests.

    The open-span *stack* is per-thread: nesting follows each thread's
    own call stack, so a client thread's ``client.run`` span and the
    server worker thread's ``lang.run`` span (the in-process
    :class:`~repro.server.server.ServerThread` embedding shares one
    global tracer) become separate roots instead of racing into one
    interleaved tree.  ``roots`` itself is shared and guarded by a lock;
    new roots are stamped with the thread's request id so
    :meth:`harvest_request` can claim exactly one request's trees even
    when a pooled server grows several requests' roots concurrently.

    ``enabled`` is the on/off flag (on for a tracer you construct, off
    for :data:`CURRENT` until :func:`enable`).  While off, :meth:`span`
    hands out a shared do-nothing span and spans still open record
    nothing when they close.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.roots: List[Span] = []
        self._roots_lock = threading.Lock()
        self._local = threading.local()

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags: object):
        """Open a span; use as ``with tracer.span("name", k=v) as sp:``."""
        if not self.enabled:
            return _NOOP_SPAN
        return _OpenSpan(self, Span(name, tags))

    def clear(self) -> None:
        """Drop all recorded spans (open spans keep recording)."""
        with self._roots_lock:
            self.roots = []

    def harvest_request(self, request_id: str) -> List[Span]:
        """Claim (remove and return) the closed root spans of one
        request.

        Root spans are stamped with the thread-local request id as they
        open, so when several pooled worker threads grow roots on the
        shared tracer concurrently, each request can still pull exactly
        its own trees out.  Unstamped roots (spans opened outside any
        request) are left alone, and so are roots still *open*: with an
        in-process :class:`~repro.server.server.ServerThread` the
        client's ``client.run`` round-trip span shares both the tracer
        and the request id, and it is still running when the server
        harvests — claiming it would strip the client's own lane from a
        merged export.  The removal is atomic under the roots lock.
        """
        def mine(root: Span) -> bool:
            return (
                root.elapsed is not None
                and root.tags.get("request_id") == request_id
            )

        with self._roots_lock:
            harvested = [root for root in self.roots if mine(root)]
            if harvested:
                self.roots = [
                    root for root in self.roots if not mine(root)
                ]
        return harvested

    def spans(self) -> List[Span]:
        """Every recorded span, depth-first across all roots."""
        return [s for root in self.roots for s in root.walk()]

    def find(self, name: str) -> List[Span]:
        """All recorded spans with the given name."""
        return [s for s in self.spans() if s.name == name]


class _NoOpSpan:
    """The do-nothing span: context manager and annotation sink."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def annotate(self, **tags: object) -> "_NoOpSpan":
        return self


_NOOP_SPAN = _NoOpSpan()


# The process-global tracer: built once at import and never rebound, so
# instrumented modules may read ``trace.CURRENT`` at any time; it starts
# off and enable()/disable() flip its flag.
CURRENT = Tracer()
CURRENT.enabled = False


def enable() -> Tracer:
    """Turn tracing on; returns the process-global tracer.

    Spans recorded while it was already on are kept.
    """
    CURRENT.enabled = True
    return CURRENT


def disable() -> None:
    """Turn tracing off, dropping the recorded spans."""
    CURRENT.enabled = False
    CURRENT.clear()


def span(name: str, **tags: object):
    """Open a span on the process-global tracer."""
    return CURRENT.span(name, **tags)
