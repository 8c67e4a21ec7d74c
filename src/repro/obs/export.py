"""Exporters: replay a session's observability state from files.

Everything the flight recorder holds in memory — finished spans, the
event journal, a metrics snapshot — can be serialized so a benchmark
run or a REPL session leaves evidence behind:

* :func:`write_journal` — the journal as JSON Lines, one event per
  line, trivially greppable and re-readable;
* :func:`write_trace` — a Chrome trace-event file (the JSON object
  format with a ``traceEvents`` list) loadable by ``chrome://tracing``
  and by Perfetto's UI: spans become complete (``"ph": "X"``) events
  whose nesting the viewer reconstructs from timestamps, journal
  entries become instant (``"ph": "i"``) marks on the same timeline,
  and the metrics snapshot rides along under ``otherData``;
* :func:`write_merged_trace` — the distributed version: local spans
  and journal (pid 1, "client") merged with per-request span trees a
  session harvested — possibly pulled over the wire via ``obs``
  frames — on pid 2 ("server", one tid per session), remote
  timestamps shifted onto the local timeline by the clock offset the
  handshake estimated;
* :func:`read_trace` / :func:`read_journal` — load either file back;
* :func:`span_tree` — rebuild the span nesting from a trace file's
  flat event list (timestamp containment), so tests and tools can
  check that an exported trace reproduces the in-memory span forest.

Spans and journal events share the ``time.perf_counter`` timeline
(spans record their start on it; events carry a ``mono`` stamp), so a
single exported file shows both in one coherent order.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.trace import Span

__all__ = [
    "trace_events",
    "merged_trace_events",
    "write_trace",
    "write_merged_trace",
    "write_journal",
    "read_trace",
    "read_journal",
    "span_tree",
]

_MICRO = 1e6

# Merged-trace process ids: the viewer groups rows by pid, so the
# client process and the backend (server or local session) each get a
# lane of their own, with one tid per backend session.
CLIENT_PID = 1
BACKEND_PID = 2


def _span_events(span: Span, out: List[Dict[str, object]]) -> None:
    # Open spans (elapsed is None) have no duration yet; export them as
    # zero-length so the file stays loadable mid-session.
    elapsed = span.elapsed if span.elapsed is not None else 0.0
    out.append(
        {
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": span._started * _MICRO,
            "dur": elapsed * _MICRO,
            "pid": 1,
            "tid": 1,
            "args": {k: _events._json_safe(v) for k, v in span.tags.items()},
        }
    )
    for child in span.children:
        _span_events(child, out)


def trace_events(tracer=None, journal=None) -> List[Dict[str, object]]:
    """The Chrome trace-event list for ``tracer``'s spans and
    ``journal``'s events (both default to the process-global ones)."""
    tracer = tracer if tracer is not None else _trace.CURRENT
    journal = journal if journal is not None else _events.CURRENT
    out: List[Dict[str, object]] = []
    for root in tracer.roots:
        _span_events(root, out)
    for event in journal.events():
        out.append(
            {
                "name": "%s.%s" % (event.subsystem, event.name),
                "cat": "journal",
                "ph": "i",
                "s": "p",
                "ts": event.mono * _MICRO,
                "pid": 1,
                "tid": 1,
                "args": dict(
                    {"severity": event.severity, "seq": event.seq},
                    **{
                        k: _events._json_safe(v)
                        for k, v in event.payload.items()
                    },
                ),
            }
        )
    out.sort(key=lambda e: e["ts"])
    return out


def _span_dict_events(
    span: Dict[str, object],
    out: List[Dict[str, object]],
    pid: int,
    tid: int,
    offset: float,
) -> None:
    """Flatten one serialized span tree (``Span.to_dict``) into Chrome
    complete events, shifting its timestamps by ``offset`` seconds
    (the estimated remote-to-local monotonic clock offset)."""
    started = float(span.get("started") or 0.0)
    elapsed = span.get("elapsed")
    out.append(
        {
            "name": span.get("name", "?"),
            "cat": "span",
            "ph": "X",
            "ts": (started - offset) * _MICRO,
            "dur": (float(elapsed) if elapsed is not None else 0.0) * _MICRO,
            "pid": pid,
            "tid": tid,
            "args": dict(span.get("tags") or {}),
        }
    )
    for child in span.get("children") or []:
        _span_dict_events(child, out, pid, tid, offset)


def merged_trace_events(
    tracer=None,
    journal=None,
    remote=None,
    clock_offset: float = 0.0,
) -> List[Dict[str, object]]:
    """One timeline across the wire: local spans + backend span trees.

    ``remote`` is an ``obs("spans")`` reply (or a list of them) — the
    per-request span trees a :class:`~repro.server.session.Session`
    harvested, local or pulled over the protocol's ``obs`` frames.
    Local tracer spans and journal instants render under
    :data:`CLIENT_PID`; each backend session gets its own ``tid``
    under :data:`BACKEND_PID`, its timestamps shifted onto the local
    ``perf_counter`` timeline by ``clock_offset`` (the handshake
    estimate; 0 for a local session, which already shares the clock).
    Process/thread-name metadata events lead the list so the viewer
    labels the lanes.
    """
    out = trace_events(tracer=tracer, journal=journal)
    documents = []
    if remote:
        documents = remote if isinstance(remote, list) else [remote]
    metadata: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": CLIENT_PID,
            "tid": 1,
            "args": {"name": "client"},
        }
    ]
    if documents:
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": BACKEND_PID,
                "tid": 1,
                "args": {"name": "server"},
            }
        )
    for tid, document in enumerate(documents, start=1):
        session = document.get("session") or ("s%02d" % tid)
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": BACKEND_PID,
                "tid": tid,
                "args": {"name": "session %s" % session},
            }
        )
        for request in document.get("requests") or []:
            for span in request.get("spans") or []:
                _span_dict_events(
                    span, out, BACKEND_PID, tid, clock_offset
                )
    out.sort(key=lambda e: e.get("ts", 0))
    return metadata + out


def write_trace(
    path: str,
    tracer=None,
    journal=None,
    metrics: Optional[_metrics.MetricsRegistry] = None,
) -> str:
    """Write a ``chrome://tracing``/Perfetto-loadable trace file.

    The file is the JSON *object* format: ``traceEvents`` plus an
    ``otherData`` section carrying the metrics snapshot and journal
    totals — one artifact replays the whole session.  Returns ``path``.
    """
    journal = journal if journal is not None else _events.CURRENT
    registry = metrics if metrics is not None else _metrics.REGISTRY
    document = {
        "traceEvents": trace_events(tracer=tracer, journal=journal),
        "displayTimeUnit": "ms",
        "otherData": {
            "metrics": registry.snapshot(),
            "journal": {
                "retained": len(journal),
                "published": journal.total,
            },
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_merged_trace(
    path: str,
    tracer=None,
    journal=None,
    remote=None,
    clock_offset: float = 0.0,
    metrics: Optional[_metrics.MetricsRegistry] = None,
) -> Dict[str, object]:
    """Write a merged client+backend trace file; returns the document.

    The same Chrome/Perfetto object format as :func:`write_trace`,
    with ``traceEvents`` from :func:`merged_trace_events` and the
    estimated ``clock_offset`` recorded under ``otherData`` so a
    reader can undo the shift.  Returning the document (rather than
    the path) lets callers report event counts without re-rendering.
    """
    journal = journal if journal is not None else _events.CURRENT
    registry = metrics if metrics is not None else _metrics.REGISTRY
    document = {
        "traceEvents": merged_trace_events(
            tracer=tracer,
            journal=journal,
            remote=remote,
            clock_offset=clock_offset,
        ),
        "displayTimeUnit": "ms",
        "otherData": {
            "metrics": registry.snapshot(),
            "journal": {
                "retained": len(journal),
                "published": journal.total,
            },
            "clock_offset_seconds": clock_offset,
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def write_journal(path: str, journal=None) -> str:
    """Write the journal as JSON Lines (one event per line); returns
    ``path``."""
    journal = journal if journal is not None else _events.CURRENT
    with open(path, "w", encoding="utf-8") as handle:
        for event in journal.events():
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    return path


def read_trace(path: str) -> Dict[str, object]:
    """Load a trace file written by :func:`write_trace`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_journal(path: str) -> List[Dict[str, object]]:
    """Load a JSONL journal written by :func:`write_journal`."""
    out: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def span_tree(trace_document: Dict[str, object]) -> List[Dict[str, object]]:
    """Rebuild span nesting from a loaded trace file.

    Chrome's viewer nests complete events by timestamp containment;
    this applies the same rule so a test can assert that the exported
    file carries the structure the tracer recorded.  Returns a forest
    of ``{"name", "args", "children"}`` dicts in start order.
    """
    spans = [
        event
        for event in trace_document.get("traceEvents", [])
        if event.get("ph") == "X"
    ]
    spans.sort(key=lambda e: (e["ts"], -(e.get("dur", 0))))
    roots: List[Dict[str, object]] = []
    stack: List[Dict[str, object]] = []  # open enclosing spans
    for event in spans:
        node = {
            "name": event["name"],
            "args": event.get("args", {}),
            "children": [],
            "_ts": event["ts"],
            "_end": event["ts"] + event.get("dur", 0),
        }
        while stack and event["ts"] >= stack[-1]["_end"]:
            stack.pop()
        if stack:
            stack[-1]["children"].append(node)
        else:
            roots.append(node)
        stack.append(node)
    def _strip(node: Dict[str, object]) -> None:
        del node["_ts"], node["_end"]
        for child in node["children"]:
            _strip(child)
    for root in roots:
        _strip(root)
    return roots
