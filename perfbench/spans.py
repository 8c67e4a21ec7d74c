"""Per-layer spans recorded from outside the program.

A :class:`Recorder` replaces a layer's public function, at the name its
callers look up, with a wrapper that records a span (name, start, end,
parent, key) and calls the original.  Spans stay in memory; a traced
server dumps them to a file when asked, the in-process workloads read
them directly.  :func:`attribute` turns spans into per-op self times:
a span's self time is its duration minus its direct children's.
:func:`layer_report` turns a traced phase into every per-layer metric.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import layers

# [name, start, end, parent index or -1, key]
Span = list


class Recorder:
    """Records nested spans per thread; keys attribute them to ops."""

    def __init__(self):
        self.spans: List[Span] = []
        # Wire bytes per request key (repr of the key).
        self.bytes_by_key: Dict[str, int] = {}
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object, bool]] = []

    # -- the current attribution key (thread-local) -------------------------

    def set_key(self, key) -> None:
        self._local.key = key

    def key(self):
        return getattr(self._local, "key", None)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> Tuple[Span, List[int]]:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.key()]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span, stack

    @staticmethod
    def close(span: Span, stack: List[int]) -> None:
        span[2] = time.perf_counter()
        stack.pop()

    def add(self, name: str, start: float, end: float, key) -> None:
        """A finished root span (e.g. a queue wait measured elsewhere)."""
        self.spans.append([name, start, end, -1, key])

    def wrap(self, owner, attr: str, name: str, keyer: Optional[Callable] = None):
        """Wrap ``owner.attr`` in a span called ``name``.

        ``keyer(args, result)`` may compute the span's key after the
        call, for functions whose op is only known from their data.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            span, stack = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span, stack)
            if keyer is not None:
                span[4] = keyer(args, result)
            return result

        original = self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, replacement):
        """Install ``replacement`` as ``owner.attr`` until
        :meth:`unwrap_all`; returns the original."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, replacement)
        return original

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: str) -> None:
        """Write the spans atomically (write, then rename)."""
        temporary = path + ".tmp"
        with open(temporary, "w") as handle:
            json.dump({"spans": self.spans, "bytes": self.bytes_by_key}, handle)
        os.replace(temporary, path)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    result = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            result[parent] -= span[2] - span[1]
    return result


def attribute(
    spans: List[Span], op_of_key: Callable[[object], Optional[int]]
) -> Dict[int, Dict[str, float]]:
    """Per-op self seconds by span name.

    A span belongs to the op its key maps to; a child without its own
    key inherits its root's.
    """
    own = self_times(spans)
    keys: List[object] = []
    per_op: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        key = span[4]
        if key is None and span[3] >= 0:
            key = keys[span[3]]
        keys.append(key)
        op = op_of_key(key) if key is not None else None
        if op is not None:
            per_op[op][span[0]] += own[index]
    return per_op


def summarize(
    per_op: Dict[int, Dict[str, float]],
    latencies_s: List[float],
    scales: List[float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Mean self ms per op for each layer, plus the reconciliation.

    Every op's latency and self times are rescaled by its ``scales``
    entry (see hostclock.py).  Returns ``(layers, check)``: ``layers``
    maps each time layer to its mean self time per op and
    ``unattributed_ms`` to the rest of the client-observed latency;
    ``check`` holds the mean latency, the largest per-op overrun of
    spans beyond their op's latency (unscaled), and how many ops had no
    spans at all.
    """
    ops = len(latencies_s)
    totals: Dict[str, float] = {name: 0.0 for name in layers.TIME_LAYERS}
    worst_overrun = 0.0
    uncovered = 0
    for op, latency in enumerate(latencies_s):
        own = per_op.get(op)
        if not own:
            uncovered += 1
            continue
        covered = 0.0
        for name, seconds in own.items():
            totals[name] += seconds * scales[op]
            covered += seconds
        worst_overrun = max(worst_overrun, covered - latency)
    mean_latency_ms = sum(t * f for t, f in zip(latencies_s, scales)) * 1000.0 / ops
    layers_ms = {name: total * 1000.0 / ops for name, total in totals.items()}
    layers_ms["unattributed_ms"] = mean_latency_ms - sum(layers_ms.values())
    check = {
        "latency_ms": mean_latency_ms,
        "worst_overrun_ms": worst_overrun * 1000.0,
        "uncovered_ops": uncovered,
    }
    return layers_ms, check


def layer_report(
    spans: List[Span],
    op_of_key: Callable[[object], Optional[int]],
    segments,
    counter_delta: Dict[str, float],
    untraced_rate: float,
    extra: Dict[str, float],
) -> Tuple[Dict[str, float], bool]:
    """Every per-layer metric of a traced phase, and whether it reconciles.

    ``segments`` are the traced phase's (``common.measure``), with ops
    in the order ``op_of_key`` numbers them; ``counter_delta`` holds the
    registry counters' growth over the phase; ``untraced_rate`` is the
    untraced phase's rescaled ``ops_per_s``; ``extra`` sets metrics only
    the workload can compute.  Layers the workload does not reach read 0.
    """
    latencies = [t for s in segments for t in s.latencies]
    scales = [s.scale for s in segments for __ in s.latencies]
    ops = len(latencies)
    traced_rate = ops / sum(s.wall * s.scale for s in segments)
    layer_ms, check = summarize(attribute(spans, op_of_key), latencies, scales)
    by_name: Dict[str, int] = defaultdict(int)
    for span in spans:
        by_name[span[0]] += 1
    report = {name: 0.0 for name, __ in layers.PER_LAYER}
    report.update(layer_ms)
    report.update(layers.count_metrics(counter_delta, ops, by_name))
    report.update(extra)
    report.update({
        "trace.latency_ms": check["latency_ms"],
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_frac": untraced_rate / traced_rate - 1.0,
        "trace.reconcile_err_ms": max(0.0, check["worst_overrun_ms"]),
    })
    # Every op has spans, and no op's spans exceed its latency by > 0.5 ms.
    reconciled = check["uncovered_ops"] == 0 and check["worst_overrun_ms"] <= 0.5
    if not reconciled:
        sys.stderr.write("perfbench: trace does not reconcile: %r\n" % check)
    return report, reconciled
