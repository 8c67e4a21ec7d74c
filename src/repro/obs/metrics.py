"""Named counters and latency histograms with a JSON-able snapshot.

The registry is the always-on half of the observability layer: spans
(:mod:`repro.obs.trace`) answer *where time went in one run*; counters
answer *how often things happened over a process lifetime* — appends and
replays in the log store, fast-path hits in the generalized join,
commits of the intrinsic heap.  A counter increment is one dict lookup
and an integer add, cheap enough to leave on unconditionally at the
per-operation (not per-row) granularity used throughout ``src/``.

Usage::

    from repro.obs.metrics import REGISTRY

    REGISTRY.counter("store.appends").inc()
    REGISTRY.histogram("store.commit.seconds").observe(elapsed)
    print(REGISTRY.to_json())

``snapshot()`` returns plain dicts (JSON-compatible), which is what the
benchmark harness embeds in its ``BENCH_<area>.json`` result files so
the repo's perf trajectory is diffable across PRs.

The relation kernel publishes its pruning effectiveness here: next to
the logical ``relation.join.pairs`` (|L|·|R| per join) live
``relation.join.pairs_tried`` (pairs that actually reached a
consistency check) and ``relation.join.pairs_pruned`` (pairs the
signature/bucket partitioning discarded without one), plus
``relation.reduce`` / ``relation.reduce.groups`` for the partitioned
cochain reduction.  ``benchmarks/bench_relation.py`` fails its run when
``relation.join.pairs_pruned`` stays at zero on the mixed-signature
workload — the counter doubles as a regression guard on the partition
logic.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_metrics",
    "join_pairs",
    "reset_metrics",
]


class Counter:
    """A monotonically-increasing named integer.

    Updates take the metric's own lock: ``value += delta`` is several
    bytecodes, so unlocked concurrent increments can lose counts under
    preemption (the journal writer and threaded workloads both
    increment).  The lock is uncontended in single-threaded use and
    costs well under a microsecond.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, delta: int = 1) -> None:
        """Add ``delta`` (default 1)."""
        with self._lock:
            self.value += delta

    def reset(self) -> None:
        """Back to zero (the registry-wide reset calls this)."""
        with self._lock:
            self.value = 0

    def __repr__(self) -> str:
        return "Counter(%r, %d)" % (self.name, self.value)


class Gauge:
    """A named value that can go up or down (last write wins).

    Counters accumulate and histograms aggregate; a gauge records a
    *level* — the estimate drift of the most recent EXPLAIN ANALYZE,
    the number of analyzed tables in a catalog — that later reads
    should see as-is.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current level."""
        with self._lock:
            self.value = float(value)

    def reset(self) -> None:
        """Back to zero (the registry-wide reset calls this)."""
        with self._lock:
            self.value = 0.0

    def __repr__(self) -> str:
        return "Gauge(%r, %g)" % (self.name, self.value)


class Histogram:
    """A latency histogram: count/sum/min/max plus bounded raw samples.

    Keeps the most recent ``sample_cap`` observations in a ring so
    :meth:`quantile` stays exact on short runs and approximate (recent
    window) on long ones, without unbounded memory.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_cap", "_lock")

    def __init__(self, name: str, sample_cap: int = 512):
        self.name = name
        self._cap = sample_cap
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Discard all observations."""
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min: Optional[float] = None
            self.max: Optional[float] = None
            self._samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation (e.g. seconds of one commit)."""
        value = float(value)
        with self._lock:
            if len(self._samples) < self._cap:
                self._samples.append(value)
            else:
                self._samples[self.count % self._cap] = value
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """The mean observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0.0–1.0) of the retained samples.

        Linear interpolation between closest ranks — ``q=0.0`` is the
        smallest retained sample, ``q=1.0`` the largest, and an empty
        histogram answers ``0.0`` (a scrape of a quiet metric should
        expose a number, not raise).  This is the accessor the monitor's
        per-window digests (p50/p95/p99), the OpenMetrics summary
        exposition and :meth:`snapshot` read.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % (q,))
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction

    def time(self) -> "_HistogramTimer":
        """A context manager observing the block's wall time in seconds.

        The server's request loop wraps each dispatched frame in
        ``histogram("server.request.seconds").time()`` — one line at the
        call site, and failures still record (the observation lands on
        ``__exit__`` whether or not the block raised).
        """
        return _HistogramTimer(self)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-compatible summary of this histogram."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }

    def __repr__(self) -> str:
        return "Histogram(%r, count=%d, mean=%g)" % (
            self.name,
            self.count,
            self.mean,
        )


class _HistogramTimer:
    """The :meth:`Histogram.time` context manager."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class MetricsRegistry:
    """A namespace of counters and histograms, created on first use.

    One process-global instance (:data:`REGISTRY`) backs all the
    instrumentation in ``src/``; independent registries can be created
    for tests.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created at zero on first use).

        Get-or-create takes the registry lock so two racing threads
        never mint two handles for one name (one handle's counts would
        silently vanish from snapshots).
        """
        found = self._counters.get(name)
        if found is None:
            with self._lock:
                found = self._counters.get(name)
                if found is None:
                    found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created at zero on first use)."""
        found = self._gauges.get(name)
        if found is None:
            with self._lock:
                found = self._gauges.get(name)
                if found is None:
                    found = self._gauges[name] = Gauge(name)
        return found

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created empty on first use)."""
        found = self._histograms.get(name)
        if found is None:
            with self._lock:
                found = self._histograms.get(name)
                if found is None:
                    found = self._histograms[name] = Histogram(name)
        return found

    def value(self, name: str) -> int:
        """The current value of counter ``name`` — 0 when it never fired.

        A pure read: unlike :meth:`counter` it does not create the
        counter, so probing a name (e.g. the benchmark harness checking
        ``relation.join.pairs_pruned``) leaves no trace in snapshots.
        """
        found = self._counters.get(name)
        return found.value if found is not None else 0

    def counters(self) -> Dict[str, int]:
        """Counter values by name (a copy)."""
        with self._lock:
            items = sorted(self._counters.items())
        return {name: c.value for name, c in items}

    def gauges(self) -> Dict[str, float]:
        """Gauge values by name (a copy)."""
        with self._lock:
            items = sorted(self._gauges.items())
        return {name: g.value for name, g in items}

    def histograms(self) -> Dict[str, Histogram]:
        """Histogram *handles* by name (a copied mapping).

        Unlike :meth:`counters`/:meth:`gauges` this hands out the live
        objects: the monitor's sampler needs count/sum deltas *and*
        quantiles per tick, and a value copy would force two snapshot
        passes.  Callers must treat the handles as read-only.
        """
        with self._lock:
            items = sorted(self._histograms.items())
        return dict(items)

    def snapshot(self) -> Dict[str, object]:
        """Everything, as plain JSON-compatible dicts."""
        with self._lock:
            histograms = sorted(self._histograms.items())
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {name: h.snapshot() for name, h in histograms},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The snapshot serialized as JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Zero every metric *in place*.

        Existing :class:`Counter`/:class:`Histogram` handles stay valid
        (instrumented modules may cache them), they just restart at zero.
        """
        with self._lock:
            metrics = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for metric in metrics:
            metric.reset()

    def format(self) -> str:
        """A human-readable table (the REPL's ``:stats`` output)."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        lines: List[str] = []
        if counters:
            lines.append("counters:")
            for name, counter in counters:
                lines.append("  %-40s %d" % (name, counter.value))
        if gauges:
            lines.append("gauges:")
            for name, gauge in gauges:
                lines.append("  %-40s %g" % (name, gauge.value))
        if histograms:
            lines.append("histograms:")
            for name, histogram in histograms:
                lines.append(
                    "  %-40s n=%d mean=%.6f max=%.6f"
                    % (
                        name,
                        histogram.count,
                        histogram.mean,
                        histogram.max if histogram.max is not None else 0.0,
                    )
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


# The process-global registry every instrumented module records into.
REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry."""
    return REGISTRY


def reset_metrics() -> None:
    """Zero the process-global registry (handles stay valid)."""
    REGISTRY.reset()


def join_pairs() -> Tuple[int, int]:
    """The (tried, pruned) join-pair totals of both join kernels.

    Flat hash joins count under ``flat.join.*``, the generalized cochain
    kernel under ``relation.join.*``; reading both before and after a
    measured run says how much join work it did — per plan node
    (EXPLAIN ANALYZE, the profiler) or per slow query.
    """
    value = REGISTRY.value
    return (
        value("relation.join.pairs_tried") + value("flat.join.pairs_tried"),
        value("relation.join.pairs_pruned") + value("flat.join.pairs_pruned"),
    )
