"""Windowed time-series rollups, health verdicts, OpenMetrics export.

The metrics registry (:mod:`repro.obs.metrics`) holds *lifetime*
aggregates: total appends, total commit seconds.  An operator watching
a live system asks different questions — what is the append rate *right
now*, what was the commit p95 *over the last minute*, is the store
healthy — and lifetime totals cannot answer them.  This module is the
monitoring layer that can:

* :class:`TimeSeriesRegistry` — a ring of :class:`Window` rollups fed
  by an explicit :meth:`~TimeSeriesRegistry.tick` sampler.  Each tick
  closes a window holding the counter *deltas* since the previous tick,
  the gauge last-values, and per-histogram digests (count/sum deltas
  plus p50/p95/p99 from :meth:`Histogram.quantile
  <repro.obs.metrics.Histogram.quantile>`).  Rates and latency
  quantiles are then queries over any horizon of retained windows.
  There is no background thread: the sampler runs when something calls
  ``tick()`` (the REPL's ``:watch``, a benchmark loop, a server's
  accept loop), which keeps tests deterministic — the clock is
  injectable too.

* Health checks — :func:`health_report` runs a set of
  :class:`HealthProbe` objects over the registry and journal, each
  returning ok/degraded/failing with a human detail line.  Built-in
  probes cover store replay integrity, heap commit lag, journal drop
  rate, adaptive-store hit rate, statistics staleness, server session
  pressure, and transaction conflict rate.  Non-ok
  verdicts publish ``WARN`` events into the flight recorder, so a
  degraded probe is journaled evidence, not just a console line.

* OpenMetrics v1 text exposition — :func:`render_openmetrics` renders
  the whole registry (counters, gauges, histograms-as-summaries) in
  the format Prometheus-style scrapers ingest;
  :func:`write_metrics_snapshot` drops it to a file and
  :func:`parse_openmetrics` reads the text back (round-trip tests, and
  consumers that want the values without a scraper).

Like the tracer/journal/profiler/slowlog, the process-global monitor
:data:`CURRENT` is one object built at import and **off by default**:
it samples nothing until :func:`enable` flips its ``enabled`` flag and
takes a fresh baseline.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.obs import events as _events
from repro.obs import metrics as _metrics

__all__ = [
    "Window",
    "TimeSeriesRegistry",
    "CURRENT",
    "DEFAULT_CAPACITY",
    "QUANTILES",
    "enable",
    "disable",
    "tick",
    "OK",
    "DEGRADED",
    "FAILING",
    "ProbeResult",
    "HealthProbe",
    "StoreIntegrityProbe",
    "HeapCommitLagProbe",
    "JournalDropProbe",
    "AdaptiveHitRateProbe",
    "StatsStalenessProbe",
    "ServerSessionsProbe",
    "TxnConflictProbe",
    "default_probes",
    "health_report",
    "overall_verdict",
    "format_health",
    "render_openmetrics",
    "write_metrics_snapshot",
    "parse_openmetrics",
]

DEFAULT_CAPACITY = 240

# The digests each window stores per histogram; the monitor's quantile
# queries are restricted to these (raw samples are not retained).
QUANTILES = {"p50": 0.5, "p95": 0.95, "p99": 0.99}


class Window:
    """One closed sampling window.

    ``counters`` maps names to the *delta* accumulated during the
    window (never negative — a registry reset mid-window restarts the
    baseline, see :meth:`TimeSeriesRegistry.tick`); ``gauges`` holds
    last-values at close; ``histograms`` maps names to digest dicts
    ``{"count", "sum", "p50", "p95", "p99"}`` where count/sum are
    window deltas and the quantiles describe the histogram's retained
    samples at close.
    """

    __slots__ = ("index", "started", "ended", "counters", "gauges", "histograms")

    def __init__(
        self,
        index: int,
        started: float,
        ended: float,
        counters: Dict[str, int],
        gauges: Dict[str, float],
        histograms: Dict[str, Dict[str, float]],
    ):
        self.index = index
        self.started = started
        self.ended = ended
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms

    @property
    def seconds(self) -> float:
        """The window's duration on the sampling clock."""
        return max(0.0, self.ended - self.started)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-compatible rendering."""
        return {
            "index": self.index,
            "started": self.started,
            "ended": self.ended,
            "seconds": self.seconds,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def __repr__(self) -> str:
        return "Window(index=%d, seconds=%.3f, counters=%d)" % (
            self.index,
            self.seconds,
            len(self.counters),
        )


class TimeSeriesRegistry:
    """Ring-buffered windowed rollups over a :class:`MetricsRegistry`.

    The baseline snapshot is taken at construction, so the first tick's
    deltas cover activity *since enable*, not since process start.
    ``clock`` is injectable (monotonic seconds) for deterministic
    tests.

    ``enabled`` is the on/off flag (on for a registry you construct, off
    for :data:`CURRENT` until :func:`enable`).  While off, :meth:`tick`
    samples nothing and returns ``None``, and :meth:`format` says how
    to switch it on.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[_metrics.MetricsRegistry] = None,
        capacity: int = DEFAULT_CAPACITY,
        clock=time.monotonic,
    ):
        self.registry = registry if registry is not None else _metrics.REGISTRY
        self.capacity = capacity
        self.ticks = 0
        self._clock = clock
        self._lock = threading.Lock()
        self.clear()

    # -- sampling -----------------------------------------------------------

    def tick(self) -> Optional[Window]:
        """Close the current window and open the next one.

        Counter and histogram-count deltas that would come out negative
        mean the underlying registry was reset mid-window
        (``reset_metrics()``); the sampler restarts its baseline from
        the post-reset values instead of recording garbage, so retained
        windows survive a reset untouched and the reset window reports
        the activity since the reset.  Returns ``None`` while off.
        """
        now = self._clock()
        with self._lock:
            if not self.enabled:
                return None
            counters = self.registry.counters()
            deltas: Dict[str, int] = {}
            for name, value in counters.items():
                previous = self._last_counters.get(name, 0)
                deltas[name] = value - previous if value >= previous else value
            self._last_counters = counters
            digests: Dict[str, Dict[str, float]] = {}
            last_hist: Dict[str, Tuple[int, float]] = {}
            for name, hist in self.registry.histograms().items():
                count, total = hist.count, hist.total
                prev_count, prev_total = self._last_hist.get(name, (0, 0.0))
                # Count and sum are both non-decreasing between resets
                # (observations are non-negative wall times), so either
                # going backwards means the registry was reset.
                if count >= prev_count and total >= prev_total:
                    delta_count = count - prev_count
                    delta_sum = total - prev_total
                else:  # registry reset mid-window
                    delta_count, delta_sum = count, total
                digest = {
                    "count": delta_count,
                    "sum": delta_sum,
                }
                for key, q in QUANTILES.items():
                    digest[key] = hist.quantile(q)
                digests[name] = digest
                last_hist[name] = (count, total)
            self._last_hist = last_hist
            window = Window(
                index=self.ticks,
                started=self._opened,
                ended=now,
                counters=deltas,
                gauges=self.registry.gauges(),
                histograms=digests,
            )
            self._windows.append(window)
            if len(self._windows) > self.capacity:
                del self._windows[0]
            self._opened = now
            self.ticks += 1
        return window

    # -- queries ------------------------------------------------------------

    def windows(self, horizon: Optional[float] = None) -> List[Window]:
        """Retained windows, oldest first.

        With ``horizon`` (seconds), only windows whose *end* falls
        within ``horizon`` of the newest window's end.
        """
        with self._lock:
            retained = list(self._windows)
        if horizon is None or not retained:
            return retained
        edge = retained[-1].ended - horizon
        return [w for w in retained if w.ended > edge]

    def delta(self, name: str, horizon: Optional[float] = None) -> int:
        """The counter's total delta over the horizon's windows."""
        return sum(w.counters.get(name, 0) for w in self.windows(horizon))

    def rate(self, name: str, horizon: Optional[float] = None) -> float:
        """The counter's per-second rate over the horizon's windows
        (0.0 when no time is covered)."""
        covered = self.windows(horizon)
        seconds = sum(w.seconds for w in covered)
        if seconds <= 0.0:
            return 0.0
        return sum(w.counters.get(name, 0) for w in covered) / seconds

    def gauge(self, name: str) -> Optional[float]:
        """The gauge's value in the newest window (``None`` before the
        first tick or for an unknown gauge)."""
        retained = self.windows()
        if not retained:
            return None
        return retained[-1].gauges.get(name)

    def quantile(
        self, name: str, q: float, horizon: Optional[float] = None
    ) -> float:
        """The histogram's ``q``-quantile over the horizon.

        Windows only retain the p50/p95/p99 digests, so ``q`` must be
        one of ``0.5 / 0.95 / 0.99``; the answer is the count-weighted
        mean of the per-window digests (0.0 when no window observed the
        histogram).
        """
        key = None
        for label, value in QUANTILES.items():
            if abs(value - q) < 1e-9:
                key = label
        if key is None:
            raise ValueError(
                "monitor digests hold p50/p95/p99 only, got q=%r" % (q,)
            )
        weighted = 0.0
        count = 0
        for window in self.windows(horizon):
            digest = window.histograms.get(name)
            if digest and digest["count"] > 0:
                weighted += digest[key] * digest["count"]
                count += digest["count"]
        return weighted / count if count else 0.0

    def clear(self) -> None:
        """Drop retained windows and take a fresh baseline: the next
        window's deltas cover activity since this call."""
        with self._lock:
            self._windows: List[Window] = []
            self._opened = self._clock()
            self._last_counters: Dict[str, int] = self.registry.counters()
            self._last_hist: Dict[str, Tuple[int, float]] = {
                name: (hist.count, hist.total)
                for name, hist in self.registry.histograms().items()
            }

    def __len__(self) -> int:
        return len(self._windows)

    # -- rendering ----------------------------------------------------------

    def format(self, horizon: Optional[float] = None, top: int = 8) -> str:
        """The ``:watch`` view: rates, latency digests, gauges.

        ``top`` bounds the counters section to the busiest names so a
        terminal refresh stays one screenful.
        """
        if not self.enabled:
            return "(monitor is off — :watch <seconds> enables it)"
        covered = self.windows(horizon)
        if not covered:
            return "(no windows sampled — call tick())"
        seconds = sum(w.seconds for w in covered)
        lines = [
            "monitor: %d window(s) covering %.2fs (capacity %d)"
            % (len(covered), seconds, self.capacity)
        ]
        totals: Dict[str, int] = {}
        for window in covered:
            for name, value in window.counters.items():
                if value:
                    totals[name] = totals.get(name, 0) + value
        if totals:
            lines.append("rates (per second):")
            busiest = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
            for name, total in sorted(busiest):
                per_second = total / seconds if seconds > 0 else 0.0
                lines.append(
                    "  %-40s %10.1f/s  (Δ%d)" % (name, per_second, total)
                )
        latency: Dict[str, int] = {}
        for window in covered:
            for name, digest in window.histograms.items():
                if digest["count"] > 0:
                    latency[name] = latency.get(name, 0) + int(digest["count"])
        if latency:
            lines.append("histograms (latency in ms):")
            for name in sorted(latency):
                # Duration histograms read better in milliseconds;
                # dimensionless ones (drift ratios) stay raw.
                scale = 1000.0 if name.endswith(".seconds") else 1.0
                lines.append(
                    "  %-40s n=%-6d p50=%.3f p95=%.3f p99=%.3f"
                    % (
                        name,
                        latency[name],
                        self.quantile(name, 0.5, horizon) * scale,
                        self.quantile(name, 0.95, horizon) * scale,
                        self.quantile(name, 0.99, horizon) * scale,
                    )
                )
        gauges = covered[-1].gauges
        nonzero = {name: v for name, v in gauges.items() if v}
        if nonzero:
            lines.append("gauges:")
            for name in sorted(nonzero):
                lines.append("  %-40s %g" % (name, nonzero[name]))
        return "\n".join(lines)


# The process-global monitor: built once at import, never rebound, and
# off until enable() flips its flag.
CURRENT = TimeSeriesRegistry()
CURRENT.enabled = False


def enable(
    capacity: Optional[int] = None,
    registry: Optional[_metrics.MetricsRegistry] = None,
    clock=None,
) -> TimeSeriesRegistry:
    """Turn the monitor on; returns the process-global registry.

    From off it starts empty with the given settings (the defaults for
    any left out) and a fresh baseline, so the first window covers
    activity since this call; already on, it keeps its windows.
    """
    if not CURRENT.enabled:
        CURRENT.registry = _metrics.REGISTRY if registry is None else registry
        CURRENT.capacity = DEFAULT_CAPACITY if capacity is None else capacity
        CURRENT._clock = time.monotonic if clock is None else clock
        CURRENT.clear()
        CURRENT.enabled = True
    return CURRENT


def disable() -> None:
    """Turn the monitor off, dropping its windows."""
    with CURRENT._lock:
        CURRENT.enabled = False
        CURRENT._windows = []
        CURRENT.ticks = 0


def tick():
    """Sample one window on the process-global monitor."""
    return CURRENT.tick()


# ---------------------------------------------------------------------------
# Health checks
# ---------------------------------------------------------------------------

OK = "ok"
DEGRADED = "degraded"
FAILING = "failing"

_VERDICT_RANK = {OK: 0, DEGRADED: 1, FAILING: 2}


class ProbeResult:
    """One probe's verdict with its human-readable evidence."""

    __slots__ = ("probe", "verdict", "detail", "value")

    def __init__(
        self, probe: str, verdict: str, detail: str, value: float = 0.0
    ):
        if verdict not in _VERDICT_RANK:
            raise ValueError("unknown verdict %r" % (verdict,))
        self.probe = probe
        self.verdict = verdict
        self.detail = detail
        self.value = value

    def to_dict(self) -> Dict[str, object]:
        return {
            "probe": self.probe,
            "verdict": self.verdict,
            "detail": self.detail,
            "value": self.value,
        }

    def __repr__(self) -> str:
        return "ProbeResult(%r, %r)" % (self.probe, self.verdict)


class HealthProbe:
    """Base class: a named check over the registry and journal."""

    name = "probe"

    def check(self, registry, journal) -> ProbeResult:
        raise NotImplementedError

    def _result(
        self, verdict: str, detail: str, value: float = 0.0
    ) -> ProbeResult:
        return ProbeResult(self.name, verdict, detail, value)


class StoreIntegrityProbe(HealthProbe):
    """Replay anomalies in the log store.

    Checksum failures mean a record's payload silently changed on disk
    — failing outright.  Torn records and truncated tails are the
    expected crash signature (the replay already skipped them), so they
    only degrade.
    """

    name = "store.integrity"

    def check(self, registry, journal) -> ProbeResult:
        checksum = registry.value("store.checksum_failures")
        torn = registry.value("store.torn_records")
        truncated = registry.value("store.truncated_tails")
        replays = registry.value("store.replays")
        if checksum:
            return self._result(
                FAILING,
                "%d checksum failure(s) across %d replay(s)"
                % (checksum, replays),
                float(checksum),
            )
        if torn or truncated:
            return self._result(
                DEGRADED,
                "%d torn / %d truncated record(s) across %d replay(s)"
                % (torn, truncated, replays),
                float(torn + truncated),
            )
        return self._result(
            OK, "no replay anomalies (%d replay(s))" % replays
        )


class HeapCommitLagProbe(HealthProbe):
    """Commit latency of the intrinsic heap (p95 over retained samples)."""

    name = "heap.commit_lag"

    def __init__(
        self, degraded_seconds: float = 0.1, failing_seconds: float = 1.0
    ):
        self.degraded_seconds = degraded_seconds
        self.failing_seconds = failing_seconds

    def check(self, registry, journal) -> ProbeResult:
        hist = registry.histograms().get("heap.commit.seconds")
        if hist is None or hist.count == 0:
            return self._result(OK, "no commits observed")
        p95 = hist.quantile(0.95)
        detail = "commit p95 %.3fms over %d commit(s)" % (
            p95 * 1000.0,
            hist.count,
        )
        if p95 >= self.failing_seconds:
            return self._result(FAILING, detail, p95)
        if p95 >= self.degraded_seconds:
            return self._result(DEGRADED, detail, p95)
        return self._result(OK, detail, p95)


class JournalDropProbe(HealthProbe):
    """Eviction pressure on the flight recorder's ring.

    ``journal.total - len(journal)`` is how many events the bounded
    ring has already discarded; once that exceeds ``degraded_fraction``
    of everything published, the journal is rotating too fast to be
    useful evidence and the capacity needs raising.
    """

    name = "journal.drops"

    def __init__(self, degraded_fraction: float = 0.1):
        self.degraded_fraction = degraded_fraction

    def check(self, registry, journal) -> ProbeResult:
        if not journal.enabled:
            return self._result(OK, "journal is off")
        total = getattr(journal, "total", 0)
        dropped = total - len(journal)
        fraction = dropped / total if total else 0.0
        detail = "%d of %d event(s) evicted (%.0f%%)" % (
            dropped,
            total,
            fraction * 100.0,
        )
        if fraction >= self.degraded_fraction:
            return self._result(DEGRADED, detail, fraction)
        return self._result(OK, detail, fraction)


class AdaptiveHitRateProbe(HealthProbe):
    """Evidence coverage of the adaptive selectivity store.

    A low hit rate after a warm-up's worth of lookups means the planner
    keeps asking about predicates the store holds no evidence for —
    estimates are running static and the feedback loop is not helping.
    """

    name = "stats.adaptive_hits"

    def __init__(self, min_lookups: int = 20, degraded_rate: float = 0.2):
        self.min_lookups = min_lookups
        self.degraded_rate = degraded_rate

    def check(self, registry, journal) -> ProbeResult:
        hits = registry.value("stats.adaptive.hits")
        misses = registry.value("stats.adaptive.misses")
        lookups = hits + misses
        if lookups < self.min_lookups:
            return self._result(
                OK, "warming up (%d lookup(s))" % lookups, float(lookups)
            )
        rate = hits / lookups
        detail = "hit rate %.0f%% over %d lookup(s)" % (rate * 100.0, lookups)
        if rate < self.degraded_rate:
            return self._result(DEGRADED, detail, rate)
        return self._result(OK, detail, rate)


class StatsStalenessProbe(HealthProbe):
    """Staleness of planner statistics.

    With a catalog in hand, counts relations whose ``stats_drift`` has
    reached the catalog's re-analyze threshold.  Without one, falls
    back to the ``query.estimate.max_drift`` gauge the last EXPLAIN
    ANALYZE published — a drift ratio past ``degraded_drift`` means the
    optimizer's cardinalities no longer resemble reality.
    """

    name = "stats.staleness"

    def __init__(self, degraded_drift: float = 4.0, catalog=None):
        self.degraded_drift = degraded_drift
        self.catalog = catalog

    def check(self, registry, journal) -> ProbeResult:
        catalog = self.catalog
        if catalog is not None and hasattr(catalog, "stats_drift"):
            threshold = getattr(catalog, "reanalyze_threshold", 1) or 1
            stale = [
                name
                for name in sorted(catalog)
                if (catalog.stats_drift(name) or 0) >= threshold
            ]
            if stale:
                return self._result(
                    DEGRADED,
                    "stale statistics: %s" % ", ".join(stale),
                    float(len(stale)),
                )
            return self._result(OK, "catalog statistics current")
        drift = registry.gauges().get("query.estimate.max_drift", 0.0)
        detail = "last EXPLAIN ANALYZE max drift %.2fx" % drift
        if drift >= self.degraded_drift:
            return self._result(DEGRADED, detail, drift)
        return self._result(OK, detail, drift)


class ServerSessionsProbe(HealthProbe):
    """Session pressure on the database server's broker.

    Reads the gauges and counters :mod:`repro.server.broker` publishes:
    ``server.sessions.active`` / ``server.sessions.limit`` and the
    accepted/rejected connection totals.  A rejected-connection fraction
    past ``degraded_fraction`` means clients are being turned away (the
    accept queue overflowed); sitting at the connection limit degrades
    too, since the *next* connection will queue or bounce.  With no
    server in the process the probe reports ok.
    """

    name = "server.sessions"

    def __init__(self, degraded_fraction: float = 0.05):
        self.degraded_fraction = degraded_fraction

    def check(self, registry, journal) -> ProbeResult:
        gauges = registry.gauges()
        limit = int(gauges.get("server.sessions.limit", 0.0))
        active = int(gauges.get("server.sessions.active", 0.0))
        accepted = registry.value("server.connections.accepted")
        rejected = registry.value("server.connections.rejected")
        attempts = accepted + rejected
        if not limit and not attempts:
            return self._result(OK, "no server running")
        fraction = rejected / attempts if attempts else 0.0
        detail = (
            "%d of %d session(s) active; %d of %d connection(s)"
            " rejected (%.0f%%)"
            % (active, limit, rejected, attempts, fraction * 100.0)
        )
        if rejected and fraction >= self.degraded_fraction:
            return self._result(DEGRADED, detail, fraction)
        if limit and active >= limit:
            return self._result(
                DEGRADED, "at connection limit: %s" % detail, float(active)
            )
        return self._result(OK, detail, float(active))


class TxnConflictProbe(HealthProbe):
    """Contention in the MVCC transaction layer.

    Counts commit attempts (``txn.commit`` + ``txn.conflict``) and the
    fraction lost to first-committer-wins conflicts.  Occasional
    conflicts are the optimistic protocol working as designed; a rate
    past ``degraded_rate`` over a meaningful number of attempts means
    sessions keep writing the same handles and their retry loops are
    burning work — the workload wants partitioning (or shorter
    transactions), not more retries.  See TRANSACTIONS.md.
    """

    name = "txn.conflict_rate"

    def __init__(self, min_attempts: int = 20, degraded_rate: float = 0.25):
        self.min_attempts = min_attempts
        self.degraded_rate = degraded_rate

    def check(self, registry, journal) -> ProbeResult:
        commits = registry.value("txn.commit")
        conflicts = registry.value("txn.conflict")
        attempts = commits + conflicts
        if not attempts:
            return self._result(OK, "no transactions committed")
        rate = conflicts / attempts
        detail = "%d conflict(s) in %d commit attempt(s) (%.0f%%)" % (
            conflicts,
            attempts,
            rate * 100.0,
        )
        if attempts >= self.min_attempts and rate >= self.degraded_rate:
            return self._result(DEGRADED, detail, rate)
        return self._result(OK, detail, rate)


class RequestTracingProbe(HealthProbe):
    """Tracing overhead pressure on session requests.

    Sessions count every completed request (``session.requests``) and
    every request that carried harvested span trees
    (``session.requests.traced``).  Tracing is a debugging instrument,
    not a steady state: when nearly every request over a meaningful
    volume is paying for span recording, someone left ``:trace on``
    against production traffic — degraded, with the fraction as
    evidence.  No requests (or no tracing) reports ok.
    """

    name = "obs.tracing"

    def __init__(self, min_requests: int = 100, degraded_fraction: float = 0.9):
        self.min_requests = min_requests
        self.degraded_fraction = degraded_fraction

    def check(self, registry, journal) -> ProbeResult:
        requests = registry.value("session.requests")
        traced = registry.value("session.requests.traced")
        if not traced:
            return self._result(
                OK, "no traced requests (%d request(s))" % requests
            )
        fraction = traced / requests if requests else 0.0
        detail = "%d of %d request(s) traced (%.0f%%)" % (
            traced,
            requests,
            fraction * 100.0,
        )
        if requests >= self.min_requests and fraction >= self.degraded_fraction:
            return self._result(
                DEGRADED, "tracing left on: %s" % detail, fraction
            )
        return self._result(OK, detail, fraction)


def default_probes(catalog=None) -> List[HealthProbe]:
    """The built-in probe set (``catalog`` sharpens the staleness
    probe when given)."""
    return [
        StoreIntegrityProbe(),
        HeapCommitLagProbe(),
        JournalDropProbe(),
        AdaptiveHitRateProbe(),
        StatsStalenessProbe(catalog=catalog),
        ServerSessionsProbe(),
        TxnConflictProbe(),
        RequestTracingProbe(),
    ]


def health_report(
    probes: Optional[List[HealthProbe]] = None,
    registry: Optional[_metrics.MetricsRegistry] = None,
    journal=None,
    catalog=None,
    publish: bool = True,
) -> List[ProbeResult]:
    """Run every probe; returns the results in probe order.

    A probe that raises is reported as *failing* rather than taking the
    whole report down — a health check must never be the thing that
    crashes.  With ``publish`` (the default), non-ok verdicts land in
    the journal as ``WARN health.<probe>`` events.
    """
    registry = registry if registry is not None else _metrics.REGISTRY
    journal = journal if journal is not None else _events.CURRENT
    if probes is None:
        probes = default_probes(catalog=catalog)
    results: List[ProbeResult] = []
    for probe in probes:
        try:
            result = probe.check(registry, journal)
        except Exception as exc:  # noqa: BLE001 — verdict, not crash
            result = ProbeResult(
                probe.name, FAILING, "probe error: %s" % exc
            )
        results.append(result)
        if publish and result.verdict != OK and journal.enabled:
            journal.publish(
                "WARN",
                "health",
                result.probe,
                verdict=result.verdict,
                detail=result.detail,
                value=result.value,
            )
    return results


def overall_verdict(results: List[ProbeResult]) -> str:
    """The worst verdict across the results (``ok`` when empty)."""
    worst = OK
    for result in results:
        if _VERDICT_RANK[result.verdict] > _VERDICT_RANK[worst]:
            worst = result.verdict
    return worst


def format_health(results: List[ProbeResult]) -> str:
    """The ``:health`` table: overall verdict, then one row per probe."""
    lines = ["health: %s" % overall_verdict(results)]
    for result in results:
        lines.append(
            "  %-9s %-22s %s" % (result.verdict, result.probe, result.detail)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# OpenMetrics v1 text exposition
# ---------------------------------------------------------------------------

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str) -> str:
    """An OpenMetrics-legal metric name (dots become underscores)."""
    sanitized = _NAME_OK.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return sanitized


def _number(value: float) -> str:
    """A float rendered so ``float()`` reads back the same value."""
    return repr(float(value))


def render_openmetrics(
    registry: Optional[_metrics.MetricsRegistry] = None,
) -> str:
    """The registry as OpenMetrics v1 text (``# EOF``-terminated).

    Counters expose as ``<name>_total``, gauges as-is, histograms as
    summaries: ``{quantile="0.5|0.95|0.99"}`` sample lines over the
    retained window plus ``_count``/``_sum`` lifetime aggregates.
    """
    registry = registry if registry is not None else _metrics.REGISTRY
    lines: List[str] = []
    for name, value in registry.counters().items():
        om = _metric_name(name)
        lines.append("# TYPE %s counter" % om)
        lines.append("%s_total %d" % (om, value))
    for name, value in registry.gauges().items():
        om = _metric_name(name)
        lines.append("# TYPE %s gauge" % om)
        lines.append("%s %s" % (om, _number(value)))
    for name, hist in registry.histograms().items():
        om = _metric_name(name)
        lines.append("# TYPE %s summary" % om)
        for q in sorted(QUANTILES.values()):
            lines.append(
                '%s{quantile="%g"} %s' % (om, q, _number(hist.quantile(q)))
            )
        lines.append("%s_count %d" % (om, hist.count))
        lines.append("%s_sum %s" % (om, _number(hist.total)))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_metrics_snapshot(
    path: str, registry: Optional[_metrics.MetricsRegistry] = None
) -> str:
    """Write :func:`render_openmetrics` to ``path``; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_openmetrics(registry))
    return path


_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{quantile="(?P<quantile>[^"]+)"\})?'
    r"\s+(?P<value>\S+)$"
)


def parse_openmetrics(text: str) -> Dict[str, Dict[str, object]]:
    """Read OpenMetrics text back into plain dicts.

    Returns ``{"counters": {name: int}, "gauges": {name: float},
    "summaries": {name: {"quantiles": {q: v}, "count": int, "sum":
    float}}, "eof": bool}`` keyed by the *exposed* (sanitized) names.
    Only the subset :func:`render_openmetrics` emits is understood —
    this is the round-trip reader, not a scraper.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    summaries: Dict[str, Dict[str, object]] = {}
    types: Dict[str, str] = {}
    saw_eof = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            __, __, rest = line.partition("# TYPE ")
            name, __, kind = rest.partition(" ")
            types[name] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if not match:
            continue
        name = match.group("name")
        quantile = match.group("quantile")
        value = match.group("value")
        if quantile is not None:
            summary = summaries.setdefault(
                name, {"quantiles": {}, "count": 0, "sum": 0.0}
            )
            summary["quantiles"][float(quantile)] = float(value)
        elif name.endswith("_count") and types.get(name[:-6]) == "summary":
            summary = summaries.setdefault(
                name[:-6], {"quantiles": {}, "count": 0, "sum": 0.0}
            )
            summary["count"] = int(value)
        elif name.endswith("_sum") and types.get(name[:-4]) == "summary":
            summary = summaries.setdefault(
                name[:-4], {"quantiles": {}, "count": 0, "sum": 0.0}
            )
            summary["sum"] = float(value)
        elif name.endswith("_total") and types.get(name[:-6]) == "counter":
            counters[name[:-6]] = int(value)
        elif types.get(name) == "gauge":
            gauges[name] = float(value)
    return {
        "counters": counters,
        "gauges": gauges,
        "summaries": summaries,
        "eof": saw_eof,
    }
