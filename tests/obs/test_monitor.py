"""Windowed rollups, health probes, and the OpenMetrics exposition."""

import pytest

from repro.obs import events, monitor
from repro.obs.metrics import REGISTRY, MetricsRegistry, reset_metrics
from repro.obs.monitor import (
    DEGRADED,
    FAILING,
    OK,
    AdaptiveHitRateProbe,
    HeapCommitLagProbe,
    JournalDropProbe,
    StatsStalenessProbe,
    StoreIntegrityProbe,
    TimeSeriesRegistry,
    format_health,
    health_report,
    overall_verdict,
    parse_openmetrics,
    render_openmetrics,
    write_metrics_snapshot,
)


class FakeClock:
    """A manually-advanced monotonic clock for deterministic windows."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def clock():
    return FakeClock()


def off_journal():
    """A switched-off journal, as the process-global one starts."""
    journal = events.EventJournal()
    journal.enabled = False
    return journal


class TestTimeSeriesRegistry:
    def test_first_window_holds_deltas_since_enable(self, registry, clock):
        registry.counter("c").inc(100)  # before the monitor exists
        mon = TimeSeriesRegistry(registry=registry, clock=clock)
        registry.counter("c").inc(7)
        clock.advance(1.0)
        window = mon.tick()
        assert window.counters["c"] == 7
        assert window.seconds == 1.0

    def test_counter_deltas_per_window(self, registry, clock):
        mon = TimeSeriesRegistry(registry=registry, clock=clock)
        for delta in (3, 5, 2):
            registry.counter("c").inc(delta)
            clock.advance(1.0)
            mon.tick()
        deltas = [w.counters["c"] for w in mon.windows()]
        assert deltas == [3, 5, 2]
        assert mon.delta("c") == 10

    def test_rate_over_horizon(self, registry, clock):
        mon = TimeSeriesRegistry(registry=registry, clock=clock)
        for __ in range(4):
            registry.counter("c").inc(10)
            clock.advance(2.0)
            mon.tick()
        assert mon.rate("c") == pytest.approx(5.0)
        # A 4s horizon covers only the last two 2s windows.
        assert mon.rate("c", horizon=4.0) == pytest.approx(5.0)
        assert mon.delta("c", horizon=4.0) == 20

    def test_gauge_last_value_wins(self, registry, clock):
        mon = TimeSeriesRegistry(registry=registry, clock=clock)
        registry.gauge("g").set(1.0)
        clock.advance(1.0)
        mon.tick()
        registry.gauge("g").set(9.0)
        clock.advance(1.0)
        mon.tick()
        assert mon.gauge("g") == 9.0

    def test_histogram_digests_carry_window_deltas_and_quantiles(
        self, registry, clock
    ):
        mon = TimeSeriesRegistry(registry=registry, clock=clock)
        for value in (0.1, 0.2, 0.3):
            registry.histogram("h").observe(value)
        clock.advance(1.0)
        first = mon.tick()
        assert first.histograms["h"]["count"] == 3
        assert first.histograms["h"]["sum"] == pytest.approx(0.6)
        registry.histogram("h").observe(0.4)
        clock.advance(1.0)
        second = mon.tick()
        assert second.histograms["h"]["count"] == 1
        assert second.histograms["h"]["sum"] == pytest.approx(0.4)
        assert second.histograms["h"]["p99"] == pytest.approx(
            registry.histogram("h").quantile(0.99)
        )

    def test_quantile_is_count_weighted_over_windows(self, registry, clock):
        mon = TimeSeriesRegistry(registry=registry, clock=clock)
        registry.histogram("h").observe(1.0)
        clock.advance(1.0)
        mon.tick()
        for __ in range(3):
            registry.histogram("h").observe(2.0)
        clock.advance(1.0)
        mon.tick()
        # Window 1: one sample, p50=1.0.  Window 2: p50 over the ring
        # (1,2,2,2) = 2.0 with count 3.  Weighted: (1*1 + 2*3) / 4.
        assert mon.quantile("h", 0.5) == pytest.approx((1.0 + 6.0) / 4.0)

    def test_quantile_rejects_unkept_digests(self, registry, clock):
        mon = TimeSeriesRegistry(registry=registry, clock=clock)
        with pytest.raises(ValueError):
            mon.quantile("h", 0.42)

    def test_ring_is_bounded(self, registry, clock):
        mon = TimeSeriesRegistry(registry=registry, capacity=3, clock=clock)
        for i in range(10):
            clock.advance(1.0)
            mon.tick()
        assert len(mon) == 3
        assert mon.ticks == 10
        assert [w.index for w in mon.windows()] == [7, 8, 9]

    def test_windows_survive_registry_reset(self, registry, clock):
        """``reset_metrics`` mid-flight must not corrupt history: old
        windows keep their deltas and the reset window restarts from
        the post-reset baseline instead of going negative."""
        mon = TimeSeriesRegistry(registry=registry, clock=clock)
        registry.counter("c").inc(50)
        registry.histogram("h").observe(0.5)
        clock.advance(1.0)
        mon.tick()
        registry.reset()
        registry.counter("c").inc(4)
        registry.histogram("h").observe(0.25)
        clock.advance(1.0)
        window = mon.tick()
        history = mon.windows()
        assert history[0].counters["c"] == 50
        assert window.counters["c"] == 4
        assert window.histograms["h"]["count"] == 1
        assert window.histograms["h"]["sum"] == pytest.approx(0.25)
        assert mon.delta("c") == 54

    def test_global_reset_metrics_with_global_monitor(self, clock):
        """The acceptance-path variant: the process-global monitor over
        the process-global registry survives ``reset_metrics()``."""
        mon = monitor.enable(clock=clock)
        REGISTRY.counter("monitor.test.survives").inc(3)
        clock.advance(1.0)
        monitor.tick()
        reset_metrics()
        clock.advance(1.0)
        monitor.tick()
        assert mon.delta("monitor.test.survives") == 3
        monitor.disable()

    def test_format_renders_rates_and_gauges(self, registry, clock):
        mon = TimeSeriesRegistry(registry=registry, clock=clock)
        registry.counter("c").inc(10)
        registry.gauge("g").set(2.5)
        registry.histogram("q.seconds").observe(0.002)
        clock.advance(2.0)
        mon.tick()
        text = mon.format()
        assert "c" in text and "5.0/s" in text
        assert "g" in text and "2.5" in text
        assert "q.seconds" in text

    def test_enable_is_idempotent(self, clock):
        first = monitor.enable(clock=clock)
        clock.advance(1.0)
        monitor.tick()
        second = monitor.enable()
        assert second is first
        assert len(second) == 1
        monitor.disable()


class TestHealthProbes:
    def test_store_integrity_verdict_ladder(self, registry):
        probe = StoreIntegrityProbe()
        journal = off_journal()
        assert probe.check(registry, journal).verdict == OK
        registry.counter("store.torn_records").inc()
        assert probe.check(registry, journal).verdict == DEGRADED
        registry.counter("store.checksum_failures").inc()
        assert probe.check(registry, journal).verdict == FAILING

    def test_heap_commit_lag_thresholds(self, registry):
        probe = HeapCommitLagProbe(
            degraded_seconds=0.1, failing_seconds=1.0
        )
        journal = off_journal()
        assert probe.check(registry, journal).verdict == OK  # no commits
        for __ in range(20):
            registry.histogram("heap.commit.seconds").observe(0.5)
        assert probe.check(registry, journal).verdict == DEGRADED
        for __ in range(20):
            registry.histogram("heap.commit.seconds").observe(2.0)
        assert probe.check(registry, journal).verdict == FAILING

    def test_journal_drop_probe(self, registry):
        probe = JournalDropProbe(degraded_fraction=0.1)
        assert probe.check(registry, off_journal()).verdict == OK
        journal = events.EventJournal(capacity=4)
        for i in range(4):
            journal.publish("INFO", "t", "e%d" % i)
        assert probe.check(registry, journal).verdict == OK
        for i in range(16):
            journal.publish("INFO", "t", "x%d" % i)
        result = probe.check(registry, journal)
        assert result.verdict == DEGRADED
        assert "evicted" in result.detail

    def test_adaptive_hit_rate_probe(self, registry):
        probe = AdaptiveHitRateProbe(min_lookups=10, degraded_rate=0.5)
        journal = off_journal()
        assert probe.check(registry, journal).verdict == OK  # warming up
        registry.counter("stats.adaptive.hits").inc(1)
        registry.counter("stats.adaptive.misses").inc(9)
        assert probe.check(registry, journal).verdict == DEGRADED
        registry.counter("stats.adaptive.hits").inc(90)
        assert probe.check(registry, journal).verdict == OK

    def test_stats_staleness_gauge_fallback(self, registry):
        probe = StatsStalenessProbe(degraded_drift=4.0)
        journal = off_journal()
        assert probe.check(registry, journal).verdict == OK
        registry.gauge("query.estimate.max_drift").set(7.5)
        result = probe.check(registry, journal)
        assert result.verdict == DEGRADED
        assert "7.50x" in result.detail

    def test_stats_staleness_with_catalog(self, registry):
        from repro.core.flat import FlatRelation
        from repro.core.index import Catalog

        catalog = Catalog(
            {"r": FlatRelation(("A",), [(1,), (2,)])}
        )
        catalog.analyze("r")
        probe = StatsStalenessProbe(catalog=catalog)
        journal = off_journal()
        assert probe.check(registry, journal).verdict == OK
        catalog.bind("r", FlatRelation(("A",), [(3,)]))  # stats go stale
        result = probe.check(registry, journal)
        assert result.verdict == DEGRADED
        assert "r" in result.detail

    def test_server_sessions_silent_without_a_server(self, registry):
        from repro.obs.monitor import ServerSessionsProbe

        probe = ServerSessionsProbe()
        result = probe.check(registry, off_journal())
        assert result.verdict == OK
        assert result.detail == "no server running"

    def test_server_sessions_reports_pressure(self, registry):
        from repro.obs.monitor import ServerSessionsProbe

        probe = ServerSessionsProbe(degraded_fraction=0.05)
        journal = off_journal()
        registry.gauge("server.sessions.limit").set(4.0)
        registry.gauge("server.sessions.active").set(2.0)
        registry.counter("server.connections.accepted").inc(20)
        result = probe.check(registry, journal)
        assert result.verdict == OK
        assert "2 of 4 session(s) active" in result.detail
        # Two rejections in twenty-two attempts (9%) flips it.
        registry.counter("server.connections.rejected").inc(2)
        result = probe.check(registry, journal)
        assert result.verdict == DEGRADED
        assert "2 of 22 connection(s) rejected" in result.detail

    def test_server_sessions_degrades_at_the_limit(self, registry):
        from repro.obs.monitor import ServerSessionsProbe

        probe = ServerSessionsProbe()
        registry.gauge("server.sessions.limit").set(2.0)
        registry.gauge("server.sessions.active").set(2.0)
        registry.counter("server.connections.accepted").inc(2)
        result = probe.check(registry, off_journal())
        assert result.verdict == DEGRADED
        assert result.detail.startswith("at connection limit")

    def test_server_sessions_in_default_probe_set(self):
        from repro.obs.monitor import ServerSessionsProbe, default_probes

        probes = default_probes()
        assert any(isinstance(p, ServerSessionsProbe) for p in probes)

    def test_txn_conflict_probe_silent_without_transactions(self, registry):
        from repro.obs.monitor import TxnConflictProbe

        probe = TxnConflictProbe()
        result = probe.check(registry, off_journal())
        assert result.verdict == OK
        assert result.detail == "no transactions committed"

    def test_txn_conflict_probe_rates(self, registry):
        from repro.obs.monitor import TxnConflictProbe

        probe = TxnConflictProbe(min_attempts=10, degraded_rate=0.25)
        journal = off_journal()
        # Under min_attempts, even an ugly rate stays ok (warming up).
        registry.counter("txn.commit").inc(1)
        registry.counter("txn.conflict").inc(1)
        assert probe.check(registry, journal).verdict == OK
        # 6 conflicts in 20 attempts (30%) degrades.
        registry.counter("txn.commit").inc(13)
        registry.counter("txn.conflict").inc(5)
        result = probe.check(registry, journal)
        assert result.verdict == DEGRADED
        assert "6 conflict(s) in 20 commit attempt(s)" in result.detail
        # A healthy commit stream pulls the rate back under the bar.
        registry.counter("txn.commit").inc(80)
        assert probe.check(registry, journal).verdict == OK

    def test_txn_conflict_probe_in_default_probe_set(self):
        from repro.obs.monitor import TxnConflictProbe, default_probes

        probes = default_probes()
        assert any(isinstance(p, TxnConflictProbe) for p in probes)

    def test_health_report_publishes_warns_for_non_ok(self, registry):
        journal = events.EventJournal(capacity=64)
        registry.counter("store.checksum_failures").inc()
        results = health_report(
            probes=[StoreIntegrityProbe()],
            registry=registry,
            journal=journal,
        )
        assert overall_verdict(results) == FAILING
        warns = journal.events(subsystem="health")
        assert len(warns) == 1
        assert warns[0].severity == "WARN"
        assert warns[0].payload["verdict"] == FAILING

    def test_ok_results_are_not_journaled(self, registry):
        journal = events.EventJournal(capacity=64)
        health_report(
            probes=[StoreIntegrityProbe()],
            registry=registry,
            journal=journal,
        )
        assert journal.events(subsystem="health") == []

    def test_probe_exception_becomes_failing_verdict(self, registry):
        class Broken(StoreIntegrityProbe):
            name = "broken"

            def check(self, registry, journal):
                raise RuntimeError("boom")

        results = health_report(
            probes=[Broken()],
            registry=registry,
            journal=off_journal(),
        )
        assert results[0].verdict == FAILING
        assert "boom" in results[0].detail

    def test_format_health_leads_with_overall_verdict(self, registry):
        results = health_report(
            probes=[StoreIntegrityProbe()],
            registry=registry,
            journal=off_journal(),
        )
        text = format_health(results)
        assert text.splitlines()[0] == "health: ok"
        assert "store.integrity" in text


class TestOpenMetrics:
    def test_round_trips_every_registered_metric(self, registry):
        registry.counter("store.appends").inc(42)
        registry.counter("lang.runs").inc(7)
        registry.gauge("stats.adaptive.keys").set(3.5)
        for value in (0.1, 0.2, 0.9):
            registry.histogram("heap.commit.seconds").observe(value)
        parsed = parse_openmetrics(render_openmetrics(registry))
        assert parsed["eof"]
        assert parsed["counters"]["store_appends"] == 42
        assert parsed["counters"]["lang_runs"] == 7
        assert parsed["gauges"]["stats_adaptive_keys"] == 3.5
        summary = parsed["summaries"]["heap_commit_seconds"]
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(1.2)
        hist = registry.histogram("heap.commit.seconds")
        for q in (0.5, 0.95, 0.99):
            assert summary["quantiles"][q] == pytest.approx(hist.quantile(q))
        # Nothing registered was dropped on the way out.
        assert len(parsed["counters"]) == len(registry.counters())
        assert len(parsed["gauges"]) == len(registry.gauges())
        assert len(parsed["summaries"]) == len(registry.histograms())

    def test_exposition_is_eof_terminated(self, registry):
        text = render_openmetrics(registry)
        assert text.endswith("# EOF\n")

    def test_names_are_sanitized(self, registry):
        registry.counter("a.b-c/d").inc()
        parsed = parse_openmetrics(render_openmetrics(registry))
        assert parsed["counters"]["a_b_c_d"] == 1

    def test_write_metrics_snapshot(self, registry, tmp_path):
        registry.counter("c").inc(5)
        path = write_metrics_snapshot(
            str(tmp_path / "snap.openmetrics"), registry
        )
        with open(path, "r", encoding="utf-8") as handle:
            parsed = parse_openmetrics(handle.read())
        assert parsed["counters"]["c"] == 5
        assert parsed["eof"]

    def test_global_registry_round_trip(self):
        """The acceptance check: every metric in the process-global
        registry survives render → parse."""
        REGISTRY.counter("monitor.roundtrip.probe").inc(2)
        parsed = parse_openmetrics(render_openmetrics())
        assert len(parsed["counters"]) == len(REGISTRY.counters())
        assert len(parsed["gauges"]) == len(REGISTRY.gauges())
        assert len(parsed["summaries"]) == len(REGISTRY.histograms())
        for name, value in REGISTRY.counters().items():
            sanitized = name.replace(".", "_").replace("-", "_")
            assert parsed["counters"][sanitized] == value


class TestRequestTracingProbe:
    def test_quiet_process_is_ok(self, registry):
        from repro.obs.monitor import RequestTracingProbe

        probe = RequestTracingProbe()
        result = probe.check(registry, off_journal())
        assert result.verdict == OK
        assert "no traced requests" in result.detail

    def test_partial_tracing_is_ok(self, registry):
        from repro.obs.monitor import RequestTracingProbe

        probe = RequestTracingProbe(min_requests=10)
        registry.counter("session.requests").inc(100)
        registry.counter("session.requests.traced").inc(5)
        result = probe.check(registry, off_journal())
        assert result.verdict == OK
        assert "5 of 100" in result.detail

    def test_tracing_left_on_degrades(self, registry):
        from repro.obs.monitor import RequestTracingProbe

        probe = RequestTracingProbe(
            min_requests=10, degraded_fraction=0.9
        )
        registry.counter("session.requests").inc(50)
        registry.counter("session.requests.traced").inc(50)
        result = probe.check(registry, off_journal())
        assert result.verdict == DEGRADED
        assert "tracing left on" in result.detail

    def test_warmup_volume_does_not_degrade(self, registry):
        from repro.obs.monitor import RequestTracingProbe

        probe = RequestTracingProbe(min_requests=100)
        registry.counter("session.requests").inc(3)
        registry.counter("session.requests.traced").inc(3)
        result = probe.check(registry, off_journal())
        assert result.verdict == OK

    def test_in_default_probe_set(self):
        from repro.obs.monitor import RequestTracingProbe, default_probes

        assert any(
            isinstance(p, RequestTracingProbe) for p in default_probes()
        )
