"""Counter/histogram behavior and the registry's JSON-able snapshot."""

import json
import threading

import pytest

from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
)


class TestCounter:
    def test_inc_default_and_delta(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_reset(self):
        counter = Counter("c")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.mean == 2.5

    def test_empty_histogram_is_well_defined(self):
        histogram = Histogram("h")
        assert histogram.mean == 0.0
        assert histogram.quantile(0.95) == 0.0
        snap = histogram.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_percentiles_on_known_data(self):
        histogram = Histogram("h")
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(0.5) == 49.5
        assert histogram.quantile(0.95) == pytest.approx(94.05)
        assert histogram.quantile(1.0) == 99.0

    def test_snapshot_and_exposition_agree_on_percentiles(self):
        """One percentile rule per histogram: the snapshot's p50/p95 are
        the interpolated quantiles the OpenMetrics exposition reads."""
        from repro.obs.monitor import parse_openmetrics, render_openmetrics

        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in list(range(1, 10)) + [100]:
            histogram.observe(float(value))
        snap = histogram.snapshot()
        assert snap["p95"] == pytest.approx(59.05)
        assert snap["p50"] == pytest.approx(5.5)
        exposed = parse_openmetrics(render_openmetrics(registry))
        quantiles = exposed["summaries"]["h"]["quantiles"]
        assert quantiles[0.95] == pytest.approx(snap["p95"])
        assert quantiles[0.5] == pytest.approx(snap["p50"])

    def test_sample_ring_is_bounded_but_stats_are_exact(self):
        histogram = Histogram("h", sample_cap=8)
        for value in range(100):
            histogram.observe(float(value))
        assert len(histogram._samples) == 8
        # Count/sum/extrema cover *all* observations, not just the ring.
        assert histogram.count == 100
        assert histogram.max == 99.0
        assert histogram.min == 0.0

    def test_snapshot_shape(self):
        histogram = Histogram("h")
        histogram.observe(2.5)
        snap = histogram.snapshot()
        assert set(snap) == {"count", "sum", "min", "max", "mean", "p50", "p95"}
        assert snap["count"] == 1
        assert snap["sum"] == 2.5


class TestHistogramQuantile:
    """``quantile(q)`` on the 0..1 scale (the monitor digests' accessor)."""

    def test_empty_histogram_answers_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_single_sample_answers_that_sample(self):
        histogram = Histogram("h")
        histogram.observe(7.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 7.25

    def test_q0_and_q1_are_the_retained_extremes(self):
        histogram = Histogram("h")
        for value in (5.0, 1.0, 3.0, 9.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 9.0

    def test_interpolates_between_ranks(self):
        histogram = Histogram("h")
        for value in (0.0, 10.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 5.0
        assert histogram.quantile(0.25) == 2.5

    def test_known_quantiles_on_uniform_data(self):
        histogram = Histogram("h")
        for value in range(101):
            histogram.observe(float(value))
        assert histogram.quantile(0.5) == 50.0
        assert histogram.quantile(0.95) == 95.0
        assert histogram.quantile(0.99) == 99.0

    def test_out_of_range_q_raises(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        for q in (-0.1, 1.1, 100.0):
            try:
                histogram.quantile(q)
            except ValueError:
                continue
            raise AssertionError("quantile(%r) should raise" % q)

    def test_quantile_reads_the_bounded_ring(self):
        histogram = Histogram("h", sample_cap=8)
        for value in range(100):
            histogram.observe(float(value))
        # Only the most recent 8 samples (92..99) are retained.
        assert histogram.quantile(0.0) == 92.0
        assert histogram.quantile(1.0) == 99.0


class TestMetricsRegistry:
    def test_counter_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        first = registry.counter("x")
        first.inc()
        assert registry.counter("x") is first
        assert registry.counter("x").value == 1

    def test_histogram_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_is_json_compatible(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc(7)
        registry.histogram("lat").observe(0.25)
        snap = registry.snapshot()
        assert snap["counters"] == {"ops": 7}
        assert snap["histograms"]["lat"]["count"] == 1
        # Round-trips through JSON without custom encoders.
        assert json.loads(json.dumps(snap)) == snap

    def test_to_json_parses_back(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        parsed = json.loads(registry.to_json(indent=2))
        assert parsed["counters"]["a"] == 1

    def test_reset_zeroes_in_place_keeping_handles_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        histogram = registry.histogram("h")
        counter.inc(9)
        histogram.observe(1.0)
        registry.reset()
        assert counter.value == 0
        assert histogram.count == 0
        # Cached handles keep recording into the registry after reset.
        counter.inc()
        histogram.observe(2.0)
        assert registry.snapshot()["counters"]["c"] == 1
        assert registry.snapshot()["histograms"]["h"]["count"] == 1

    def test_format_lists_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("store.appends").inc(3)
        registry.histogram("store.sync.seconds").observe(0.001)
        text = registry.format()
        assert "counters:" in text
        assert "store.appends" in text
        assert "histograms:" in text
        assert "store.sync.seconds" in text

    def test_format_when_empty(self):
        assert MetricsRegistry().format() == "(no metrics recorded)"

    def test_global_registry_is_shared(self):
        assert get_metrics() is REGISTRY
        before = REGISTRY.counter("test.metrics.shared").value
        REGISTRY.counter("test.metrics.shared").inc()
        assert REGISTRY.counter("test.metrics.shared").value == before + 1


class TestThreadSafety:
    def test_concurrent_increments_lose_no_counts(self):
        """`value += delta` is several bytecodes; the lock must make
        racing increments exact, not approximate."""
        registry = MetricsRegistry()
        per_thread = 10_000

        def hammer():
            for _ in range(per_thread):
                registry.counter("racy").inc()
                registry.histogram("racy.lat").observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("racy").value == 8 * per_thread
        assert registry.histogram("racy.lat").count == 8 * per_thread

    def test_concurrent_get_or_create_mints_one_handle(self):
        registry = MetricsRegistry()
        handles = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            handles.append(registry.counter("minted.once"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(h is handles[0] for h in handles)

    def test_gauge_set_and_reset(self):
        gauge = Gauge("level")
        gauge.set(3.5)
        assert gauge.value == 3.5
        gauge.reset()
        assert gauge.value == 0.0
