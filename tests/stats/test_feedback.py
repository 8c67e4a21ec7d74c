"""The feedback log: observed selectivities from measured runs."""

import pytest

from repro.core.query import analyze, optimize
from repro.obs.metrics import REGISTRY
from repro.stats import adaptive, feedback
from repro.stats.feedback import FeedbackLog, Observation
from repro.workloads.queries import employees_catalog, employees_query


class TestObservation:
    def test_observed_selectivity(self):
        obs = Observation("Dept == 'Manuf'", "emp", 1.0, 5, 2)
        assert obs.observed_selectivity == pytest.approx(0.4)

    def test_zero_rows_in(self):
        obs = Observation("x", None, 1.0, 0, 0)
        assert obs.observed_selectivity == 0.0

    def test_drift_ratio_symmetric_and_finite(self):
        over = Observation("x", None, 8.0, 10, 2)
        under = Observation("x", None, 2.0, 10, 8)
        assert over.drift_ratio == pytest.approx(4.0)
        assert under.drift_ratio == pytest.approx(4.0)
        empty = Observation("x", None, 0.0, 10, 0)
        assert empty.drift_ratio == 1.0


class TestFeedbackLog:
    def test_ring_evicts_oldest(self):
        log = FeedbackLog(capacity=2)
        for i in range(3):
            log.record(Observation("p%d" % i, None, 1.0, 10, i))
        assert len(log) == 2
        kept = {o.predicate for o in log.observations()}
        assert kept == {"p1", "p2"}

    def test_observed_selectivity_averages_per_predicate(self):
        log = FeedbackLog()
        log.record(Observation("p", None, 1.0, 10, 2))
        log.record(Observation("p", None, 1.0, 10, 4))
        log.record(Observation("q", None, 1.0, 10, 9))
        assert log.observed_selectivity("p") == pytest.approx(0.3)
        assert log.observed_selectivity("missing") is None

    def test_last_returns_arrival_order_across_ring_wrap(self):
        log = FeedbackLog(capacity=3)
        for i in range(5):  # p0..p4; ring keeps p2, p3, p4
            log.record(Observation("p%d" % i, None, 1.0, 10, i))
        assert [o.predicate for o in log.last()] == ["p2", "p3", "p4"]
        assert [o.predicate for o in log.last(2)] == ["p3", "p4"]
        assert log.last(0) == ()

    def test_last_before_wrap_preserves_insertion_order(self):
        log = FeedbackLog(capacity=10)
        for i in range(4):
            log.record(Observation("p%d" % i, None, 1.0, 10, i))
        assert [o.predicate for o in log.last(3)] == ["p1", "p2", "p3"]

    def test_record_publishes_planner_accuracy_gauges(self):
        log = FeedbackLog()
        obs = Observation("Dept == 'Manuf'", "emp", 4.0, 10, 2)
        log.record(obs)
        gauges = {
            name: REGISTRY.gauge(name).value
            for name in (
                "stats.feedback.observed_selectivity",
                "stats.feedback.estimated_rows",
                "stats.feedback.drift_ratio",
            )
        }
        assert gauges["stats.feedback.observed_selectivity"] == (
            pytest.approx(obs.observed_selectivity)
        )
        assert gauges["stats.feedback.estimated_rows"] == pytest.approx(4.0)
        assert gauges["stats.feedback.drift_ratio"] == pytest.approx(
            obs.drift_ratio
        )

    def test_gauges_track_the_latest_observation(self):
        log = FeedbackLog()
        log.record(Observation("p", None, 8.0, 10, 1))
        log.record(Observation("q", None, 2.0, 10, 5))
        gauge = REGISTRY.gauge("stats.feedback.observed_selectivity")
        assert gauge.value == pytest.approx(0.5)  # the q reading, not p's

    def test_summary(self):
        log = FeedbackLog()
        assert log.summary() == {"observations": 0}
        log.record(Observation("p", None, 2.0, 10, 4))
        summary = log.summary()
        assert summary["observations"] == 1
        assert summary["max_drift"] == pytest.approx(2.0)

    def test_eviction_keeps_newest_after_many_wraps(self):
        # Sustained load cycles the ring many times over; the window
        # must always hold exactly the newest `capacity` observations.
        log = FeedbackLog(capacity=4)
        for i in range(25):
            log.record(Observation("p%d" % i, None, 1.0, 10, 1))
        assert len(log) == 4
        assert [o.predicate for o in log.last(4)] == [
            "p21", "p22", "p23", "p24",
        ]

    def test_structured_observation_trains_adaptive_store(self):
        log = FeedbackLog()
        log.record(
            Observation(
                "Status == 'failed'", "orders", 40.0, 400, 8,
                attribute="Status", op="==", operand="failed",
            )
        )
        posterior = adaptive.ADAPTIVE.posterior(
            "orders", "Status", "==", "failed"
        )
        assert posterior is not None
        assert posterior.mean == pytest.approx(0.02)

    def test_free_form_observation_does_not_train(self):
        log = FeedbackLog()
        log.record(Observation("Dept == 'Manuf'", "emp", 1.0, 5, 2))
        assert len(adaptive.ADAPTIVE) == 0

    def test_bind_epoch_reset_decays_stale_evidence(self):
        # A long-lived log can outlast the catalog that produced its
        # observations: after a reset the epoch counter restarts at 0,
        # and evidence from high epochs must fade, not dominate.
        log = FeedbackLog()
        log.record(
            Observation(
                "A == 'x'", "r", 10.0, 100, 90,
                attribute="A", op="==", operand="x", epoch=6,
            )
        )
        fresh = adaptive.ADAPTIVE.posterior("r", "A", "==", "x", epoch=0)
        assert fresh.weight == pytest.approx(0.5 ** 6)
        assert fresh.weight < adaptive.ADAPTIVE.min_weight


class TestExecutorIntegration:
    def test_analyze_records_selection_observations(self):
        catalog = employees_catalog()
        analyze(optimize(employees_query(), catalog), catalog)
        matching = [
            o
            for o in feedback.FEEDBACK.observations()
            if "Manuf" in o.predicate
        ]
        assert matching
        obs = matching[0]
        assert obs.rows_in == 5
        assert obs.rows_out == 2
        assert obs.observed_selectivity == pytest.approx(0.4)
        assert obs.relation == "emp"

    def test_index_scan_records_base_relation(self):
        from repro.workloads.queries import orders_catalog, orders_query

        catalog = orders_catalog(rows=100)
        plan = optimize(orders_query("failed"), catalog)
        analyze(plan, catalog)
        matching = [
            o
            for o in feedback.FEEDBACK.observations()
            if o.relation == "orders"
        ]
        assert matching
