"""Wide events: the one-record-per-request log behind ``:requests``."""

import json

from repro.obs import metrics
from repro.obs.slowlog import SlowLog
from repro.obs.wide import (
    REPORT_HEADER,
    RequestLog,
    WideEvent,
    counters_snapshot,
)


def make_event(request_id="s01-r1", **overrides):
    fields = dict(
        request_id=request_id,
        session="s01",
        mode="eval",
        query="6 * 7",
        ok=True,
        elapsed_ms=1.25,
    )
    fields.update(overrides)
    return WideEvent(**fields)


class TestCountersSnapshot:
    def test_reads_watched_counters(self):
        metrics.reset_metrics()
        metrics.REGISTRY.counter("columnar.batches").inc(3)
        metrics.REGISTRY.counter("relation.join.pairs_tried").inc(5)
        metrics.REGISTRY.counter("flat.join.pairs_tried").inc(2)
        snapshot = counters_snapshot()
        assert snapshot["batches"] == 3
        assert snapshot["pairs_tried"] == 7  # both variants summed
        assert snapshot["adaptive_corrections"] == 0
        metrics.reset_metrics()

    def test_snapshot_is_a_pure_read(self):
        # Probing must not register the watched names (reset keeps
        # already-registered counters around at zero, so compare sets).
        before = set(metrics.REGISTRY.snapshot()["counters"])
        counters_snapshot()
        assert set(metrics.REGISTRY.snapshot()["counters"]) == before


class TestWideEvent:
    def test_query_text_is_capped(self):
        event = make_event(query="x" * 1000)
        assert len(event.query) == 200

    def test_slow_flag_is_set_by_the_slow_log(self):
        event = make_event(elapsed_ms=120.0)
        assert not event.slow and not event.to_dict()["slow"]
        assert SlowLog(threshold_ms=100.0).offer(event) is event
        assert event.slow and event.to_dict()["slow"]
        assert "slow_ms" not in event.to_dict()

    def test_to_dict_flattens_counters_and_is_json_safe(self):
        event = make_event(
            counters={"batches": 2, "pairs_tried": 9},
            spans=[{"name": "lang.run", "children": []}],
        )
        record = event.to_dict()
        assert record["batches"] == 2
        assert record["pairs_tried"] == 9
        assert record["spans"][0]["name"] == "lang.run"
        json.dumps(record)  # must not raise

    def test_to_dict_can_drop_spans(self):
        event = make_event(spans=[{"name": "lang.run", "children": []}])
        assert "spans" not in event.to_dict(spans=False)

    def test_format_row_flags_failures_and_slowness(self):
        event = make_event(ok=False, error="boom")
        event.slow = True
        row = event.format()
        assert "ERR" in row
        assert "SLOW" in row
        assert "6 * 7" in row

    def test_format_renders_est_vs_act(self):
        row = make_event(est_rows=30.0, act_rows=4).format()
        assert "30/4" in row


class TestRequestLog:
    def test_ring_is_bounded_and_total_keeps_counting(self):
        log = RequestLog(capacity=3)
        for i in range(7):
            log.append(make_event("r%d" % i))
        assert len(log) == 3
        assert log.total == 7
        assert [e.request_id for e in log.last(10)] == ["r4", "r5", "r6"]

    def test_find_by_exact_request_id(self):
        log = RequestLog()
        log.append(make_event("r1"))
        target = log.append(make_event("r2"))
        assert log.find("r2") is target
        assert log.find("nope") is None

    def test_format_empty(self):
        assert RequestLog().format() == "(no requests recorded)"

    def test_format_reports_evictions(self):
        log = RequestLog(capacity=2)
        for i in range(5):
            log.append(make_event("r%d" % i))
        text = log.format()
        assert text.splitlines()[0] == REPORT_HEADER
        assert "(3 older request(s) evicted)" in text

    def test_capacity_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError):
            RequestLog(capacity=0)
