"""The slow-query log: a threshold over wide events, its capture points,
and journal round-trips."""

import json

import pytest

from repro.core import query as query_mod
from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import analyze, eq, explain_analyze, optimize, scan
from repro.lang.eval import Interpreter
from repro.obs import events, slowlog, trace
from repro.obs.export import read_journal, write_journal
from repro.obs.slowlog import SlowLog
from repro.obs.wide import REPORT_HEADER, WideEvent, counters_snapshot
from repro.server.session import Session


def make_catalog():
    emp = FlatRelation(
        ("Emp", "Dept", "Salary"),
        [
            ("Smith", "Sales", 40),
            ("Jones", "Sales", 50),
            ("Brown", "Manuf", 40),
            ("Green", "Manuf", 60),
        ],
    )
    dept = FlatRelation(
        ("Dept", "City"),
        [("Sales", "Glasgow"), ("Manuf", "Lochgilphead")],
    )
    return Catalog({"emp": emp, "dept": dept})


def make_event(query="q", elapsed_ms=1.0, request_id="r1", **fields):
    return WideEvent(
        request_id=request_id,
        session="s01",
        mode="eval",
        query=query,
        ok=True,
        elapsed_ms=elapsed_ms,
        **fields,
    )


class TestSlowLogRing:
    def test_threshold_gates_recording(self):
        log = SlowLog(threshold_ms=10.0)
        assert log.offer(make_event("fast", elapsed_ms=5.0)) is None
        slow = make_event("slow", elapsed_ms=20.0)
        assert log.offer(slow) is slow
        at_threshold = make_event("edge", elapsed_ms=10.0)
        assert log.offer(at_threshold) is at_threshold
        assert [e.query for e in log.last()] == ["slow", "edge"]
        assert slow.slow and not make_event().slow

    def test_ring_is_bounded_and_total_counts_everything(self):
        log = SlowLog(threshold_ms=0.0, capacity=3)
        for i in range(10):
            log.offer(make_event("q%d" % i))
        assert len(log) == 3
        assert log.total == 10
        assert [e.query for e in log.last()] == ["q7", "q8", "q9"]

    def test_entries_limit_returns_newest(self):
        log = SlowLog(threshold_ms=0.0)
        for i in range(5):
            log.offer(make_event("q%d" % i))
        assert [e.query for e in log.last(2)] == ["q3", "q4"]

    def test_measure_records_only_over_threshold(self):
        # A session request is timed once; the slow log keeps that
        # record only when the time reaches the threshold.
        session = Session(session_id="m")
        log = slowlog.enable(threshold_ms=60_000.0)
        session.run("1 + 1")
        assert log.last() == [] and len(session.request_log) == 1
        slowlog.enable(threshold_ms=0.0)
        session.run("2 + 2")
        assert [e.query for e in log.last()] == ["2 + 2"]

    def test_measure_resolves_lazy_text_only_when_slow(self, monkeypatch):
        rendered = []
        condensed = query_mod._condensed_plan

        def counting(plan):
            rendered.append(plan)
            return condensed(plan)

        monkeypatch.setattr(query_mod, "_condensed_plan", counting)
        catalog = make_catalog()
        plan = optimize(scan("emp"), catalog)
        log = slowlog.enable(threshold_ms=60_000.0)
        plan.execute(catalog)
        assert rendered == []  # a fast run never renders the plan
        slowlog.enable(threshold_ms=0.0)
        plan.execute(catalog)
        assert rendered == [plan]
        assert log.last()[0].query == condensed(plan)

    def test_long_query_text_is_truncated(self):
        log = slowlog.enable(threshold_ms=0.0)
        source = "1" + " + 1" * 400
        Session().run(source)
        assert log.last()[0].query == source[:200]

    def test_report_table_and_empty_message(self):
        log = SlowLog(threshold_ms=5.0)
        assert log.report() == "(no slow queries over 5.0ms)"
        log.offer(make_event("scan(emp)", elapsed_ms=10.0, est_rows=2.0,
                             act_rows=4))
        lines = log.report().splitlines()
        assert lines[0] == (
            "slow queries (threshold 5.0ms, showing 1 of 1 recorded):"
        )
        assert lines[1] == REPORT_HEADER
        assert "2/4" in lines[2] and "SLOW scan(emp)" in lines[2]

    def test_to_dict_is_json_compatible(self):
        log = SlowLog(threshold_ms=0.0)
        event = log.offer(make_event(counters={"pairs_tried": 3}))
        payload = json.loads(json.dumps(event.to_dict()))
        assert payload["mode"] == "eval"
        assert payload["pairs_tried"] == 3
        assert payload["slow"] is True

    def test_enable_keeps_entries_and_updates_threshold(self):
        log = slowlog.enable(threshold_ms=0.0)
        log.offer(make_event())
        again = slowlog.enable(threshold_ms=75.0)
        assert again is log
        assert again.threshold_ms == 75.0
        assert len(again) == 1


class TestExecuteHook:
    def test_outermost_plan_records_one_entry_with_plan_summary(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=0.0)
        plan = optimize(
            scan("emp").join(scan("dept")).where(eq("Dept", "Sales")),
            catalog,
        )
        plan.execute(catalog)
        entries = log.last()
        # One record for the whole tree, not one per node.
        assert len(entries) == 1
        assert entries[0].mode == "plan"
        assert entries[0].session is None
        assert "Join" in entries[0].query
        assert "Scan(dept)" in entries[0].query

    def test_disabled_log_records_nothing(self):
        catalog = make_catalog()
        slowlog.disable()
        optimize(scan("emp"), catalog).execute(catalog)
        Session().run("1 + 1")
        assert slowlog.CURRENT.last() == []
        assert slowlog.CURRENT.total == 0

    def test_explain_analyze_records_drift(self):
        catalog = make_catalog()
        plan = scan("emp").join(scan("dept")).where(eq("Dept", "Sales"))
        __, stats = analyze(plan, catalog)
        worst = max(stats.walk(), key=lambda node: node.drift_ratio)
        log = slowlog.enable(threshold_ms=0.0)
        explain_analyze(plan, catalog)
        explains = [e for e in log.last() if e.mode == "explain"]
        assert len(explains) == 1
        assert (explains[0].est_rows, explains[0].act_rows) == (
            worst.estimate,
            worst.rows_out,
        )
        assert worst.drift_ratio > 1.0  # the pair shows a real drift

    def test_under_threshold_plan_is_not_recorded(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=10_000.0)
        optimize(scan("emp"), catalog).execute(catalog)
        explain_analyze(scan("emp"), catalog)
        assert log.last() == []

    def test_lang_run_records_source_snippet(self):
        log = slowlog.enable(threshold_ms=0.0)
        Interpreter().run("6 * 7")
        assert log.last() == []  # a bare interpreter run is no request
        Session(session_id="l").run("6 * 7")
        (entry,) = log.last()
        assert (entry.mode, entry.query, entry.session) == ("eval", "6 * 7", "l")

    def test_span_correlation_when_tracing(self):
        log = slowlog.enable(threshold_ms=0.0)
        trace.enable()
        reply = Session().run("6 * 7")
        entry = log.last()[-1]
        # The record carries its own span trees, harvested under its id.
        assert [root["name"] for root in entry.spans] == ["lang.run"]
        assert entry.spans[0]["tags"]["request_id"] == reply["request_id"]

    def test_pairs_deltas_attributed_to_the_entry(self):
        catalog = make_catalog()
        plan = optimize(scan("emp").join(scan("dept")), catalog)
        log = slowlog.enable(threshold_ms=0.0)
        before = counters_snapshot()
        plan.execute(catalog)
        after = counters_snapshot()
        entry = log.last()[-1]
        assert entry.counters["pairs_tried"] > 0
        assert entry.counters == {
            field: after[field] - before[field] for field in after
        }


class TestOneRecordPerRequest:
    @pytest.mark.parametrize(
        "mode, source", [("eval", "40 + 2"), ("type", "40 + 2"), ("ast", "40 + 2")]
    )
    def test_slow_entry_is_the_request_log_entry(self, mode, source):
        log = slowlog.enable(threshold_ms=0.0)
        session = Session(session_id="one")
        reply = session.run(source, mode=mode)
        (kept,) = log.last()
        assert kept is session.request_log.find(reply["request_id"])
        assert kept.mode == mode and kept.slow
        assert kept.format() in session.stat("slow")["text"].splitlines()
        assert kept.format() in session.stat("requests")["text"].splitlines()

    def test_failed_request_is_kept_once(self):
        log = slowlog.enable(threshold_ms=0.0)
        session = Session(session_id="bad")
        with pytest.raises(Exception):
            session.run("undefined_name")
        (kept,) = log.last()
        assert kept is session.request_log.last(1)[0]
        assert not kept.ok


class TestRequestCorrelation:
    def test_entry_adopts_the_thread_request_context(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=0.0)
        previous = trace.set_request_id("s03-c7")
        try:
            optimize(scan("emp"), catalog).execute(catalog)
        finally:
            trace.set_request_id(previous)
        entry = log.last()[-1]
        assert entry.request_id == "s03-c7"
        assert entry.to_dict()["request_id"] == "s03-c7"

    def test_no_context_leaves_request_none(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=0.0)
        optimize(scan("emp"), catalog).execute(catalog)
        entry = log.last()[-1]
        assert entry.request_id is None
        assert entry.format().startswith("-  ")

    def test_for_request_filters_retained_entries(self):
        log = SlowLog(threshold_ms=0.0)
        first = log.offer(make_event("q1", request_id="r1"))
        log.offer(make_event("q2", request_id="r2"))
        assert log.find("r1") is first
        assert log.find("r2").query == "q2"
        assert log.find("r3") is None

    def test_report_renders_the_request_column(self):
        log = SlowLog(threshold_ms=0.0)
        log.offer(make_event("scan emp", request_id="s01-c4"))
        report = log.report()
        assert "request" in report.splitlines()[1]  # header row
        assert report.splitlines()[2].startswith("s01-c4 ")


class TestJournalRoundTrip:
    def test_slow_entries_publish_warn_events(self):
        journal = events.enable(capacity=64)
        log = slowlog.enable(threshold_ms=0.0)
        event = log.offer(make_event("scan(emp)", elapsed_ms=2.0))
        warns = journal.events(subsystem="slowlog")
        assert len(warns) == 1
        assert warns[0].severity == "WARN"
        assert warns[0].name == "slow_query"
        expected = dict(event.to_dict(spans=False), threshold_ms=0.0)
        assert warns[0].payload == expected

    def test_slow_entries_survive_write_read_journal(self, tmp_path):
        events.enable(capacity=64)
        log = slowlog.enable(threshold_ms=0.0)
        log.offer(
            make_event(
                "IndexScan(orders)", elapsed_ms=50.0, est_rows=21.0,
                act_rows=100, counters={"pairs_tried": 12, "pairs_pruned": 88},
            )
        )
        path = str(tmp_path / "session.jsonl")
        write_journal(path)
        restored = [
            e for e in read_journal(path)
            if e["subsystem"] == "slowlog" and e["name"] == "slow_query"
        ]
        assert len(restored) == 1
        payload = restored[0]["payload"]
        assert payload["query"] == "IndexScan(orders)"
        assert (payload["est_rows"], payload["act_rows"]) == (21.0, 100)
        assert payload["pairs_pruned"] == 88
        assert payload["elapsed_ms"] == pytest.approx(50.0)
        assert payload["threshold_ms"] == 0.0
