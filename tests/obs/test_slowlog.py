"""The slow-query log: capture, hooks, and journal round-trips."""

import pytest

from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import eq, explain_analyze, optimize, scan
from repro.lang.eval import Interpreter
from repro.obs import events, slowlog, trace
from repro.obs.export import read_journal, write_journal
from repro.obs.slowlog import SlowLog, SlowQueryEntry


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


class TestSlowLogRing:
    def test_threshold_gates_recording(self):
        log = SlowLog(threshold_ms=10.0)
        assert log.would_record(0.020)
        assert not log.would_record(0.005)

    def test_ring_is_bounded_and_total_counts_everything(self):
        log = SlowLog(threshold_ms=0.0, capacity=3)
        for i in range(10):
            log.record("plan", "q%d" % i, 0.001)
        assert len(log) == 3
        assert log.total == 10
        assert [e.query for e in log.entries()] == ["q7", "q8", "q9"]

    def test_entries_limit_returns_newest(self):
        log = SlowLog(threshold_ms=0.0)
        for i in range(5):
            log.record("plan", "q%d" % i, 0.001)
        assert [e.query for e in log.entries(2)] == ["q3", "q4"]

    def test_measure_records_only_over_threshold(self):
        ticks = iter([0.0, 0.001, 1.0, 2.0])
        log = SlowLog(threshold_ms=50.0, clock=lambda: next(ticks))
        with log.measure("plan", "fast"):
            pass  # 1ms — under
        with log.measure("plan", "slow"):
            pass  # 1000ms — over
        assert [e.query for e in log.entries()] == ["slow"]
        assert log.entries()[0].elapsed_ms == pytest.approx(1000.0)

    def test_measure_resolves_lazy_text_only_when_slow(self):
        rendered = []

        def plan_text():
            rendered.append(True)
            return "the plan"

        ticks = iter([0.0, 0.001, 0.0, 1.0])
        log = SlowLog(threshold_ms=50.0, clock=lambda: next(ticks))
        with log.measure("plan", "fast", plan=plan_text):
            pass
        assert rendered == []  # fast path never rendered the plan
        with log.measure("plan", "slow", plan=plan_text):
            pass
        assert rendered == [True]
        assert log.entries()[0].plan == "the plan"

    def test_long_query_text_is_truncated(self):
        log = SlowLog(threshold_ms=0.0)
        entry = log.record("lang", "x" * 1000, 0.001)
        assert len(entry.query) <= 200

    def test_report_table_and_empty_message(self):
        log = SlowLog(threshold_ms=5.0)
        assert "no slow queries" in log.report()
        log.record("plan", "scan(emp)", 0.010, drift=2.0)
        text = log.report()
        assert "scan(emp)" in text
        assert "2.00" in text

    def test_to_dict_is_json_compatible(self):
        import json

        entry = SlowQueryEntry(
            seq=1, kind="plan", query="q", elapsed_ms=5.0,
            threshold_ms=1.0, pairs_tried=3, pairs_pruned=7,
        )
        payload = json.loads(json.dumps(entry.to_dict()))
        assert payload["kind"] == "plan"
        assert payload["pairs_tried"] == 3

    def test_enable_keeps_entries_and_updates_threshold(self):
        log = slowlog.enable(threshold_ms=0.0)
        log.record("plan", "q", 0.001)
        again = slowlog.enable(threshold_ms=75.0)
        assert again is log
        assert again.threshold_ms == 75.0
        assert len(again) == 1
        slowlog.disable()


class TestExecuteHook:
    def test_outermost_plan_records_one_entry_with_plan_summary(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=0.0)
        log.clear()
        plan = optimize(
            scan("emp").join(scan("dept")).where(eq("Dept", "Sales")),
            catalog,
        )
        plan.execute(catalog)
        entries = log.entries()
        # One entry for the whole tree, not one per node.
        assert len(entries) == 1
        assert entries[0].kind == "plan"
        assert "Join" in entries[0].plan
        assert "Scan(dept)" in entries[0].plan

    def test_disabled_log_records_nothing(self):
        catalog = make_catalog()
        slowlog.disable()
        optimize(scan("emp"), catalog).execute(catalog)
        assert slowlog.CURRENT.entries() == []

    def test_explain_analyze_records_drift(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=0.0)
        log.clear()
        plan = scan("emp").where(eq("Dept", "Sales"))
        explain_analyze(plan, catalog)
        explains = [e for e in log.entries() if e.kind == "explain"]
        assert len(explains) == 1
        assert explains[0].drift is not None
        assert explains[0].drift >= 1.0

    def test_under_threshold_plan_is_not_recorded(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=10_000.0)
        log.clear()
        optimize(scan("emp"), catalog).execute(catalog)
        assert log.entries() == []

    def test_lang_run_records_source_snippet(self):
        log = slowlog.enable(threshold_ms=0.0)
        log.clear()
        Interpreter().run("6 * 7")
        langs = [e for e in log.entries() if e.kind == "lang"]
        assert len(langs) == 1
        assert langs[0].query == "6 * 7"

    def test_span_correlation_when_tracing(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=0.0)
        log.clear()
        tracer = trace.enable()
        optimize(scan("emp"), catalog).execute(catalog)
        entry = log.entries()[-1]
        assert entry.span is not None
        # Read the spans before disable(), which drops them.
        assert entry.span in {s.seq for s in tracer.spans()}
        trace.disable()

    def test_pairs_deltas_attributed_to_the_entry(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=0.0)
        log.clear()
        plan = optimize(scan("emp").join(scan("dept")), catalog)
        plan.execute(catalog)
        entry = log.entries()[-1]
        assert entry.pairs_tried > 0


class TestRequestCorrelation:
    def test_entry_adopts_the_thread_request_context(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=0.0)
        log.clear()
        previous = trace.set_request_id("s03-c7")
        try:
            optimize(scan("emp"), catalog).execute(catalog)
        finally:
            trace.set_request_id(previous)
        entry = log.entries()[-1]
        assert entry.request == "s03-c7"
        assert entry.to_dict()["request"] == "s03-c7"

    def test_no_context_leaves_request_none(self):
        catalog = make_catalog()
        log = slowlog.enable(threshold_ms=0.0)
        log.clear()
        optimize(scan("emp"), catalog).execute(catalog)
        assert log.entries()[-1].request is None

    def test_for_request_filters_retained_entries(self):
        log = SlowLog(threshold_ms=0.0)
        previous = trace.set_request_id("r1")
        log.record("plan", "q1", 0.001)
        trace.set_request_id("r2")
        log.record("plan", "q2", 0.001)
        trace.set_request_id(previous)
        assert [e.query for e in log.for_request("r1")] == ["q1"]
        assert [e.query for e in log.for_request("r2")] == ["q2"]
        assert log.for_request("r3") == []

    def test_report_renders_the_request_column(self):
        log = SlowLog(threshold_ms=0.0)
        previous = trace.set_request_id("s01-c4")
        log.record("plan", "scan emp", 5.0)
        trace.set_request_id(previous)
        report = log.report()
        assert "request" in report.splitlines()[1]  # header row
        assert "s01-c4" in report


class TestJournalRoundTrip:
    def test_slow_entries_publish_warn_events(self):
        journal = events.enable(capacity=64)
        log = slowlog.enable(threshold_ms=0.0)
        log.record("plan", "scan(emp)", 0.002, drift=1.5)
        warns = journal.events(subsystem="slowlog")
        assert len(warns) == 1
        assert warns[0].severity == "WARN"
        assert warns[0].name == "slow_query"
        assert warns[0].payload["query"] == "scan(emp)"
        assert warns[0].payload["drift"] == 1.5

    def test_slow_entries_survive_write_read_journal(self, tmp_path):
        events.enable(capacity=64)
        log = slowlog.enable(threshold_ms=0.0)
        log.record(
            "explain", "IndexScan(orders)", 0.050,
            drift=4.76, pairs_tried=12, pairs_pruned=88,
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
        assert payload["drift"] == 4.76
        assert payload["pairs_pruned"] == 88
        assert payload["elapsed_ms"] == pytest.approx(50.0)
