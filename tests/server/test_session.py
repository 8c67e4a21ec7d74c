"""Sessions: run modes, the stat surface, and isolation over shared state."""

import sys
import threading
import time

import pytest

from repro.errors import EvalError, SessionClosedError, TypeCheckError
from repro.obs import events, slowlog, trace
from repro.obs.metrics import reset_metrics
from repro.persistence.mvcc import TransactionManager
from repro.persistence.store import LogStore
from repro.server.session import OBS_KINDS, STAT_KINDS, Session


@pytest.fixture(autouse=True)
def clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


class TestRun:
    def test_eval_returns_formatted_value(self):
        session = Session()
        reply = session.run("2 + 3")
        assert reply["value"] == "5"
        assert reply["output"] == []
        assert reply["elapsed"] >= 0.0

    def test_declaration_has_no_value(self):
        session = Session()
        assert session.run("let x = 1")["value"] is None
        assert session.run("x")["value"] == "1"

    def test_output_lines_are_per_run(self):
        session = Session()
        first = session.run('print("a"); print("b"); 1')
        second = session.run('print("c"); 2')
        assert first["output"] == ['"a"', '"b"']
        assert second["output"] == ['"c"']

    def test_type_mode_does_not_commit(self):
        session = Session()
        assert session.run("let y = 1", mode="type")["value"] == "<declaration>"
        with pytest.raises(TypeCheckError):
            session.run("y")

    def test_type_mode_sees_session_bindings(self):
        session = Session()
        session.run("let n = 4")
        assert session.run("n * n", mode="type")["value"] == "Int"

    def test_ast_mode(self):
        session = Session()
        assert "1" in session.run("1 + 2", mode="ast")["value"]

    def test_unknown_mode(self):
        with pytest.raises(EvalError, match="unknown run mode"):
            Session().run("1", mode="compile")

    def test_errors_propagate(self):
        with pytest.raises(TypeCheckError):
            Session().run("1 + true")


class TestIsolation:
    def test_bindings_are_private_extents_are_shared_in_memory(self):
        shared = TransactionManager()
        first = Session(store=shared, session_id="a")
        second = Session(store=shared, session_id="b")
        first.run("let secret = 41")
        first.run('extern("x", dynamic secret);')
        with pytest.raises(TypeCheckError):
            second.run("secret")
        reply = second.run('coerce intern("x") to Int + 1')
        assert reply["value"] == "42"

    def test_extents_are_shared_through_a_log_store(self, tmp_path):
        store = LogStore(str(tmp_path / "shared.log"))
        try:
            first = Session(store=store, session_id="a")
            second = Session(store=store, session_id="b")
            first.run('extern("n", dynamic 7);')
            assert second.run('coerce intern("n") to Int')["value"] == "7"
        finally:
            store.close()


class TestLifecycle:
    def test_closed_session_refuses(self):
        session = Session(session_id="s01")
        session.close()
        with pytest.raises(SessionClosedError, match="s01"):
            session.run("1")
        with pytest.raises(SessionClosedError):
            session.stat("health")

    def test_requests_counted(self):
        session = Session()
        session.run("1")
        session.stat("health")
        assert session.requests == 2
        assert "2 request(s)" in session.describe()

    def test_scoped_journal_tags_session(self):
        events.enable()
        session = Session(session_id="s42", publish_runs=True)
        session.run("1 + 1")
        mine = session.journal.events(10)
        assert mine, "publish_runs should journal each request"
        assert all(e.payload.get("session") == "s42" for e in mine)

    def test_local_repl_sessions_do_not_journal_runs(self):
        events.enable()
        before = len(events.CURRENT.events(100))
        Session().run("1 + 1")
        assert len(events.CURRENT.events(100)) == before


class TestStat:
    def test_unknown_kind(self):
        with pytest.raises(EvalError, match="unknown stat kind"):
            Session().stat("flamegraph")

    def test_every_declared_kind_has_a_handler(self):
        session = Session()
        for kind in STAT_KINDS:
            assert hasattr(session, "_stat_%s" % kind)

    def test_stats_reports_registry(self):
        session = Session()
        session.run("1 + 1")
        assert "lang.runs" in session.stat("stats", target="")["text"]

    def test_slow_threshold_must_be_finite_and_not_negative(self):
        session = Session()
        session.stat("slow", action="threshold", threshold=5)
        for bad in ("abc", "nan", float("inf"), 10 ** 400, -1.0, None):
            with pytest.raises(EvalError, match="slow threshold"):
                session.stat("slow", action="threshold", threshold=bad)
        assert slowlog.CURRENT.threshold_ms == 5.0

    def test_stats_reset(self):
        session = Session()
        assert session.stat("stats", target="reset")["text"] == "metrics reset"

    def test_analyze_then_stats(self):
        session = Session()
        session.run(
            "let emp = relation(["
            '{Name = "A", Salary = 10}, {Name = "B", Salary = 20}])'
        )
        reply = session.stat("analyze", name="emp")
        assert reply["text"] == "analyzed emp: 2 rows, 2 columns"
        assert session.stat("stats", target="emp")["text"].startswith(
            "emp: 2 rows"
        )

    def test_analyze_non_relation(self):
        session = Session()
        session.run("let n = 3")
        with pytest.raises(EvalError, match="not a relation"):
            session.stat("analyze", name="n")

    def test_explain_runs_a_plan(self):
        session = Session()
        session.run(
            "let emp = relation(["
            '{Name = "A", Salary = 10}, {Name = "B", Salary = 20}])'
        )
        text = session.stat(
            "explain", source='rmatch(emp, {Name = "A"})'
        )["text"]
        assert "Scan" in text

    def test_health_text(self):
        text = Session().stat("health")["text"]
        assert "store.integrity" in text
        assert "server.sessions" in text

    def test_metrics_round_trips_openmetrics(self):
        from repro.obs.monitor import parse_openmetrics

        session = Session()
        session.run("1")
        parsed = parse_openmetrics(session.stat("metrics")["text"])
        assert parsed["eof"]
        assert any(
            name.startswith("lang_runs") for name in parsed["counters"]
        )

    def test_watch_renders(self):
        text = Session().stat("watch", horizon=5.0)["text"]
        assert text.startswith("monitor:")

    def test_events_toggle_and_show(self):
        session = Session()
        assert session.stat("events", action="on")["text"] == "journal on"
        session.run("1")
        events.publish("INFO", "test", "ping")
        shown = session.stat("events", action="show", count=5)["text"]
        assert "ping" in shown
        assert session.stat("events", action="off")["text"] == "journal off"
        assert (
            session.stat("events", action="show")["text"]
            == "journal is off — :events on"
        )

    def test_adaptive_status(self):
        text = Session().stat("adaptive", action="status")["text"]
        assert text.startswith("adaptive estimation is")

    def test_columnar_toggle_and_status(self):
        from repro.core import columnar as _columnar

        session = Session()
        try:
            assert (
                session.stat("columnar", action="on")["text"]
                == "columnar execution on"
            )
            assert _columnar.COLUMNAR.enabled
            status = session.stat("columnar", action="status")["text"]
            assert status.startswith("columnar execution is on")
            assert "plans lowered" in status and "batches" in status
            assert (
                session.stat("columnar", action="off")["text"]
                == "columnar execution off"
            )
            assert not _columnar.COLUMNAR.enabled
        finally:
            _columnar.disable()

    def test_sessions_without_broker(self):
        text = Session(session_id="solo").stat("sessions")["text"]
        assert "single local session" in text
        assert "solo" in text

    def test_slow_toggle(self):
        session = Session()
        assert "slow-query log on" in session.stat("slow", action="on")["text"]
        assert session.stat("slow", action="off")["text"] == "slow-query log off"


class TestRequestTracking:
    def test_every_reply_carries_a_request_id(self):
        session = Session(session_id="s07")
        assert session.run("1")["request_id"] == "s07-r1"
        assert session.run("2")["request_id"] == "s07-r2"

    def test_caller_supplied_request_id_is_adopted(self):
        session = Session()
        reply = session.run("1 + 1", request_id="s01-c9")
        assert reply["request_id"] == "s01-c9"
        assert session.request_log.find("s01-c9") is not None

    def test_traced_run_harvests_spans_off_the_global_tracer(self):
        session = Session(session_id="t")
        trace.enable()
        reply = session.run("6 * 7")
        trace.disable()
        assert trace.CURRENT.roots == []
        assert "lang.run" in reply["trace"]
        event = session.request_log.find(reply["request_id"])
        assert event.spans
        root = event.spans[0]
        assert root["tags"]["request_id"] == reply["request_id"]
        assert root["tags"]["session"] == "t"

    def test_untraced_run_has_no_trace_key(self):
        session = Session()
        assert "trace" not in session.run("1")

    def test_failed_run_is_recorded_with_its_error(self):
        session = Session()
        with pytest.raises(TypeCheckError):
            session.run("1 + true")
        events_ = session.request_log.last()
        assert len(events_) == 1
        assert not events_[0].ok
        assert events_[0].error

    def test_wide_event_counts_join_work(self):
        session = Session()
        session.run(
            'let a = relation([{Dept = "Sales", N = 1}]);'
            'let b = relation([{Dept = "Sales", M = 2}]);'
        )
        reply = session.run("rjoin(a, b)")
        event = session.request_log.find(reply["request_id"])
        assert event.counters["pairs_tried"] >= 1

    def test_a_request_never_borrows_another_sessions_est_act(self):
        """The feedback log is process-wide: a session's request whose
        counters moved because another session ran ``:explain`` meanwhile
        must not take that plan's estimated and actual rows."""
        explainer, plain = Session(session_id="x"), Session(session_id="p")
        explainer.run(
            'let emp = relation([{Emp = "A", Dept = "Manuf"},'
            ' {Emp = "B", Dept = "Sales"}, {Emp = "C", Dept = "Manuf"}])'
        )
        stop = threading.Event()

        def explain_loop():
            while not stop.is_set():
                explainer.stat("explain", source='rmatch(emp, {Dept = "Manuf"})')

        thread = threading.Thread(target=explain_loop)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread.start()
        raced = []
        deadline = time.monotonic() + 30.0
        try:
            while time.monotonic() < deadline:
                reply = plain.run("sum([1, 2, 3])")
                event = plain.request_log.find(reply["request_id"])
                assert (event.est_rows, event.act_rows) == (None, None)
                if event.counters["feedback"]:
                    raced.append(event)
                if len(raced) >= 20:
                    break
        finally:
            stop.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        # The case is exercised: other threads' feedback landed mid-request.
        assert len(raced) >= 20

    def test_request_log_is_bounded(self):
        session = Session(requests_capacity=3)
        for i in range(5):
            session.run("%d" % i)
        retained = session.request_log.last(10)
        assert len(retained) == 3
        assert retained[-1].query == "4"
        assert session.request_log.total == 5


class TestObsSurface:
    def test_every_declared_kind_has_a_handler(self):
        session = Session()
        for kind in OBS_KINDS:
            assert hasattr(session, "_obs_%s" % kind), kind

    def test_unknown_obs_kind(self):
        with pytest.raises(EvalError, match="unknown obs kind"):
            Session().obs("flamegraph")

    def test_obs_spans_returns_harvested_trees(self):
        session = Session(session_id="t")
        trace.enable()
        reply = session.run("1 + 1")
        trace.disable()
        document = session.obs("spans")
        assert document["session"] == "t"
        request = document["requests"][-1]
        assert request["request_id"] == reply["request_id"]
        assert request["spans"][0]["name"] == "lang.run"
        assert isinstance(document["mono"], float)

    def test_obs_requests_returns_wide_event_dicts(self):
        session = Session()
        session.run("40 + 2")
        document = session.obs("requests")
        record = document["requests"][-1]
        assert record["query"] == "40 + 2"
        assert record["ok"] is True
        assert "spans" not in record  # flat by default

    def test_obs_profile_snapshot(self):
        from repro.obs import profile

        session = Session()
        profile.enable()
        session.run(
            'rjoin(relation([{D = 1, N = 2}]), relation([{D = 1, M = 3}]))'
        )
        document = session.obs("profile")
        profile.disable()
        assert document["enabled"] is True
        assert any(op["label"] == "relation.join" for op in document["ops"])

    def test_obs_journal_returns_session_events(self):
        journal = events.enable()
        journal.clear()
        session = Session(session_id="j", publish_runs=True)
        session.run("1")
        document = session.obs("journal")
        assert any(
            event["payload"].get("session") == "j"
            for event in document["events"]
        )


class TestStatTraceProfileRequests:
    def test_trace_toggle_flips_the_global_tracer(self):
        session = Session()
        assert session.stat("trace", action="on")["text"] == "tracing on"
        assert trace.CURRENT.enabled
        assert session.stat("trace", action="status")["text"] == "tracing is on"
        assert session.stat("trace", action="off")["text"] == "tracing off"
        assert not trace.CURRENT.enabled

    def test_requests_stat_renders_the_wide_event_table(self):
        session = Session(session_id="w")
        session.run("20 + 22")
        text = session.stat("requests")["text"]
        assert "w-r1" in text
        assert "20 + 22" in text

    def test_slowlog_entry_carries_the_exact_request_id(self):
        log = slowlog.enable(threshold_ms=0.0)
        session = Session(session_id="sl")
        reply = session.run(
            "let r = relation([{N = 1}, {N = 2}]); rmatch(r, {N = 1})"
        )
        entry = log.find(reply["request_id"])
        assert entry is not None, [e.request_id for e in log.last()]
        assert entry is session.request_log.find(reply["request_id"])
        assert entry.slow
