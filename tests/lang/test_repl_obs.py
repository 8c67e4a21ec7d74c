"""REPL observability commands: ``:stats``, ``:trace``, ``:events``,
``:export``, and ``:profile``."""

import json
import os
import subprocess
import sys

import pytest

from repro.lang.repl import Repl
from repro.obs import events, profile, trace
from repro.obs.metrics import REGISTRY
from repro.stats import feedback as _feedback


@pytest.fixture
def repl_session():
    lines = []
    repl = Repl(writer=lines.append)
    return repl, lines


class TestStatsCommand:
    def test_stats_prints_registry_table(self, repl_session):
        repl, lines = repl_session
        repl.handle("2 + 2")  # records lang.runs
        repl.handle(":stats")
        text = "\n".join(lines)
        assert "counters:" in text
        assert "lang.runs" in text

    def test_stats_reset_zeroes_registry(self, repl_session):
        repl, lines = repl_session
        repl.handle("1 + 1")
        assert REGISTRY.counter("lang.runs").value > 0
        repl.handle(":stats reset")
        assert "metrics reset" in lines
        assert REGISTRY.counter("lang.runs").value == 0

    def test_stats_with_unanalyzed_name_points_at_analyze(
        self, repl_session
    ):
        # A non-reset argument now names a relation; without collected
        # statistics the REPL points at :analyze.
        repl, lines = repl_session
        repl.handle(":stats everything")
        assert lines[-1] == (
            "no statistics for 'everything' — run :analyze everything first"
        )


class TestTraceCommand:
    def test_trace_status_when_off(self, repl_session):
        trace.disable()
        repl, lines = repl_session
        repl.handle(":trace")
        assert lines[-1] == "tracing is off"

    def test_trace_on_flips_the_global_switch(self, repl_session):
        trace.disable()
        repl, lines = repl_session
        repl.handle(":trace on")
        assert lines[-1] == "tracing on"
        assert trace.CURRENT.enabled
        repl.handle(":trace")
        assert lines[-1] == "tracing is on"

    def test_trace_off(self, repl_session):
        repl, lines = repl_session
        repl.handle(":trace on")
        repl.handle(":trace off")
        assert lines[-1] == "tracing off"
        assert not trace.CURRENT.enabled

    def test_trace_usage_on_junk_argument(self, repl_session):
        repl, lines = repl_session
        repl.handle(":trace sideways")
        assert lines[-1] == "usage: :trace on|off"

    def test_evaluation_prints_span_tree_while_tracing(self, repl_session):
        repl, lines = repl_session
        repl.handle(":trace on")
        repl.handle("6 * 7")
        text = "\n".join(lines)
        assert "42" in lines
        assert "lang.run" in text
        assert "lang.parse" in text
        assert "lang.eval" in text
        # Nested spans render indented under their root.
        assert any(line.startswith("  lang.parse") for line in text.splitlines())

    def test_tracer_cleared_between_evaluations(self, repl_session):
        repl, __ = repl_session
        repl.handle(":trace on")
        repl.handle("1 + 1")
        # The REPL drains the tracer after printing, so a long session
        # does not accumulate span trees.
        assert trace.CURRENT.roots == []

    def test_no_span_output_when_tracing_off(self, repl_session):
        trace.disable()
        repl, lines = repl_session
        repl.handle("6 * 7")
        assert lines == ["42"]


class TestEventsCommand:
    def test_events_off_points_at_the_switch(self, repl_session):
        events.disable()
        repl, lines = repl_session
        repl.handle(":events")
        assert lines[-1] == "journal is off — :events on"

    def test_events_on_off_round_trip(self, repl_session):
        events.disable()
        repl, lines = repl_session
        repl.handle(":events on")
        assert lines[-1] == "journal on"
        assert events.CURRENT.enabled
        repl.handle(":events off")
        assert lines[-1] == "journal off"
        assert not events.CURRENT.enabled

    def test_events_prints_recent_journal_lines(self, repl_session):
        repl, lines = repl_session
        repl.handle(":events on")
        events.publish("WARN", "store", "torn_record", line=7)
        repl.handle(":events")
        assert any("torn_record" in line and "WARN" in line
                   for line in lines)

    def test_events_n_limits_output(self, repl_session):
        repl, lines = repl_session
        repl.handle(":events on")
        for i in range(5):
            events.publish("INFO", "test", "tick%d" % i)
        before = len(lines)
        repl.handle(":events 2")
        printed = lines[before:]
        assert len(printed) == 2
        assert "tick4" in printed[-1]

    def test_events_n_below_one_prints_usage(self, repl_session):
        repl, lines = repl_session
        repl.handle(":events on")
        for i in range(3):
            events.publish("INFO", "test", "tick%d" % i)
        for argument in ("0", "-2"):
            before = len(lines)
            repl.handle(":events %s" % argument)
            assert lines[before:] == ["usage: :events [n] | :events on|off"]

    def test_events_junk_argument_prints_usage(self, repl_session):
        repl, lines = repl_session
        repl.handle(":events on")
        repl.handle(":events sideways")
        assert lines[-1] == "usage: :events [n] | :events on|off"

    def test_events_empty_journal(self, repl_session):
        events.disable()
        repl, lines = repl_session
        repl.handle(":events on")
        repl.handle(":events")
        assert lines[-1] == "(journal is empty)"


class TestExportCommand:
    def test_export_without_path_prints_usage(self, repl_session):
        repl, lines = repl_session
        repl.handle(":export")
        assert lines[-1] == "usage: :export <path>"

    def test_export_writes_a_loadable_trace_file(
        self, repl_session, tmp_path
    ):
        repl, lines = repl_session
        repl.handle(":events on")
        events.publish("INFO", "test", "from_repl")
        path = str(tmp_path / "session.trace.json")
        repl.handle(":export %s" % path)
        assert lines[-1].startswith("exported %s" % path)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert any(
            e["name"] == "test.from_repl" for e in document["traceEvents"]
        )

    def test_export_to_bad_path_reports_the_error(self, repl_session):
        repl, lines = repl_session
        repl.handle(":export /nonexistent-dir/x.json")
        assert lines[-1].startswith("error:")


class TestProfileCommand:
    def test_profile_on_off_round_trip(self, repl_session):
        profile.disable()
        repl, lines = repl_session
        repl.handle(":profile on")
        assert lines[-1] == "profiling on"
        assert profile.CURRENT.enabled
        repl.handle(":profile off")
        assert lines[-1] == "profiling off"
        assert not profile.CURRENT.enabled

    def test_profile_prints_report(self, repl_session):
        repl, lines = repl_session
        repl.handle(":profile on")
        profile.CURRENT.record("plan.join", 0.001, rows_out=3)
        repl.handle(":profile")
        assert any("plan.join" in line for line in lines)

    def test_profile_off_report_points_at_the_switch(self, repl_session):
        profile.disable()
        repl, lines = repl_session
        repl.handle(":profile")
        assert lines[-1] == "(profiler is off — :profile on)"

    def test_profile_junk_argument_prints_usage(self, repl_session):
        repl, lines = repl_session
        repl.handle(":profile sideways")
        assert lines[-1] == "usage: :profile on|off"


class TestRequestsCommand:
    def test_requests_lists_wide_events(self, repl_session):
        repl, lines = repl_session
        repl.handle("20 + 22")
        repl.handle(":requests")
        text = lines[-1]
        assert "request" in text  # the header row
        assert "local-r" in text  # locally-minted request ids
        assert "20 + 22" in text

    def test_requests_empty_session(self, repl_session):
        repl, lines = repl_session
        repl.handle(":requests")
        assert lines[-1] == "(no requests recorded)"

    def test_requests_n_limits_output(self, repl_session):
        repl, lines = repl_session
        for i in range(4):
            repl.handle("%d + 1" % i)
        repl.handle(":requests 2")
        body = [
            line for line in lines[-1].splitlines()[1:] if line.strip()
        ]
        assert len(body) == 2
        assert "3 + 1" in body[-1]

    def test_requests_junk_argument_prints_usage(self, repl_session):
        repl, lines = repl_session
        repl.handle(":requests sideways")
        assert lines[-1] == "usage: :requests [n]"

    def test_failed_evaluation_still_recorded(self, repl_session):
        repl, lines = repl_session
        repl.handle("1 + true")
        assert lines[-1].startswith("error:")
        repl.handle(":requests")
        assert "ERR" in lines[-1]


class TestLocalExportParity:
    def test_local_export_carries_harvested_request_spans(
        self, repl_session, tmp_path
    ):
        # Local mode mirrors connected mode: the session harvests its
        # span trees per request, and :export renders them on the
        # backend lane of the merged timeline.
        from repro.obs import export as _export

        repl, lines = repl_session
        repl.handle(":trace on")
        repl.handle("6 * 7")
        path = str(tmp_path / "local.trace.json")
        repl.handle(":export %s" % path)
        repl.handle(":trace off")
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        backend_spans = [
            e for e in document["traceEvents"]
            if e.get("ph") == "X" and e.get("pid") == _export.BACKEND_PID
        ]
        assert any(e["name"] == "lang.run" for e in backend_spans)
        roots = [
            e for e in backend_spans if "request_id" in e.get("args", {})
        ]
        assert roots and all(
            r["args"]["request_id"].startswith("local-r") for r in roots
        )


class TestJournalOnFromStartup:
    def test_replay_anomalies_of_the_session_store_are_journaled(
        self, tmp_path
    ):
        """``main()`` must enable the journal *before* opening the
        session store, so a corrupt log's replay WARNs land in
        ``:events`` — the flight recorder's whole point."""
        from repro.persistence.store import LogStore

        path = str(tmp_path / "session.log")
        with LogStore(path) as store:
            store.put("k", {"v": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("9999:123:{\"k\"")  # torn final record
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "src"
        )
        env["PYTHONPATH"] = os.path.abspath(src)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.lang.repl", path],
            input=":events 10\n:quit\n",
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 0
        assert "truncated_tail" in completed.stdout
        assert "WARN" in completed.stdout


class TestStatsFeedback:
    def test_stats_feedback_lists_recent_observations(self, repl_session):
        _feedback.record("Salary == 42", estimate=30.0, rows_in=500,
                         rows_out=4, relation="emp")
        repl, lines = repl_session
        repl.handle(":stats feedback")
        text = "\n".join(lines)
        assert "predicate" in text  # the header row
        assert "Salary == 42" in text
        assert "emp" in text

    def test_stats_feedback_when_empty(self, repl_session):
        repl, lines = repl_session
        repl.handle(":stats feedback")
        assert lines[-1] == (
            "(no feedback recorded — run :explain on a selection)"
        )
