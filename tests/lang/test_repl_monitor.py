"""REPL monitoring commands: ``:health``, ``:slow``, ``:watch``, and
``:metrics``."""

import pytest

from repro.lang.repl import Repl
from repro.obs import events, monitor, slowlog
from repro.obs.monitor import parse_openmetrics


@pytest.fixture
def repl_session():
    lines = []
    repl = Repl(writer=lines.append)
    return repl, lines


EMP_SOURCE = (
    'let emp = relation(['
    '{Emp = "Smith", Dept = "Sales", Salary = 40}, '
    '{Emp = "Jones", Dept = "Sales", Salary = 50}, '
    '{Emp = "Brown", Dept = "Manuf", Salary = 40}, '
    '{Emp = "Green", Dept = "Manuf", Salary = 60}, '
    '{Emp = "White", Dept = "Admin", Salary = 55}]);'
)


class TestColumnarCommand:
    def test_toggle_and_status(self, repl_session):
        from repro.core import columnar as _columnar

        repl, lines = repl_session
        try:
            repl.handle(":columnar on")
            assert lines[-1] == "columnar execution on"
            assert _columnar.COLUMNAR.enabled
            repl.handle(":columnar")
            assert lines[-1].startswith("columnar execution is on")
            repl.handle(":columnar off")
            assert lines[-1] == "columnar execution off"
            assert not _columnar.COLUMNAR.enabled
        finally:
            _columnar.disable()

    def test_rejects_garbage(self, repl_session):
        repl, lines = repl_session
        repl.handle(":columnar sideways")
        assert lines[-1] == "usage: :columnar on|off"


class TestHealthCommand:
    def test_health_prints_verdict_and_probe_rows(self, repl_session):
        repl, lines = repl_session
        repl.handle(":health")
        text = lines[-1]
        assert text.startswith("health: ")
        assert "store.integrity" in text
        assert "journal.drops" in text
        assert "stats.adaptive_hits" in text

    def test_health_rejects_arguments(self, repl_session):
        repl, lines = repl_session
        repl.handle(":health everything")
        assert lines[-1] == "usage: :health"

    def test_health_degrades_on_injected_journal_drops(self, repl_session):
        """Acceptance: flood a tiny journal ring, then ``:health``
        reports the drop-rate probe as degraded."""
        events.disable()
        events.enable(capacity=4)
        for i in range(16):
            events.publish("INFO", "test", "tick%d" % i)
        repl, lines = repl_session
        repl.handle(":health")
        drops_row = next(
            line for line in lines[-1].splitlines()
            if "journal.drops" in line
        )
        assert "degraded" in drops_row
        assert "evicted" in drops_row


class TestSlowCommand:
    def test_slow_when_off_points_at_the_switch(self, repl_session):
        slowlog.disable()
        repl, lines = repl_session
        repl.handle(":slow")
        assert lines[-1] == "(slow-query log is off — :slow on)"

    def test_slow_on_off_round_trip(self, repl_session):
        slowlog.disable()
        repl, lines = repl_session
        repl.handle(":slow on")
        assert lines[-1] == "slow-query log on (threshold 100.0ms)"
        assert slowlog.CURRENT.enabled
        repl.handle(":slow off")
        assert lines[-1] == "slow-query log off"
        assert not slowlog.CURRENT.enabled

    def test_slow_threshold_enables_and_applies(self, repl_session):
        slowlog.disable()
        repl, lines = repl_session
        repl.handle(":slow threshold 25")
        assert lines[-1] == "slow threshold 25.0ms"
        assert slowlog.CURRENT.enabled
        assert slowlog.CURRENT.threshold_ms == 25.0

    def test_slow_threshold_that_can_never_trip_is_refused(self, repl_session):
        repl, lines = repl_session
        repl.handle(":slow threshold 25")
        for value in ("nan", "inf", "-inf", "-1"):
            repl.handle(":slow threshold %s" % value)
            assert lines[-1].startswith(
                "error: slow threshold must be a finite number"
            )
            assert slowlog.CURRENT.threshold_ms == 25.0

    def test_slow_threshold_without_number_prints_usage(self, repl_session):
        repl, lines = repl_session
        repl.handle(":slow threshold")
        assert lines[-1] == "usage: :slow threshold <ms>"

    def test_slow_junk_argument_prints_usage(self, repl_session):
        repl, lines = repl_session
        repl.handle(":slow sideways")
        assert lines[-1] == (
            "usage: :slow [n] | :slow on|off | :slow threshold <ms>"
        )

    def test_forced_slow_query_lands_in_the_report(self, repl_session):
        """Acceptance: with the threshold at zero every evaluation is
        slow, and ``:slow`` shows it."""
        slowlog.disable()
        repl, lines = repl_session
        repl.handle(":slow threshold 0")
        repl.handle("6 * 7")
        repl.handle(":slow")
        report = lines[-1]
        assert "slow queries (threshold 0.0ms" in report
        assert "local-r" in report and " eval " in report
        assert "SLOW 6 * 7" in report

    def test_explain_entry_carries_plan_drift(self, repl_session):
        """Acceptance: a forced-slow ``:explain`` records an entry whose
        est/act column shows the worst-drift node's estimate and rows."""
        slowlog.disable()
        repl, lines = repl_session
        repl.handle(EMP_SOURCE)
        repl.handle(":slow threshold 0")
        repl.handle(':explain rmatch(emp, {Dept = "Manuf"})')
        # No statistics: the select guesses 1 row and finds 2.
        assert "drift: max=2.00x (Select[Dept == 'Manuf'])" in lines[-1]
        explains = [e for e in slowlog.CURRENT.last() if e.mode == "explain"]
        assert len(explains) == 1
        assert (explains[0].est_rows, explains[0].act_rows) == (1.0, 2)
        repl.handle(":slow")
        report_rows = [
            line for line in lines[-1].splitlines() if " explain " in line
        ]
        assert len(report_rows) == 1
        assert " 1/2 " in report_rows[0]

    def test_slow_n_limits_the_table(self, repl_session):
        slowlog.disable()
        repl, lines = repl_session
        repl.handle(":slow threshold 0")
        for i in range(5):
            repl.handle("%d + %d" % (i, i))
        repl.handle(":slow 2")
        report = lines[-1]
        # Header plus exactly two entry rows.
        assert "showing 2 of" in report
        assert "4 + 4" in report
        assert "0 + 0" not in report


class TestWatchCommand:
    def test_watch_samples_one_window_per_second(self, repl_session):
        monitor.disable()
        repl, lines = repl_session
        slept = []
        repl._sleep = slept.append
        repl.handle(":watch 3")
        assert lines[0] == "watching for 3s (Ctrl-C stops early)"
        assert slept == [1.0, 1.0, 1.0]
        assert monitor.CURRENT.enabled
        assert len(monitor.CURRENT.windows()) == 3
        views = [line for line in lines if line.startswith("monitor:")]
        assert len(views) == 3

    def test_watch_defaults_to_five_seconds(self, repl_session):
        repl, lines = repl_session
        repl._sleep = lambda seconds: None
        repl.handle(":watch")
        assert lines[0] == "watching for 5s (Ctrl-C stops early)"

    def test_watch_rejects_junk_and_nonpositive(self, repl_session):
        repl, lines = repl_session
        repl.handle(":watch sideways")
        assert lines[-1] == "usage: :watch <seconds>"
        repl.handle(":watch 0")
        assert lines[-1] == "usage: :watch <seconds>"

    def test_watch_ctrl_c_stops_early(self, repl_session):
        repl, lines = repl_session

        def interrupted(seconds):
            raise KeyboardInterrupt

        repl._sleep = interrupted
        repl.handle(":watch 30")
        assert lines[-1] == "(watch interrupted)"


class TestMetricsCommand:
    def test_metrics_dumps_openmetrics_text(self, repl_session):
        repl, lines = repl_session
        repl.handle("1 + 1")  # records lang.runs
        repl.handle(":metrics")
        text = lines[-1]
        assert "# TYPE" in text
        assert "lang_runs_total" in text
        parsed = parse_openmetrics(text + "\n")
        assert parsed["eof"]
        assert parsed["counters"]["lang_runs"] >= 1

    def test_metrics_path_writes_a_snapshot_file(
        self, repl_session, tmp_path
    ):
        repl, lines = repl_session
        repl.handle("1 + 1")
        path = str(tmp_path / "repl.openmetrics")
        repl.handle(":metrics %s" % path)
        assert lines[-1] == "wrote %s" % path
        with open(path, "r", encoding="utf-8") as handle:
            parsed = parse_openmetrics(handle.read())
        assert parsed["eof"]
        assert "lang_runs" in parsed["counters"]

    def test_metrics_to_bad_path_reports_the_error(self, repl_session):
        repl, lines = repl_session
        repl.handle(":metrics /nonexistent-dir/x.openmetrics")
        assert lines[-1].startswith("error:")
