"""The execution profiler: per-operator attribution and the global switch."""

import time

from repro.core import columnar
from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import ColumnarExec, analyze, eq, optimize, scan
from repro.core.relation import GeneralizedRelation, join_with_fastpath
from repro.obs import profile
from repro.obs.profile import OpProfile, Profiler


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.5
        return self.now


def star_catalog():
    return Catalog(
        {
            "emp": FlatRelation(
                ("Emp", "Dept", "Salary"),
                [(i, i % 4, 40 + i % 5) for i in range(40)],
            ),
            "dept": FlatRelation(
                ("Dept", "City"), [(d, "c%d" % d) for d in range(4)]
            ),
        }
    )


class TestRecording:
    def test_record_accumulates_per_label(self):
        profiler = Profiler()
        profiler.record("plan.join", 0.25, rows_out=10, pairs_tried=4,
                        pairs_pruned=6)
        profiler.record("plan.join", 0.15, rows_out=5, pairs_tried=1,
                        pairs_pruned=9)
        profiler.record("plan.scan", 0.05, rows_out=100)
        join = next(op for op in profiler.ops() if op.label == "plan.join")
        assert join.calls == 2
        assert join.seconds == 0.4
        assert join.rows_out == 15
        assert join.pairs_tried == 5
        assert join.pairs_pruned == 15

    def test_ops_sorted_by_self_time_then_label(self):
        profiler = Profiler()
        profiler.record("b", 0.1)
        profiler.record("a", 0.1)
        profiler.record("c", 0.9)
        assert [op.label for op in profiler.ops()] == ["c", "a", "b"]

    def test_pruning_ratio(self):
        op = OpProfile("x")
        assert op.pruning_ratio == 0.0
        op.pairs_tried = 1
        op.pairs_pruned = 3
        assert op.pruning_ratio == 0.75

    def test_snapshot_and_clear(self):
        profiler = Profiler()
        profiler.record("op", 0.1, rows_out=2)
        snap = profiler.snapshot()
        assert snap[0]["label"] == "op"
        assert snap[0]["rows_out"] == 2
        profiler.clear()
        assert profiler.ops() == []


class TestReport:
    def test_report_table_has_header_and_rows(self):
        profiler = Profiler()
        profiler.record("plan.join", 0.002, rows_out=7, pairs_tried=1,
                        pairs_pruned=3)
        text = profiler.report()
        assert "operator" in text and "self(ms)" in text
        assert "plan.join" in text
        assert "75%" in text

    def test_report_top_n_limits_rows(self):
        profiler = Profiler()
        for i in range(5):
            profiler.record("op%d" % i, float(i))
        lines = profiler.report(top=2).splitlines()
        assert len(lines) == 3  # header + 2

    def test_empty_report_points_at_the_switch(self):
        assert "no profiled operators" in Profiler().report()
        assert "profiler is off" in profile.CURRENT.report()


class TestPlanAttribution:
    def test_execute_attributes_time_rows_and_pairs_per_operator(self):
        catalog = star_catalog()
        plan = optimize(
            scan("emp")
            .join(scan("dept"))
            .where(eq("Salary", 42))
            .project(["Emp", "City"]),
            catalog,
        )
        profiler = profile.enable()
        profiler.clear()
        plan.execute(catalog)
        labels = {op.label for op in profiler.ops()}
        assert any(label.startswith("Join") or label == "Join"
                   for label in labels)
        join = next(op for op in profiler.ops()
                    if op.label.startswith("Join"))
        # The join's pair deltas were attributed to the Join node alone.
        assert join.pairs_tried + join.pairs_pruned > 0
        scans = [op for op in profiler.ops()
                 if op.label.startswith(("Scan", "IndexScan"))]
        assert scans and all(op.pairs_tried == 0 for op in scans)
        assert all(op.calls >= 1 for op in profiler.ops())

    def test_lowered_plan_books_each_operator_once(self):
        catalog = star_catalog()
        columnar.enable()
        plan = optimize(
            scan("emp")
            .join(scan("dept"))
            .where(eq("Salary", 42))
            .project(["Emp", "City"]),
            catalog,
        )
        assert isinstance(plan, ColumnarExec)
        profiler = profile.enable()
        profiler.clear()
        started = time.perf_counter()
        plan.execute(catalog)
        wall = time.perf_counter() - started
        ops = profiler.ops()
        # Self times partition the run: the boundary node books only
        # what its lowered operators did not.
        assert sum(op.seconds for op in ops) <= wall
        join = next(op for op in ops if op.label == "CHashJoin")
        assert join.pairs_tried + join.pairs_pruned > 0
        assert all(
            op.pairs_tried == op.pairs_pruned == 0
            for op in ops
            if op is not join
        )

    def test_relation_join_attributes_kernel_work(self):
        profiler = profile.enable()
        profiler.clear()
        left = GeneralizedRelation(
            [{"K": i, "A": i} for i in range(6)]
        )
        right = GeneralizedRelation(
            [{"K": i, "B": i} for i in range(6)]
        )
        left.join(right)
        op = next(o for o in profiler.ops() if o.label == "relation.join")
        assert op.calls == 1
        assert op.pairs_tried + op.pairs_pruned == 36

    def test_analyze_feeds_the_profiler_per_node(self):
        # The REPL's :explain runs through analyze(), not execute();
        # with :profile on its nodes must land in the same accumulation.
        catalog = star_catalog()
        plan = optimize(
            scan("emp").join(scan("dept")).where(eq("Salary", 42)),
            catalog,
        )
        profiler = profile.enable()
        profiler.clear()
        __, stats = analyze(plan, catalog)
        labels = {op.label for op in profiler.ops()}
        assert {n.label for n in stats.walk()} <= labels
        join = next(op for op in profiler.ops()
                    if op.label.startswith("Join"))
        assert join.pairs_tried + join.pairs_pruned > 0

    def test_flat_fastpath_join_records_relation_join(self):
        # The REPL's rjoin on 1NF operands takes the hash-join fast
        # path; its work must still show up under "relation.join".
        profiler = profile.enable()
        profiler.clear()
        left = FlatRelation(("K", "A"), [(i, i) for i in range(4)])
        right = FlatRelation(("K", "B"), [(i, i) for i in range(3)])
        joined = join_with_fastpath(
            left.to_generalized(), right.to_generalized()
        )
        op = next(o for o in profiler.ops() if o.label == "relation.join")
        assert op.calls == 1
        assert op.rows_out == len(joined) == 3
        assert op.pairs_tried == 3

    def test_disabled_profiler_records_nothing_through_execute(
        self, monkeypatch
    ):
        profile.disable()
        catalog = star_catalog()
        plan = scan("emp").where(eq("Salary", 42))
        calls = []
        monkeypatch.setattr(
            profile.CURRENT, "record", lambda *a, **k: calls.append(a)
        )
        plan.execute(catalog)
        assert calls == []


class TestGlobalSwitch:
    def test_default_is_disabled(self):
        assert not profile.CURRENT.enabled

    def test_enable_disable_round_trip_leaves_no_stale_state(self):
        profile.disable()
        first = profile.enable()
        first.record("old", 1.0)
        profile.disable()
        assert not profile.CURRENT.enabled
        second = profile.enable()
        assert second is first
        assert second.ops() == []

    def test_module_level_report_follows_current(self):
        profiler = profile.enable()
        profiler.clear()
        profiler.record("visible", 0.001)
        assert "visible" in profile.profile_report()
        profile.disable()
        assert "profiler is off" in profile.profile_report()
