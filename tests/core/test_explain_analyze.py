"""EXPLAIN ANALYZE: per-node actual rows and timing beside estimates.

The workloads are the paper's two running examples — employees joined
with their departments (Figure 1) and parts with their suppliers —
small enough that every cardinality below is checkable by hand.
"""

import re

import pytest

from repro.core import columnar, query
from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import (
    ColumnarExec,
    analyze,
    eq,
    explain,
    explain_analyze,
    optimize,
    scan,
)
from repro.obs.metrics import REGISTRY
from repro.stats.cost import CostModel

EMP = FlatRelation(
    ("Emp", "Dept", "Salary"),
    [
        ("Smith", "Sales", 40),
        ("Jones", "Sales", 50),
        ("Brown", "Manuf", 40),
        ("Green", "Manuf", 60),
        ("White", "Admin", 55),
    ],
)
DEPT = FlatRelation(
    ("Dept", "City"),
    [("Sales", "Glasgow"), ("Manuf", "Lochgilphead"), ("Admin", "Glasgow")],
)
PART = FlatRelation(
    ("Part", "Supplier", "Weight"),
    [
        ("bolt", "acme", 1),
        ("nut", "acme", 1),
        ("plate", "forge", 9),
        ("beam", "forge", 40),
    ],
)
SUPPLIER = FlatRelation(
    ("Supplier", "City"),
    [("acme", "Glasgow"), ("forge", "Penn")],
)

EMPLOYEES_CATALOG = {"emp": EMP, "dept": DEPT}
PARTS_CATALOG = {"part": PART, "supplier": SUPPLIER}

# One line per node: label, the optimizer's estimate, then the measured
# rows, wall-clock (operator-only and subtree-total), and estimate drift.
# Nodes that enumerated join pairs append the kernel's pruning ratio.
LINE = re.compile(
    r"^\s*\S.*\(estimate=\d+(\.\d+)?\)"
    r"\s+\(actual (rows_in=\d+(\+\d+)*\s+)?rows=\d+"
    r" self=\d+\.\d{3}ms total=\d+\.\d{3}ms drift=\d+\.\d{2}x\)"
    r"(\s+\(pairs tried=\d+ pruned=\d+ \d+%\))?$"
)
# The trailing summary: worst offender, mean, node count.
SUMMARY = re.compile(
    r"^drift: max=\d+\.\d{2}x \(.+\) mean=\d+\.\d{2}x over \d+ nodes$"
)


def employees_query():
    return (
        scan("emp")
        .join(scan("dept"))
        .where(eq("Dept", "Manuf"))
        .project(["Emp", "City"])
    )


def parts_query():
    return (
        scan("part")
        .join(scan("supplier"))
        .where(eq("City", "Glasgow"))
        .project(["Part", "City"])
    )


@pytest.mark.parametrize(
    "plan_factory, catalog",
    [(employees_query, EMPLOYEES_CATALOG), (parts_query, PARTS_CATALOG)],
)
def test_every_node_shows_estimate_and_actuals(plan_factory, catalog):
    plan = optimize(plan_factory(), catalog)
    text = explain_analyze(plan, catalog)
    *lines, summary = text.splitlines()
    assert lines  # non-empty plan
    for line in lines:
        assert LINE.match(line), "malformed explain_analyze line: %r" % line
    assert SUMMARY.match(summary), "malformed drift summary: %r" % summary
    # One output line per plan node, in the same order as explain().
    assert len(lines) == len(explain(plan, 0).splitlines())
    for analyzed, plain in zip(lines, explain(plan, 0).splitlines()):
        assert analyzed.startswith(plain)


def test_root_actual_rows_match_execution():
    catalog = EMPLOYEES_CATALOG
    plan = optimize(employees_query(), catalog)
    result, stats = analyze(plan, catalog)
    assert result == plan.execute(catalog)
    assert stats.rows_out == len(result)
    first_line = explain_analyze(plan, catalog).splitlines()[0]
    assert "rows=%d " % len(result) in first_line


def test_analyze_isolates_self_cost_from_subtree_total():
    catalog = PARTS_CATALOG
    __, stats = analyze(optimize(parts_query(), catalog), catalog)
    for node in stats.walk():
        assert node.self_seconds >= 0.0
        assert node.total_seconds >= node.self_seconds
        assert node.total_seconds == pytest.approx(
            node.self_seconds + sum(c.total_seconds for c in node.children)
        )
        assert node.rows_in == tuple(c.rows_out for c in node.children)


def test_drift_exposes_estimate_vs_actual():
    catalog = EMPLOYEES_CATALOG
    __, stats = analyze(optimize(employees_query(), catalog), catalog)
    selects = [n for n in stats.walk() if n.label.startswith("Select")]
    assert selects
    # Without statistics the fixed 0.1 equality selectivity guesses
    # 0.5 rows for the Manuf filter, which the cost model floors to the
    # 1-row minimum; actually 2 of 5 employees match — a 2x underestimate.
    manuf = selects[0]
    assert manuf.rows_out == 2
    assert manuf.estimate == pytest.approx(1.0)
    assert manuf.drift == pytest.approx(2.0)
    assert manuf.drift_ratio == pytest.approx(2.0)


def test_drift_ratio_is_symmetric_and_never_infinite():
    catalog = EMPLOYEES_CATALOG
    plan = optimize(
        scan("emp").where(eq("Emp", "Nobody")), catalog
    )
    __, stats = analyze(plan, catalog)
    select = next(n for n in stats.walk() if n.label.startswith("Select"))
    # Zero actual rows against the floored 1-row estimate: the old code
    # divided by a 0.5-row estimate and could report inf; both drift and
    # the symmetric ratio must stay finite and >= 1.
    assert select.rows_out == 0
    assert select.estimate >= 1.0
    assert select.drift == pytest.approx(0.0)
    assert select.drift_ratio >= 1.0
    assert select.drift_ratio != float("inf")


def test_index_scan_plan_reports_actuals():
    catalog = Catalog(dict(EMPLOYEES_CATALOG))
    catalog.create_index("emp", "Salary")
    plan = optimize(
        scan("emp").join(scan("dept")).where(eq("Salary", 40)), catalog
    )
    text = explain_analyze(plan, catalog)
    assert "IndexScan(emp)[Salary == 40]" in text
    index_line = next(
        line for line in text.splitlines() if "IndexScan" in line
    )
    assert "rows=2" in index_line  # Smith and Brown earn 40
    assert LINE.match(index_line)


def test_join_nodes_report_pairs_tried_and_pruned():
    catalog = EMPLOYEES_CATALOG
    plan = optimize(employees_query(), catalog)
    __, stats = analyze(plan, catalog)
    join = next(n for n in stats.walk() if n.label.startswith("Join"))
    # The hash join partitions 2 matching emps against 3 depts: it only
    # materializes bucket-matched pairs; the rest count as pruned.
    assert join.pairs_tried >= 1
    assert join.pairs_tried + join.pairs_pruned > 0
    assert 0.0 <= join.pruning_ratio <= 1.0
    # Non-join nodes enumerate no pairs and render no pairs suffix.
    for node in stats.walk():
        if not node.label.startswith("Join"):
            assert node.pairs_tried == 0
            assert node.pairs_pruned == 0


def test_pairs_render_only_on_joining_lines():
    catalog = EMPLOYEES_CATALOG
    plan = optimize(employees_query(), catalog)
    text = explain_analyze(plan, catalog)
    join_lines = [l for l in text.splitlines() if l.lstrip().startswith("Join")]
    assert join_lines
    for line in join_lines:
        assert re.search(r"\(pairs tried=\d+ pruned=\d+ \d+%\)", line)
    for line in text.splitlines():
        if "Scan" in line and "Join" not in line:
            assert "pairs" not in line


def test_pruning_ratio_definition():
    catalog = PARTS_CATALOG
    __, stats = analyze(optimize(parts_query(), catalog), catalog)
    join = next(n for n in stats.walk() if n.label.startswith("Join"))
    logical = join.pairs_tried + join.pairs_pruned
    assert join.pruning_ratio == pytest.approx(
        join.pairs_pruned / logical if logical else 0.0
    )


@pytest.mark.parametrize("lowered", [False, True], ids=["row", "lowered"])
def test_analyze_records_node_metrics(lowered, monkeypatch):
    catalog = EMPLOYEES_CATALOG
    if lowered:
        # Floor the setup charge so the 8-row catalog lowers whole.
        monkeypatch.setattr(
            query, "COST_MODEL", CostModel(columnar_setup_rows=0.0)
        )
        columnar.enable()
    plan = optimize(employees_query(), catalog)
    assert isinstance(plan, ColumnarExec) == lowered
    nodes_before = REGISTRY.counter("query.nodes").value
    rows_before = REGISTRY.counter("query.rows_out").value
    timings_before = REGISTRY.histogram("query.node.seconds").count
    result, stats = analyze(plan, catalog)
    node_count = len(list(stats.walk()))
    assert REGISTRY.counter("query.nodes").value == nodes_before + node_count
    assert (
        REGISTRY.counter("query.rows_out").value
        == rows_before + sum(n.rows_out for n in stats.walk())
    )
    assert (
        REGISTRY.histogram("query.node.seconds").count
        == timings_before + node_count
    )
    assert len(result) == 2
