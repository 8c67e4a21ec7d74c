"""E9 (ablation) — algebraic optimization of relational queries.

The paper: relational programming "creates an intermediate, transient
relation in order to simplify or optimize some larger computation."
This ablation measures the textbook rewrites (selection/projection
pushdown, join ordering) on a synthetic star query:

    select City rows of  emp ⋈ dept  where Salary = const

Naive execution materializes the full join first; the optimized plan
filters and prunes before joining.  Results are identical (property-
tested in ``tests/core/test_query.py``); the gap grows with table size.
The table's last column executes the optimized plan through the
vectorized columnar engine (E10) — in quick mode CI fails the run if
columnar comes out slower than the row path.  Every figure is the
median of interleaved repeats, recorded with its interquartile range.

Run:  pytest benchmarks/bench_query.py --benchmark-only
      python benchmarks/bench_query.py      (prints the E9 table)
"""

import pytest

from repro.core import columnar as _columnar
from repro.core.query import ColumnarExec, eq, explain, optimize, scan
from repro.workloads.relations import star_catalog


def make_catalog(n_emps, n_depts=20, seed=1986):
    # Bulk-built star workload (the validating per-row constructor made
    # setup dominate at benchmark sizes — see BENCH_relation.json).
    return star_catalog(n_emps, n_depts=n_depts, seed=seed)


def star_query():
    return (
        scan("emp")
        .join(scan("dept"))
        .where(eq("Salary", 42))
        .project(["Emp", "City"])
    )


SIZES = [500, 2000]


@pytest.mark.parametrize("size", SIZES)
def test_naive_plan(benchmark, size):
    catalog = make_catalog(size)
    plan = star_query()
    result = benchmark(lambda: plan.execute(catalog))
    assert result.schema == ("Emp", "City")


@pytest.mark.parametrize("size", SIZES)
def test_optimized_plan(benchmark, size):
    catalog = make_catalog(size)
    plan = optimize(star_query(), catalog)
    result = benchmark(lambda: plan.execute(catalog))
    assert set(result.schema) == {"Emp", "City"}


@pytest.mark.parametrize("size", SIZES)
def test_plans_agree(size):
    catalog = make_catalog(size)
    plan = star_query()
    assert optimize(plan, catalog).execute(catalog) == plan.execute(catalog)


@pytest.mark.parametrize("size", SIZES)
def test_index_scan_plan(benchmark, size):
    """Ablation of the ablation: the selection answered from a sorted
    index instead of a filtered scan."""
    from repro.core.index import Catalog

    catalog = Catalog(make_catalog(size))
    catalog.create_index("emp", "Salary")
    plan = optimize(star_query(), catalog)
    assert "IndexScan" in explain(plan)
    result = benchmark(lambda: plan.execute(catalog))
    assert set(result.schema) == {"Emp", "City"}


@pytest.mark.parametrize("size", SIZES)
def test_index_plan_agrees(size):
    from repro.core.index import Catalog

    catalog = Catalog(make_catalog(size))
    catalog.create_index("emp", "Salary")
    plan = star_query()
    assert optimize(plan, catalog).execute(catalog) == plan.execute(catalog)


def main():
    try:
        from benchmarks._results import (
            ResultsWriter,
            interleaved_medians,
            quick_requested,
        )
    except ImportError:
        from _results import ResultsWriter, interleaved_medians, quick_requested

    from repro.core.index import Catalog
    from repro.core.query import explain_analyze

    quick = quick_requested()
    writer = ResultsWriter("query", quick=quick)
    sizes = (500,) if quick else (500, 2000, 8000)
    repeats = 5 if quick else 9

    failures = []
    print("E9 — naive vs optimized vs index-scan vs columnar star query")
    print("(median of %d interleaved runs)" % repeats)
    print("%-8s %12s %12s %12s %12s"
          % ("emps", "naive(s)", "optimized(s)", "indexed(s)",
             "columnar(s)"))
    for size in sizes:
        plain = make_catalog(size)
        plan = star_query()
        optimized = optimize(plan, plain)
        indexed_catalog = Catalog(plain)
        indexed_catalog.create_index("emp", "Salary")
        indexed = optimize(plan, indexed_catalog)
        _columnar.enable()
        try:
            columnar = optimize(plan, Catalog(plain))
        finally:
            _columnar.disable()
        assert isinstance(columnar, ColumnarExec), explain(columnar)
        columnar_catalog = Catalog(plain)
        columnar.execute(columnar_catalog)  # warm the scan cache

        medians, results = interleaved_medians(writer, size, [
            ("naive_plan", lambda: lambda: plan.execute(plain)),
            ("optimized_plan", lambda: lambda: optimized.execute(plain)),
            ("indexed_plan",
             lambda: lambda: indexed.execute(indexed_catalog)),
            ("columnar_plan",
             lambda: lambda: columnar.execute(columnar_catalog)),
        ], repeats)
        naive_t, opt_t, idx_t, col_t = (
            medians[op] for op in
            ("naive_plan", "optimized_plan", "indexed_plan", "columnar_plan")
        )
        assert (results["optimized_plan"] == results["naive_plan"]
                == results["indexed_plan"] == results["columnar_plan"])
        print("%-8d %12.6f %12.6f %12.6f %12.6f"
              % (size, naive_t, opt_t, idx_t, col_t))
        if quick and col_t > opt_t:
            failures.append(
                "columnar star query slower than row at n=%d: %.6fs vs %.6fs"
                % (size, col_t, opt_t)
            )

    print("\nEXPLAIN ANALYZE of the optimized index-scan plan:")
    catalog = Catalog(make_catalog(500))
    catalog.create_index("emp", "Salary")
    exemplar = optimize(star_query(), catalog)
    print(explain_analyze(exemplar, catalog))

    # Execute the same plan once under tracing so the exported trace
    # file's span tree mirrors the EXPLAIN ANALYZE operator tree above
    # (load BENCH_query.trace.json in Perfetto to see it).
    from repro.obs import trace as _trace

    _trace.enable()
    try:
        exemplar.execute(catalog)
        print("results -> %s" % writer.write())
        print("trace   -> %s" % writer.trace_path)
    finally:
        _trace.disable()
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))


if __name__ == "__main__":
    main()
