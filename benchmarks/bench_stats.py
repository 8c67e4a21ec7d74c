"""Statistics collection cost and cost-based planning overhead.

The cost-based optimizer is only worth having if its two overheads stay
small: ``analyze`` is a deliberate, amortized scan (one transpose of the
rows, then one count and one sort of the distinct values per column),
and consulting statistics at ``optimize`` time must stay in the
microsecond range because every query pays it.  This benchmark measures
both on the skewed-orders workload (:mod:`repro.workloads.queries`), as
the median of repeated runs with its quartiles, and reports the payoff —
worst-case estimate drift with and without statistics on the same plan.

It also gates what ANALYZE and an index build cost against the work
their column needs.  On the star catalog's ``emp`` (2,000 rows with
``--quick``, 20,000 otherwise) it takes the median of repeated
``Catalog.analyze``, ``Catalog.create_index`` on ``Emp``, and a *floor*
— a bare ``Counter`` plus ``sorted`` of each of the three columns,
already transposed — interleaved in one run.  The run exits 1 if
ANALYZE costs more than 6x the floor or the index build more than 3x.

Run:  pytest benchmarks/bench_stats.py --benchmark-only
      python benchmarks/bench_stats.py [--quick]   (prints the table)
"""

import statistics
import sys
import time
from collections import Counter

import pytest

from repro.core.index import Catalog
from repro.core.query import analyze as run_analyze
from repro.core.query import optimize
from repro.stats.collect import analyze as collect_stats
from repro.workloads.queries import orders_query, skewed_orders
from repro.workloads.relations import star_catalog

SIZES = [400, 4000]
COLUMN_WORK_ROWS = 20_000
QUICK_COLUMN_WORK_ROWS = 2_000
COLUMN_WORK_REPEATS = 7
ROW_SAMPLES = 7  # timed calls per skewed-orders row; the median is kept
ANALYZE_GATE = 6.0  # analyze over the floor
INDEX_GATE = 3.0  # create_index over the floor


@pytest.mark.parametrize("size", SIZES)
def test_analyze_cost(benchmark, size):
    relation = skewed_orders(size)
    stats = benchmark(lambda: collect_stats(relation, name="orders"))
    assert stats.row_count == size


@pytest.mark.parametrize("size", SIZES)
def test_planning_with_stats(benchmark, size):
    catalog = Catalog({"orders": skewed_orders(size)})
    catalog.create_index("orders", "Status")
    catalog.analyze("orders")
    plan = orders_query()
    optimized = benchmark(lambda: optimize(plan, catalog))
    assert optimized.execute(catalog) == plan.execute(catalog)


@pytest.mark.parametrize("size", SIZES)
def test_planning_without_stats(benchmark, size):
    catalog = Catalog({"orders": skewed_orders(size)})
    catalog.create_index("orders", "Status")
    plan = orders_query()
    optimized = benchmark(lambda: optimize(plan, catalog))
    assert optimized.execute(catalog) == plan.execute(catalog)


def _max_drift_ratio(plan, catalog):
    __, stats = run_analyze(optimize(plan, catalog), catalog)
    return max(node.drift_ratio for node in stats.walk())


def column_work(writer, rows, repeats):
    """Median ANALYZE and index-build times on the star ``emp`` against
    the floor of counting and sorting its columns; returns the gate
    failures."""
    emp = star_catalog(rows)["emp"]
    columns = list(zip(*emp.rows))
    catalog = Catalog({"emp": emp})

    def floor():
        for column in columns:
            Counter(column)
            sorted(column)

    cases = (
        ("floor", floor),
        ("analyze", lambda: catalog.analyze("emp")),
        ("create_index", lambda: catalog.create_index("emp", "Emp")),
    )
    samples = {name: [] for name, __ in cases}
    for __ in range(repeats):  # interleaved, so drift hits all three
        for name, fn in cases:
            started = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - started)
    medians = {name: statistics.median(times) for name, times in samples.items()}
    floor_t = medians["floor"]
    print("\ncolumn work — star emp, %d rows, median of %d" % (rows, repeats))
    print("%-14s %12s %10s %8s" % ("op", "median(ms)", "x floor", "gate"))
    failures = []
    for name, gate in (("floor", None), ("analyze", ANALYZE_GATE),
                       ("create_index", INDEX_GATE)):
        ratio = medians[name] / floor_t
        writer.record(
            "column_work_" + name, rows, medians[name],
            ratio_to_floor=ratio, repeats=repeats, gate=gate,
        )
        print("%-14s %12.3f %9.2fx %8s" % (
            name, medians[name] * 1e3, ratio,
            "-" if gate is None else "%.0fx" % gate,
        ))
        if gate is not None and ratio > gate:
            failures.append(
                "%s costs %.1fx the floor of counting and sorting the"
                " columns (gate %.0fx)" % (name, ratio, gate)
            )
    return failures


def main():
    try:
        from benchmarks._results import ResultsWriter, median_time, quick_requested
    except ImportError:
        from _results import ResultsWriter, median_time, quick_requested

    quick = quick_requested()
    writer = ResultsWriter("stats", quick=quick)
    sizes = (400,) if quick else (400, 4000, 20000)
    plan_repeats = 100 if quick else 1000

    print("stats — ANALYZE cost and planning overhead (skewed orders)")
    print(
        "%-8s %12s %16s %16s %10s %10s"
        % ("rows", "analyze(s)", "plan+stats(s)", "plan-stats(s)",
           "drift+", "drift-")
    )
    for size in sizes:
        relation = skewed_orders(size)
        analyze_t = median_time(
            writer, "analyze", size,
            lambda: collect_stats(relation, name="orders"),
            samples=ROW_SAMPLES,
        )

        cold = Catalog({"orders": relation})
        cold.create_index("orders", "Status")
        warm = Catalog({"orders": relation})
        warm.create_index("orders", "Status")
        warm.analyze("orders")
        plan = orders_query()

        def plan_many(catalog):
            return lambda: [
                optimize(plan, catalog) for __ in range(plan_repeats)
            ]

        with_t = median_time(
            writer, "optimize_with_stats", size, plan_many(warm),
            samples=ROW_SAMPLES, repeats=plan_repeats,
        )
        without_t = median_time(
            writer, "optimize_without_stats", size, plan_many(cold),
            samples=ROW_SAMPLES, repeats=plan_repeats,
        )

        drift_with = _max_drift_ratio(plan, warm)
        drift_without = _max_drift_ratio(plan, cold)
        writer.record("max_drift_with_stats", size, 0.0, ratio=drift_with)
        writer.record(
            "max_drift_without_stats", size, 0.0, ratio=drift_without
        )
        assert drift_with <= drift_without

        print(
            "%-8d %12.6f %16.6f %16.6f %9.2fx %9.2fx"
            % (size, analyze_t, with_t, without_t, drift_with,
               drift_without)
        )

    print("\n(medians of %d runs; plan columns time %d optimize() calls)"
          % (ROW_SAMPLES, plan_repeats))

    failures = column_work(
        writer,
        QUICK_COLUMN_WORK_ROWS if quick else COLUMN_WORK_ROWS,
        COLUMN_WORK_REPEATS,
    )
    print("results -> %s" % writer.write())
    if failures:
        for failure in failures:
            print("FAIL: " + failure, file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
