"""E10 — vectorized columnar execution vs the row-at-a-time path.

The ROADMAP names an order of magnitude at 10⁵–10⁶ rows as the target
for the flat fast path.  This harness measures exactly that claim: the
same optimized plans — a fact⋈dimension natural join and the E9 star
query (filter + join + project) — executed row-at-a-time and through
``ColumnarExec`` (``:columnar on``), on `repro.workloads.star_catalog`
inputs built via the trusted bulk path so setup does not dominate.

Timings are best-of-``REPEATS`` per side, results asserted equal.  The
columnar side is timed twice: *warm*, on a catalog whose scan
conversions are already cached (a resident catalog after its first
query), and *cold*, on fresh relation objects built outside the timer
for every run, so each run pays the row→column transpose — what every
DBPL query and every rebind of a name sees.  Two guards, both on the
warm column, gate CI:

* quick mode (the smoke job): columnar must not be slower than the row
  path at smoke scale — exit 1 otherwise;
* full mode: columnar must be at least 10x faster at 10⁵ rows — the
  acceptance bar of the columnar engine, committed as
  ``BENCH_columnar.json``.

A third guard, in both modes, prices projection.  The perfbench
engine_query workload's projected star query, ``π[Emp, Budget](emp ⋈
σ[City = c](dept))`` over 20 departments, keeps ``Emp``, the key of
``emp``, in every projection pushdown puts into it, so no projection
can merge a row.  Warm and lowered, it is timed beside the same query
without its projection, interleaved, as medians; the run exits 1 when
the projected query costs more than 1.5x the unprojected one.

Run:  pytest benchmarks/bench_columnar.py --benchmark-only
      python benchmarks/bench_columnar.py      (prints the E10 table)
"""

import statistics
import time

import pytest

from repro.core import columnar as _columnar
from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import ColumnarExec, eq, explain, optimize, scan
from repro.workloads.relations import star_catalog

REPEATS = 3

SIZES = [2000, 10_000]

PROJECTION_DEPTS = 20  # engine_query's star catalog
PROJECTION_REPEATS = 31
PROJECTION_GATE = 1.5  # projected over unprojected, warm medians


def star_query():
    return (
        scan("emp")
        .join(scan("dept"))
        .where(eq("Salary", 42))
        .project(["Emp", "City"])
    )


def join_query():
    return scan("emp").join(scan("dept"))


def city_query():
    """engine_query's projected star query, before its projection."""
    return scan("emp").join(scan("dept")).where(eq("City", "city0"))


def projected_city_query():
    return city_query().project(["Emp", "Budget"])


def best_of(fn, repeats=REPEATS):
    """The minimum wall time of ``repeats`` runs (noise-robust)."""
    best = None
    result = None
    for __ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def best_of_cold(plan, relations, repeats=REPEATS):
    """:func:`best_of` for ``plan`` on a cold scan cache: every run gets
    fresh relation objects, built before its timer starts."""
    best = None
    result = None
    for __ in range(repeats):
        catalog = Catalog(
            {
                name: FlatRelation.bulk_build(rel.schema, rel.rows)
                for name, rel in relations.items()
            }
        )
        started = time.perf_counter()
        result = plan.execute(catalog)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def lowered_plan(plan, catalog):
    """Optimize ``plan`` with the columnar engine on; assert it fired."""
    _columnar.enable()
    try:
        optimized = optimize(plan, catalog)
    finally:
        _columnar.disable()
    assert isinstance(optimized, ColumnarExec), explain(optimized)
    return optimized


@pytest.mark.parametrize("size", SIZES)
def test_row_star_query(benchmark, size):
    catalog = Catalog(star_catalog(size))
    plan = optimize(star_query(), catalog)
    result = benchmark(lambda: plan.execute(catalog))
    assert set(result.schema) == {"Emp", "City"}


@pytest.mark.parametrize("size", SIZES)
def test_columnar_star_query(benchmark, size):
    catalog = Catalog(star_catalog(size))
    plan = lowered_plan(star_query(), catalog)
    result = benchmark(lambda: plan.execute(catalog))
    assert set(result.schema) == {"Emp", "City"}


@pytest.mark.parametrize("size", SIZES)
def test_paths_agree(size):
    catalog = Catalog(star_catalog(size))
    for plan in (star_query(), join_query()):
        row = optimize(plan, catalog).execute(catalog)
        assert lowered_plan(plan, catalog).execute(catalog) == row


def projection_cost(writer, size):
    """Warm medians of the projected star query and of the same query
    unprojected, interleaved; returns the gate failures."""
    catalog = Catalog(star_catalog(size, n_depts=PROJECTION_DEPTS))
    cases = (
        ("unprojected", lowered_plan(city_query(), catalog)),
        ("projected", lowered_plan(projected_city_query(), catalog)),
    )
    results = {name: plan.execute(catalog) for name, plan in cases}
    assert results["projected"] == results["unprojected"].project(
        ["Emp", "Budget"]
    )
    samples = {name: [] for name, __ in cases}
    for __ in range(PROJECTION_REPEATS):  # interleaved: drift hits both
        for name, plan in cases:
            started = time.perf_counter()
            len(plan.execute(catalog))
            samples[name].append(time.perf_counter() - started)
    medians = {}
    for name, times in samples.items():
        q1, medians[name], q3 = statistics.quantiles(times, n=4)
        writer.record(
            "columnar_%s_city" % name, size, medians[name],
            q1=q1, q3=q3, repeats=PROJECTION_REPEATS,
        )
    ratio = medians["projected"] / medians["unprojected"]
    print("%-8d %16.6f %16.6f %9.2fx" % (
        size, medians["unprojected"], medians["projected"], ratio))
    if ratio > PROJECTION_GATE:
        return [
            "projected star query costs %.2fx the unprojected one at"
            " n=%d (gate %.1fx)" % (ratio, size, PROJECTION_GATE)
        ]
    return []


def main():
    try:
        from benchmarks._results import ResultsWriter, quick_requested
    except ImportError:
        from _results import ResultsWriter, quick_requested

    from repro.core.query import explain_analyze

    quick = quick_requested()
    writer = ResultsWriter("columnar", quick=quick)
    sizes = (2000,) if quick else (10_000, 100_000)
    n_depts = 200

    print("E10 — row-at-a-time vs columnar execution (best of %d)"
          % REPEATS)
    print("%-10s %-8s %12s %12s %12s %9s %9s"
          % ("query", "emps", "row(s)", "cold(s)", "warm(s)", "cold x",
             "warm x"))
    failures = []
    for size in sizes:
        relations = star_catalog(size, n_depts=n_depts)
        catalog = Catalog(relations)
        for name, plan in (("join", join_query()), ("star", star_query())):
            row_plan = optimize(plan, catalog)
            col_plan = lowered_plan(plan, catalog)
            cold_result, cold_t = best_of_cold(col_plan, relations)
            # Warm the scan-conversion cache outside the timed region,
            # as a resident catalog would be after its first query.
            col_plan.execute(catalog)

            row_result, row_t = best_of(lambda: row_plan.execute(catalog))
            col_result, col_t = best_of(lambda: col_plan.execute(catalog))
            assert col_result == row_result == cold_result
            speedup = row_t / col_t if col_t else float("inf")
            cold_speedup = row_t / cold_t if cold_t else float("inf")
            writer.record("row_%s" % name, size, row_t)
            writer.record(
                "columnar_cold_%s" % name,
                size,
                cold_t,
                speedup=round(cold_speedup, 2),
            )
            writer.record(
                "columnar_%s" % name, size, col_t, speedup=round(speedup, 2)
            )
            print("%-10s %-8d %12.6f %12.6f %12.6f %8.1fx %8.1fx"
                  % (name, size, row_t, cold_t, col_t, cold_speedup,
                     speedup))

            if quick and col_t > row_t:
                failures.append(
                    "columnar %s slower than row at n=%d: %.6fs vs %.6fs"
                    % (name, size, col_t, row_t)
                )
            if not quick and size >= 100_000 and speedup < 10.0:
                failures.append(
                    "columnar %s speedup %.1fx below the 10x bar at n=%d"
                    % (name, speedup, size)
                )

    print("\nprojection — warm columnar π[Emp, Budget](emp ⋈ σ[City = c]"
          "(dept)), %d depts, median of %d (gate %.1fx)"
          % (PROJECTION_DEPTS, PROJECTION_REPEATS, PROJECTION_GATE))
    print("%-8s %16s %16s %10s"
          % ("emps", "unprojected(s)", "projected(s)", "ratio"))
    for size in sizes if quick else (2000,) + sizes:
        failures.extend(projection_cost(writer, size))

    print("\nEXPLAIN ANALYZE of the lowered star query:")
    catalog = Catalog(star_catalog(sizes[-1], n_depts=n_depts))
    exemplar = lowered_plan(star_query(), catalog)
    print(explain_analyze(exemplar, catalog))

    print("results -> %s" % writer.write())
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))


if __name__ == "__main__":
    main()
