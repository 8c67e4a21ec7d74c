"""E10 — vectorized columnar execution vs the row-at-a-time path.

The ROADMAP names an order of magnitude at 10⁵–10⁶ rows as the target
for the flat fast path.  This harness measures exactly that claim: the
same optimized plans — a fact⋈dimension natural join and the E9 star
query (filter + join + project) — executed row-at-a-time and through
``ColumnarExec`` (``:columnar on``), on `repro.workloads.star_catalog`
inputs built via the trusted bulk path so setup does not dominate.

Timings are medians of interleaved repeats with their interquartile
range (``_results.interleaved_medians``), results asserted equal.  The
columnar side is timed twice: *warm*, on a catalog whose scan
conversions are already cached (a resident catalog after its first
query), and *cold*, on fresh relation objects built outside the timer
for every run, so each run pays the row→column transpose — what every
DBPL query and every rebind of a name sees.  Two guards, both on the
warm medians, gate CI:

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

The last table prices posting lists and statistics-chosen encodings on
engine_query's 20-department star catalog: that city query and
``π[Emp, City, Salary](σ[Salary < 14](emp) ⋈ dept)``, warm, row against
columnar, over an analyzed catalog and a bare one, each timed with
``len()`` and with its rows materialized.  ANALYZE counts ``Salary``'s
100 distinct values exactly, so the analyzed scan encodes it, where the
64-value leading sample of the bare one sees too many to.  It gates no
timing, but the run exits 1 if an analyzed result differs from the row
path's, or if the analyzed scan of ``emp.Salary`` is not encoded or the
bare one is.

Run:  pytest benchmarks/bench_columnar.py --benchmark-only
      python benchmarks/bench_columnar.py      (prints the E10 table)
"""

import pytest

from repro.core import columnar as _columnar
from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import ColumnarExec, eq, explain, lt, optimize, scan
from repro.workloads.relations import star_catalog

try:
    from benchmarks._results import (
        ResultsWriter,
        interleaved_medians,
        quick_requested,
    )
except ImportError:  # run as a script: benchmarks/ is on the path
    from _results import ResultsWriter, interleaved_medians, quick_requested

SIZES = [2000, 10_000]

PROJECTION_DEPTS = 20  # engine_query's star catalog
PROJECTION_REPEATS = 31
PROJECTION_GATE = 1.5  # projected over unprojected, warm medians

POSTINGS_REPEATS = 31


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


def range_query():
    """engine_query's other columnar star query."""
    return (
        scan("emp")
        .where(lt("Salary", 14))
        .join(scan("dept"))
        .project(["Emp", "City", "Salary"])
    )


def fresh_catalog(relations):
    """A catalog over copies of ``relations``: new relation objects,
    which no scan has converted yet."""
    return Catalog(
        {
            name: FlatRelation.bulk_build(rel.schema, rel.rows)
            for name, rel in relations.items()
        }
    )


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
    plans = {
        "columnar_unprojected_city": lowered_plan(city_query(), catalog),
        "columnar_projected_city": lowered_plan(projected_city_query(), catalog),
    }
    results = {op: plan.execute(catalog) for op, plan in plans.items()}
    assert results["columnar_projected_city"] == results[
        "columnar_unprojected_city"
    ].project(["Emp", "Budget"])
    medians, __ = interleaved_medians(writer, size, [
        (op, lambda plan=plan: lambda: len(plan.execute(catalog)))
        for op, plan in plans.items()
    ], PROJECTION_REPEATS)
    unprojected = medians["columnar_unprojected_city"]
    projected = medians["columnar_projected_city"]
    ratio = projected / unprojected
    print("%-8d %16.6f %16.6f %9.2fx" % (size, unprojected, projected, ratio))
    if ratio > PROJECTION_GATE:
        return [
            "projected star query costs %.2fx the unprojected one at"
            " n=%d (gate %.1fx)" % (ratio, size, PROJECTION_GATE)
        ]
    return []


def _materialized(relation):
    relation.rows  # a columnar result builds its row set here
    return relation


def postings_cost(writer, size):
    """Warm medians of the two engine_query star queries, row against
    columnar, over an analyzed catalog and a bare one, each consumed by
    ``len()`` and by materializing its rows; returns the check failures
    (results and encodings — no timing is gated)."""
    relations = star_catalog(size, n_depts=PROJECTION_DEPTS)
    catalogs = {"": fresh_catalog(relations), "_analyzed": fresh_catalog(relations)}
    catalogs["_analyzed"].analyze_all()
    failures = []
    for name, query in (("city", projected_city_query()), ("range", range_query())):
        cases = []
        for suffix, catalog in catalogs.items():
            plans = {
                "row": optimize(query, catalog),
                "columnar": lowered_plan(query, catalog),
            }
            plans["columnar"].execute(catalog)  # warm the scan cache
            for path, plan in plans.items():
                cases.append((
                    "%s_%s%s_len" % (name, path, suffix),
                    lambda plan=plan, catalog=catalog: lambda: len(
                        plan.execute(catalog)
                    ),
                ))
                cases.append((
                    "%s_%s%s_rows" % (name, path, suffix),
                    lambda plan=plan, catalog=catalog: lambda: _materialized(
                        plan.execute(catalog)
                    ),
                ))
        medians, results = interleaved_medians(
            writer, size, cases, POSTINGS_REPEATS
        )
        for consume in ("len", "rows"):
            op = "%s_%%s_%s" % (name, consume)
            row = results[op % "row"]
            for path in ("row_analyzed", "columnar_analyzed"):
                if results[op % path] != row:
                    failures.append(
                        "%s differs from the row path at n=%d" % (op % path, size)
                    )
            print("%-6s %-5s %-8d %10.6f %10.6f %10.6f %10.6f %8.1fx" % (
                name, consume, size,
                medians[op % "row"], medians[op % "row_analyzed"],
                medians[op % "columnar"], medians[op % "columnar_analyzed"],
                medians[op % "columnar"] / medians[op % "columnar_analyzed"],
            ))
    salary = {
        suffix: _columnar.scan(catalog["emp"]).column("Salary").is_encoded
        for suffix, catalog in catalogs.items()
    }
    if not salary["_analyzed"] or salary[""]:
        failures.append(
            "emp.Salary encoded %s analyzed, %s bare at n=%d (want True, False)"
            % (salary["_analyzed"], salary[""], size)
        )
    return failures


def main():
    from repro.core.query import explain_analyze

    quick = quick_requested()
    writer = ResultsWriter("columnar", quick=quick)
    sizes = (2000,) if quick else (10_000, 100_000)
    repeats = 5 if quick else 9
    n_depts = 200

    print("E10 — row-at-a-time vs columnar execution (median of %d"
          " interleaved runs)" % repeats)
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
            # Warm the scan-conversion cache outside the timed region,
            # as a resident catalog would be after its first query.
            col_plan.execute(catalog)

            def cold(col_plan=col_plan):
                fresh = fresh_catalog(relations)
                return lambda: col_plan.execute(fresh)

            medians, results = interleaved_medians(writer, size, [
                ("row_%s" % name, lambda: lambda: row_plan.execute(catalog)),
                ("columnar_cold_%s" % name, cold),
                ("columnar_%s" % name, lambda: lambda: col_plan.execute(catalog)),
            ], repeats)
            row_t = medians["row_%s" % name]
            cold_t = medians["columnar_cold_%s" % name]
            col_t = medians["columnar_%s" % name]
            assert (results["columnar_%s" % name] == results["row_%s" % name]
                    == results["columnar_cold_%s" % name])
            speedup = row_t / col_t if col_t else float("inf")
            cold_speedup = row_t / cold_t if cold_t else float("inf")
            writer.rows[-2]["speedup"] = round(cold_speedup, 2)
            writer.rows[-1]["speedup"] = round(speedup, 2)
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

    print("\npostings — warm engine_query star queries, %d depts, median of"
          " %d; city = π[Emp, Budget](emp ⋈ σ[City = c](dept)), range ="
          " π[Emp, City, Salary](σ[Salary < 14](emp) ⋈ dept)"
          % (PROJECTION_DEPTS, POSTINGS_REPEATS))
    print("%-6s %-5s %-8s %10s %10s %10s %10s %9s"
          % ("query", "use", "emps", "row(s)", "row+an(s)", "col(s)",
             "col+an(s)", "analyzed"))
    for size in (2000,) if quick else (2000, 20_000):
        failures.extend(postings_cost(writer, size))

    print("\nEXPLAIN ANALYZE of the lowered star query:")
    catalog = Catalog(star_catalog(sizes[-1], n_depts=n_depts))
    exemplar = lowered_plan(star_query(), catalog)
    print(explain_analyze(exemplar, catalog))

    print("results -> %s" % writer.write())
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))


if __name__ == "__main__":
    main()
