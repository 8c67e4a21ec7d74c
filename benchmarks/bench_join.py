"""E4 — Generalized join vs flat natural join.

The paper claims the generalized join "is a generalization of the
'natural join' for 1NF relations".  This harness:

1. verifies the two coincide on flat data (result equality);
2. measures the generality's price: the generalized join enumerates
   pairs and checks consistency, the flat join hash-partitions — so
   the flat path wins on flat data, increasingly with size;
3. degrades the data with a null fraction only the generalized join
   can process at all.

Expected shape: flat ≪ generalized on flat inputs; generalized is the
only contender once records are partial.

Run:  pytest benchmarks/bench_join.py --benchmark-only
      python benchmarks/bench_join.py        (prints the E4 table)
"""

import pytest

from repro.workloads.relations import (
    flat_join_pair,
    random_generalized_relation,
)

SIZES = [20, 60, 150]


@pytest.mark.parametrize("size", SIZES)
def test_flat_natural_join(benchmark, size):
    left, right = flat_join_pair(size, key_cardinality=size // 4, seed=3)
    result = benchmark(lambda: left.natural_join(right))
    assert len(result) > 0


@pytest.mark.parametrize("size", SIZES)
def test_generalized_join_on_flat_data(benchmark, size):
    left, right = flat_join_pair(size, key_cardinality=size // 4, seed=3)
    g_left = left.to_generalized()
    g_right = right.to_generalized()
    result = benchmark(lambda: g_left.join(g_right))
    assert len(result) > 0


@pytest.mark.parametrize("size", SIZES)
def test_results_coincide(size):
    """The correctness half of the claim: identical results on 1NF data."""
    left, right = flat_join_pair(size, key_cardinality=size // 4, seed=3)
    flat = left.natural_join(right)
    generalized = left.to_generalized().join(right.to_generalized())
    assert generalized == flat.to_generalized()


@pytest.mark.parametrize("null_fraction", [0.2, 0.5])
def test_generalized_join_on_partial_data(benchmark, null_fraction):
    left = random_generalized_relation(
        60, labels=("K", "A"), null_fraction=null_fraction, seed=5
    )
    right = random_generalized_relation(
        60, labels=("K", "B"), null_fraction=null_fraction, seed=6
    )
    result = benchmark(lambda: left.join(right))
    result.check_cochain()


def main():
    import time

    try:
        from benchmarks._results import ResultsWriter, quick_requested
    except ImportError:
        from _results import ResultsWriter, quick_requested

    from repro.core import columnar as _columnar
    from repro.core.index import Catalog
    from repro.core.query import ColumnarExec, explain, optimize, scan

    quick = quick_requested()
    writer = ResultsWriter("join", quick=quick)
    sizes = (20, 60) if quick else (20, 60, 150, 300)

    print("E4 — natural join vs generalized join on flat data")
    print("%-8s %14s %14s %10s"
          % ("size", "flat(s)", "generalized(s)", "factor"))
    for size in sizes:
        left, right = flat_join_pair(size, key_cardinality=size // 4, seed=3)
        g_left, g_right = left.to_generalized(), right.to_generalized()

        flat, flat_t = writer.timeit(
            "flat_natural_join", size, lambda: left.natural_join(right)
        )
        generalized, gen_t = writer.timeit(
            "generalized_join", size, lambda: g_left.join(g_right)
        )

        assert generalized == flat.to_generalized()
        print("%-8d %14.6f %14.6f %9.1fx"
              % (size, flat_t, gen_t, gen_t / flat_t if flat_t else 0.0))
    print("\nSame results; the generalized operator pays for generality,")
    print("but it is the only one defined once records go partial.")

    # E10 rider: the same natural join through the vectorized columnar
    # engine, at sizes where the generalized O(n²) contender is out of
    # reach.  Quick mode doubles as the CI regression guard: columnar
    # must not lose to the row path.
    def best_of(fn, repeats=3):
        best = None
        result = None
        for __ in range(repeats):
            started = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return result, best

    failures = []
    col_sizes = (2000,) if quick else (10_000, 100_000)
    print("\nE10 rider — row vs columnar natural join (best of 3)")
    print("%-8s %14s %14s %10s"
          % ("size", "row(s)", "columnar(s)", "speedup"))
    for size in col_sizes:
        left, right = flat_join_pair(size, key_cardinality=size // 4, seed=3)
        catalog = Catalog({"L": left, "R": right})
        plan = scan("L").join(scan("R"))
        row_plan = optimize(plan, catalog)
        _columnar.enable()
        try:
            col_plan = optimize(plan, catalog)
        finally:
            _columnar.disable()
        assert isinstance(col_plan, ColumnarExec), explain(col_plan)
        col_plan.execute(catalog)  # warm the scan cache

        row_result, row_t = best_of(lambda: row_plan.execute(catalog))
        col_result, col_t = best_of(lambda: col_plan.execute(catalog))
        assert col_result == row_result
        writer.record("row_natural_join", size, row_t)
        writer.record(
            "columnar_join", size, col_t,
            speedup=round(row_t / col_t, 2) if col_t else None,
        )
        print("%-8d %14.6f %14.6f %9.1fx"
              % (size, row_t, col_t, row_t / col_t if col_t else 0.0))
        if quick and col_t > row_t:
            failures.append(
                "columnar join slower than row at n=%d: %.6fs vs %.6fs"
                % (size, col_t, row_t)
            )

    print("results -> %s" % writer.write())
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))


if __name__ == "__main__":
    main()
