"""Flight-recorder overhead — the journal must stay near-free.

The observability tentpole only earns its keep if leaving the event
journal *on* costs almost nothing: every call site guards with a single
``_events.CURRENT.enabled`` attribute check, and publishing is one lock
plus a ring-slot write.  This harness measures the same mixed workload
(optimize + execute a star query, a generalized join) with the journal
off and on in interleaved off/on pairs, records each mode's median and
interquartile range, and **fails the run** when the median of the
pairs' on/off ratios exceeds :data:`OVERHEAD_BUDGET` (1.25x) — the
regression guard CI runs with ``--quick``.  A median of pairs, unlike
a ratio of two minimums, rests on every run and not on the two luckiest.

It also measures raw publish throughput, and finishes by executing one
optimized plan under tracing so the exported ``BENCH_obs.trace.json``
carries a span tree matching the EXPLAIN ANALYZE operator tree — the
artifact to drop into ``chrome://tracing`` / Perfetto.

Run:  python benchmarks/bench_obs.py [--quick]
"""

import statistics
import time

try:
    from benchmarks._results import (
        ResultsWriter,
        median_and_iqr,
        quick_requested,
    )
    from benchmarks.bench_query import make_catalog, star_query
except ImportError:
    from _results import ResultsWriter, median_and_iqr, quick_requested
    from bench_query import make_catalog, star_query

from repro.core.index import Catalog
from repro.core.query import explain_analyze, optimize
from repro.obs import events as _events
from repro.obs import trace as _trace
from repro.obs.export import read_trace, span_tree

OVERHEAD_BUDGET = 1.25


def make_workload(size):
    """A closed, journal-exercising workload: plan + generalized join."""
    catalog = make_catalog(size)
    plan = star_query()
    left = catalog["emp"].to_generalized()
    right = catalog["dept"].to_generalized()

    def run():
        optimize(plan, catalog).execute(catalog)
        left.join(right)

    return run


def measure(run, iterations):
    """Wall seconds for ``iterations`` runs of the workload."""
    started = time.perf_counter()
    for _ in range(iterations):
        run()
    return time.perf_counter() - started


def main():
    quick = quick_requested()
    writer = ResultsWriter("obs", quick=quick)
    size = 300 if quick else 1000
    iterations = 10 if quick else 30
    pairs = 9 if quick else 15

    run = make_workload(size)
    run()  # warm caches and lazily-created metrics before timing

    # Interleaved off/on pairs, so drift (thermal, page cache) hits both
    # modes alike; the gate is the median of the pairs' ratios.
    off_times, on_times = [], []
    for _ in range(pairs):
        _events.disable()
        off_times.append(measure(run, iterations))
        _events.enable()
        on_times.append(measure(run, iterations))
    ratio = statistics.median(
        on / off for on, off in zip(on_times, off_times)
    )
    off_median, off_iqr = median_and_iqr(off_times)
    on_median, on_iqr = median_and_iqr(on_times)
    writer.record("workload_journal_off", size, off_median,
                  iterations=iterations, pairs=pairs, iqr=off_iqr)
    writer.record("workload_journal_on", size, on_median,
                  iterations=iterations, pairs=pairs, iqr=on_iqr,
                  ratio=ratio)

    print("flight-recorder overhead (star query + generalized join, n=%d)"
          % size)
    print("%-24s %12s %12s" % ("mode", "median(s)", "IQR(s)"))
    print("%-24s %12.6f %12.6f" % ("journal off", off_median, off_iqr))
    print("%-24s %12.6f %12.6f" % ("journal on", on_median, on_iqr))
    print("median on/off ratio over %d pairs: %.3fx" % (pairs, ratio))

    # Raw publish throughput: how fast can events land in the ring?
    journal = _events.enable()
    publishes = 10_000 if quick else 100_000
    started = time.perf_counter()
    for i in range(publishes):
        journal.publish("DEBUG", "bench", "tick", i=i)
    publish_seconds = time.perf_counter() - started
    writer.record("publish", publishes, publish_seconds,
                  per_second=publishes / publish_seconds)
    print("\n%d publishes in %.4fs (%.0f events/s)"
          % (publishes, publish_seconds, publishes / publish_seconds))

    # The exemplar: one traced, profiled execution whose exported span
    # tree mirrors the EXPLAIN ANALYZE operator tree.
    catalog = Catalog(make_catalog(size))
    catalog.create_index("emp", "Salary")
    exemplar = optimize(star_query(), catalog)
    print("\nEXPLAIN ANALYZE of the exemplar plan:")
    print(explain_analyze(exemplar, catalog))
    _trace.enable()
    try:
        exemplar.execute(catalog)
        print("results -> %s" % writer.write())
        print("trace   -> %s" % writer.trace_path)
    finally:
        _trace.disable()

    # Self-check the artifact: the trace must be loadable and carry the
    # plan's span tree.
    forest = span_tree(read_trace(writer.trace_path))
    plan_spans = [n for n in forest if n["name"].startswith("plan.")]
    assert plan_spans, "exported trace lost the plan span tree"

    if ratio > OVERHEAD_BUDGET:
        print("\nFAIL: median journal overhead %.3fx exceeds the %.2fx budget"
              % (ratio, OVERHEAD_BUDGET))
        raise SystemExit(1)
    print("\nmedian journal overhead %.3fx within the %.2fx budget"
          % (ratio, OVERHEAD_BUDGET))


if __name__ == "__main__":
    main()
