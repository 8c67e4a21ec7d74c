"""Monitoring-layer overhead — always-on sampling must stay near-free.

The monitoring tentpole (``repro.obs.monitor`` + ``repro.obs.slowlog``)
is meant to run in production: with the slow-query log on, every
``Plan.execute`` takes a watched-counter snapshot and a wall-clock
reading (it builds a wide event only when the run was slow), and the
sampler's ``tick()`` runs once per window, not per operation.  This
harness measures the same star-query workload as ``bench_obs`` with
the layer off and on (slowlog armed at its default threshold, one
``tick()`` per iteration — a far higher sampling rate than any real
deployment) in interleaved off/on pairs, records each mode's median
and interquartile range, and **fails the run** when the median of the
pairs' on/off ratios exceeds :data:`OVERHEAD_BUDGET` (1.25x).

It also measures raw ``tick()`` and ``render_openmetrics()`` cost,
then forces a slow capture (threshold 0) so the run leaves real
operator evidence behind: ``BENCH_monitor.openmetrics`` (the
OpenMetrics snapshot, parse-back-checked) and
``BENCH_monitor.slowlog.jsonl`` (the slow log's wide events: one
``explain`` and one ``plan``) ride along with ``BENCH_monitor.json``
as CI artifacts.

Run:  python benchmarks/bench_monitor.py [--quick]
"""

import json
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
from repro.obs import monitor as _monitor
from repro.obs import slowlog as _slowlog

OVERHEAD_BUDGET = 1.25


def make_workload(size):
    """The bench_query star query: optimize + execute per iteration."""
    catalog = make_catalog(size)
    plan = star_query()

    def run():
        optimize(plan, catalog).execute(catalog)

    return run


def measure(run, iterations, per_iteration=None):
    """Wall seconds for ``iterations`` runs (plus a per-iteration hook)."""
    started = time.perf_counter()
    if per_iteration is None:
        for _ in range(iterations):
            run()
    else:
        for _ in range(iterations):
            run()
            per_iteration()
    return time.perf_counter() - started


def main():
    quick = quick_requested()
    writer = ResultsWriter("monitor", quick=quick)
    size = 300 if quick else 1000
    iterations = 10 if quick else 30
    pairs = 9 if quick else 15

    run = make_workload(size)
    run()  # warm caches and lazily-created metrics before timing

    # Interleaved off/on pairs, so drift (thermal, page cache) hits both
    # modes alike; the gate is the median of the pairs' ratios.  "On"
    # is the full production stance: slowlog armed (default threshold,
    # so nothing is kept — this prices the always-on capture) and one
    # sampler tick per iteration.
    off_times, on_times = [], []
    for _ in range(pairs):
        _monitor.disable()
        _slowlog.disable()
        off_times.append(measure(run, iterations))
        monitor = _monitor.enable()
        _slowlog.enable()
        on_times.append(measure(run, iterations, per_iteration=monitor.tick))
    ratio = statistics.median(
        on / off for on, off in zip(on_times, off_times)
    )
    off_median, off_iqr = median_and_iqr(off_times)
    on_median, on_iqr = median_and_iqr(on_times)
    writer.record("workload_monitor_off", size, off_median,
                  iterations=iterations, pairs=pairs, iqr=off_iqr)
    writer.record("workload_monitor_on", size, on_median,
                  iterations=iterations, pairs=pairs, iqr=on_iqr,
                  ratio=ratio)

    print("monitoring overhead (star query, n=%d)" % size)
    print("%-24s %12s %12s" % ("mode", "median(s)", "IQR(s)"))
    print("%-24s %12.6f %12.6f" % ("monitoring off", off_median, off_iqr))
    print("%-24s %12.6f %12.6f" % ("monitoring on", on_median, on_iqr))
    print("median on/off ratio over %d pairs: %.3fx" % (pairs, ratio))

    # Raw sampler cost: how expensive is one window rollup?
    monitor = _monitor.enable()
    ticks = 1_000 if quick else 10_000
    started = time.perf_counter()
    for _ in range(ticks):
        monitor.tick()
    tick_seconds = time.perf_counter() - started
    writer.record("tick", ticks, tick_seconds,
                  per_second=ticks / tick_seconds)
    print("\n%d ticks in %.4fs (%.0f windows/s)"
          % (ticks, tick_seconds, ticks / tick_seconds))

    # Exposition cost: one full registry render.
    renders = 100 if quick else 1_000
    started = time.perf_counter()
    for _ in range(renders):
        text = _monitor.render_openmetrics()
    render_seconds = time.perf_counter() - started
    writer.record("render_openmetrics", renders, render_seconds,
                  per_second=renders / render_seconds)
    print("%d renders in %.4fs (%.0f/s, %d bytes each)"
          % (renders, render_seconds, renders / render_seconds, len(text)))

    # Force a slow capture so the artifacts carry real records: with
    # the threshold at 0 every run is "slow" — one explain wide event
    # (est/act of its worst-drift node) and one plan wide event.
    log = _slowlog.enable(threshold_ms=0.0)
    catalog = Catalog(make_catalog(size))
    catalog.create_index("emp", "Salary")
    exemplar = optimize(star_query(), catalog)
    explain_analyze(exemplar, catalog)
    exemplar.execute(catalog)
    print("\n%s" % log.report())

    print("\nhealth after the run:")
    print(_monitor.format_health(_monitor.health_report()))

    # The artifacts: OpenMetrics snapshot (parse-back-checked) and the
    # slow log's wide events as JSONL, beside the usual JSON + trace
    # pair.
    om_path = _monitor.write_metrics_snapshot("BENCH_monitor.openmetrics")
    parsed = _monitor.parse_openmetrics(open(om_path, encoding="utf-8").read())
    assert parsed["eof"], "OpenMetrics snapshot lost its # EOF terminator"
    assert parsed["counters"], "OpenMetrics snapshot exposed no counters"
    slow_path = "BENCH_monitor.slowlog.jsonl"
    with open(slow_path, "w", encoding="utf-8") as handle:
        for event in log.last(len(log)):
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    modes = [event.mode for event in log.last(len(log))]
    assert modes == ["explain", "plan"], modes

    _slowlog.disable()
    _monitor.disable()
    print("\nresults    -> %s" % writer.write())
    print("trace      -> %s" % writer.trace_path)
    print("openmetrics-> %s" % om_path)
    print("slowlog    -> %s" % slow_path)

    if ratio > OVERHEAD_BUDGET:
        print("\nFAIL: median monitoring overhead %.3fx exceeds the %.2fx"
              " budget"
              % (ratio, OVERHEAD_BUDGET))
        raise SystemExit(1)
    print("\nmedian monitoring overhead %.3fx within the %.2fx budget"
          % (ratio, OVERHEAD_BUDGET))


if __name__ == "__main__":
    main()
