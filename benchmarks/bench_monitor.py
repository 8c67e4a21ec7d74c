"""Monitoring-layer overhead — always-on sampling must stay near-free.

The monitoring tentpole (``repro.obs.monitor`` + ``repro.obs.slowlog``)
is meant to run in production: every ``Plan.execute`` pays one
``slowlog.CURRENT.enabled`` check, and the sampler's ``tick()`` runs
once per window, not per operation.  This harness measures the same
star-query workload as ``bench_obs`` with the layer off and on (slowlog
armed at its default threshold, one ``tick()`` per iteration — a far
higher sampling rate than any real deployment), takes the min over
interleaved repeats, and **fails the run** when enabled/disabled
exceeds :data:`OVERHEAD_BUDGET` (1.25x).

It also measures raw ``tick()`` and ``render_openmetrics()`` cost,
then forces a slow capture (threshold 0) so the run leaves real
operator evidence behind: ``BENCH_monitor.openmetrics`` (the
OpenMetrics snapshot, parse-back-checked) and
``BENCH_monitor.slowlog.jsonl`` (the captured slow queries) ride along
with ``BENCH_monitor.json`` as CI artifacts.

Run:  python benchmarks/bench_monitor.py [--quick]
"""

import json
import time

try:
    from benchmarks._results import ResultsWriter, quick_requested
    from benchmarks.bench_query import make_catalog, star_query
except ImportError:
    from _results import ResultsWriter, quick_requested
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
    repeats = 3 if quick else 5

    run = make_workload(size)
    run()  # warm caches and lazily-created metrics before timing

    # Interleave off/on repeats so drift (thermal, page cache) hits
    # both modes equally; min-of-repeats filters the noise.  "On" is
    # the full production stance: slowlog armed (default threshold, so
    # nothing records — this prices the always-on check) and one
    # sampler tick per iteration.
    off_times, on_times = [], []
    for _ in range(repeats):
        _monitor.disable()
        _slowlog.disable()
        off_times.append(measure(run, iterations))
        monitor = _monitor.enable()
        _slowlog.enable()
        on_times.append(measure(run, iterations, per_iteration=monitor.tick))
    best_off, best_on = min(off_times), min(on_times)
    ratio = best_on / best_off if best_off else 1.0
    writer.record("workload_monitor_off", size, best_off,
                  iterations=iterations)
    writer.record("workload_monitor_on", size, best_on,
                  iterations=iterations, ratio=ratio)

    print("monitoring overhead (star query, n=%d)" % size)
    print("%-24s %12s" % ("mode", "best(s)"))
    print("%-24s %12.6f" % ("monitoring off", best_off))
    print("%-24s %12.6f   (%.3fx)" % ("monitoring on", best_on, ratio))

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

    # Force a slow capture so the artifacts carry real entries: with
    # the threshold at 0 every query is "slow", and EXPLAIN ANALYZE
    # contributes the drift column.
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
    # slow-query log as JSONL, beside the usual JSON + trace pair.
    om_path = _monitor.write_metrics_snapshot("BENCH_monitor.openmetrics")
    parsed = _monitor.parse_openmetrics(open(om_path, encoding="utf-8").read())
    assert parsed["eof"], "OpenMetrics snapshot lost its # EOF terminator"
    assert parsed["counters"], "OpenMetrics snapshot exposed no counters"
    slow_path = "BENCH_monitor.slowlog.jsonl"
    with open(slow_path, "w", encoding="utf-8") as handle:
        for entry in log.entries():
            handle.write(json.dumps(entry.to_dict(), sort_keys=True))
            handle.write("\n")
    assert len(log) > 0, "forced slow query never reached the log"

    _slowlog.disable()
    _monitor.disable()
    print("\nresults    -> %s" % writer.write())
    print("trace      -> %s" % writer.trace_path)
    print("openmetrics-> %s" % om_path)
    print("slowlog    -> %s" % slow_path)

    if ratio > OVERHEAD_BUDGET:
        print("\nFAIL: monitoring overhead %.3fx exceeds the %.2fx budget"
              % (ratio, OVERHEAD_BUDGET))
        raise SystemExit(1)
    print("\nmonitoring overhead %.3fx within the %.2fx budget"
          % (ratio, OVERHEAD_BUDGET))


if __name__ == "__main__":
    main()
