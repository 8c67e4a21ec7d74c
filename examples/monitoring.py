#!/usr/bin/env python3
"""Production monitoring: watch a skewed workload, catch a slow query.

Drives the monitoring layer (``repro.obs.monitor`` +
``repro.obs.slowlog``) end to end on the skewed-orders workload:

1. enables the flight recorder with a deliberately tiny journal ring,
   the slow-query log, and the windowed monitor;
2. runs a burst of status lookups, sampling a monitor window per
   batch — counter rates and latency digests accumulate;
3. trips the slow-query log: with the threshold dropped to 0 every
   query is "slow", and an ``EXPLAIN ANALYZE`` run contributes the
   estimate-drift column to the captured entry;
4. runs the health probes: the tiny journal ring has been evicting
   events all along, so ``journal.drops`` reports *degraded* — and the
   verdict itself is journaled as a WARN event;
5. prints the ``:watch``-style rates/latency/gauges view;
6. exports the registry as OpenMetrics text and parses it back,
   proving the exposition round-trips.

Run:  python examples/monitoring.py
"""

import os
import tempfile

from repro.core.query import explain_analyze, optimize
from repro.obs import events, monitor, slowlog, trace
from repro.obs.metrics import REGISTRY
from repro.workloads.queries import orders_catalog, orders_query


def main():
    # -- 1. arm the monitoring layer --------------------------------------
    # A 32-event ring is far too small for this workload — on purpose:
    # the journal.drops health probe should catch the eviction pressure.
    events.enable(capacity=32)
    log = slowlog.enable(threshold_ms=50.0)
    mon = monitor.enable()

    catalog = orders_catalog(rows=2000)
    statuses = ("shipped", "pending", "returned", "failed")

    # -- 2. the workload, sampled per batch -------------------------------
    # Tracing is on, so every closed plan span also chronicles a DEBUG
    # event into the journal — realistic chatter that the 32-slot ring
    # cannot hold.
    tracer = trace.enable()
    for batch in range(5):
        for status in statuses:
            plan = optimize(orders_query(status), catalog)
            plan.execute(catalog)
        mon.tick()
        tracer.clear()  # keep the long-running session bounded
    trace.disable()
    print("sampled %d monitor windows over %d queries\n"
          % (len(mon.windows()), 5 * len(statuses)))

    # -- 3. trip the slow-query log ---------------------------------------
    slowlog.enable(threshold_ms=0.0)  # every query is now "slow"
    slow_plan = optimize(orders_query("failed"), catalog)
    print(explain_analyze(slow_plan, catalog))
    slow_plan.execute(catalog)
    mon.tick()
    print("\nthe slow-query log (:slow):\n")
    print(log.report())
    assert len(log) > 0, "the forced slow query never reached the log"

    # -- 4. health: the tiny journal ring is degraded ---------------------
    print("\nhealth probes (:health):\n")
    results = monitor.health_report(catalog=catalog)
    print(monitor.format_health(results))
    drops = next(r for r in results if r.probe == "journal.drops")
    assert drops.verdict == monitor.DEGRADED, (
        "expected the 32-slot journal to be evicting by now"
    )
    # The degraded verdict is itself journaled evidence:
    warns = [e for e in events.CURRENT.events(subsystem="health")]
    print("\njournaled health WARNs: %d (e.g. %s)"
          % (len(warns), warns[-1].format()))

    # -- 5. the :watch view -----------------------------------------------
    print("\nthe :watch view over all windows:\n")
    print(mon.format())

    # -- 6. OpenMetrics round-trip ----------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = monitor.write_metrics_snapshot(
            os.path.join(tmp, "orders.openmetrics")
        )
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        parsed = monitor.parse_openmetrics(text)
        print("\nOpenMetrics snapshot: %d bytes, %d counters, %d gauges,"
              " %d summaries (EOF=%s)"
              % (len(text), len(parsed["counters"]), len(parsed["gauges"]),
                 len(parsed["summaries"]), parsed["eof"]))
        assert len(parsed["counters"]) == len(REGISTRY.counters()), (
            "exposition dropped a counter"
        )
        first = sorted(parsed["counters"])[:3]
        for name in first:
            print("  %s = %d" % (name, parsed["counters"][name]))

    slowlog.disable()
    monitor.disable()
    events.disable()


if __name__ == "__main__":
    main()
