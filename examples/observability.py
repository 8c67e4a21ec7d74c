#!/usr/bin/env python3
"""Observe the system at work: tracing, metrics, and EXPLAIN ANALYZE.

Walks the observability layer (``repro.obs``) end to end on the paper's
own material:

1. span-traces Figure 1's generalized join — both directly and as a
   DBPL program, whose parse/check/eval phases nest in the span tree;
2. dumps the metrics registry: join fast-path hits/misses, pair counts,
   store appends — the always-on counters behind every benchmark's
   ``BENCH_<area>.json``;
3. runs ``EXPLAIN ANALYZE`` on an optimized employee query, showing the
   optimizer's cardinality estimates beside the measured rows and time
   and each join's kernel pruning ratio;
4. collects column statistics with ``ANALYZE`` and replans: the cost
   model's measured selectivities close the estimate drift step 3
   exposed;
5. turns on the event journal and profiler, replays the paper's update
   anomaly between two DBPL interpreters on one extern namespace — the
   flight recorder catches the divergent re-intern as a WARN event —
   and prints the per-operator profile;
6. exports the whole session (spans, journal, metrics) as a
   Chrome/Perfetto trace file and re-reads it, proving the span tree
   round-trips.

Run:  python examples/observability.py
"""

import os
import tempfile

from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import eq, explain_analyze, optimize, scan
from repro.core.relation import join_with_fastpath
from repro.lang import run_program
from repro.lang.eval import Interpreter
from repro.obs import events, export, metrics, profile, trace
from repro.persistence.mvcc import TransactionManager

from figure1_join import DBPL_VERSION, R1, R2


def main():
    tracer = trace.enable()

    # -- 1. trace Figure 1 ------------------------------------------------
    with trace.span("figure1.join", left=len(R1), right=len(R2)) as sp:
        joined = R1.join(R2)
        sp.annotate(rows_out=len(joined))
    # The generalized fast path declines partial records (a miss) ...
    join_with_fastpath(R1, R2)
    # ... and fires on flat cochains (a hit).
    flat = FlatRelation(("K", "A"), [(1, 10), (2, 20)])
    join_with_fastpath(
        flat.to_generalized(),
        FlatRelation(("K", "B"), [(1, 30)]).to_generalized(),
    )

    # The same figure as a DBPL program: its parse/check/eval phases
    # nest as children of one lang.run span.
    run_program(DBPL_VERSION)

    print("span trees (wall time per region, tags annotated):\n")
    for root in tracer.roots:
        print(root.format())
    print()

    # -- 2. the metrics registry ------------------------------------------
    print("metrics after the joins above:\n")
    print(metrics.REGISTRY.format())
    print()

    trace.disable()  # instrumented code now pays one attribute check

    # -- 3. EXPLAIN ANALYZE -----------------------------------------------
    emp = FlatRelation(
        ("Emp", "Dept", "Salary"),
        [
            ("Smith", "Sales", 40),
            ("Jones", "Sales", 50),
            ("Brown", "Manuf", 40),
            ("Green", "Manuf", 60),
        ],
    )
    dept = FlatRelation(
        ("Dept", "City"),
        [("Sales", "Glasgow"), ("Manuf", "Lochgilphead")],
    )
    catalog = {"emp": emp, "dept": dept}
    plan = optimize(
        scan("emp")
        .join(scan("dept"))
        .where(eq("Dept", "Manuf"))
        .project(["Emp", "City"]),
        catalog,
    )
    print("EXPLAIN ANALYZE — estimates vs actuals, per node:\n")
    print(explain_analyze(plan, catalog))
    print()
    print("The equality selection's fixed 0.1 selectivity guess under-")
    print("estimates the Manuf filter (2 of 4 rows match): visible drift.")
    print()

    # -- 4. ANALYZE closes the loop ---------------------------------------
    analyzed = Catalog(catalog)
    analyzed.analyze_all()
    print("the collected statistics:\n")
    print(analyzed.stats_for("emp").format())
    print()
    replanned = optimize(
        scan("emp")
        .join(scan("dept"))
        .where(eq("Dept", "Manuf"))
        .project(["Emp", "City"]),
        analyzed,
    )
    print("EXPLAIN ANALYZE after ANALYZE — the MCV answers exactly:\n")
    print(explain_analyze(replanned, analyzed))
    print()

    # -- 5. the flight recorder -------------------------------------------
    events.enable()
    profiler = profile.enable()
    with tempfile.TemporaryDirectory() as tmp:
        # The paper's update anomaly, caught live: two interpreters
        # share one extern namespace on a log; a re-intern that finds
        # the value changed behind its back is journaled as a WARN.
        shared = TransactionManager(os.path.join(tmp, "shared.log"))
        mine, theirs = Interpreter(shared), Interpreter(shared)
        mine.run('extern("doc", dynamic "original");')
        mine.run('coerce intern("doc") to String')
        theirs.run('extern("doc", dynamic "changed elsewhere");')
        # divergent: WARN divergent_reintern
        mine.run('coerce intern("doc") to String')
        shared.close()

        # Re-run the optimized query with the profiler attributing wall
        # time and join-pair work to each operator.
        replanned.execute(analyzed)

        print("the event journal (note the WARN — the update anomaly):\n")
        for event in events.CURRENT.events(subsystem="replicating"):
            print(event.format())
        print()
        print("per-operator profile:\n")
        print(profiler.report())
        print()

        # -- 6. export and re-read the whole session ----------------------
        tracer = trace.enable()
        replanned.execute(analyzed)  # traced this time: plan.* spans
        path = export.write_trace(os.path.join(tmp, "session.trace.json"))
        document = export.read_trace(path)
        roots = export.span_tree(document)
        trace.disable()

        print("exported %d trace events to %s" % (
            len(document["traceEvents"]), os.path.basename(path)))
        print("journal totals in otherData:",
              document["otherData"]["journal"])

        def render(node, depth=0):
            print("  " * depth + node["name"])
            for child in node["children"]:
                render(child, depth + 1)

        print("span tree re-read from the file (== the operator tree):\n")
        for root in roots:
            if root["name"].startswith("plan."):
                render(root)
    events.disable()
    profile.disable()


if __name__ == "__main__":
    main()
