"""The repository benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see PROVENANCE.md for sizes, placement and why each exists):
served_read, served_write, engine_query, heap_commit.  Every op's output
is checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a separate traced phase)
with ``--trace 1``.  Every time is rescaled to a nominal host speed
(hostclock.py).  A failed output or durability check exits 1.
``--smoke`` runs tiny sizes for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    common.require_sources()

    import hostclock
    import inproc
    import layers
    import served

    # Each workload, and how its time follows the host's speed
    # (hostclock.py).
    workloads = {
        "served_read": (served.served_read, 1.3),
        "served_write": (served.served_write, 1.3),
        "engine_query": (inproc.engine_query, 1.0),
        "heap_commit": (inproc.heap_commit, 1.0),
    }
    if args.workload not in workloads:
        parser.error("unknown workload %r (have %s)"
                     % (args.workload, ", ".join(sorted(workloads))))
    workload, sensitivity = workloads[args.workload]
    placement = common.pin()
    work = common.WorkDir()
    clock = hostclock.HostClock(placement[0], sensitivity)
    try:
        outcome = workload(args, work, clock)
    finally:
        served.kill_all()
        clock.close()
        work.close()
    outcome["env"]["cpus"] = placement

    if args.trace:
        names = layers.PER_LAYER
        values = outcome["per_layer"]
    else:
        names = END_TO_END
        values = outcome["metrics"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    print("perfbench env: %s" % json.dumps(outcome["env"], sort_keys=True))
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
