"""engine_query and heap_commit: the embedded Python API, in-process,
one thread, on the measured vCPU."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List

import common
import layers
import spans as spanlib

# engine_query sizes (fixed for every seed).
STAR_ROWS = 20_000
STAR_DEPTS = 20
SMOKE_STAR_ROWS = 400
# Every block of 20 ops holds exactly 11 row-path ops on the Figure-1
# catalog, 2 IndexScan and 7 columnar star queries, in seeded order: the
# row-path class holds the median, the columnar class the 90th
# percentile, neither near a class boundary, in every part and seed.
BLOCK = ("small",) * 11 + ("index",) * 2 + ("columnar",) * 7
# Every REBIND_EVERY-th op first rebinds a relation, targets in turn,
# so scan-cache misses and stale-statistics re-analysis are priced.  The
# rows come from REBIND_VARIANTS seeded row sets per target, made before
# the measured phase; the op builds a fresh relation over them, so the
# scan cache still misses.
REBIND_EVERY = 25
REBIND_TARGETS = ("small.emp", "star.dept", "star.emp")
REBIND_VARIANTS = 3
CHECK_EVERY = 50  # ops re-run with columnar off as the output check
# Ops per second of --seconds: about what the calibration machine does
# in its faster state, so the measured phase lasts about --seconds there
# (PROVENANCE.md).
# A segment is the ops between two host-clock samples (hostclock.py).
QUERY_OPS_PER_S = 150
QUERY_SEGMENT_OPS = 4

# heap_commit sizes: parts per level, base parts first, then one root.
LEVELS = (800, 400, 200, 100, 50)
SMOKE_LEVELS = (40, 20, 10, 5)
FAN = 3
UPDATES_PER_OP = 3
# Full re-pricings committed before the run: the heap carries their
# history in its log, so opening it replays a few megabytes.
HEAP_HISTORY = 8
HEAP_OPS_PER_S = 13
HEAP_SEGMENT_OPS = 1


def _switches_on() -> None:
    """The REPL's stance: journal, adaptive estimation and columnar on."""
    from repro.core import columnar
    from repro.obs import events
    from repro.stats import adaptive

    events.enable()
    adaptive.enable()
    columnar.enable()


def _loop(ops, run_op):
    """``common.measure``'s segment runner for a one-thread closed loop;
    ``run_op(index, op)``."""
    def run_segment(lo, hi):
        latencies = []
        for index in range(lo, hi):
            started = time.perf_counter()
            run_op(index, ops[index])
            latencies.append(time.perf_counter() - started)
        return latencies

    return run_segment


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _trace_phase(ops, segment_ops, run_op, install, clock, untraced_rate, extra=None):
    """Run ``ops`` with the layers wrapped; per-layer metrics and
    whether they reconcile.  ``extra(recorder)`` adds workload metrics."""
    from repro.obs import metrics

    recorder = spanlib.Recorder()
    install(recorder)
    before = layers.counter_values(metrics.REGISTRY)

    def traced(index, op):
        recorder.set_key(index)
        run_op(index, op)

    try:
        segments = common.measure(
            len(ops), segment_ops, _loop(ops, traced), clock, time.process_time
        )
    finally:
        recorder.set_key(None)
        recorder.unwrap_all()
    after = layers.counter_values(metrics.REGISTRY)
    delta = {name: after[name] - before[name] for name in after}
    return spanlib.layer_report(
        recorder.spans, lambda key: key, segments, delta, untraced_rate,
        extra(recorder) if extra else {},
    )


# -- engine_query ---------------------------------------------------------------


class QueryWorld:
    """The two catalogs and the seeded rebind material."""

    def __init__(self, seed: int, rows: int):
        from repro.core.index import Catalog
        from repro.workloads import queries
        from repro.workloads.relations import star_catalog

        small = Catalog({"emp": queries.EMPLOYEES, "dept": queries.DEPARTMENTS})
        small.analyze_all()
        star = Catalog(star_catalog(rows, n_depts=STAR_DEPTS, seed=seed))
        star.create_index("emp", "Emp")
        star.analyze_all()
        self.small = small
        self.star = star
        self.rows = rows


REBIND_SCHEMAS = {
    "small.emp": ("Emp", "Dept", "Salary"),
    "star.dept": ("Dept", "City", "Budget"),
    "star.emp": ("Emp", "Dept", "Salary"),
}


def rebind_rows(seed: int, rows: int) -> Dict[str, List[List[tuple]]]:
    """Per rebind target, REBIND_VARIANTS seeded row lists (made before
    the measured phase, so no op pays for generating data)."""
    from repro.workloads import queries

    rng = random.Random(seed * 13 + 3)
    material: Dict[str, List[List[tuple]]] = {}
    for target in REBIND_TARGETS:
        material[target] = []
        for __ in range(REBIND_VARIANTS):
            if target == "small.emp":
                made = [(r["Emp"], r["Dept"], rng.randrange(30, 70))
                        for r in queries.EMPLOYEES]
            elif target == "star.dept":
                made = [("dept%d" % d, "city%d" % (d % 7), rng.randrange(10_000))
                        for d in range(STAR_DEPTS)]
            else:
                made = [(i, "dept%d" % rng.randrange(STAR_DEPTS), rng.randrange(100))
                        for i in range(rows)]
            material[target].append(made)
    return material


def query_ops(seed: int, rows: int, count: int) -> List[tuple]:
    """The seeded op stream: (rebind or None, catalog name, plan); a
    rebind is (target, variant)."""
    from repro.core.query import eq, gt, lt, scan
    from repro.workloads import queries

    rng = random.Random(seed * 31 + 5)
    depts = sorted({r["Dept"] for r in queries.DEPARTMENTS})
    cities = sorted({r["City"] for r in queries.DEPARTMENTS})
    kinds: List[str] = []
    while len(kinds) < count:
        block = list(BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    ops = []
    for index, kind in enumerate(kinds[:count]):
        rebind = None
        if index % REBIND_EVERY == REBIND_EVERY - 1:
            target = REBIND_TARGETS[(index // REBIND_EVERY) % len(REBIND_TARGETS)]
            rebind = (target, rng.randrange(REBIND_VARIANTS))
        if kind == "small":
            shape = rng.randrange(3)
            if shape == 0:
                plan = (scan("emp").where(eq("Dept", rng.choice(depts)))
                        .join(scan("dept")).project(["Emp", "City"]))
            elif shape == 1:
                plan = scan("emp").where(gt("Salary", rng.randrange(35, 65))).project(["Emp", "Salary"])
            else:
                plan = scan("emp").join(scan("dept")).where(eq("City", rng.choice(cities)))
            ops.append((rebind, "small", plan))
        elif kind == "index":
            plan = scan("emp").where(eq("Emp", rng.randrange(rows))).join(scan("dept"))
            ops.append((rebind, "star", plan))
        elif rng.random() < 0.5:
            plan = (scan("emp").join(scan("dept"))
                    .where(eq("City", "city%d" % rng.randrange(7)))
                    .project(["Emp", "Budget"]))
            ops.append((rebind, "star", plan))
        else:
            plan = (scan("emp").where(lt("Salary", rng.randrange(5, 40)))
                    .join(scan("dept")).project(["Emp", "City", "Salary"]))
            ops.append((rebind, "star", plan))
    return ops


def _digest(relation) -> tuple:
    """A relation's content in a few words, independent of row and
    attribute order (compared within one process)."""
    schema = relation.schema
    order = sorted(range(len(schema)), key=schema.__getitem__)
    total = 0
    for row in relation.rows:
        total += hash(tuple([row[i] for i in order]))
    return tuple(sorted(schema)), len(relation), total & 0xFFFFFFFFFFFF


def _rebind(world: QueryWorld, material, rebind) -> None:
    """A fresh relation over prepared rows, bound (and, for the star
    ``emp``, indexed again)."""
    from repro.core.flat import FlatRelation

    target, variant = rebind
    catalog = world.small if target == "small.emp" else world.star
    name = target.split(".", 1)[1]
    relation = FlatRelation.bulk_build(REBIND_SCHEMAS[target], material[target][variant])
    catalog.bind(name, relation)
    if target == "star.emp":
        catalog.create_index("emp", "Emp")


def engine_query(args, work, clock) -> dict:
    from repro.core import columnar, query

    rows = SMOKE_STAR_ROWS if args.smoke else STAR_ROWS
    count = 40 if args.smoke else int(QUERY_OPS_PER_S * args.seconds)
    segment_ops = 10 if args.smoke else QUERY_SEGMENT_OPS
    if args.trace:
        count = max(2, count // 2)
    ops = query_ops(args.seed, rows, count)
    material = rebind_rows(args.seed, rows)
    checked = {i: None for i in range(CHECK_EVERY // 2, count, CHECK_EVERY)}
    _switches_on()

    setups = []

    def set_up():
        gc.collect()
        world, elapsed = clock.timed(lambda: QueryWorld(args.seed, rows))
        setups.append(elapsed)
        return world

    world = None
    for __ in range(common.SETUPS):
        world = None  # one world alive at a time: the peak RSS repeats
        world = set_up()

    def run_op(index, op):
        rebind, name, plan = op
        if rebind is not None:
            _rebind(world, material, rebind)
        catalog = world.small if name == "small" else world.star
        result = query.optimize(plan, catalog).execute(catalog)
        len(result)  # materialize a lazily built columnar result
        if index in checked:
            checked[index] = _digest(result)

    segments = common.measure(count, segment_ops, _loop(ops, run_op), clock, time.process_time)
    peak = _peak_rss_mb()

    # Output check: replay the rebinds on a fresh world and re-run the
    # checked plans unoptimized with columnar off.
    columnar.disable()
    world = QueryWorld(args.seed, rows)
    failed = 0
    for index, (rebind, name, plan) in enumerate(ops):
        if rebind is not None:
            _rebind(world, material, rebind)
        if index in checked:
            catalog = world.small if name == "small" else world.star
            expected = plan.execute({n: catalog[n] for n in catalog})
            failed += _digest(expected) != checked[index]
    columnar.enable()
    for __ in range(common.SETUPS):
        world = None
        world = set_up()
    metrics = common.end_to_end(segments, setups, peak)
    env = common.host_figures(segments, clock)
    env["checked_ops"] = len(checked)
    outcome = {
        "attempted": count,
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "env": env,
    }
    if args.trace:
        world = QueryWorld(args.seed, rows)
        checked.clear()
        per_layer, reconciled = _trace_phase(
            ops, segment_ops, run_op, layers.install_query, clock, metrics["ops_per_s"]
        )
        outcome["per_layer"] = per_layer
        outcome["correct"] = outcome["correct"] and reconciled
    return outcome


# -- heap_commit -----------------------------------------------------------------


class Bom:
    """The seeded parts DAG as plain data: the benchmark's own model."""

    def __init__(self, seed: int, levels):
        rng = random.Random(seed * 17 + 11)
        self.base_price: Dict[int, float] = {}
        self.own_cost: Dict[int, float] = {}
        self.components: Dict[int, List[tuple]] = {}
        index = 0
        below: List[int] = []
        for level, width in enumerate(levels):
            current = []
            if level == 0:
                for __ in range(width):
                    self.base_price[index] = round(rng.uniform(1, 10), 2)
                    current.append(index)
                    index += 1
            else:
                order = list(below)
                rng.shuffle(order)
                for i in range(width):
                    # Every part below is used at least once: sizes are
                    # fixed, only which part goes where varies by seed.
                    subs = [order[(i * FAN + j) % len(order)] for j in range(FAN)]
                    self.own_cost[index] = round(rng.uniform(0, 2), 2)
                    self.components[index] = [(s, rng.randrange(1, 3)) for s in subs]
                    current.append(index)
                    index += 1
            below = current
        self.root = index
        self.own_cost[self.root] = 1.0
        self.components[self.root] = [(s, 1) for s in below]
        self.count = index + 1

    def total_cost(self) -> float:
        memo: Dict[int, float] = {}

        def cost(part: int) -> float:
            if part in memo:
                return memo[part]
            if part in self.base_price:
                value = self.base_price[part]
            else:
                value = self.own_cost[part]
                for sub, qty in self.components[part]:
                    value += cost(sub) * qty
            memo[part] = value
            return value

        return cost(self.root)

    def build_heap(self, path: str, history: int, seed: int) -> None:
        """The heap on disk: one commit of every part, then ``history``
        commits that each re-price every part (the model follows)."""
        from repro.apps.bom import make_assembly, make_base_part
        from repro.persistence.intrinsic import PersistentHeap

        objects = []
        for part in range(self.count):
            if part in self.base_price:
                objects.append(make_base_part("p%d" % part, self.base_price[part]))
            else:
                objects.append(make_assembly(
                    "p%d" % part, self.own_cost[part],
                    [(objects[s], q) for s, q in self.components[part]],
                ))
        heap = PersistentHeap(path)
        heap.root("parts", objects)
        heap.root("product", objects[self.root])
        heap.commit()
        rng = random.Random(seed * 5 + 1)
        for __ in range(history):
            for part in range(self.count):
                if part in self.base_price:
                    value = self.base_price[part] = round(rng.uniform(1, 10), 2)
                    objects[part]["PurchasePrice"] = value
                else:
                    value = self.own_cost[part] = round(rng.uniform(0, 2), 2)
                    objects[part]["ManufacturingCost"] = value
            heap.commit()
        heap.close()


def heap_ops(seed: int, bom: Bom, count: int) -> List[List[tuple]]:
    rng = random.Random(seed * 7 + 2)
    ops = []
    for __ in range(count):
        updates = []
        for __ in range(UPDATES_PER_OP):
            part = rng.randrange(bom.count)
            field = "PurchasePrice" if part in bom.base_price else "ManufacturingCost"
            updates.append((part, field, round(rng.uniform(0.5, 12), 2)))
        ops.append(updates)
    return ops


def heap_commit(args, work, clock) -> dict:
    from repro.apps import bom as bom_app
    from repro.persistence.intrinsic import PersistentHeap

    levels = SMOKE_LEVELS if args.smoke else LEVELS
    history = 1 if args.smoke else HEAP_HISTORY
    count = 8 if args.smoke else int(HEAP_OPS_PER_S * args.seconds)
    segment_ops = 2 if args.smoke else HEAP_SEGMENT_OPS
    if args.trace:
        count = max(2, count // 2)
    model = Bom(args.seed, levels)
    path = work.file("heap.log")
    model.build_heap(path, history, args.seed)
    ops = heap_ops(args.seed, model, count)
    _switches_on()

    def open_heap(at):
        heap = PersistentHeap(at)
        return heap, heap.get_root("parts"), heap.get_root("product")

    pristine = work.file("heap-pristine.log")
    shutil.copyfile(path, pristine)
    setups = []
    heap = None
    for __ in range(common.SETUPS):
        if heap is not None:
            heap.close()
        (heap, parts, root), elapsed = clock.timed(lambda: open_heap(path))
        setups.append(elapsed)

    costs = []

    def run_op(index, updates):
        for part, field, value in updates:
            parts[part][field] = value
        bom_app.clear_memos(root)
        costs.append(bom_app.roll_up_memoized(root).value)
        heap.commit()

    log_before = os.path.getsize(path)
    segments = common.measure(count, segment_ops, _loop(ops, run_op), clock, time.process_time)
    log_bytes = os.path.getsize(path) - log_before
    peak = _peak_rss_mb()

    # Output check against the benchmark's own model, op by op.
    failed = 0
    last = {}
    for updates, got in zip(ops, costs):
        for part, field, value in updates:
            if field == "PurchasePrice":
                model.base_price[part] = value
            else:
                model.own_cost[part] = value
            last[str(part)] = (field, value)
        if not math.isclose(got, model.total_cost(), rel_tol=1e-9):
            failed += 1
    # Durability: abandon the heap (no close) and replay in a fresh process.
    expected = work.file("expected.json")
    with open(expected, "w") as handle:
        json.dump({"updates": last, "cost": model.total_cost()}, handle)
    check = subprocess.run(
        [sys.executable, os.path.join(common.BENCH_DIR, "verify.py"), "heap", path, expected],
        env=common.server_env(), cwd=common.ROOT, capture_output=True, text=True, timeout=120,
    )
    durable = check.returncode == 0
    if not durable:
        common.log("durability check failed: %s" % check.stdout.strip())
    heap.close()
    for __ in range(common.SETUPS):
        (again, __, __), elapsed = clock.timed(lambda: open_heap(pristine))
        again.close()
        setups.append(elapsed)

    metrics = common.end_to_end(segments, setups, peak)
    env = common.host_figures(segments, clock)
    env.update({"parts": model.count, "log_bytes_per_op": log_bytes / count,
                "log_bytes_at_open": log_before})
    outcome = {
        "attempted": count,
        "failed": failed,
        "correct": failed == 0 and durable,
        "metrics": metrics,
        "env": env,
    }
    if args.trace:
        # The traced phase replays the same updates on a freshly built
        # heap (so they write what they wrote untraced), opened traced.
        traced_path = work.file("heap-traced.log")
        Bom(args.seed, levels).build_heap(traced_path, history, args.seed)

        log_mark = []

        def install(recorder):
            nonlocal heap, parts, root
            layers.install_heap(recorder)
            heap, parts, root = open_heap(traced_path)
            log_mark.append(os.path.getsize(traced_path))

        def opened(recorder):
            def first(name):
                found = [s[2] - s[1] for s in recorder.spans if s[0] == name]
                return found[0] if found else 0.0

            return {"heap.open_s": first("heap.open_s"),
                    "store.replay_s": first("store.replay_s"),
                    "store.log_bytes_per_op": (os.path.getsize(traced_path) - log_mark[0]) / count}

        per_layer, reconciled = _trace_phase(
            ops, segment_ops, run_op, install, clock, metrics["ops_per_s"], opened
        )
        heap.close()
        outcome["per_layer"] = per_layer
        outcome["correct"] = outcome["correct"] and reconciled
    return outcome
