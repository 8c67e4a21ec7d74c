"""served_read and served_write: ``python -m repro.server`` on a
prepared disk store, driven by closed-loop clients over TCP."""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

import common
import layers
import spans as spanlib

# Sizes: fixed for every seed (seeds vary values, never sizes).
POPULATION = 10_000  # small externed records p0..p9999
LISTS = 300  # externed lists of partial records L0..L299
RECORDS_PER_LIST = 24
DEPARTMENTS = 8
READ_SKEW = 0.8  # Zipf exponent of the list picks
OWN_RANGE = 64  # handles each writer cycles through
SMOKE = {"POPULATION": 200, "LISTS": 12, "RECORDS_PER_LIST": 6}

# Ops per second of --seconds: about what the calibration machine does
# in its faster state, so the measured phase lasts about --seconds there.
# The op count is fixed from it, so every run replays the same seeded
# sequence (see PROVENANCE.md).  A segment is the ops each connection
# runs between two host-clock samples (hostclock.py).
READ_OPS_PER_S = 360
READ_SEGMENT_OPS = 3
WRITE_OPS_PER_S = 290
WRITE_SEGMENT_OPS = 1


class Sizes:
    def __init__(self, smoke: bool):
        self.population = SMOKE["POPULATION"] if smoke else POPULATION
        self.lists = SMOKE["LISTS"] if smoke else LISTS
        self.records = SMOKE["RECORDS_PER_LIST"] if smoke else RECORDS_PER_LIST


# -- data -------------------------------------------------------------------


def _partial_records(rng: random.Random, first: int, count: int, depts: bool) -> List[dict]:
    """``count`` partial records with a fixed field census — exactly 80%
    carry ``Dept``, 60% ``Addr.City``, 40% ``Addr.State`` — so a seed
    changes which records carry what, and the values, never the shape."""
    def chosen(share):
        return set(rng.sample(range(count), round(count * share)))

    with_dept, with_city, with_state = chosen(0.8), chosen(0.6), chosen(0.4)
    rows = []
    for i in range(count):
        record = {"Dept": "d%d" % (first + i)} if depts else {"Name": "n%d" % (first + i)}
        if not depts and i in with_dept:
            record["Dept"] = "d%d" % rng.randrange(DEPARTMENTS)
        addr = {}
        if i in with_city:
            addr["City"] = "c%d" % rng.randrange(6)
        if i in with_state:
            addr["State"] = "s%d" % rng.randrange(3)
        if addr:
            record["Addr"] = addr
        rows.append(record)
    return rows


def dbpl_literal(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(
            "%s = %s" % (k, dbpl_literal(v)) for k, v in value.items()
        ) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dbpl_literal(v) for v in value) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    return str(value)


class Data:
    """The seeded store contents and the session prelude."""

    def __init__(self, seed: int, sizes: Sizes):
        rng = random.Random(seed)
        self.population = {
            "p%d" % i: {"K": rng.randrange(1_000_000), "V": "v%d" % rng.randrange(997)}
            for i in range(sizes.population)
        }
        self.lists = {
            "L%d" % i: _partial_records(rng, i * sizes.records, sizes.records, False)
            for i in range(sizes.lists)
        }
        # Figure 1's department relation, with partial addresses.
        self.departments = _partial_records(rng, 0, DEPARTMENTS, True)
        self.prelude = "let dept = relation(%s);" % dbpl_literal(self.departments)

    def write_store(self, path: str) -> None:
        """The documents ``extern(h, dynamic v)`` writes, in one batch."""
        from repro.persistence.store import LogStore

        store = LogStore(path)
        try:
            with store.batch():
                for handle, value in self.population.items():
                    store.put("extern:" + handle, _document(value))
                for handle, rows in self.lists.items():
                    store.put("extern:" + handle, _document(rows))
        finally:
            store.close()


def _runtime(value):
    from repro.lang.eval import RuntimeRecord

    if isinstance(value, dict):
        return RuntimeRecord({k: _runtime(v) for k, v in value.items()})
    if isinstance(value, list):
        return [_runtime(v) for v in value]
    return value


def _document(value) -> dict:
    from repro.lang.eval import runtime_type_of
    from repro.persistence.serialize import serialize

    return serialize(value, typ=runtime_type_of(_runtime(value)))


def expected_join(data: Data, handle: str) -> list:
    """rjoin(relation(L), dept) by the all-pairs reference over
    ``repro.core.cpo`` — never the kernel."""
    from repro.core import cpo
    from repro.core.orders import from_python, leq, try_join

    left = cpo.maximal_elements([from_python(r) for r in data.lists[handle]], leq)
    right = cpo.maximal_elements([from_python(r) for r in data.departments], leq)
    joined = []
    for a in left:
        for b in right:
            lub = try_join(a, b)
            if lub is not None:
                joined.append(lub)
    return cpo.maximal_elements(joined, leq)


def expected_read_count(joined: list, dept: str) -> int:
    """rcount(rmatch(joined, {Dept = dept})) by the order itself."""
    from repro.core.orders import from_python, leq

    pattern = from_python({"Dept": dept})
    return sum(1 for member in joined if leq(pattern, member))


# -- the server process -------------------------------------------------------


class Server:
    """One server process on the store, pinned with its generator."""

    def __init__(self, store: str, work: common.WorkDir, traced: bool):
        self.spans_path = work.file("spans-%d.json" % time.monotonic_ns()) if traced else None
        if traced:
            argv = [sys.executable, "-u", os.path.join(common.BENCH_DIR, "launcher.py"),
                    "--spans", self.spans_path]
        else:
            argv = [sys.executable, "-u", "-m", "repro.server"]
        argv += ["--port", "0", store]
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=common.server_env(), cwd=common.ROOT,
            preexec_fn=common.die_with_parent,
        )
        LIVE.add(self)
        self.port = self._read_port()

    def _read_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                self.kill()
                raise RuntimeError("server did not start")
            ready, __, __ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    continue
                line += chunk
        text = line.decode()
        if "listening on" not in text:
            self.kill()
            raise RuntimeError("unexpected server banner %r" % text)
        return int(text.split("listening on ", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        return common.proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return common.proc_peak_rss_mb(self.proc.pid)

    def wait_idle(self, timeout: float = 0.05) -> None:
        """Until no server thread is runnable: the work a reply left
        behind (journal, wide event) is done."""
        deadline = time.perf_counter() + timeout
        task_dir = "/proc/%d/task" % self.proc.pid
        while time.perf_counter() < deadline:
            busy = False
            for tid in os.listdir(task_dir):
                try:
                    with open("%s/%s/stat" % (task_dir, tid)) as handle:
                        state = handle.read().rsplit(")", 1)[1].split()[0]
                except (FileNotFoundError, IndexError):
                    continue  # the thread ended while being read
                if state == "R":
                    busy = True
                    break
            if not busy:
                return
            time.sleep(0.0001)

    def dump_spans(self) -> dict:
        self.proc.send_signal(signal.SIGUSR1)
        common.wait_for(lambda: os.path.exists(self.spans_path), 60.0, "span dump")
        with open(self.spans_path) as handle:
            return json.load(handle)

    def kill(self) -> None:
        """SIGKILL: no drain, no close — what a crash leaves."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        LIVE.discard(self)


# Servers not yet killed; run.py kills any left when a run fails.
LIVE = set()


def kill_all() -> None:
    for server in list(LIVE):
        server.kill()


def start(store: str, work, clients: int, prelude: str, traced: bool = False):
    """Cold start → every connection's session prelude bound."""
    from repro.server.client import Client

    server = Server(store, work, traced)
    conns = []
    try:
        for __ in range(clients):
            client = Client("127.0.0.1", server.port, timeout=120.0)
            conns.append(client)
            client.run(prelude)
    except BaseException:
        server.kill()
        raise
    return server, conns


def stop(server, conns) -> None:
    """SIGKILL the server (no drain), then drop the connections."""
    server.kill()
    for client in conns:
        client.close()


# -- ops ----------------------------------------------------------------------


class OpRecord:
    __slots__ = ("start", "end", "ok", "value", "session", "frames")

    def __init__(self):
        self.ok = False
        self.value = None


def _closed_loop(client, ops, runner) -> List[OpRecord]:
    records = []
    for op in ops:
        record = OpRecord()
        record.session = client.session_id
        first = client._next_id + 1
        record.start = time.perf_counter()
        try:
            record.value = runner(client, op)
            record.ok = True
        except ReproError as exc:  # a failed op, counted against attempted
            record.value = "%s: %s" % (type(exc).__name__, exc)
            try:
                client.abort()  # a transaction the op left open, if any
            except ReproError:
                pass
        record.end = time.perf_counter()
        record.frames = list(range(first, client._next_id + 1))
        records.append(record)
    return records


def run_phase(conns, op_lists, runner, segment_ops, clock, server):
    """Each connection runs its op list on its own thread, segment by
    segment (``common.measure``): in each segment every connection runs
    its next ``segment_ops`` ops.  Returns each connection's records,
    every record in segment order, and the segments."""
    results: List[List[OpRecord]] = [[] for __ in conns]
    ordered: List[OpRecord] = []
    got: List[List[OpRecord]] = [[] for __ in conns]
    span = [0, 0]
    go = threading.Barrier(len(conns), timeout=120)
    done = threading.Barrier(len(conns), timeout=120)
    segments_total = -(-len(op_lists[0]) // segment_ops)

    def worker(index):
        for __ in range(segments_total):
            go.wait()
            lo, hi = span
            got[index] = _closed_loop(conns[index], op_lists[index][lo:hi], runner)
            done.wait()

    # Connection 0 runs on the calling thread, the others on their own.
    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(1, len(conns))]
    for thread in threads:
        thread.start()

    def run_segment(lo, hi):
        span[:] = [lo, hi]
        go.wait()
        got[0] = _closed_loop(conns[0], op_lists[0][lo:hi], runner)
        done.wait()
        latencies = []
        for index, records in enumerate(got):
            results[index].extend(records)
            ordered.extend(records)
            latencies.extend(r.end - r.start for r in records)
        return latencies

    try:
        segments = common.measure(
            len(op_lists[0]), segment_ops, run_segment, clock, server.cpu_seconds,
            server.wait_idle,
        )
    finally:
        go.abort()
        done.abort()
        for thread in threads:
            thread.join(timeout=30)
    return results, ordered, segments


def read_ops(seed: int, data: Data, count: int) -> List[Tuple[str, str]]:
    rng = random.Random(seed * 7919 + 1)
    handles = sorted(data.lists, key=lambda h: int(h[1:]))
    pick = common.zipf_picker(rng, len(handles), READ_SKEW)
    return [(handles[pick()], "d%d" % rng.randrange(DEPARTMENTS)) for __ in range(count)]


def read_runner(client, op):
    handle, dept = op
    reply = client.run(
        'rcount(rmatch(rjoin(relation(coerce intern("%s") to List[{}]), dept),'
        ' {Dept = "%s"}))' % (handle, dept)
    )
    return reply["value"]


def write_ops(seed: int, data: Data, writer: int, count: int) -> List[tuple]:
    rng = random.Random(seed * 104729 + writer)
    pick = common.zipf_picker(rng, len(data.population))
    ops = []
    for i in range(count):
        value = writer * 10_000_000 + i
        ops.append((
            "w%da%d" % (writer, i % OWN_RANGE), value,
            "p%d" % pick(), "w%db%d" % (writer, (i * 7) % OWN_RANGE), value,
        ))
    return ops


def write_runner(client, op):
    auto_handle, auto_value, picked, txn_handle, txn_value = op
    client.run('extern("%s", dynamic %d);' % (auto_handle, auto_value))
    client.begin()
    reply = client.run(
        'let p = coerce intern("%s") to {K: Int, V: String};'
        ' extern("%s", dynamic (p.K + %d)); p.K' % (picked, txn_handle, txn_value)
    )
    client.commit()
    return reply["value"]


# -- checks ---------------------------------------------------------------------


def check_reads(data: Data, ops, records) -> int:
    failed = 0
    joins: Dict[str, list] = {}
    for (handle, dept), record in zip(ops, records):
        if handle not in joins:
            joins[handle] = expected_join(data, handle)
        if not record.ok or record.value != str(expected_read_count(joins[handle], dept)):
            failed += 1
    return failed


def check_writes(data: Data, op_lists, results) -> Tuple[int, Dict[str, int]]:
    """Failed ops, and the last acknowledged value of every written handle."""
    failed = 0
    acked: Dict[str, int] = {}
    for ops, records in zip(op_lists, results):
        for op, record in zip(ops, records):
            auto_handle, auto_value, picked, txn_handle, txn_value = op
            key = data.population[picked]["K"]
            if not record.ok or record.value != str(key):
                failed += 1
                continue
            acked[auto_handle] = auto_value
            acked[txn_handle] = key + txn_value
    return failed, acked


def verify_durable(store: str, acked: Dict[str, int], work) -> bool:
    """Replay the log in a fresh process; every acked value must be there."""
    expected = work.file("acked.json")
    with open(expected, "w") as handle:
        json.dump(acked, handle)
    result = subprocess.run(
        [sys.executable, os.path.join(common.BENCH_DIR, "verify.py"), "store", store, expected],
        env=common.server_env(), cwd=common.ROOT, capture_output=True, text=True,
        timeout=120,
    )
    if result.returncode != 0:
        common.log("durability check failed: %s" % result.stdout.strip())
    return result.returncode == 0


# -- the workloads ---------------------------------------------------------------


def _trace_layers(server, conns, op_lists, runner, segment_ops, clock, untraced_rate, extra):
    """A traced phase on a launcher-started server: per-layer metrics."""
    before = layers.counters_from_openmetrics(conns[0].stat("metrics")["text"])
    results, records, segments = run_phase(conns, op_lists, runner, segment_ops, clock, server)
    after = layers.counters_from_openmetrics(conns[0].stat("metrics")["text"])
    dump = server.dump_spans()
    op_of = {}
    wire = 0
    for index, record in enumerate(records):
        for frame in record.frames:
            op_of[(record.session, frame)] = index
            wire += dump["bytes"].get(repr([record.session, frame]), 0)
    replay = [s[2] - s[1] for s in dump["spans"] if s[0] == "store.replay_s"]
    extra = dict(extra)
    extra["protocol.bytes_per_op"] = wire / len(records)
    extra["store.replay_s"] = replay[0] if replay else 0.0
    per_layer, reconciled = spanlib.layer_report(
        dump["spans"],
        lambda key: op_of.get(tuple(key)) if isinstance(key, list) else None,
        segments,
        {name: after[name] - before[name] for name in after},
        untraced_rate,
        extra,
    )
    return results, per_layer, reconciled


def run_served(args, work, clock, writer: bool) -> dict:
    sizes = Sizes(args.smoke)
    data = Data(args.seed, sizes)
    store = work.file("store.log")
    data.write_store(store)
    clients = 2 if writer else 1
    if args.smoke:
        total_ops, segment_ops = 12, 3
    elif writer:
        total_ops, segment_ops = int(WRITE_OPS_PER_S * args.seconds), WRITE_SEGMENT_OPS
    else:
        total_ops, segment_ops = int(READ_OPS_PER_S * args.seconds), READ_SEGMENT_OPS
    if args.trace:
        total_ops = max(2, total_ops // 2)
    if writer:
        op_lists = [write_ops(args.seed, data, w + 1, total_ops // clients) for w in range(clients)]
        runner = write_runner
    else:
        op_lists = [read_ops(args.seed, data, total_ops)]
        runner = read_runner

    pristine = work.file("store-pristine.log")
    shutil.copyfile(store, pristine)
    setups = []

    def set_up(at):
        (server, conns), elapsed = clock.timed(
            lambda: start(at, work, clients, data.prelude)
        )
        setups.append(elapsed)
        return server, conns

    server = None
    for __ in range(1 if args.smoke else common.SETUPS):
        if server is not None:
            stop(server, conns)
        server, conns = set_up(store)
    log_before = os.path.getsize(store)
    results, records, segments = run_phase(conns, op_lists, runner, segment_ops, clock, server)
    log_bytes = os.path.getsize(store) - log_before
    peak = server.peak_rss_mb()
    stop(server, conns)  # SIGKILL: the durability check must not rely on a drain

    if writer:
        failed, acked = check_writes(data, op_lists, results)
        durable = verify_durable(store, acked, work)
        log_ok = log_bytes > 0
    else:
        failed = check_reads(data, op_lists[0], results[0])
        durable = True
        log_ok = log_bytes == 0  # a read-only workload appends nothing
    if not log_ok:
        common.log("unexpected log growth: %d bytes" % log_bytes)
    for __ in range(1 if args.smoke else common.SETUPS):
        stop(*set_up(pristine))
    metrics = common.end_to_end(segments, setups, peak)
    env = common.host_figures(segments, clock)
    env.update({"connections": clients, "log_bytes_per_op": log_bytes / len(records)})
    outcome = {
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0 and durable and log_ok,
        "metrics": metrics,
        "env": env,
    }
    if not args.trace:
        return outcome

    # Traced phase: the same ops on a launcher-started server.
    server, conns = start(store, work, clients, data.prelude, traced=True)
    try:
        results, per_layer, reconciled = _trace_layers(
            server, conns, op_lists, runner, segment_ops, clock, metrics["ops_per_s"],
            {"store.log_bytes_per_op": log_bytes / len(records)},
        )
    finally:
        stop(server, conns)
    if writer:
        traced_failed, __ = check_writes(data, op_lists, results)
    else:
        traced_failed = check_reads(data, op_lists[0], results[0])
    outcome["attempted"] += sum(len(r) for r in results)
    outcome["failed"] += traced_failed
    outcome["correct"] = outcome["correct"] and traced_failed == 0 and reconciled
    outcome["per_layer"] = per_layer
    return outcome


def served_read(args, work, clock) -> dict:
    return run_served(args, work, clock, writer=False)


def served_write(args, work, clock) -> dict:
    return run_served(args, work, clock, writer=True)
