"""Transaction throughput — MVCC reads vs the serialized-worker world.

Before MVCC, the server ran every session's queries through **one**
worker thread: correctness by serialization, with a committing writer's
``fsync`` stalling every reader behind it.  The MVCC layer
(``repro.persistence.mvcc``) made concurrency safe — snapshot-isolated
reads, first-committer-wins commits — so the broker now runs a real
worker pool.  This harness prices exactly that trade, end to end over
real TCP frames:

* **reads under a writer** — 16 reader clients hammer ``intern`` on a
  seeded handle while one background writer commits ``extern`` after
  ``extern`` (each autocommit is an atomic batch + fsync on the log).
  The same workload runs against a server pinned to ``--workers 1``
  (the pre-MVCC stance) and against one with the default pool, in
  :data:`PAIRS` alternating serialized/pooled pairs, so drift on a
  noisy host hits both modes alike.  Each run starts its own
  ``python -m repro.server`` process, so the server's interpreter lock
  is not the one the 16 client threads contend for.  Every reply is
  checked.  The pooled median must beat the serialized median — the
  point of a worker pool — and that comparison is a hard gate (exit 1
  when the pooled median <= the serialized median); each mode's median
  and interquartile range go to the JSON;
* **pure reads** — the same 16 clients with no writer, both modes, once,
  for reference (CPython's interpreter lock bounds the gap here; the
  win comes from overlapping reads with the writer's I/O stalls);
* **conflict discipline** — racing increment transactions over one
  handle: every attempt either commits or raises the retryable
  ``TransactionConflictError``, and the final counter must equal the
  number of successful commits exactly (no lost updates, no double
  counts — checked, and a mismatch fails the run);
* **put cost** — in process, on a memory-backed
  ``TransactionManager``: the median autocommit ``put`` after N
  distinct handles were touched, N = 10, 1,000 and 10,000, once with
  no transaction open and once with one open transaction pinning the
  prune horizon (so every touched handle keeps a chain).  A commit's
  bookkeeping is priced by its own write set, so both series stay
  flat: the run fails if the largest N costs more than 3x N = 10 in
  either series, or if any version chain is left once no transaction
  is open.

Artifacts: ``BENCH_txn.json`` (qps per mode and run, each mode's median
and IQR, conflict tallies, put cost per N and the chains left, the
``txn.*`` metric snapshot) and ``BENCH_txn.trace.json``.

Run:  python benchmarks/bench_txn.py [--quick]
"""

import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

try:
    from benchmarks._results import (
        ResultsWriter,
        median_and_iqr,
        quick_requested,
    )
except ImportError:
    from _results import ResultsWriter, median_and_iqr, quick_requested

from repro.errors import TransactionConflictError
from repro.obs.metrics import REGISTRY
from repro.persistence.mvcc import TransactionManager
from repro.server import Client, ServerThread
from repro.server.broker import default_workers

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
READERS = 16
PAIRS = 5  # alternating serialized/pooled runs of the read-under-writer phase
WRITE_VALUE = 41
PUT_COST_SIZES = (10, 1000, 10000)
PUT_COST_GATE = 3.0  # largest N over N = 10, per series


class ReaderWorker(threading.Thread):
    """One reader client: ``queries`` checked interns of a pinned handle."""

    def __init__(self, host, port, index, queries):
        super().__init__(name="txn-reader-%d" % index)
        self.host = host
        self.port = port
        self.index = index
        self.queries = queries
        self.completed = 0
        self.errors = []

    def run(self):
        try:
            with Client(self.host, self.port) as client:
                for sequence in range(self.queries):
                    reply = client.run('coerce intern("doc") to Int')
                    if str(WRITE_VALUE) not in str(reply["value"]):
                        self.errors.append(
                            "reader %d query %d: expected %d, got %r"
                            % (self.index, sequence, WRITE_VALUE,
                               reply["value"])
                        )
                        return
                    self.completed += 1
        except Exception as exc:  # noqa: BLE001 — a failed run is the result
            self.errors.append(
                "reader %d: %s: %s" % (self.index, type(exc).__name__, exc)
            )


class BackgroundWriter(threading.Thread):
    """Commits externs in a loop until stopped — each autocommit is an
    atomic batch + fsync, the stall a serialized worker inflicts on
    every queued reader."""

    def __init__(self, host, port):
        super().__init__(name="txn-writer")
        self.host = host
        self.port = port
        self.stop = threading.Event()
        self.commits = 0
        self.errors = []

    def run(self):
        try:
            with Client(self.host, self.port) as client:
                sequence = 0
                while not self.stop.is_set():
                    client.run('extern("scratch", dynamic %d);' % sequence)
                    self.commits += 1
                    sequence += 1
        except Exception as exc:  # noqa: BLE001
            self.errors.append("writer: %s: %s" % (type(exc).__name__, exc))


class SpawnedServer:
    """``python -m repro.server`` in a child process, on an ephemeral
    port read from its banner; leaving the ``with`` block drains it
    (SIGINT)."""

    def __init__(self, store, workers, limit):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (SRC, env.get("PYTHONPATH")) if path
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.server", "--port", "0",
             "--workers", str(workers), "--limit", str(limit), store],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True,
        )
        banner = self.proc.stdout.readline()
        if "listening on " not in banner:
            self.stop()
            raise RuntimeError("server did not start: %r" % banner)
        address = banner.split("listening on ", 1)[1].split(" ", 1)[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def read_phase(server, queries, with_writer):
    """16 readers (plus an optional background writer); returns
    (seconds, completed, writer_commits, errors)."""
    with Client(server.host, server.port) as seed:
        seed.run('extern("doc", dynamic %d);' % WRITE_VALUE)
        seed.run('coerce intern("doc") to Int')  # warm the path

    writer = BackgroundWriter(server.host, server.port) if with_writer else None
    if writer is not None:
        writer.start()
    readers = [
        ReaderWorker(server.host, server.port, index, queries)
        for index in range(READERS)
    ]
    started = time.perf_counter()
    for reader in readers:
        reader.start()
    for reader in readers:
        reader.join()
    elapsed = time.perf_counter() - started
    commits = 0
    errors = [error for r in readers for error in r.errors]
    if writer is not None:
        writer.stop.set()
        writer.join(timeout=30.0)
        commits = writer.commits
        errors.extend(writer.errors)
    completed = sum(r.completed for r in readers)
    return elapsed, completed, commits, errors


def measure_mode(label, workers, queries, store_dir, writer, failures, run):
    """The read phases against one fresh server configuration; returns
    the reads-under-writer qps (the headline number).  Only run 0 also
    measures pure reads."""
    store = os.path.join(store_dir, "bench-%s-%d.log" % (label, run))
    phases = (("pure", False),) if run == 0 else ()
    results = {}
    with SpawnedServer(store, workers, limit=READERS + 2) as server:
        for phase, with_writer in phases + (("under_writer", True),):
            elapsed, completed, commits, errors = read_phase(
                server, queries, with_writer
            )
            expected = READERS * queries
            qps = completed / elapsed if elapsed else 0.0
            results[phase] = qps
            writer.record(
                "reads_%s_%s" % (phase, label),
                completed,
                elapsed,
                clients=READERS,
                run=run,
                workers=workers,
                qps=round(qps, 1),
                writer_commits=commits,
                errors=len(errors),
            )
            if errors:
                failures.extend(errors)
            if completed != expected:
                failures.append(
                    "%s/%s: %d of %d reads completed"
                    % (label, phase, completed, expected)
                )
            print("%-12s %-14s %3d %10d %12.4f %10.0f %9d %8d" % (
                label, phase, run, completed, elapsed, qps, commits,
                len(errors)))
    return results["under_writer"]


def conflict_phase(writer, attempts, failures):
    """Racing increments: counter == successful commits, exactly."""
    commits = []
    conflicts = []
    lock = threading.Lock()
    with ServerThread(limit=6) as server:
        with Client(server.host, server.port) as seed:
            seed.run('extern("counter", dynamic 0);')

        def contender(index):
            try:
                with Client(server.host, server.port) as client:
                    for __ in range(attempts):
                        client.begin()
                        reply = client.run('coerce intern("counter") to Int')
                        value = int(str(reply["value"]).split(":")[0])
                        client.run(
                            'extern("counter", dynamic %d);' % (value + 1)
                        )
                        try:
                            client.commit()
                        except TransactionConflictError:
                            with lock:
                                conflicts.append(index)
                        else:
                            with lock:
                                commits.append(index)
            except Exception as exc:  # noqa: BLE001
                failures.append(
                    "contender %d: %s: %s" % (index, type(exc).__name__, exc)
                )

        threads = [
            threading.Thread(target=contender, args=(index,))
            for index in range(4)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        with Client(server.host, server.port) as check:
            reply = check.run('coerce intern("counter") to Int')
            final = int(str(reply["value"]).split(":")[0])

    total = len(commits) + len(conflicts)
    writer.record(
        "conflict_race",
        total,
        elapsed,
        committed=len(commits),
        conflicted=len(conflicts),
        final_counter=final,
    )
    print("\nconflict race: %d attempts -> %d committed, %d retryable "
          "conflicts in %.3fs" % (total, len(commits), len(conflicts),
                                  elapsed))
    if final != len(commits):
        failures.append(
            "lost update: counter %d != %d successful commits"
            % (final, len(commits))
        )
    else:
        print("no lost updates: counter %d == %d successful commits"
              % (final, len(commits)))


def put_cost_phase(writer, samples, failures):
    """Median autocommit-put cost after N distinct handles were touched,
    free and with one open transaction pinning the horizon."""
    print("autocommit put cost, median of %d puts after N handles were"
          " touched" % samples)
    print("%-8s %8s %12s %12s %12s" % (
        "series", "N", "median_us", "chains_held", "chains_left"))
    for series in ("free", "pinned"):
        costs = {}
        for size in PUT_COST_SIZES:
            txns = TransactionManager(memory={})
            pin = txns.begin() if series == "pinned" else None
            for index in range(size):
                txns.put("h%d" % index, index)
            timings = []
            for sample in range(samples):
                handle = "h%d" % (sample % size)
                started = time.perf_counter()
                txns.put(handle, sample)
                timings.append(time.perf_counter() - started)
            held = txns.version_chains()
            if pin is not None:
                pin.abort()
            left = txns.version_chains()
            costs[size] = statistics.median(timings) * 1e6
            writer.record(
                "put_cost_%s" % series,
                size,
                sum(timings),
                median_us=round(costs[size], 2),
                chains_held=held,
                chains_left=left,
            )
            print("%-8s %8d %12.2f %12d %12d" % (
                series, size, costs[size], held, left))
            if left:
                failures.append(
                    "%s put cost at N=%d: %d version chain(s) left with no"
                    " transaction open" % (series, size, left)
                )
        smallest, largest = PUT_COST_SIZES[0], PUT_COST_SIZES[-1]
        ratio = costs[largest] / costs[smallest]
        if ratio > PUT_COST_GATE:
            failures.append(
                "%s put cost grows with the handles touched: %.1f us at"
                " N=%d vs %.1f us at N=%d (%.1fx > %.1fx)"
                % (series, costs[largest], largest, costs[smallest],
                   smallest, ratio, PUT_COST_GATE)
            )
    print()


def main():
    quick = quick_requested()
    writer = ResultsWriter("txn", quick=quick)
    queries = 30 if quick else 120
    attempts = 5 if quick else 25

    failures = []
    put_cost_phase(writer, 300 if quick else 1000, failures)
    store_dir = tempfile.mkdtemp(prefix="bench-txn-")
    try:
        print("read throughput, %d clients x %d checked reads"
              % (READERS, queries))
        print("%-12s %-14s %3s %10s %12s %10s %9s %8s" % (
            "mode", "phase", "run", "reads", "seconds", "qps", "commits",
            "errors"))
        runs = {"serialized": [], "pooled": []}
        for run in range(PAIRS):
            for label, workers in (
                ("serialized", 1), ("pooled", default_workers())
            ):
                runs[label].append(measure_mode(
                    label, workers, queries, store_dir, writer, failures, run
                ))
        serialized, serialized_iqr = median_and_iqr(runs["serialized"])
        pooled, pooled_iqr = median_and_iqr(runs["pooled"])
        speedup = pooled / serialized if serialized else 0.0
        won = sum(p > s for p, s in zip(runs["pooled"], runs["serialized"]))
        writer.record(
            "pooled_vs_serialized",
            READERS * queries,
            0.0,
            pairs=PAIRS,
            pooled_won_pairs=won,
            speedup=round(speedup, 3),
            serialized_median_qps=round(serialized, 1),
            serialized_iqr_qps=round(serialized_iqr, 1),
            pooled_median_qps=round(pooled, 1),
            pooled_iqr_qps=round(pooled_iqr, 1),
        )
        print("\nreads under a committing writer, medians of %d alternating"
              " pairs: pooled %.0f qps (IQR %.0f) vs serialized %.0f qps"
              " (IQR %.0f): %.2fx, pooled ahead in %d of %d pairs"
              % (PAIRS, pooled, pooled_iqr, serialized, serialized_iqr,
                 speedup, won, PAIRS))
        if pooled <= serialized:
            failures.append(
                "pooled median read throughput (%.0f qps) did not beat the"
                " serialized worker's median (%.0f qps)" % (pooled, serialized)
            )

        conflict_phase(writer, attempts, failures)

        for name in ("txn.begin", "txn.commit", "txn.conflict", "txn.abort"):
            print("%-14s %d" % (name, REGISTRY.value(name)))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    print("\nresults -> %s" % writer.write())
    print("trace   -> %s" % writer.trace_path)

    if failures:
        print("\nFAIL: %d problem(s):" % len(failures))
        for failure in failures:
            print("  " + failure)
        raise SystemExit(1)
    print("\npooled beats serialized under write load; zero conflicts "
          "escaped their transactions; put cost flat in the handles touched")


if __name__ == "__main__":
    main()
