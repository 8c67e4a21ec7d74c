"""E3 — The three persistence models under an update workload.

The paper's taxonomy predicts:

* **all-or-nothing** pays a whole-image write for any change, however
  small;
* **replicating** (extern/intern) pays a full copy of the reachable
  closure per extern, duplicates shared substructure per handle
  (wasted storage), and loses cross-handle updates (anomaly — measured
  functionally in tests, storage-wise here);
* **intrinsic** commit writes only changed objects (deltas) and shares
  structure, at the cost of commit bookkeeping.

Workload: an object graph of N parts; touch one object; make it
durable under each model.

Expected shape: intrinsic delta-commit ≪ replicating extern ≈
all-or-nothing save, and replicating storage grows per handle while
intrinsic storage does not.

Run:  pytest benchmarks/bench_persistence.py --benchmark-only
      python benchmarks/bench_persistence.py [--quick]

The script prints the E3 table — median latency of each model over
repeated one-field changes, with quartiles — writes
``BENCH_persistence.json``, and exits non-zero when the intrinsic commit
is not faster than the replicating extern, or writes anything but the
one changed object (``--quick``: fewer repeats, for CI).

It also prices a one-object commit on the two intrinsic heaps side by
side: an MVCC ``HeapTransaction`` and a ``PersistentHeap``, each over
``build_graph(300)`` and ``build_graph(3000)``, changing one field of
the middle node per commit (median of the repeats, with quartiles).
Both commit through the same write-stamp diff, so the cost follows what
changed, not the graph: the run exits non-zero when the transaction's
3,000-node commit costs more than 4x its 300-node commit.
"""

import os
import statistics
import tempfile
import time

import pytest

try:
    from benchmarks._results import ResultsWriter, quick_requested
except ImportError:
    from _results import ResultsWriter, quick_requested

from repro.persistence.allornothing import ImagePersistence
from repro.persistence.heap import PObject
from repro.persistence.intrinsic import PersistentHeap
from repro.persistence.mvcc import MVCCHeap
from repro.persistence.replicating import ReplicatingStore
from repro.types.dynamic import Dynamic
from repro.types.kinds import TOP

GRAPH_SIZE = 300
TXN_SIZES = (300, 3000)
TXN_GATE = 4.0  # the transaction's 3,000-node commit over its 300-node one


def build_graph(n=GRAPH_SIZE):
    """A chain-with-payload graph of ``n`` objects, one shared leaf."""
    shared = PObject("Shared", {"payload": "x" * 64})
    head = PObject("Node", {"i": 0, "shared": shared})
    current = head
    for i in range(1, n):
        nxt = PObject("Node", {"i": i, "shared": shared})
        current["next"] = nxt
        current = nxt
    return head


def test_allornothing_save_after_small_change(benchmark, tmp_path):
    image = ImagePersistence(str(tmp_path / "image"))
    graph = build_graph()
    image.save_image({"db": graph})

    def change_and_save():
        graph["i"] = graph["i"] + 1
        image.save_image({"db": graph})

    benchmark(change_and_save)


def test_replicating_extern_after_small_change(benchmark, tmp_path):
    store = ReplicatingStore(str(tmp_path / "amber.log"))
    graph = build_graph()
    store.extern("db", Dynamic(graph, TOP))

    def change_and_extern():
        graph["i"] = graph["i"] + 1
        store.extern("db", Dynamic(graph, TOP))

    benchmark(change_and_extern)
    store.close()


def test_intrinsic_commit_after_small_change(benchmark, tmp_path):
    heap = PersistentHeap(str(tmp_path / "heap.log"))
    graph = build_graph()
    heap.root("db", graph)
    heap.commit()

    def change_and_commit():
        graph["i"] = graph["i"] + 1
        return heap.commit()

    stats = benchmark(change_and_commit)
    assert stats.objects_written == 1  # the delta, not the closure
    heap.close()


def test_intrinsic_first_commit(benchmark, tmp_path):
    counter = [0]

    def build_and_commit():
        counter[0] += 1
        heap = PersistentHeap(str(tmp_path / ("h%d.log" % counter[0])))
        heap.root("db", build_graph(100))
        stats = heap.commit()
        heap.close()
        return stats

    stats = benchmark(build_and_commit)
    assert stats.objects_written == 101


def test_replicating_storage_duplication(tmp_path):
    """Two handles sharing a big substructure → duplicated bytes."""
    store = ReplicatingStore(str(tmp_path / "amber.log"))
    shared = PObject("Big", {"payload": "x" * 4096})
    store.extern("a", Dynamic(PObject("A", {"c": shared}), TOP))
    one = store.storage_bytes()
    store.extern("b", Dynamic(PObject("B", {"c": shared}), TOP))
    two = store.storage_bytes()
    assert two - one >= 4096  # the shared payload was copied again
    store.close()


def test_intrinsic_storage_sharing(tmp_path):
    """Two roots sharing a big substructure → stored once."""
    heap = PersistentHeap(str(tmp_path / "heap.log"))
    shared = PObject("Big", {"payload": "x" * 4096})
    heap.root("a", PObject("A", {"c": shared}))
    first = heap.commit()
    heap.root("b", PObject("B", {"c": shared}))
    second = heap.commit()
    assert second.objects_written == 1  # only the new root object B
    heap.close()


MODELS = ("all-or-nothing save", "replicating extern", "intrinsic commit")


def measure(tmp, repeats):
    """Latencies of making a one-field change durable, per model.

    Each model holds its own ``GRAPH_SIZE``-object graph; every round
    changes one field of each graph and makes it durable, the models
    interleaved so drift hits all three alike.  Returns the latencies
    and the store bytes after the first change, both in ``MODELS``
    order, and the set of object counts the intrinsic commits wrote.
    """
    image = ImagePersistence(os.path.join(tmp, "image"))
    image_graph = build_graph()
    image.save_image({"db": image_graph})
    store = ReplicatingStore(os.path.join(tmp, "amber.log"))
    store_graph = build_graph()
    store.extern("db", Dynamic(store_graph, TOP))
    heap = PersistentHeap(os.path.join(tmp, "heap.log"))
    heap_graph = build_graph()
    heap.root("db", heap_graph)
    heap.commit()

    def save():
        image.save_image({"db": image_graph})

    def extern():
        store.extern("db", Dynamic(store_graph, TOP))

    steps = ((image_graph, save), (store_graph, extern), (heap_graph, heap.commit))
    times = [[] for __ in MODELS]
    written = set()
    for change in range(1, repeats + 1):
        for (graph, durable), series in zip(steps, times):
            graph["i"] = change
            started = time.perf_counter()
            outcome = durable()
            series.append(time.perf_counter() - started)
        written.add(outcome.objects_written)
        if change == 1:
            sizes = [
                os.path.getsize(os.path.join(tmp, "image")),
                store.storage_bytes(),
                heap.storage_bytes(),
            ]
    store.close()
    heap.close()
    return times, sizes, written


def one_object_commits(tmp, size, repeats):
    """Latencies of a one-field change to the middle node of a
    ``size``-node graph, committed by a heap transaction and by a
    ``PersistentHeap``, interleaved; returns ``{"txn": [...], "heap":
    [...]}``."""
    mvcc = MVCCHeap(os.path.join(tmp, "mvcc%d.log" % size))
    txn = mvcc.begin()
    heap = PersistentHeap(os.path.join(tmp, "heap%d.log" % size))
    cases = []
    for name, owner in (("txn", txn), ("heap", heap)):
        middle = owner.root("db", build_graph(size))
        owner.commit()
        for __ in range(size // 2):
            middle = middle["next"]
        cases.append((name, middle, owner.commit))
    times = {name: [] for name, __, __ in cases}
    for change in range(1, repeats + 1):
        for name, middle, commit in cases:
            middle["i"] = -change
            started = time.perf_counter()
            stats = commit()
            times[name].append(time.perf_counter() - started)
            assert stats.objects_written == 1, (name, size, stats)
    txn.abort()
    mvcc.close()
    heap.close()
    return times


def main():
    quick = quick_requested()
    writer = ResultsWriter("persistence", quick=quick)
    repeats = 9 if quick else 31
    with tempfile.TemporaryDirectory() as tmp:
        times, sizes, written = measure(tmp, repeats)
        commits = {size: one_object_commits(tmp, size, repeats)
                   for size in TXN_SIZES}

    print("E3 — durability after a one-field change (%d-object graph, "
          "median of %d)" % (GRAPH_SIZE, repeats))
    print("%-22s %12s %12s %12s %16s" % (
        "model", "median(s)", "q1(s)", "q3(s)", "bytes(1 change)"))
    medians = []
    for name, series, size in zip(MODELS, times, sizes):
        q1, median, q3 = statistics.quantiles(series, n=4)
        medians.append(median)
        print("%-22s %12.6f %12.6f %12.6f %16d" % (name, median, q1, q3, size))
        writer.record(
            name.replace(" ", "_").replace("-", "_"), GRAPH_SIZE, median,
            q1=q1, q3=q3, repeats=repeats, store_bytes=size,
        )
    print("\nintrinsic wrote %s changed object(s) per commit; the other"
          % "/".join(str(n) for n in sorted(written)))
    print("models rewrote the whole closure, as the paper's taxonomy predicts.")

    print("\none-object commit on the intrinsic heaps (median of %d)" % repeats)
    print("%-18s %8s %12s %12s %12s" % (
        "heap", "objects", "median(s)", "q1(s)", "q3(s)"))
    commit_medians = {}
    for name, op in (("txn", "heap_transaction_commit"),
                     ("heap", "persistent_heap_commit")):
        for size in TXN_SIZES:
            q1, median, q3 = statistics.quantiles(commits[size][name], n=4)
            commit_medians[name, size] = median
            print("%-18s %8d %12.6f %12.6f %12.6f" % (
                op.replace("_commit", ""), size, median, q1, q3))
            writer.record(op, size, median, q1=q1, q3=q3, repeats=repeats)
    small, large = TXN_SIZES
    growth = {name: commit_medians[name, large] / commit_medians[name, small]
              for name in ("txn", "heap")}
    print("%d- over %d-object commit: transaction %.2fx (gate %.0fx),"
          " PersistentHeap %.2fx" % (
              large, small, growth["txn"], TXN_GATE, growth["heap"]))
    writer.record("heap_transaction_commit_growth", large, 0.0,
                  ratio=growth["txn"], gate=TXN_GATE)
    writer.record("persistent_heap_commit_growth", large, 0.0,
                  ratio=growth["heap"])
    print("results -> %s" % writer.write())

    failures = []
    if growth["txn"] > TXN_GATE:
        failures.append(
            "a one-object heap-transaction commit costs %.1fx more at %d"
            " objects than at %d (gate %.0fx)"
            % (growth["txn"], large, small, TXN_GATE)
        )
    if written != {1}:
        failures.append("intrinsic commit wrote %s objects, not 1" % (written,))
    __, replicating, intrinsic = medians
    if intrinsic >= replicating:
        failures.append(
            "intrinsic commit (%.6fs) is not faster than the replicating"
            " extern (%.6fs)" % (intrinsic, replicating)
        )
    if failures:
        print("\nFAIL: " + "; ".join(failures))
        raise SystemExit(1)
    print("\nintrinsic commit beats the replicating extern %.1fx"
          % (replicating / intrinsic))


if __name__ == "__main__":
    main()
