"""Heap transactions on the intrinsic heap's shared object-graph core.

``test_mvcc.py`` pins the isolation contracts and
``test_heap_txn_stateful.py`` checks them against a serial model; these
tests pin what neither reaches by example: a commit whose store batch
fails, logs written in the on-disk format by earlier code, and the
cases where a transaction's commit once disagreed with the serial
merge — a write reachable only through an unread root, a root another
commit rebound while the transaction held it, a collection racing a
disjoint commit, and an object whose last two references overlapping
commits dropped — and one race of writers and collectors under a short
thread switch interval.
"""

import os
import sys
import threading

import pytest

from repro.errors import TransactionConflictError
from repro.persistence.heap import PObject
from repro.persistence.intrinsic import PersistentHeap
from repro.persistence.mvcc import MVCCHeap
from repro.persistence.store import LogStore


@pytest.fixture
def heap(tmp_path):
    with MVCCHeap(str(tmp_path / "mvcc.log")) as h:
        yield h


def seeded(heap, **roots):
    """Commit ``roots`` in one transaction and end it."""
    with heap.begin() as txn:
        for name, value in roots.items():
            txn.root(name, value)


def read(heap, name):
    txn = heap.begin()
    try:
        return txn.get_root(name)
    finally:
        txn.abort()


def _disk_full(key, value):
    raise OSError("disk full")


class TestFailedBatch:
    """A commit whose store batch raises publishes nothing; the
    transaction stays open and a retry commits."""

    def test_heap_transaction(self, heap, tmp_path):
        seeded(heap, x=PObject("X", {"n": 1}))
        txn = heap.begin()
        txn.get_root("x")["n"] = 2
        txn.root("y", PObject("Y", {"n": 3}))
        reader = heap.begin()
        size = os.path.getsize(heap.store.path)
        heap.store.put = _disk_full
        try:
            with pytest.raises(OSError):
                txn.commit()
        finally:
            del heap.store.put
        assert heap.current_epoch == 1
        assert os.path.getsize(heap.store.path) == size
        assert txn.active and txn.snapshot == 1
        assert reader.get_root("x")["n"] == 1 and "y" not in reader.namespace()
        assert read(heap, "x")["n"] == 1

        stats = txn.commit()
        assert (stats.objects_written, heap.current_epoch) == (2, 2)
        assert txn.snapshot == 2
        assert read(heap, "x")["n"] == 2 and read(heap, "y")["n"] == 3
        txn.abort()
        reader.abort()

    def test_heap_transaction_that_collects(self, heap):
        seeded(heap, x=PObject("X", {"child": PObject("C")}))
        txn = heap.begin()
        txn.root("x", PObject("Fresh"))
        heap.store.put = _disk_full
        try:
            with pytest.raises(OSError):
                txn.commit()
        finally:
            del heap.store.put
        assert read(heap, "x")["child"].kind == "C"
        assert heap.stored_object_count() == 2
        stats = txn.commit()
        assert (stats.objects_written, stats.objects_collected) == (1, 2)
        assert read(heap, "x").kind == "Fresh"
        assert heap.stored_object_count() == 1
        txn.abort()

    def test_persistent_heap(self, tmp_path):
        path = str(tmp_path / "heap.log")
        heap = PersistentHeap(path)
        obj = heap.root("x", PObject("X", {"n": 1}))
        heap.commit()
        obj["n"] = 2
        heap.store.put = _disk_full
        try:
            with pytest.raises(OSError):
                heap.commit()
        finally:
            del heap.store.put
        assert PersistentHeap(path).get_root("x")["n"] == 1
        assert heap.commit().objects_written == 1
        heap.close()
        assert PersistentHeap(path).get_root("x")["n"] == 2


class TestParentFormatLogs:
    """Logs in the on-disk format, written record by record, open and
    read and validate as they always did."""

    def test_persistent_heap_log(self, tmp_path):
        path = str(tmp_path / "heap.log")
        with LogStore(path) as store:
            store.put("root:user:r", ["ref", 0])
            store.put("obj:0", {"kind": "X", "fields": {
                "child": ["ref", 1], "n": ["i", 1],
            }})
            store.put("obj:1", {"kind": "Y", "fields": {"tags": ["L", []]}})
            store.put("obj:7", {"kind": "Stray", "fields": {}})
            store.put("meta:next_oid", 8)
        heap = PersistentHeap(path)
        root = heap.get_root("r")
        assert (root.kind, root["n"], root["child"].kind) == ("X", 1, "Y")
        stats = heap.commit()
        assert (stats.objects_written, stats.objects_collected) == (0, 1)
        root["child"]["tags"].append(PObject("Z"))
        assert heap.commit().objects_written == 2
        assert heap._oid_by_id[id(root["child"]["tags"][0])] == 8
        heap.close()
        again = PersistentHeap(path)
        assert again.get_root("r")["child"]["tags"][0].kind == "Z"
        assert again.stored_object_count() == 3
        again.close()

    def _mvcc_log(self, path, stray=False):
        """Two epochs, the second rewriting object 0; with ``stray``,
        object 2 is live but no root reaches it, as two racing commits
        could leave it."""
        with LogStore(path) as store:
            store.put("ver:0:1", {"kind": "X", "fields": {"n": ["i", 1]}})
            store.put("ver:1:1", {"kind": "X", "fields": {"n": ["i", 2]}})
            if stray:
                store.put("ver:2:1", {"kind": "Stray", "fields": {}})
            store.put("vcommit:1", {
                "roots": {"user:a": ["ref", 0], "user:b": ["ref", 1]},
                "written": [0, 1, 2] if stray else [0, 1],
                "root_writes": ["user:a", "user:b"], "kept": [], "sweep": 3,
            })
            store.put("ver:0:2", {"kind": "X", "fields": {"n": ["i", 10]}})
            store.put("vcommit:2", {
                "roots": {"user:a": ["ref", 0], "user:b": ["ref", 1]},
                "written": [0], "root_writes": [],
                "kept": [1, 2] if stray else [1], "sweep": 3,
            })
            store.put("vmeta:epoch", 2)
            store.put("vmeta:next_oid", 3)

    def test_mvcc_log_reads(self, tmp_path):
        path = str(tmp_path / "mvcc.log")
        self._mvcc_log(path)
        with MVCCHeap(path) as heap:
            assert heap.current_epoch == 2
            assert heap.stored_object_count() == 2
            assert read(heap, "a")["n"] == 10 and read(heap, "b")["n"] == 2

    def test_mvcc_log_validates(self, tmp_path):
        path = str(tmp_path / "mvcc.log")
        self._mvcc_log(path)
        with MVCCHeap(path) as heap:
            first, second, third = heap.begin(), heap.begin(), heap.begin()
            first.get_root("a")["n"] = 11
            second.get_root("a")["n"] = 12
            third.get_root("b")["n"] = 3
            first.commit()
            with pytest.raises(TransactionConflictError) as exc_info:
                second.commit()
            assert exc_info.value.winner_epoch == 3
            third.commit()
            first.abort()
            third.abort()
            assert read(heap, "a")["n"] == 11 and read(heap, "b")["n"] == 3
            fresh = heap.begin()
            fresh.root("c", PObject("C"))
            fresh.commit()
            assert fresh._oid_by_id[id(fresh.get_root("c"))] == 3
            fresh.abort()

    def test_mvcc_log_garbage_goes_at_the_next_commit(self, tmp_path):
        path = str(tmp_path / "mvcc.log")
        self._mvcc_log(path, stray=True)
        with MVCCHeap(path) as heap:
            assert heap.stored_object_count() == 3
            txn = heap.begin()
            txn.get_root("a")["n"] = 11
            assert txn.commit().objects_collected == 1
            txn.abort()
            assert heap.stored_object_count() == 2


class TestSerialMerge:
    def test_a_write_reachable_only_through_an_unread_root_lands(self, heap):
        shared = PObject("Y", {"n": 1})
        seeded(heap, a=PObject("X", {"child": shared}), b=shared)
        txn = heap.begin()
        txn.get_root("b")["n"] = 0
        del txn.namespace()["b"]  # 'a' still reaches the object
        stats = txn.commit()
        assert (stats.objects_written, stats.objects_collected) == (1, 0)
        assert read(heap, "a")["child"]["n"] == 0
        txn.abort()

    def test_a_root_rebound_since_the_snapshot_reads_afresh(self, heap):
        seeded(heap, r=PObject("Old", {"n": 0}))
        holder = heap.begin()
        held = holder.get_root("r")
        other = heap.begin()
        other.root("alias", other.get_root("r"))
        other.commit()
        other.root("r", PObject("New"))
        other.commit()
        other.abort()
        held["n"] = 1
        holder.commit()  # re-pins past the rebind
        assert holder.get_root("r").kind == "New"
        assert holder.get_root("alias") is held
        held["n"] = 2
        holder.commit()
        holder.abort()
        assert read(heap, "r").kind == "New"  # not collected under it
        assert read(heap, "alias")["n"] == 2

    def test_roots_created_and_deleted_since_the_snapshot(self, heap):
        txn = heap.begin()
        other = heap.begin()
        other.namespace("scratch").bind("tmp", PObject("Tmp"))
        other.commit()
        del other.namespace("scratch")["tmp"]
        other.commit()
        other.abort()
        txn.root("mine", PObject("Mine"))
        assert txn.commit().roots_written == 1
        assert txn.namespaces() == ["user"]
        txn.abort()

    def test_collecting_does_not_conflict_with_a_disjoint_commit(self, heap):
        seeded(heap, dropped=PObject("D"), kept=PObject("K", {"n": 0}))
        dropper, writer = heap.begin(), heap.begin()
        del dropper.namespace()["dropped"]
        writer.get_root("kept")["n"] = 1
        writer.commit()
        writer.abort()
        assert dropper.commit().objects_collected == 1
        dropper.abort()
        assert read(heap, "kept")["n"] == 1
        assert heap.stored_object_count() == 1

    def test_an_object_two_overlapping_commits_let_go_is_collected(self, heap):
        shared = PObject("S")
        seeded(heap, one=shared, two=shared, other=PObject("O"))
        first, second = heap.begin(), heap.begin()
        del first.namespace()["one"]
        del second.namespace()["two"]
        assert first.commit().objects_collected == 0  # 'two' still holds it
        assert second.commit().objects_collected == 1
        first.abort()
        second.abort()
        assert heap.stored_object_count() == 1


class TestRacingCommits:
    def test_writers_and_collectors_lose_nothing(self, heap):
        """More threads than cores and a short switch interval: counter
        increments race each other while root churn on other roots
        collects garbage beside them.  Every successful increment lands,
        no churning commit conflicts, and exactly the reachable objects
        stay live."""
        seeded(heap, n=PObject("Counter", {"value": 0}))
        committed, errors = [], []
        lock = threading.Lock()

        def increment():
            for __ in range(20):
                txn = heap.begin()
                try:
                    counter = txn.get_root("n")
                    counter["value"] += 1
                    txn.commit()
                    with lock:
                        committed.append(1)
                except TransactionConflictError:
                    pass
                finally:
                    if txn.active:
                        txn.abort()

        def churn(name):
            try:
                for __ in range(20):
                    with heap.begin() as txn:
                        txn.root(name, PObject("Tmp", {"leaf": PObject("L")}))
            except TransactionConflictError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=increment) for __ in range(3)]
        threads += [
            threading.Thread(target=churn, args=("t%d" % i,)) for i in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        horizon = heap._clock.horizon()
        assert all(epoch > horizon for epoch, __ in heap._clock.history)
        assert errors == []
        assert read(heap, "n")["value"] == len(committed) > 0
        assert heap.stored_object_count() == 1 + 2 * 3
