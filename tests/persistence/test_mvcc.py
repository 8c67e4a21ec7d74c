"""MVCC snapshot isolation over the intrinsic heap.

The contracts under test (TRANSACTIONS.md is the prose version):

* a transaction reads the database *as of its begin* — concurrent
  commits stay invisible until it re-pins (heap) or ends (extern);
* commits are first-committer-wins: of two transactions whose sweeps
  overlap, the second to commit aborts with a retryable
  :class:`~repro.errors.TransactionConflictError`;
* disjoint writers — different roots, different handles — both commit;
* everything is durable: versions survive close/reopen, vacuum prunes
  only below the oldest active snapshot, and commits are atomic on
  the log (the crash tests live in ``test_crash_fuzz.py``).
"""

import threading

import pytest

from repro.errors import (
    StoreCorruptError,
    TransactionConflictError,
    TransactionError,
)
from repro.persistence.heap import PObject
from repro.persistence.mvcc import (
    HeapTransaction,
    MVCCHeap,
    SessionTransaction,
    TransactionManager,
)
from repro.persistence.store import LogStore


@pytest.fixture
def heap(tmp_path):
    with MVCCHeap(str(tmp_path / "mvcc.log")) as h:
        yield h


def kept_epochs(layer):
    """The epochs whose write sets ``layer`` keeps, oldest first, after
    checking that each lies above its horizon."""
    clock = layer._clock
    kept = [epoch for epoch, __ in clock.history]
    assert kept == sorted(kept)
    assert all(epoch > clock.horizon() for epoch in kept), (kept, clock.horizon())
    return kept


class _FlakyStore:
    """A LogStore stand-in whose writes fail while ``fail`` is set."""

    def __init__(self):
        self.data = {}
        self.fail = False

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value):
        if self.fail:
            raise OSError("disk full")
        self.data[key] = value

    def batch(self):
        return self

    def __enter__(self):
        if self.fail:
            raise OSError("disk full")
        return self

    def __exit__(self, *exc_info):
        return False


class TestHeapBasics:
    def test_commit_and_reopen(self, tmp_path):
        path = str(tmp_path / "h.log")
        with MVCCHeap(path) as heap:
            txn = heap.begin()
            txn.root("who", PObject("Person", {"name": "ada"}))
            stats = txn.commit()
            assert stats.objects_written == 1
            assert stats.roots_written == 1
            txn.abort()
        with MVCCHeap(path) as heap:
            txn = heap.begin()
            assert txn.get_root("who")["name"] == "ada"
            txn.abort()

    def test_read_only_commit_publishes_nothing(self, heap):
        txn = heap.begin()
        txn.root("x", PObject("X", {"n": 1}))
        txn.commit()
        before = heap.current_epoch
        reader = heap.begin()
        assert reader.get_root("x")["n"] == 1
        stats = reader.commit()
        assert stats.objects_written == 0
        assert heap.current_epoch == before
        reader.abort()
        txn.abort()

    def test_commit_repins_the_transaction(self, heap):
        txn = heap.begin()
        obj = txn.root("x", PObject("X", {"n": 0}))
        txn.commit()
        obj["n"] = 1
        txn.commit()  # same transaction, next epoch
        assert txn.snapshot == heap.current_epoch
        fresh = heap.begin()
        assert fresh.get_root("x")["n"] == 1
        fresh.abort()
        txn.abort()

    def test_unchanged_objects_are_not_rewritten(self, heap):
        txn = heap.begin()
        txn.root("a", PObject("X", {"n": 1}))
        txn.root("b", PObject("X", {"n": 2}))
        txn.commit()
        txn.get_root("a")["n"] = 10
        stats = txn.commit()
        assert stats.objects_written == 1
        assert stats.objects_unchanged >= 1
        txn.abort()

    def test_shared_structure_and_cycles_survive(self, tmp_path):
        path = str(tmp_path / "cyc.log")
        with MVCCHeap(path) as heap:
            with heap.begin() as txn:
                one = PObject("Node", {"label": "one", "next": None})
                two = PObject("Node", {"label": "two", "next": one})
                one["next"] = two
                txn.root("r1", one)
                txn.root("r2", two)
        with MVCCHeap(path) as heap:
            txn = heap.begin()
            r1, r2 = txn.get_root("r1"), txn.get_root("r2")
            assert r1["next"] is r2
            assert r2["next"] is r1
            txn.abort()

    def test_dropping_a_root_collects_its_subgraph(self, heap):
        txn = heap.begin()
        txn.root("keep", PObject("X", {"n": 1}))
        txn.root("drop", PObject("X", {"child": PObject("Y", {})}))
        txn.commit()
        txn.root("drop", None)
        stats = txn.commit()
        assert stats.objects_collected == 2
        fresh = heap.begin()
        assert fresh.get_root("keep")["n"] == 1
        assert fresh.get_root("drop") is None
        fresh.abort()
        txn.abort()


class TestSnapshotIsolation:
    def test_reader_is_pinned_to_its_snapshot(self, heap):
        writer = heap.begin()
        writer.root("color", PObject("Paint", {"hue": "red"}))
        writer.commit()

        reader = heap.begin()
        assert reader.get_root("color")["hue"] == "red"

        writer.get_root("color")["hue"] = "blue"
        writer.commit()

        # The reader's world has not moved.
        assert reader.get_root("color")["hue"] == "red"
        # A fresh transaction sees the commit.
        fresh = heap.begin()
        assert fresh.get_root("color")["hue"] == "blue"
        fresh.abort()
        reader.abort()
        writer.abort()

    def test_uncommitted_writes_are_private(self, heap):
        writer = heap.begin()
        writer.root("x", PObject("X", {"n": 1}))
        writer.commit()
        writer.get_root("x")["n"] = 99  # not committed

        other = heap.begin()
        assert other.get_root("x")["n"] == 1
        other.abort()
        writer.abort()

    def test_abort_discards_everything(self, heap):
        txn = heap.begin()
        txn.root("x", PObject("X", {"n": 1}))
        txn.commit()
        txn.get_root("x")["n"] = 2
        txn.abort()
        assert not txn.active
        fresh = heap.begin()
        assert fresh.get_root("x")["n"] == 1
        fresh.abort()

    def test_operations_after_end_raise(self, heap):
        txn = heap.begin()
        txn.abort()
        with pytest.raises(TransactionError):
            txn.get_root("x")
        with pytest.raises(TransactionError):
            txn.commit()


class TestFirstCommitterWins:
    def test_overlapping_writers_conflict(self, heap):
        seed = heap.begin()
        seed.root("n", PObject("Counter", {"value": 0}))
        seed.commit()
        seed.abort()

        a = heap.begin()
        b = heap.begin()
        a.get_root("n")["value"] = 1
        b.get_root("n")["value"] = 2
        a.commit()
        with pytest.raises(TransactionConflictError) as exc_info:
            b.commit()
        assert exc_info.value.retryable is True
        assert exc_info.value.winner_epoch == heap.current_epoch
        assert not b.active  # the loser is aborted, not limbo

        # Retry from a fresh snapshot succeeds.
        retry = heap.begin()
        retry.get_root("n")["value"] = 2
        retry.commit()
        retry.abort()
        a.abort()

    def test_read_write_conflict(self, heap):
        """Reading an object another transaction rewrote conflicts too:
        the sweep covers the read set, not just the write set."""
        seed = heap.begin()
        seed.root("n", PObject("Counter", {"value": 0}))
        seed.root("m", PObject("Counter", {"value": 0}))
        seed.commit()
        seed.abort()

        a = heap.begin()
        b = heap.begin()
        a.get_root("n")["value"] = 1
        # b *reads* n (decides from it), writes m.
        b.get_root("m")["value"] = b.get_root("n")["value"] + 10
        a.commit()
        with pytest.raises(TransactionConflictError):
            b.commit()
        a.abort()

    def test_disjoint_roots_do_not_conflict(self, heap):
        seed = heap.begin()
        seed.root("left", PObject("X", {"n": 0}))
        seed.root("right", PObject("X", {"n": 0}))
        seed.commit()
        seed.abort()

        a = heap.begin()
        b = heap.begin()
        a.get_root("left")["n"] = 1
        b.get_root("right")["n"] = 2
        a.commit()
        b.commit()  # no overlap: both roots land
        fresh = heap.begin()
        assert fresh.get_root("left")["n"] == 1
        assert fresh.get_root("right")["n"] == 2
        fresh.abort()
        a.abort()
        b.abort()

    def test_concurrent_root_creation_preserves_both(self, tmp_path):
        """Commit merges root changes onto the newest committed table:
        a later committer with a stale snapshot must not bury roots a
        concurrent commit added."""
        path = str(tmp_path / "merge.log")
        with MVCCHeap(path) as heap:
            a = heap.begin()
            b = heap.begin()  # same (empty) snapshot as a
            a.root("a_root", PObject("X", {"n": 1}))
            b.root("b_root", PObject("X", {"n": 2}))
            a.commit()
            b.commit()  # disjoint names: no conflict, and 'a_root' survives
            a.abort()
            b.abort()
        with MVCCHeap(path) as heap:
            fresh = heap.begin()
            assert fresh.get_root("a_root")["n"] == 1
            assert fresh.get_root("b_root")["n"] == 2
            fresh.abort()

    def test_same_new_root_name_conflicts(self, heap):
        """Two transactions creating the same root name touch disjoint
        oids — the conflict is on the root name itself."""
        a = heap.begin()
        b = heap.begin()
        a.root("slot", PObject("X", {"who": "a"}))
        b.root("slot", PObject("X", {"who": "b"}))
        a.commit()
        with pytest.raises(TransactionConflictError) as exc_info:
            b.commit()
        assert "user:slot" in exc_info.value.keys
        fresh = heap.begin()
        assert fresh.get_root("slot")["who"] == "a"
        fresh.abort()
        a.abort()

    def test_lazy_root_does_not_resurrect_concurrent_rebind(self, heap):
        """A committer holding a root it never read must not re-publish
        that root's stale node over a concurrent rebind — the stale node
        points at oids the rebind tombstoned."""
        seed = heap.begin()
        seed.root("shared", PObject("X", {"gen": 0}))
        seed.root("mine", PObject("X", {"n": 0}))
        seed.commit()
        seed.abort()

        holder = heap.begin()  # 'shared' stays an unread lazy root
        rebinder = heap.begin()
        rebinder.root("shared", PObject("X", {"gen": 1}))
        rebinder.commit()  # tombstones gen-0's object
        rebinder.abort()
        holder.get_root("mine")["n"] = 5
        holder.commit()  # wins — but must not restore the stale 'shared'

        fresh = heap.begin()
        assert fresh.get_root("shared")["gen"] == 1  # no StoreCorruptError
        assert fresh.get_root("mine")["n"] == 5
        fresh.abort()
        holder.abort()

    def test_collecting_what_a_concurrent_commit_kept_conflicts(self, heap):
        """GC decisions are part of the conflict check: tombstoning an
        object a later epoch's published roots still reference would
        dangle that commit."""
        seed = heap.begin()
        seed.root("r", PObject("X", {"n": 7}))
        seed.commit()
        seed.abort()

        keeper = heap.begin()
        dropper = heap.begin()
        # keeper makes the object reachable through a second root...
        keeper.root("alias", keeper.get_root("r"))
        keeper.commit()
        keeper.abort()
        # ...while dropper, at its older snapshot, sees it reachable
        # only via 'r' and would collect it.
        del dropper.namespace()["r"]
        with pytest.raises(TransactionConflictError):
            dropper.commit()

        fresh = heap.begin()
        assert fresh.get_root("alias")["n"] == 7
        fresh.abort()

    def test_threaded_counter_increments_equal_commits(self, heap):
        """The classic lost-update check: under racing increments the
        final counter equals the number of *successful* commits."""
        seed = heap.begin()
        seed.root("n", PObject("Counter", {"value": 0}))
        seed.commit()
        seed.abort()
        committed = []
        lock = threading.Lock()

        def worker():
            for __ in range(8):
                txn = heap.begin()
                try:
                    obj = txn.get_root("n")
                    obj["value"] = obj["value"] + 1
                    txn.commit()
                except TransactionConflictError:
                    continue
                else:
                    with lock:
                        committed.append(1)
                finally:
                    if txn.active:
                        txn.abort()

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert kept_epochs(heap) == []
        final = heap.begin()
        assert final.get_root("n")["value"] == len(committed)
        final.abort()


class TestVacuum:
    def test_vacuum_prunes_dead_versions(self, heap):
        txn = heap.begin()
        obj = txn.root("x", PObject("X", {"n": 0}))
        txn.commit()
        for i in range(1, 6):
            obj["n"] = i
            txn.commit()
        txn.abort()
        versions_before = sum(
            1 for key in heap.store.keys() if key.startswith("ver:")
        )
        pruned = heap.vacuum()
        assert pruned["versions"] > 0
        versions_after = sum(
            1 for key in heap.store.keys() if key.startswith("ver:")
        )
        assert versions_after < versions_before
        # Reads after vacuum still work.
        fresh = heap.begin()
        assert fresh.get_root("x")["n"] == 5
        fresh.abort()

    def test_vacuum_respects_active_snapshots(self, heap):
        writer = heap.begin()
        writer.root("x", PObject("X", {"n": 0}))
        writer.commit()
        pinned = heap.begin()  # holds the old snapshot
        writer.get_root("x")["n"] = 1
        writer.commit()
        heap.vacuum()
        assert pinned.get_root("x")["n"] == 0  # still readable
        pinned.abort()
        writer.abort()


class TestHeapHistoryBounds:
    """A commit's write sets live only while an open snapshot can still
    validate against them: the heap keeps the epochs above its horizon."""

    def _pinned_history(self, heap):
        """Commit a counter, open a reader on it, then commit five more
        values; returns ``(writer, counter, reader)``."""
        writer = heap.begin()
        counter = writer.root("n", PObject("Counter", {"value": 0}))
        writer.commit()
        reader = heap.begin()
        for value in range(1, 6):
            counter["value"] = value
            writer.commit()
        return writer, counter, reader

    def test_a_repinning_transaction_keeps_no_history(self, heap):
        txn = heap.begin()
        counter = txn.root("n", PObject("Counter", {"value": 0}))
        txn.commit()
        for value in range(1, 500):
            counter["value"] = value
            txn.commit()
        assert heap.current_epoch == txn.snapshot == 500
        assert heap._clock.horizon() == 500
        assert kept_epochs(heap) == []
        txn.abort()
        assert kept_epochs(heap) == []

    def test_an_older_snapshot_keeps_exactly_the_later_epochs(self, heap):
        writer, counter, reader = self._pinned_history(heap)
        assert reader.snapshot == 1 and writer.snapshot == 6
        assert kept_epochs(heap) == [2, 3, 4, 5, 6]
        reader.get_root("n")["value"] = -1
        with pytest.raises(TransactionConflictError) as exc_info:
            reader.commit()
        assert exc_info.value.winner_epoch == 2
        assert kept_epochs(heap) == []
        counter["value"] = 6
        writer.commit()
        assert kept_epochs(heap) == []
        writer.abort()

    def test_a_reopened_heap_keeps_no_history(self, tmp_path):
        path = str(tmp_path / "h.log")
        with MVCCHeap(path) as heap:
            self._pinned_history(heap)
            assert kept_epochs(heap) == [2, 3, 4, 5, 6]
        with MVCCHeap(path) as heap:
            assert heap.current_epoch == 6
            assert kept_epochs(heap) == []
            old, txn = heap.begin(), heap.begin()
            txn.get_root("n")["value"] = 7
            txn.commit()
            assert kept_epochs(heap) == [7]
            old.abort()
            assert kept_epochs(heap) == []
            txn.abort()


class TestContextManager:
    def test_clean_exit_commits(self, tmp_path):
        path = str(tmp_path / "cm.log")
        with MVCCHeap(path) as heap:
            with heap.begin() as txn:
                txn.root("x", PObject("X", {"n": 7}))
        with MVCCHeap(path) as heap:
            txn = heap.begin()
            assert txn.get_root("x")["n"] == 7
            txn.abort()

    def test_exception_aborts(self, heap):
        with pytest.raises(RuntimeError):
            with heap.begin() as txn:
                txn.root("x", PObject("X", {"n": 1}))
                raise RuntimeError("boom")
        fresh = heap.begin()
        assert "x" not in fresh.namespace()
        fresh.abort()


class TestTransactionManager:
    def test_autocommit_and_snapshot_reads(self):
        txns = TransactionManager(memory={})
        txns.put("greeting", {"text": "hi"})
        session = txns.begin()
        assert session.read("greeting") == {"text": "hi"}
        txns.put("greeting", {"text": "bye"})
        # The open transaction still reads its snapshot...
        assert session.read("greeting") == {"text": "hi"}
        session.abort()
        # ...and autocommit reads see the latest.
        assert txns.get("greeting") == {"text": "bye"}

    def test_own_writes_read_back(self):
        txns = TransactionManager(memory={})
        session = txns.begin()
        session.write("x", 1)
        assert session.read("x") == 1
        session.commit()
        assert txns.get("x") == 1

    def test_first_committer_wins_on_handles(self):
        txns = TransactionManager(memory={})
        txns.put("x", 0)
        a, b = txns.begin(), txns.begin()
        a.write("x", 1)
        b.write("x", 2)
        a.commit()
        with pytest.raises(TransactionConflictError) as exc_info:
            b.commit()
        assert "x" in exc_info.value.keys
        assert txns.get("x") == 1

    def test_read_write_conflict_on_handles(self):
        txns = TransactionManager(memory={})
        txns.put("source", 1)
        txns.put("sink", 0)
        a, b = txns.begin(), txns.begin()
        a.write("source", 2)
        b.write("sink", b.read("source") + 10)  # read source at snapshot
        a.commit()
        with pytest.raises(TransactionConflictError):
            b.commit()

    def test_disjoint_handles_both_commit(self):
        txns = TransactionManager(memory={})
        a, b = txns.begin(), txns.begin()
        a.write("left", 1)
        b.write("right", 2)
        a.commit()
        b.commit()
        assert txns.get("left") == 1
        assert txns.get("right") == 2

    def test_read_only_commit_never_conflicts(self):
        txns = TransactionManager(memory={})
        txns.put("x", 1)
        reader = txns.begin()
        reader.read("x")
        txns.put("x", 2)  # overlaps the read — but reader wrote nothing
        epoch, written = reader.commit()
        assert written == 0

    def test_snapshot_reader_never_sees_a_later_first_write(self):
        """A handle first versioned by a commit must seed its chain
        with the pre-commit backing value, or an older snapshot would
        read the new value as the baseline."""
        txns = TransactionManager(memory={})
        reader = txns.begin()
        writer = txns.begin()
        writer.write("fresh", 1)
        writer.commit()
        assert reader.read("fresh") is None
        reader.abort()

    def test_failed_backing_write_is_a_clean_abort(self):
        """A commit the store rejects publishes nothing: no epoch is
        advertised, the transaction ends (it must not pin the prune
        horizon forever), and a retry works once the store recovers."""
        store = _FlakyStore()
        txns = TransactionManager(store=store)
        txns.put("x", 1)
        session = txns.begin()
        session.write("x", 2)
        store.fail = True
        with pytest.raises(OSError):
            session.commit()
        assert not session.active
        assert txns.active_transactions() == 0
        assert txns.current_epoch == 1  # the failed epoch was never minted
        assert txns.get("x") == 1
        store.fail = False
        retry = txns.begin()
        retry.write("x", 3)
        retry.commit()
        assert txns.get("x") == 3

    def test_failed_autocommit_put_leaves_no_trace(self):
        store = _FlakyStore()
        txns = TransactionManager(store=store)
        store.fail = True
        with pytest.raises(OSError):
            txns.put("x", 1)
        assert txns.current_epoch == 0
        assert txns.get("x") is None
        store.fail = False
        assert txns.put("x", 1) == 1
        assert txns.get("x") == 1

    def test_durable_backing(self, tmp_path):
        path = str(tmp_path / "tm.log")
        store = LogStore(path)
        txns = TransactionManager(store=store)
        with txns.begin() as session:
            session.write("x", {"n": 1})
        store.close()
        reopened = LogStore(path)
        assert reopened.get("extern:x") == {"n": 1}
        reopened.close()


class TestVersionChainBounds:
    """A chain lives only while an open snapshot can read an older
    version than the backing store holds."""

    def test_autocommit_puts_leave_no_chains(self):
        txns = TransactionManager(memory={})
        for index in range(50):
            txns.put("h%d" % index, index)
        assert txns.version_chains() == 0
        assert txns.get("h7") == 7

    def test_open_snapshot_keeps_only_what_it_can_see_differ(self):
        txns = TransactionManager(memory={})
        for index in range(10):
            txns.put("h%d" % index, index)
        reader = txns.begin()
        txns.put("h1", 100)
        txns.put("h2", 200)
        txns.put("h2", 201)
        # Only the handles written since the reader's snapshot.
        assert txns.version_chains() == 2
        assert reader.read("h1") == 1
        assert reader.read("h2") == 2
        assert reader.read("h5") == 5
        reader.abort()
        assert txns.version_chains() == 0

    def test_every_way_out_of_a_transaction_prunes(self):
        txns = TransactionManager(memory={})
        txns.put("x", 0)

        def pinned_history():
            txn = txns.begin()
            txn.read("x")
            txns.put("x", txns.get("x") + 1)
            assert txns.version_chains() == 1
            return txn

        pinned_history().abort()
        assert txns.version_chains() == 0
        epoch, written = pinned_history().commit()  # read-only
        assert written == 0
        assert txns.version_chains() == 0
        loser = pinned_history()
        loser.write("x", -1)
        with pytest.raises(TransactionConflictError) as exc_info:
            loser.commit()
        assert exc_info.value.keys == ("x",)
        assert exc_info.value.winner_epoch == txns.current_epoch
        assert txns.version_chains() == 0
        with txns.begin() as scoped:
            txns.put("x", 9)
            scoped.write("y", 1)
            assert txns.version_chains() == 1
        assert txns.version_chains() == 0
        assert txns.active_transactions() == 0

    def test_a_read_seeded_chain_goes_at_the_next_prune(self):
        txns = TransactionManager(memory={"cold": 1})
        reader = txns.begin()
        assert reader.read("cold") == 1
        assert txns.version_chains() == 1
        txns.put("other", 2)
        # The chain left is the one written since the snapshot.
        assert txns.version_chains() == 1
        assert "cold" not in txns._chains
        # A later read reseeds from the backing store.
        assert reader.read("cold") == 1
        assert reader.read("other") is None
        reader.abort()
        assert txns.version_chains() == 0


class TestWritesThatBypassTheManager:
    """Two managers over one backing store (standalone interpreters
    each build their own): a handle one manager wrote must not keep
    reading its old value inside the other's later transactions."""

    def _stale_intern(self, first, second):
        first.put("h", 1)
        second.put("h", 2)
        assert first.get("h") == 2
        txn = first.begin()
        assert txn.read("h") == 2
        txn.abort()
        assert first.version_chains() == 0

    def test_two_managers_over_one_dict(self):
        shared = {}
        self._stale_intern(
            TransactionManager(memory=shared), TransactionManager(memory=shared)
        )

    def test_two_managers_over_one_log_store(self, tmp_path):
        store = LogStore(str(tmp_path / "shared.log"))
        try:
            self._stale_intern(
                TransactionManager(store=store), TransactionManager(store=store)
            )
        finally:
            store.close()

    def test_an_older_open_snapshot_keeps_its_chain(self):
        """The window that remains: while an older transaction of this
        manager is open, a handle the manager wrote after that snapshot
        reads from its chain, so a bypassing write stays invisible to new
        transactions until the older one ends."""
        shared = {}
        mine = TransactionManager(memory=shared)
        theirs = TransactionManager(memory=shared)
        mine.put("h", 1)
        old = mine.begin()
        mine.put("h", 2)
        theirs.put("h", 3)
        newer = mine.begin()
        assert old.read("h") == 1
        assert newer.read("h") == 2
        newer.abort()
        old.abort()
        latest = mine.begin()
        assert latest.read("h") == 3
        latest.abort()
