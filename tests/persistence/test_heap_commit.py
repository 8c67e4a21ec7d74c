"""The intrinsic heap's commit: write stamps, what a commit re-encodes,
what it appends, and what it lets go.

A commit re-encodes only objects whose write stamp moved, whose lists,
dicts or sets changed in place, or that became reachable.  These tests
pin the stamp rule on :class:`PObject`, the in-place changes a commit
still finds, that a commit with nothing to write appends nothing, and
that neither collected objects nor a dropped heap are kept alive.
"""

import gc
import os
import weakref

from repro.obs.metrics import REGISTRY
from repro.persistence.heap import PObject
from repro.persistence.intrinsic import PersistentHeap
from repro.persistence.mvcc import MVCCHeap
from repro.persistence.store import LogStore
from repro.types.dynamic import Dynamic
from repro.types.kinds import TOP


def moved(obj, change):
    before = obj.stamp
    change(obj)
    return obj.stamp != before


class TestWriteStamp:
    def test_every_object_gets_its_own_stamp(self):
        assert PObject().stamp != PObject().stamp

    def test_persistent_field_writes_move_it(self):
        obj = PObject("Part", {"Cost": 1.0})
        assert moved(obj, lambda o: o.__setitem__("Cost", 2.0))
        assert moved(obj, lambda o: o.__setitem__("Mass", 3.0))
        assert moved(obj, lambda o: o.__delitem__("Mass"))

    def test_kind_reassignment_moves_it(self):
        obj = PObject("Part")
        assert moved(obj, lambda o: setattr(o, "kind", "Assembly"))
        assert obj.kind == "Assembly"

    def test_marking_a_present_field_moves_it(self):
        obj = PObject("Part", {"Cost": 1.0})
        assert moved(obj, lambda o: o.mark_transient("Cost"))
        assert moved(obj, lambda o: o.clear_transient("Cost"))

    def test_transient_writes_leave_it_put(self):
        obj = PObject("Part", {"Cost": 1.0})
        assert not moved(obj, lambda o: o.mark_transient("_memo"))
        assert not moved(obj, lambda o: o.__setitem__("_memo", 5.0))
        assert not moved(obj, lambda o: o.mark_transient("_memo"))
        assert not moved(obj, lambda o: o.__delitem__("_memo"))
        assert not moved(obj, lambda o: o.clear_transient("_memo"))

    def test_set_transient_is_mark_then_store(self):
        obj = PObject("Part", {"Cost": 1.0})
        assert not moved(obj, lambda o: o.set_transient("_memo", 5.0))
        assert obj["_memo"] == 5.0 and obj.transient_fields == {"_memo"}
        assert not moved(obj, lambda o: o.set_transient("_memo", 6.0))
        # Deleting it drops the mark, and storing again marks it again.
        assert not moved(obj, lambda o: o.__delitem__("_memo"))
        assert obj.transient_fields == set()
        assert not moved(obj, lambda o: o.set_transient("_memo", 7.0))
        assert obj.transient_fields == {"_memo"}
        # A field that held a persistent value leaves the persistent
        # view: that moves the stamp, as mark_transient does.
        assert moved(obj, lambda o: o.set_transient("Cost", 2.0))
        assert obj.persistent_fields() == {}


def committed(tmp_path, roots):
    heap = PersistentHeap(str(tmp_path / "heap.log"))
    for name, value in roots.items():
        heap.root(name, value)
    heap.commit()
    return heap


def reopened(heap, name):
    path = heap.store.path
    heap.close()
    return PersistentHeap(path).get_root(name)


class TestWhatACommitWrites:
    def test_one_field_change_writes_one_object(self, tmp_path):
        parts = [PObject("Part", {"i": i}) for i in range(50)]
        heap = committed(tmp_path, {"parts": parts})
        parts[7]["i"] = -7
        stats = heap.commit()
        assert (stats.objects_written, stats.objects_unchanged) == (1, 49)
        assert reopened(heap, "parts")[7]["i"] == -7

    def test_in_place_container_changes_are_found(self, tmp_path):
        leaf = PObject("Leaf")
        holder = PObject("Holder", {
            "items": [1, 2],
            "table": {"a": 1},
            "tags": {"x"},
            "pair": ([], "label"),
            "boxed": Dynamic([0], TOP),
        })
        heap = committed(tmp_path, {"holder": holder})
        holder["items"].append(leaf)
        holder["table"]["b"] = 2
        holder["tags"].add("y")
        holder["pair"][0].append(3)
        holder["boxed"].value.append(4)
        stats = heap.commit()
        assert stats.objects_written == 2  # the holder and the new leaf
        back = reopened(heap, "holder")
        assert back["items"][:2] == [1, 2] and back["items"][2].kind == "Leaf"
        assert back["table"] == {"a": 1, "b": 2}
        assert back["tags"] == {"x", "y"}
        assert back["pair"] == ([3], "label")
        assert back["boxed"].value == [0, 4]

    def test_a_list_root_changed_in_place_is_rewritten(self, tmp_path):
        heap = committed(tmp_path, {"parts": [PObject("Part")]})
        heap.get_root("parts").append(PObject("Part", {"new": True}))
        assert heap.commit().objects_written == 1
        assert [p.get("new") for p in reopened(heap, "parts")] == [None, True]

    def test_equal_values_that_persist_differently_are_written(self, tmp_path):
        obj = PObject("Box", {"zero": 0.0, "one": 1, "list": [0.0, 1]})
        heap = committed(tmp_path, {"box": obj})
        obj["zero"] = -0.0
        obj["one"] = True
        obj["list"][0] = -0.0
        obj["list"][1] = True
        assert heap.commit().objects_written == 1
        back = reopened(heap, "box")
        assert str(back["zero"]) == "-0.0" and back["one"] is True
        assert str(back["list"][0]) == "-0.0" and back["list"][1] is True

    def test_set_then_mark_re_encodes_but_writes_nothing(self, tmp_path):
        obj = PObject("Part", {"Cost": 1.0})
        heap = committed(tmp_path, {"part": obj})
        obj["_memo"] = 9.0
        obj.mark_transient("_memo")
        stats = heap.commit()
        assert (stats.objects_written, stats.objects_unchanged) == (0, 1)

    def test_two_heaps_each_see_a_shared_objects_change(self, tmp_path):
        shared = PObject("Shared", {"v": 1})
        first = PersistentHeap(str(tmp_path / "a.log"))
        second = PersistentHeap(str(tmp_path / "b.log"))
        for heap in (first, second):
            heap.root("s", shared)
            heap.commit()
        shared["v"] = 2
        assert first.commit().objects_written == 1
        assert second.commit().objects_written == 1
        assert reopened(first, "s")["v"] == reopened(second, "s")["v"] == 2

    def test_stored_objects_no_root_reaches_are_collected(self, tmp_path):
        path = str(tmp_path / "heap.log")
        heap = committed(tmp_path, {"kept": PObject("Kept")})
        heap.close()
        store = LogStore(path)
        store.put("obj:99", {"kind": "Stray", "fields": {}})
        store.close()
        heap = PersistentHeap(path)
        stats = heap.commit()
        assert (stats.objects_collected, heap.stored_object_count()) == (1, 1)
        fresh = PObject("Fresh")
        heap.root("fresh", fresh)
        heap.commit()
        assert heap._oid_by_id[id(fresh)] == 100  # never reuses a stored oid
        heap.close()


class TestNothingToWrite:
    def test_a_no_op_commit_appends_nothing(self, tmp_path):
        heap = committed(tmp_path, {"parts": [PObject("Part", {"i": i}) for i in range(10)]})
        size = os.path.getsize(heap.store.path)
        syncs = REGISTRY.value("store.syncs")
        stats = heap.commit()
        assert (stats.objects_written, stats.objects_unchanged) == (0, 10)
        assert os.path.getsize(heap.store.path) == size
        assert REGISTRY.value("store.syncs") == syncs
        heap.close()

    def test_an_unchanged_rebind_appends_nothing(self, tmp_path):
        heap = committed(tmp_path, {"n": 10 ** 6})
        size = os.path.getsize(heap.store.path)
        heap.root("n", 10 ** 6)
        heap.commit()
        assert os.path.getsize(heap.store.path) == size
        heap.close()


class TestWhatAHeapLetsGo:
    def test_churn_leaves_the_object_table_bounded(self, tmp_path):
        heap = PersistentHeap(str(tmp_path / "heap.log"))
        for batch in range(5):
            heap.root("batch%d" % batch, [PObject("Tmp") for __ in range(1000)])
            heap.commit()
        assert len(heap._obj_by_oid) == 5000
        for batch in range(5):
            del heap.namespace()["batch%d" % batch]
        assert heap.commit().objects_collected == 5000
        assert heap.stored_object_count() == 0
        assert len(heap._obj_by_oid) == len(heap._oid_by_id) == 0
        heap.close()

    def test_a_closed_heap_is_freed_without_cyclic_gc(self, tmp_path):
        path = str(tmp_path / "heap.log")
        committed(tmp_path, {"root": PObject("A", {"b": PObject("B")})}).close()
        gc.disable()
        try:
            heap = PersistentHeap(path)
            heap.get_root("root")["b"]["c"] = 1
            heap.commit()
            heap.close()
            ref = weakref.ref(heap)
            del heap
            assert ref() is None
        finally:
            gc.enable()

    def test_an_ended_transaction_is_freed_without_cyclic_gc(self, tmp_path):
        heap = MVCCHeap(str(tmp_path / "mvcc.log"))
        with heap.begin() as txn:
            txn.root("root", PObject("A", {"b": PObject("B")}))
        gc.disable()
        try:
            txn = heap.begin()
            assert txn.get_root("root")["b"].kind == "B"
            txn.abort()
            ref = weakref.ref(txn)
            del txn
            assert ref() is None
        finally:
            gc.enable()
            heap.close()
