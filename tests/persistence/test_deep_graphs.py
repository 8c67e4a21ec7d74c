"""Deep object graphs: every chain the heaps accept reads back.

Objects are filled from a worklist, so the depth of a chain of
``PObject`` s costs no stack; a value nested deeper than the stack
allows is refused at commit, with the same error on both heaps.
"""

import json
import sys

import pytest

from repro.errors import PersistenceError
from repro.persistence.heap import PObject, reachable
from repro.persistence.intrinsic import PersistentHeap
from repro.persistence.mvcc import MVCCHeap
from repro.persistence.serialize import deserialize, serialize

CHAIN = 5000


def chain_graph(length=CHAIN):
    """A chain of ``length`` nodes sharing one leaf, closed into a cycle."""
    leaf = PObject("Leaf", {"payload": "x"})
    head = node = PObject("Node", {"i": 0, "leaf": leaf})
    for i in range(1, length):
        node["next"] = PObject("Node", {"i": i, "leaf": leaf})
        node = node["next"]
    node["next"] = head
    return head


def assert_chain(head, length=CHAIN):
    leaf = head["leaf"]
    node = head
    for i in range(length):
        assert node["i"] == i and node["leaf"] is leaf
        node = node["next"]
    assert node is head


def too_deep():
    """A list nested deeper than the interpreter's recursion limit."""
    value = []
    for __ in range(sys.getrecursionlimit() + 100):
        value = [value]
    return value


class TestLongChains:
    def test_persistent_heap_reopens(self, tmp_path):
        path = str(tmp_path / "heap.log")
        heap = PersistentHeap(path)
        heap.root("chain", chain_graph())
        assert heap.commit().objects_written == CHAIN + 1
        heap.close()
        with PersistentHeap(path) as again:
            assert_chain(again.get_root("chain"))

    def test_heap_transaction_reads_after_reopen(self, tmp_path):
        path = str(tmp_path / "mvcc.log")
        with MVCCHeap(path) as heap:
            with heap.begin() as txn:
                txn.root("chain", chain_graph())
        with MVCCHeap(path) as heap:
            txn = heap.begin()
            assert_chain(txn.get_root("chain"))
            txn.abort()

    def test_commit_record_holds_roots_and_sweep_only(self, tmp_path):
        # The commit record costs the root table, not the write set.
        path = str(tmp_path / "mvcc.log")
        with MVCCHeap(path) as heap:
            with heap.begin() as txn:
                txn.root("chain", chain_graph(3000))
            record = heap._store.get("vcommit:1")
        assert set(record) == {"roots", "sweep"}
        assert record["roots"] == {"user:chain": ["ref", 0]}
        assert len(json.dumps(record, separators=(",", ":"))) < 100

    def test_deserialize(self):
        assert_chain(deserialize(serialize(chain_graph())))

    def test_reachable_in_discovery_order(self):
        head = chain_graph()
        found = reachable(head)
        # Depth-first discovery: the head, its leaf, then the chain.
        assert found[0] is head and found[1] is head["leaf"]
        assert [node["i"] for node in found[2:]] == list(range(1, CHAIN))


class TestTooDeep:
    def test_persistent_heap_refuses(self, tmp_path):
        heap = PersistentHeap(str(tmp_path / "heap.log"))
        heap.root("deep", PObject("X", {"deep": too_deep()}))
        with pytest.raises(PersistenceError, match="too deep"):
            heap.commit()
        heap.close()

    def test_heap_transaction_refuses(self, tmp_path):
        with MVCCHeap(str(tmp_path / "mvcc.log")) as heap:
            txn = heap.begin()
            holder = txn.root("deep", PObject("X", {"deep": too_deep()}))
            with pytest.raises(PersistenceError, match="too deep"):
                txn.commit()
            assert txn.active
            del holder["deep"]
            assert txn.commit().objects_written == 1
            txn.abort()
