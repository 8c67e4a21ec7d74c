"""Model-based stateful testing of the MVCC heap's transactions.

A hypothesis state machine drives one :class:`MVCCHeap` through up to
three open :class:`HeapTransaction` s over three root names — begin,
read a root, set a field, rebind a root to a fresh object, alias one
root to another root's object, delete a root, commit, abort,
``vacuum()``, and reopen — against a serial model: the committed state
of every epoch (roots and live objects, with identity and sharing, by
oid), and per open transaction its snapshot, the closure it has
materialized, its uncommitted writes and root changes, and the objects
it holds.

A transaction's *sweep* is what it materialized, what it wrote, and
what its commit would collect at its snapshot (the objects live there
that its changes disconnect).  The serial merge of a commit is the
newest committed state with its root changes and its object writes
applied, and with every object that no longer reaches from a root
collected.

Invariants:

* **reads** — a transaction reads the model's state at its snapshot
  (after a commit, at the epoch it created), its own writes win, and
  one oid is one object for the life of the transaction;
* **conflicts** — a commit that wrote something conflicts exactly when
  an epoch after its snapshot wrote or collected an object in its
  sweep, changed a root name it changed, or published a reference to
  an object it would collect (the collect–keep rule); the error is
  retryable and names the first such epoch and what it contested;
* **serial merge** — a commit that succeeds mints the next epoch, and
  the store at that epoch holds exactly the merge: its roots, the
  fields of every object, a version for each object it wrote and a
  tombstone for each it collected; a read-only commit publishes
  nothing and keeps its snapshot;
* **safety and completeness** — no retained epoch has a dangling
  reference, and after every commit the live objects are exactly those
  the newest roots reach; ``vacuum`` never takes a version an open
  snapshot reads;
* **reopen** — a reopened heap reads the newest state;
* **history** — after every step the heap keeps the write sets of
  exactly the epochs above the oldest open snapshot (the current epoch
  when none is open), in order, and none at or below it.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import TransactionConflictError, UnknownHandleError
from repro.persistence.heap import PObject
from repro.persistence.mvcc import MVCCHeap

NAMES = st.sampled_from(("a", "b", "c"))
VALUES = st.integers(min_value=0, max_value=3)
PICKS = st.integers(min_value=0, max_value=2)
MAX_OPEN = 3


# -- reading the log, by its on-disk format ---------------------------------------


class LogView:
    """The version chains and commit records of an MVCC heap's log."""

    def __init__(self, store):
        self.store = store
        self.chains = {}
        self.commits = []
        for key in store.keys():
            if key.startswith("ver:"):
                oid, epoch = key[len("ver:"):].split(":")
                self.chains.setdefault(int(oid), []).append(int(epoch))
            elif key.startswith("vcommit:"):
                self.commits.append(int(key[len("vcommit:"):]))
        for chain in self.chains.values():
            chain.sort()
        self.commits.sort()

    def version(self, oid, epoch):
        """The version of ``oid`` at ``epoch`` (``None`` when absent)."""
        below = [e for e in self.chains.get(oid, ()) if e <= epoch]
        return self.store.get("ver:%d:%d" % (oid, below[-1])) if below else None

    def live(self, epoch):
        return {
            oid for oid in self.chains
            if (self.version(oid, epoch) or {"dead": 1}).get("dead") is None
        }

    def written_at(self, epoch):
        """(oids given a version at ``epoch``, oids tombstoned at it)."""
        written, dead = set(), set()
        for oid, chain in self.chains.items():
            if epoch in chain:
                entry = self.store.get("ver:%d:%d" % (oid, epoch))
                (dead if entry.get("dead") else written).add(oid)
        return written, dead

    def state(self, epoch):
        """(roots, objects) at ``epoch``: every reachable object's fields.

        Fails on a dangling reference.
        """
        below = [e for e in self.commits if e <= epoch]
        record = self.store.get("vcommit:%d" % below[-1]) if below else {}
        roots = {}
        for key, node in record.get("roots", {}).items():
            assert key.startswith("user:") and node[0] == "ref", (key, node)
            roots[key[len("user:"):]] = node[1]
        objects = {}
        pending = list(roots.values())
        while pending:
            oid = pending.pop()
            if oid in objects:
                continue
            entry = self.version(oid, epoch)
            assert entry is not None and not entry.get("dead"), (
                "epoch %d: dangling reference to %d" % (epoch, oid)
            )
            fields = entry["fields"]
            child = fields["child"]
            objects[oid] = {
                "n": fields["n"][1],
                "child": child[1] if child[0] == "ref" else None,
            }
            if objects[oid]["child"] is not None:
                pending.append(objects[oid]["child"])
        return roots, objects


def closure(refs, fields_of):
    """Every ref reachable from ``refs`` through ``child`` fields."""
    seen = set()
    pending = [ref for ref in refs if ref is not None]
    while pending:
        ref = pending.pop()
        if ref not in seen:
            seen.add(ref)
            child = fields_of(ref)["child"]
            if child is not None:
                pending.append(child)
    return seen


# -- the model ----------------------------------------------------------------------


class Epoch:
    """The committed state at one epoch, and what its commit did."""

    def __init__(self, roots, objects, written=(), collected=(), rebound=(),
                 referenced=()):
        self.roots = roots  # name -> oid
        self.objects = objects  # oid -> {"n": int, "child": oid | None}
        self.written = frozenset(written)
        self.collected = frozenset(collected)
        self.rebound = frozenset(rebound)
        self.referenced = frozenset(referenced)


class ModelTxn:
    """What the model knows of one open transaction."""

    def __init__(self, txn):
        self.txn = txn
        self.snapshot = txn.snapshot
        self.roots = {}  # name -> ref, or None once deleted
        self.objects = {}  # ref -> fields it wrote (a ref < 0 is fresh)
        self.twins = {}  # ref -> the PObject it holds
        self.materialized = set()
        self.written = set()  # oids its earlier commits wrote


class HeapTxnMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._dir = tempfile.mkdtemp()
        self._path = os.path.join(self._dir, "mvcc.log")
        self.heap = MVCCHeap(self._path)
        self.epochs = [Epoch({}, {})]
        self.open = {}  # tid -> ModelTxn
        self._next_fresh = -1

    def teardown(self):
        self.heap.close()
        shutil.rmtree(self._dir, ignore_errors=True)

    # -- model helpers ---------------------------------------------------------

    def _pick(self, pick):
        return self.open[sorted(self.open)[pick % len(self.open)]]

    def _fresh(self, model, value, child_ref, child):
        ref, self._next_fresh = self._next_fresh, self._next_fresh - 1
        obj = PObject("N", {"n": value, "child": child})
        model.objects[ref] = {"n": value, "child": child_ref}
        model.twins[ref] = obj
        return obj, ref

    def _binding(self, model, name):
        if name in model.roots:
            return model.roots[name]
        return self.epochs[model.snapshot].roots.get(name)

    def _fields(self, model, ref):
        if ref in model.objects:
            return model.objects[ref]
        return self.epochs[model.snapshot].objects[ref]

    def _check_twins(self, model, obj, ref):
        """``obj`` is the object the transaction holds for ``ref``, and so
        is everything it reaches."""
        pending = [(obj, ref)]
        while pending:
            obj, ref = pending.pop()
            if ref in model.twins:
                assert model.twins[ref] is obj, ref
                continue
            assert all(obj is not other for other in model.twins.values()), ref
            model.twins[ref] = obj
            fields = self._fields(model, ref)
            assert obj.kind == "N" and obj["n"] == fields["n"], (ref, fields)
            if fields["child"] is None:
                assert obj["child"] is None, ref
            else:
                pending.append((obj["child"], fields["child"]))

    def _read(self, model, name):
        """Read root ``name`` through the transaction; returns the object
        and its ref, or ``None`` when the root is unbound."""
        ref = self._binding(model, name)
        if ref is None:
            with pytest.raises(UnknownHandleError):
                model.txn.get_root(name)
            return None
        obj = model.txn.get_root(name)
        if name not in model.roots:
            # An unread root materializes its whole closure at the snapshot.
            state = self.epochs[model.snapshot]
            model.materialized |= closure([ref], state.objects.__getitem__)
        self._check_twins(model, obj, ref)
        return obj, ref

    def _check_epoch(self, log, epoch):
        """The store's state at ``epoch`` is the model's, by oid."""
        roots, objects = log.state(epoch)
        state = self.epochs[epoch]
        assert roots == state.roots, (epoch, roots, state.roots)
        reached = closure(state.roots.values(), state.objects.__getitem__)
        assert objects == {oid: state.objects[oid] for oid in reached}, epoch

    # -- transactions ----------------------------------------------------------

    @initialize()
    def seed(self):
        # Every run starts from one committed epoch, a -> x -> y <- b and
        # c -> z, with two transactions open on it.
        self.begin()
        self.rebind_fresh(0, "b", 1, "none")
        self.rebind_fresh(0, "a", 0, "b")
        self.rebind_fresh(0, "c", 2, "none")
        self.commit(0)
        self.abort(0)
        self.begin()
        self.begin()

    @precondition(lambda self: len(self.open) < MAX_OPEN)
    @rule()
    def begin(self):
        txn = self.heap.begin()
        assert txn.snapshot == len(self.epochs) - 1
        self.open[txn.tid] = ModelTxn(txn)

    @precondition(lambda self: self.open)
    @rule(pick=PICKS, name=NAMES)
    def read(self, pick, name):
        self._read(self._pick(pick), name)

    @precondition(lambda self: self.open)
    @rule(
        pick=PICKS,
        name=NAMES,
        field=st.sampled_from(("n", "a", "b", "c", "none", "fresh")),
        value=VALUES,
    )
    def set_field(self, pick, name, field, value):
        """Set the object's ``n`` to ``value``, or point its ``child`` at
        another root's object, at nothing, or at a fresh object."""
        model = self._pick(pick)
        found = self._read(model, name)
        if found is None:
            return
        obj, ref = found
        if field == "n":
            obj["n"] = value
            model.objects[ref] = dict(self._fields(model, ref), n=value)
            return
        if field == "none":
            target, target_ref = None, None
        elif field == "fresh":
            target, target_ref = self._fresh(model, value, None, None)
        else:
            other = self._read(model, field)
            if other is None:
                return
            target, target_ref = other
        obj["child"] = target
        model.objects[ref] = dict(self._fields(model, ref), child=target_ref)

    @precondition(lambda self: self.open)
    @rule(
        pick=PICKS,
        name=NAMES,
        value=VALUES,
        child=st.sampled_from(("a", "b", "c", "none")),
    )
    def rebind_fresh(self, pick, name, value, child):
        model = self._pick(pick)
        target, target_ref = None, None
        if child != "none":
            target, target_ref = self._read(model, child) or (None, None)
        obj, ref = self._fresh(model, value, target_ref, target)
        model.txn.root(name, obj)
        model.roots[name] = ref

    @precondition(lambda self: self.open)
    @rule(pick=PICKS, name=NAMES, other=NAMES)
    def alias(self, pick, name, other):
        model = self._pick(pick)
        found = self._read(model, other)
        if found is not None:
            model.txn.root(name, found[0])
            model.roots[name] = found[1]

    @precondition(lambda self: self.open)
    @rule(pick=PICKS, name=NAMES)
    def delete(self, pick, name):
        model = self._pick(pick)
        if self._binding(model, name) is None:
            with pytest.raises(UnknownHandleError):
                del model.txn.namespace()[name]
            return
        del model.txn.namespace()[name]
        model.roots[name] = None

    @precondition(lambda self: self.open)
    @rule(pick=PICKS)
    def abort(self, pick):
        model = self._pick(pick)
        model.txn.abort()
        assert not model.txn.active
        del self.open[model.txn.tid]

    @precondition(lambda self: self.open)
    @rule(pick=PICKS)
    def commit(self, pick):
        model = self._pick(pick)
        base, newest = self.epochs[model.snapshot], self.epochs[-1]
        current = len(self.epochs) - 1

        # What the transaction changed, judged at its snapshot.
        view_roots = dict(base.roots)
        for name, ref in model.roots.items():
            if ref is None:
                view_roots.pop(name, None)
            else:
                view_roots[name] = ref
        view = closure(view_roots.values(), lambda ref: self._fields(model, ref))
        doomed = set(base.objects) - view
        rebound = {
            name for name, ref in model.roots.items()
            if ref != base.roots.get(name)
        }
        modified = {
            ref for ref, fields in model.objects.items()
            if ref < 0 or fields != base.objects.get(ref)
        }
        if not rebound and not modified & (set(base.objects) | view):
            stats = model.txn.commit()
            assert stats.objects_written == stats.objects_collected == 0
            assert self.heap.current_epoch == current
            assert model.txn.snapshot == model.snapshot and model.txn.active
            return

        sweep = model.materialized | model.written | doomed
        clashes = []
        for epoch in range(model.snapshot + 1, current + 1):
            later = self.epochs[epoch]
            objects = (later.written | later.collected) & sweep
            objects |= later.referenced & doomed
            names = later.rebound & rebound
            if objects or names:
                clashes.append((epoch, sorted(objects) + sorted(
                    "user:" + name for name in names
                )))
        try:
            stats = model.txn.commit()
        except TransactionConflictError as exc:
            assert clashes, "no epoch since the snapshot touched the sweep"
            assert exc.retryable
            assert (exc.winner_epoch, list(exc.keys)) == clashes[0]
            assert not model.txn.active
            assert self.heap.current_epoch == current
            del self.open[model.txn.tid]
            return
        assert not clashes, "missed a conflict with epoch %d" % clashes[0][0]

        # The serial merge onto the newest state.
        roots = dict(newest.roots)
        for name in rebound:
            if model.roots[name] is None:
                roots.pop(name, None)
            else:
                roots[name] = model.roots[name]

        def merged(ref):
            return model.objects[ref] if ref in modified else newest.objects[ref]

        reached = closure(roots.values(), merged)
        written = modified & reached
        collected = set(newest.objects) - reached

        # Fresh objects got their oids from the heap's allocator.
        oids = {
            ref: model.txn._oid_by_id[id(model.twins[ref])]
            for ref in written if ref < 0
        }

        def oid(ref):
            return oids.get(ref, ref)

        epoch = current + 1
        assert self.heap.current_epoch == epoch and model.txn.snapshot == epoch
        assert stats.objects_written == len(written)
        assert stats.objects_collected == len(collected)
        objects = {}
        for ref in reached:
            fields = merged(ref)
            objects[oid(ref)] = {"n": fields["n"], "child": oid(fields["child"])}
        self.epochs.append(Epoch(
            {name: oid(ref) for name, ref in roots.items()},
            objects,
            written={oid(ref) for ref in written},
            collected=collected,
            rebound=rebound,
            referenced=(
                {objects[oid(ref)]["child"] for ref in written}
                | {oid(model.roots[name]) for name in rebound}
            ) - {None},
        ))
        log = LogView(self.heap.store)
        self._check_epoch(log, epoch)
        assert log.live(epoch) == set(objects), "live objects != reachable"
        assert log.written_at(epoch) == (self.epochs[epoch].written, collected)

        # The transaction continues at the epoch it created.
        model.snapshot = epoch
        model.written |= self.epochs[epoch].written
        model.twins = {
            oid(ref): obj for ref, obj in model.twins.items()
            if ref >= 0 or ref in oids
        }
        model.roots, model.objects = {}, {}

    # -- the heap --------------------------------------------------------------

    @rule()
    def vacuum(self):
        self.heap.vacuum()
        log = LogView(self.heap.store)
        for epoch in {len(self.epochs) - 1} | {
            model.snapshot for model in self.open.values()
        }:
            self._check_epoch(log, epoch)
        for epoch in log.commits:
            log.state(epoch)  # no retained epoch dangles

    @precondition(lambda self: not self.open)
    @rule()
    def reopen(self):
        self.heap.close()
        self.heap = MVCCHeap(self._path)
        newest = len(self.epochs) - 1
        assert self.heap.current_epoch == newest
        self._check_epoch(LogView(self.heap.store), newest)
        reader = ModelTxn(self.heap.begin())
        self.open[reader.txn.tid] = reader
        for name in ("a", "b", "c"):
            self._read(reader, name)
        reader.txn.abort()
        del self.open[reader.txn.tid]

    # -- invariants ------------------------------------------------------------

    @invariant()
    def epochs_and_transactions_agree(self):
        assert self.heap.current_epoch == len(self.epochs) - 1
        assert self.heap.active_transactions() == len(self.open)

    @invariant()
    def history_is_bounded_by_the_horizon(self):
        current = len(self.epochs) - 1
        horizon = min(
            (model.snapshot for model in self.open.values()), default=current
        )
        kept = [epoch for epoch, __ in self.heap._clock.history]
        assert all(epoch > horizon for epoch in kept), (kept, horizon)
        assert kept == list(range(horizon + 1, current + 1)), (kept, horizon)

    @invariant()
    def held_objects_match_their_view(self):
        for model in self.open.values():
            state = self.epochs[model.snapshot]
            for ref, obj in model.twins.items():
                if ref not in model.objects and ref not in state.objects:
                    continue  # collected since; the program may still hold it
                fields = self._fields(model, ref)
                assert obj["n"] == fields["n"], ref
                child = fields["child"]
                if child is None:
                    assert obj["child"] is None, ref
                elif child in model.twins:
                    assert obj["child"] is model.twins[child], ref


HeapTxnMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=50, deadline=None
)
TestHeapTxnStateful = HeapTxnMachine.TestCase
