"""MVCC snapshot isolation over the intrinsic heap and the extern store.

The intrinsic heap (:mod:`repro.persistence.intrinsic`) gives PS-algol's
promise for *one* program: commit writes the reachable closure
atomically, abort rewinds to the last commit.  This module extends the
catalog's bind-epoch idea into **per-commit heap versions** so several
programs can run against one store at once:

* every successful commit mints a new *epoch* and writes each changed
  object as a fresh version record keyed ``ver:<oid>:<epoch>`` (a
  tombstone ``{"dead": 1}`` when the commit garbage-collected the oid);
* a transaction pins a **snapshot epoch** at ``begin`` and only ever
  reads the newest version of each object at or below that epoch, so a
  reader never observes a concurrent writer's uncommitted — or even
  committed-later — state;
* a writer prepares its commit privately — a heap transaction is the
  intrinsic heap's object-graph core over its snapshot, so its commit
  re-encodes only what its write stamps say changed — and publishes
  with **first-committer-wins** conflict detection: if any epoch
  committed after the snapshot wrote or collected an object in this
  transaction's sweep, rebound a root name this transaction rebound, or
  published a reference to an object this transaction would
  garbage-collect, the commit aborts with a retryable
  :class:`~repro.errors.TransactionConflictError`; otherwise the
  changed root bindings are merged onto the newest committed root
  table, so concurrent commits on disjoint roots all land.

Two layers version different things on one core, a :class:`_Clock`
each: the epoch counter, the transaction ids, the open snapshots and
their *horizon* (the oldest open snapshot, or the current epoch when
none is open), and the write set of every epoch above the horizon —
the only epochs an open transaction can still validate against.  Both
histories are therefore bounded by the horizon, trimmed whenever a
transaction ends or re-pins.

* :class:`MVCCHeap` / :class:`HeapTransaction` — version chains for the
  intrinsic object heap itself (roots, PObject graphs, sharing, cycles);
* :class:`TransactionManager` / :class:`SessionTransaction` — version
  chains over the *extern namespace* (``extern``/``intern`` handles),
  which is what the multi-session server threads through every session's
  interpreter.  Committed values write through to the plain ``extern:``
  keys, so the on-disk format stays readable by non-transactional code.
  Only the manager reads or writes those keys; interpreters reach it
  through a :class:`~repro.persistence.replicating.ReplicatingStore`.

Both count and journal ``txn.{begin,commit,abort,conflict}`` under the
``txn`` subsystem; the ``txn.conflict_rate`` health probe
(:mod:`repro.obs.monitor`) watches the conflict fraction.
See TRANSACTIONS.md for the isolation model and worked examples.
"""

from __future__ import annotations

import itertools
import threading
import time
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.errors import TransactionConflictError, TransactionError
from repro.persistence.intrinsic import (
    CommitStats,
    Namespace,
    _ObjectGraph,
    _reachable,
)
from repro.persistence.serialize import _node_refs
from repro.persistence.store import LogStore

_VER_PREFIX = "ver:"
_COMMIT_PREFIX = "vcommit:"
_META_EPOCH = "vmeta:epoch"
_META_NEXT_OID = "vmeta:next_oid"
_EXTERN_PREFIX = "extern:"


def _ver_key(oid: int, epoch: int) -> str:
    return "%s%d:%d" % (_VER_PREFIX, oid, epoch)


def _count(severity: str, name: str, **payload: object) -> None:
    """Count ``txn.<name>`` and journal it under the ``txn`` subsystem."""
    _metrics.REGISTRY.counter("txn." + name).inc()
    if _events.CURRENT.enabled:
        _events.CURRENT.publish(severity, "txn", name, **payload)


class _Clock:
    """One layer's epochs, open snapshots and write-set history.

    An epoch's *write set* is a tuple of sets, one per kind of thing
    the layer versions.  The history holds ``(epoch, write set)`` for
    every epoch above the *horizon* — the oldest open snapshot, or the
    current epoch when no transaction is open — oldest first: exactly
    the epochs an open transaction may still have to validate against.
    Ending or re-pinning a transaction trims it.  The owning layer calls
    every method under its own lock.
    """

    def __init__(self, epoch: int = 0):
        self.epoch = epoch
        self.snapshots: Dict[int, int] = {}  # open tid -> its snapshot
        self.history: List[Tuple[int, tuple]] = []
        self._tids = itertools.count(1)

    def begin(self) -> Tuple[int, int]:
        """Open a transaction at the current epoch: ``(tid, snapshot)``."""
        tid = next(self._tids)
        self.snapshots[tid] = self.epoch
        return tid, self.epoch

    def end(self, tid: int) -> List[tuple]:
        """Close ``tid`` (idempotent); returns what the trim dropped."""
        self.snapshots.pop(tid, None)
        return self.trim()

    def repin(self, tid: int) -> int:
        """Move open ``tid`` to the current epoch; returns its snapshot."""
        self.snapshots[tid] = self.epoch
        self.trim()
        return self.epoch

    def horizon(self) -> int:
        """The oldest open snapshot, or the current epoch when none is."""
        return min(self.snapshots.values(), default=self.epoch)

    def _after(self, snapshot: int) -> int:
        # ``(snapshot + 1,)`` sorts after every entry at or below the
        # snapshot and before every later one, without comparing sets.
        return bisect_left(self.history, (snapshot + 1,))

    def since(self, snapshot: int) -> List[tuple]:
        """The write sets of the epochs after ``snapshot``, oldest first."""
        return [writes for __, writes in self.history[self._after(snapshot):]]

    def conflict(self, snapshot: int, probes: tuple) -> Optional[tuple]:
        """First-committer-wins: ``(epoch, overlaps)`` for the first epoch
        after ``snapshot`` whose write set meets ``probes`` kind by kind."""
        for epoch, writes in self.history[self._after(snapshot):]:
            overlaps = tuple(kind & probe for kind, probe in zip(writes, probes))
            if any(overlaps):
                return epoch, overlaps
        return None

    def publish(self, writes: tuple) -> int:
        """Mint the next epoch with ``writes`` as its write set."""
        self.epoch += 1
        self.history.append((self.epoch, writes))
        return self.epoch

    def trim(self) -> List[tuple]:
        """Drop the write sets at or below the horizon, and return them."""
        passed = self._after(self.horizon())
        dropped = [writes for __, writes in self.history[:passed]]
        del self.history[:passed]
        return dropped


# ---------------------------------------------------------------------------
# Heap transactions: versioned intrinsic persistence
# ---------------------------------------------------------------------------


class _LazyRoot:
    """A root binding not yet pulled into the transaction.

    Holds the stored node verbatim; the transaction decodes it (and
    thereby materializes the subgraph, joining it to the read sweep) only
    when the root is actually read.  An untouched lazy root is not a
    root write — commit leaves whatever binding is newest on the
    committed table — so transactions on disjoint roots have disjoint
    sweeps and never conflict.
    """

    __slots__ = ("node",)

    def __init__(self, node: object):
        self.node = node


class _TxnNamespace(Namespace):
    """A namespace view that resolves lazy roots on first read."""

    def __getitem__(self, name: str) -> object:
        value = super().__getitem__(name)
        if isinstance(value, _LazyRoot):
            value = self._heap._adopt_root(self._name, name, value.node)
        return value


class MVCCHeap:
    """A persistent object heap with snapshot-isolated transactions.

    Where :class:`~repro.persistence.intrinsic.PersistentHeap` *is* the
    one program's heap, an ``MVCCHeap`` is the shared substrate:
    :meth:`begin` hands out a :class:`HeapTransaction` pinned to the
    current epoch, and any number of transactions may read — and prepare
    writes — concurrently.  All shared state (epoch counter, oid
    counter, version indexes, the backing store) is guarded by one lock;
    transactions hold it only to allocate oids and to publish commits,
    never while reading.
    """

    def __init__(self, store: Union[LogStore, str]):
        self._store = store if isinstance(store, LogStore) else LogStore(store)
        self._lock = threading.RLock()
        # oid -> sorted epochs that wrote a version of it (incl. tombstones)
        self._versions: Dict[int, List[int]] = {}
        self._epochs: List[int] = []  # epochs with a commit record, sorted
        self._load()

    def _load(self) -> None:
        meta = self._store.get(_META_EPOCH)
        # A reopened heap has no open snapshot, so no write-set history.
        self._clock = _Clock(int(meta) if meta is not None else 0)
        meta = self._store.get(_META_NEXT_OID)
        self._next_oid = int(meta) if meta is not None else 0
        for key in self._store.keys():
            if key.startswith(_VER_PREFIX):
                oid_text, epoch_text = key[len(_VER_PREFIX):].split(":", 1)
                self._versions.setdefault(int(oid_text), []).append(
                    int(epoch_text)
                )
            elif key.startswith(_COMMIT_PREFIX):
                self._epochs.append(int(key[len(_COMMIT_PREFIX):]))
        self._epochs.sort()
        for chain in self._versions.values():
            chain.sort()
        # Live objects no root reaches (a log whose last commits raced)
        # are garbage the next commit collects.
        epoch = self._clock.epoch
        reached = _reachable(
            self._roots_at(epoch).values(), {},
            lambda oid: self._entry_at(oid, epoch) or {},
        )
        self._orphans = self._live_at(epoch) - reached

    # -- shared-state helpers (called by transactions) ----------------------

    def _allocate_oid(self) -> int:
        with self._lock:
            oid = self._next_oid
            self._next_oid += 1
            return oid

    def _entry_at(self, oid: int, snapshot: int) -> Optional[dict]:
        """The newest version of ``oid`` at or below ``snapshot``, or
        ``None`` when there is none or it is a tombstone.

        History at or below a pinned snapshot is immutable (vacuum never
        prunes past an active snapshot), so no lock is needed: a
        committer may append to the chain concurrently, but only at
        epochs above every active snapshot.
        """
        chain = self._versions.get(oid)
        index = bisect_right(chain, snapshot) - 1 if chain else -1
        if index < 0:
            return None
        entry = self._store.get(_ver_key(oid, chain[index]))
        return None if entry is None or entry.get("dead") else entry

    def _roots_at(self, snapshot: int) -> Dict[str, object]:
        """The root-table nodes of the newest commit at/below ``snapshot``."""
        index = bisect_right(self._epochs, snapshot) - 1
        if index < 0:
            return {}
        record = self._store.get(_COMMIT_PREFIX + str(self._epochs[index]))
        return dict(record.get("roots", {})) if record else {}

    def _live_at(self, snapshot: int) -> Set[int]:
        """Oids whose newest version at/below ``snapshot`` is not a tombstone."""
        with self._lock:  # a concurrent commit may be adding chains
            oids = list(self._versions)
        return {oid for oid in oids if self._entry_at(oid, snapshot) is not None}

    # -- transactions -------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The newest committed epoch (0 before any commit)."""
        return self._clock.epoch

    def begin(self) -> "HeapTransaction":
        """Start a transaction pinned to the current committed epoch."""
        with self._lock:
            txn = HeapTransaction(self, *self._clock.begin())
        _count("DEBUG", "begin", tid=txn.tid, snapshot=txn.snapshot, layer="heap")
        return txn

    def active_transactions(self) -> int:
        """How many transactions are currently open."""
        return len(self._clock.snapshots)

    def vacuum(self) -> Dict[str, int]:
        """Prune version history no snapshot can still see.

        A version is prunable when a newer version of the same oid
        exists at or below the *horizon* — the oldest active snapshot
        (or the current epoch when idle).  A tombstone at or below the
        horizon is itself pruned once it is the newest such version.
        Commit records below the newest commit at/below the horizon go
        too (their root tables can no longer be pinned).  Returns counts.
        """
        versions_pruned = commits_pruned = 0
        with self._lock:
            horizon = self._clock.horizon()
            with self._store.batch():
                for oid, chain in list(self._versions.items()):
                    index = bisect_right(chain, horizon) - 1
                    if index < 0:
                        continue
                    keep_from = index
                    newest_kept = self._store.get(_ver_key(oid, chain[index]))
                    if (
                        newest_kept is not None
                        and newest_kept.get("dead")
                        and index == len(chain) - 1
                    ):
                        keep_from = len(chain)  # dead end: drop whole chain
                    for epoch in chain[:keep_from]:
                        self._store.delete(_ver_key(oid, epoch))
                        versions_pruned += 1
                    if keep_from == len(chain):
                        del self._versions[oid]
                    elif keep_from:
                        self._versions[oid] = chain[keep_from:]
                anchor = bisect_right(self._epochs, horizon) - 1
                if anchor > 0:
                    for epoch in self._epochs[:anchor]:
                        self._store.delete(_COMMIT_PREFIX + str(epoch))
                        commits_pruned += 1
                    self._epochs = self._epochs[anchor:]
        if (versions_pruned or commits_pruned) and _events.CURRENT.enabled:
            _events.CURRENT.publish(
                "INFO", "txn", "vacuum",
                versions=versions_pruned, commits=commits_pruned,
                horizon=horizon,
            )
        return {"versions": versions_pruned, "commits": commits_pruned}

    # -- lifecycle ----------------------------------------------------------

    @property
    def store(self) -> LogStore:
        """The backing log store."""
        return self._store

    def storage_bytes(self) -> int:
        """On-disk size of the heap's log."""
        return self._store.size_bytes()

    def stored_object_count(self) -> int:
        """How many objects are live at the current epoch."""
        return len(self._live_at(self._clock.epoch))

    def close(self) -> None:
        """Close the backing store (open transactions become unusable)."""
        self._store.close()

    def __enter__(self) -> "MVCCHeap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class HeapTransaction(_ObjectGraph):
    """One snapshot-isolated view of an :class:`MVCCHeap`.

    The intrinsic heap's object-graph core over the version chains: the
    same :meth:`namespace`, :meth:`root`, :meth:`get_root` surface, the
    same materializer and the same write-stamp diff as
    :class:`~repro.persistence.intrinsic.PersistentHeap`.  Of its own it
    reads entries at its snapshot epoch, takes oids from the heap's
    shared allocator, keeps unread roots lazy, and publishes through
    first-committer-wins validation.  Everything it materializes is
    private to the transaction: two transactions reading the same oid
    each hold their own PObject, so a writer's in-memory mutations are
    invisible to everyone until commit publishes them.

    :meth:`commit` publishes and the transaction *continues* against the
    new epoch (PS-algol style: the program keeps its object graph);
    :meth:`abort` ends the transaction and abandons the graph.
    """

    _namespace_type = _TxnNamespace

    def __init__(self, heap: MVCCHeap, tid: int, snapshot: int):
        super().__init__()
        self._heap = heap
        self.tid = tid
        self.snapshot = snapshot
        self._active_flag = True
        # root key ("ns:name") -> its node at the snapshot
        self._root_nodes: Dict[str, object] = {}
        for key, node in heap._roots_at(snapshot).items():
            self._bind_lazily(key, node)

    def _entry(self, oid: int) -> Optional[dict]:
        return self._heap._entry_at(oid, self.snapshot)

    def _stored_root(self, key: str) -> object:
        return self._root_nodes.get(key)

    def _root_key(self, ns_name: str, root_name: str) -> str:
        return "%s:%s" % (ns_name, root_name)

    def _new_oid(self) -> int:
        return self._heap._allocate_oid()

    def _bind_lazily(self, key: str, node: object) -> None:
        ns_name, root_name = key.split(":", 1)
        lazy = _LazyRoot(node)
        self._namespaces.setdefault(ns_name, {})[root_name] = lazy
        self._root_state[key] = (lazy, [])
        self._root_nodes[key] = node

    # -- namespace surface --------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the transaction can still read and commit."""
        return self._active_flag

    def _check_active(self) -> None:
        if not self._active_flag:
            raise TransactionError(
                "transaction %d is no longer active" % self.tid
            )

    def namespace(self, name: str = "user") -> Namespace:
        """The namespace called ``name`` (created on first use)."""
        self._check_active()
        return super().namespace(name)

    # -- commit / abort -----------------------------------------------------

    def commit(self) -> CommitStats:
        """Publish this transaction's state as a new epoch.

        Diffs the transaction's graph against its snapshot the way
        :meth:`PersistentHeap.commit
        <repro.persistence.intrinsic.PersistentHeap.commit>` diffs
        against its store, then — under the heap lock — runs
        first-committer-wins conflict detection: the transaction aborts
        with a retryable :class:`~repro.errors.TransactionConflictError`
        if any epoch committed after this snapshot (a) wrote or
        collected an object in this transaction's sweep (everything it
        read, wrote, or would collect), (b) rebound or deleted a root
        name this transaction rebound or deleted, or (c) published a
        reference to an object this transaction would collect.
        Otherwise the changed root bindings are merged onto the newest
        committed root table (concurrent commits on disjoint roots all
        land); when this commit dropped a reference, the objects the
        merged state no longer reaches are collected; and the new
        versions, tombstones, and commit record go down in one atomic
        store batch (a crash mid-commit replays as if the commit never
        happened).  The transaction continues, re-pinned to the epoch
        it just created; roots other commits rebound or deleted since
        its snapshot turn lazy (or go) at the new epoch.  A commit that
        changed nothing publishes nothing and keeps its snapshot.
        """
        self._check_active()
        started = time.perf_counter()
        with _trace.CURRENT.span("txn.commit") as span:
            stats = self._commit_inner(span)
        _metrics.REGISTRY.histogram("txn.commit.seconds").observe(
            time.perf_counter() - started
        )
        return stats

    def _commit_inner(self, span) -> CommitStats:
        heap = self._heap
        diff = self._diverged()
        if not (diff.changed or diff.rebound or diff.dropped):
            # Read-only (or no-op) commit: nothing to publish, nothing
            # to conflict with; the snapshot stays pinned.
            span.annotate(epoch=self.snapshot, written=0, read_only=True)
            _count(
                "DEBUG", "commit", tid=self.tid, epoch=self.snapshot,
                written=0, read_only=True, layer="heap",
            )
            return CommitStats(
                roots_written=len(diff.bound),
                objects_written=0,
                objects_unchanged=len(self._stamps),
                objects_collected=0,
            )
        root_changes = set(diff.rebound) | set(diff.dropped)

        with heap._lock:
            clock = heap._clock
            later = clock.since(self.snapshot)
            # What this commit would collect at its snapshot: GC
            # decisions are part of the sweep, and a later commit that
            # published a reference to one of these wins.
            doomed: Set[int] = set()
            if diff.sweep and later:
                live = _reachable(
                    self._bound_nodes(diff), diff.objects, self._entry
                )
                doomed = set(self._unreached(diff, live, self._entry))
            # The sweep: everything this transaction read, wrote, or
            # would collect.  Any overlap with a commit that landed after
            # our snapshot means our work was based on stale state.  Two
            # transactions rebinding (or deleting) the same root name
            # conflict even when their object sweeps are disjoint (fresh
            # roots allocate fresh oids).
            sweep = self._stamps.keys() | set(diff.changed) | doomed
            clash = clock.conflict(self.snapshot, (sweep, root_changes, doomed))
            if clash:
                epoch, (overlap, root_overlap, kept_overlap) = clash
                objects = overlap | kept_overlap
                self._end()
                _count(
                    "WARN", "conflict", tid=self.tid,
                    snapshot=self.snapshot, winner_epoch=epoch,
                    overlap=len(objects), roots=sorted(root_overlap),
                    layer="heap",
                )
                raise TransactionConflictError(
                    "commit conflict: epoch %d already wrote %d"
                    " object(s) and %d root(s) in this transaction's"
                    " sweep (snapshot %d)"
                    % (epoch, len(objects), len(root_overlap), self.snapshot),
                    keys=sorted(objects) + sorted(root_overlap),
                    winner_epoch=epoch,
                )

            # Merge, don't replace: start from the newest committed root
            # table (which may carry roots committed after our snapshot)
            # and overlay only the bindings this transaction changed.
            merged = heap._roots_at(clock.epoch)
            for key in diff.dropped:
                merged.pop(key, None)
            for key in diff.rebound:
                merged[key] = diff.roots[key][2]
            collected = set(heap._orphans)
            if diff.sweep:
                # Collect against the merged state, so an object whose
                # last references two overlapping commits dropped goes too.
                def newest(oid: int) -> Optional[dict]:
                    return heap._entry_at(oid, clock.epoch)

                live = _reachable(merged.values(), diff.objects, newest)
                collected.update(self._unreached(diff, live, newest))
                diff.keep_only(live)
            writes = set(diff.changed) | collected
            # What this commit publishes references to: a later collector
            # with an older snapshot must not tombstone these.
            kept: Set[int] = set()
            for oid in diff.changed:
                _node_refs(diff.objects[oid][2], kept)
            for key in diff.rebound:
                _node_refs(merged[key], kept)

            epoch = clock.epoch + 1
            with heap._store.batch():
                for oid in diff.changed:
                    heap._store.put(_ver_key(oid, epoch), diff.objects[oid][2])
                for oid in collected:
                    heap._store.put(_ver_key(oid, epoch), {"dead": 1})
                # Only the root table is read back (``_roots_at``):
                # validation keeps the write sets in memory.
                heap._store.put(
                    _COMMIT_PREFIX + str(epoch),
                    {"roots": merged, "sweep": len(sweep)},
                )
                heap._store.put(_META_EPOCH, epoch)
                heap._store.put(_META_NEXT_OID, heap._next_oid)
            for oid in writes:
                heap._versions.setdefault(oid, []).append(epoch)
            clock.publish((writes, root_changes, kept))
            heap._epochs.append(epoch)
            heap._orphans = set()
            # Re-pin: the transaction continues against what it just
            # committed.
            self.snapshot = clock.repin(self.tid)
            rebound_since = set().union(*(roots for __, roots, __ in later))

        self._settle(diff, collected)
        for key in diff.dropped:
            self._root_nodes.pop(key, None)
        for key in diff.rebound:
            self._root_nodes[key] = merged[key]
        # Roots other commits rebound or deleted since the old snapshot
        # are read afresh at the new one.
        for key in rebound_since:
            if key in merged:
                self._bind_lazily(key, merged[key])
            else:
                ns_name, root_name = key.split(":", 1)
                self._namespaces.get(ns_name, {}).pop(root_name, None)
                self._root_state.pop(key, None)
                self._root_nodes.pop(key, None)

        stats = CommitStats(
            roots_written=len(merged),
            objects_written=len(diff.changed),
            objects_unchanged=len(self._stamps) - len(diff.changed),
            objects_collected=len(collected),
        )
        span.annotate(
            epoch=epoch, written=stats.objects_written,
            collected=stats.objects_collected,
        )
        registry = _metrics.REGISTRY
        registry.counter("heap.objects_written").inc(stats.objects_written)
        registry.counter("heap.objects_collected").inc(stats.objects_collected)
        _count(
            "INFO", "commit", tid=self.tid, epoch=epoch,
            written=stats.objects_written, collected=stats.objects_collected,
            sweep=len(sweep), layer="heap",
        )
        return stats

    def abort(self) -> None:
        """End the transaction, abandoning its in-memory object graph."""
        self._check_active()
        self._end()
        _count("DEBUG", "abort", tid=self.tid, layer="heap")

    def _end(self) -> None:
        self._active_flag = False
        with self._heap._lock:
            self._heap._clock.end(self.tid)

    def __enter__(self) -> "HeapTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._active_flag:
            if exc_type is None:
                self.commit()
                if self._active_flag:  # commit re-pins; the scope is over
                    self._end()
            else:
                self.abort()


# ---------------------------------------------------------------------------
# Session transactions: versioned extern/intern namespace
# ---------------------------------------------------------------------------


class TransactionManager:
    """Snapshot isolation for the extern namespace of a shared store.

    One manager fronts one backing store (a :class:`LogStore`, a path to
    one, or a plain dict for in-memory sessions) and is one namespace:
    the multi-session broker hands its manager to every session's
    interpreter.  Version chains live in memory — the durable format is
    unchanged: a commit writes the winning values through to the plain
    ``extern:<handle>`` keys in one atomic batch, so stores written
    under MVCC replay exactly like stores written without it (a crash
    inside the commit window replays to the state before the commit).

    A chain lives only while some open snapshot can still read an older
    version than the backing store holds, so the chains are bounded by
    the handles written since the oldest active snapshot (plus those
    seeded since the last prune).  A commit's bookkeeping costs its own
    read ∪ write set plus the epochs committed since its snapshot, never
    the number of handles ever touched.

    Non-transactional sessions keep working: :meth:`get` / :meth:`put`
    are single-operation (autocommit) transactions.
    """

    def __init__(
        self,
        store: Union[LogStore, str, None] = None,
        memory: Optional[dict] = None,
    ):
        # The backing log store (``None`` for an in-memory namespace).
        self.store = LogStore(store) if isinstance(store, str) else store
        self._memory = memory if memory is not None else {}  # storeless
        # Re-entrant: the Amber front holds it around a read and a write.
        self.lock = threading.RLock()
        # handle -> [(epoch, value-or-None)] sorted by epoch; epoch 0 is
        # the backing store's value when the chain was seeded.
        self._chains: Dict[str, List[Tuple[int, Optional[object]]]] = {}
        # An epoch's write set is ``(handles it wrote,)``: the history
        # conflict validation scans, and the chains a prune revisits.
        self._clock = _Clock()
        # handles whose chains were seeded since the last prune
        self._seeded: Set[str] = set()

    # -- backing store ------------------------------------------------------

    def _backing_get(self, handle: str) -> Optional[object]:
        if self.store is not None:
            return self.store.get(_EXTERN_PREFIX + handle)
        return self._memory.get(handle)

    def _backing_write(self, writes: Dict[str, object]) -> None:
        # A ``None`` document deletes the handle.
        if self.store is None:
            self._memory.update(writes)
            for handle in [h for h, doc in writes.items() if doc is None]:
                del self._memory[handle]
            return
        with self.store.batch():
            for handle, document in writes.items():
                if document is None:
                    self.store.delete(_EXTERN_PREFIX + handle)
                else:
                    self.store.put(_EXTERN_PREFIX + handle, document)

    # -- version chains (call with the lock held) ---------------------------

    def _chain(self, handle: str) -> List[Tuple[int, Optional[object]]]:
        chain = self._chains.get(handle)
        if chain is None:
            chain = [(0, self._backing_get(handle))]
            self._chains[handle] = chain
            self._seeded.add(handle)
        return chain

    def _value_at(self, handle: str, snapshot: int) -> Optional[object]:
        chain = self._chain(handle)
        # ``(snapshot + 1,)`` sorts after every entry at or below the
        # snapshot and before every later one, without comparing values.
        index = bisect_left(chain, (snapshot + 1,)) - 1
        return chain[index][1] if index >= 0 else None

    def _prune(self, passed: List[tuple]) -> None:
        """Trim the chains the horizon has moved past; drop dead ones.

        Every chain left by the last prune holds one version at or below
        that horizon and at least one above it, so only two kinds can
        need work now: handles written by the epochs the horizon has
        since ``passed``, and chains seeded since the last prune.  A chain
        whose newest version is at or below the horizon equals the
        backing store for every snapshot that can still read it, so it
        goes; a later snapshot read reseeds it from the backing store.
        """
        horizon = self._clock.horizon()
        visit = self._seeded
        self._seeded = set()
        for (handles,) in passed:
            visit.update(handles)
        for handle in visit:
            chain = self._chains.get(handle)
            if chain is None:
                continue
            keep = bisect_left(chain, (horizon + 1,)) - 1
            if keep == len(chain) - 1:
                del self._chains[handle]
            elif keep > 0:
                del chain[:keep]

    # -- autocommit surface -------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The newest committed epoch (0 before any commit)."""
        return self._clock.epoch

    def active_transactions(self) -> int:
        """How many session transactions are currently open."""
        return len(self._clock.snapshots)

    def version_chains(self) -> int:
        """How many handles currently keep an in-memory version chain."""
        return len(self._chains)

    def handles(self) -> List[str]:
        """The committed handles, sorted."""
        if self.store is None:
            return sorted(self._memory)
        keys = self.store.keys()
        return [k[len(_EXTERN_PREFIX):] for k in keys if k.startswith(_EXTERN_PREFIX)]

    def close(self) -> None:
        """Close the backing log store, if there is one."""
        if self.store is not None:
            self.store.close()

    def get(self, handle: str) -> Optional[object]:
        """Read the committed value of ``handle`` (``None`` when absent).

        Reads the backing store directly: every commit writes through,
        so it holds the newest committed state, and writers that bypass
        this manager (another manager on the same store) stay visible.
        Version chains only serve snapshot reads inside transactions.
        """
        return self._backing_get(handle)

    def put(self, handle: str, document: object) -> int:
        """Autocommit one write (``None`` deletes); returns its epoch."""
        with self.lock:
            # Seed the chain (capturing the pre-write backing value as
            # its epoch-0 base) and make the write durable *before*
            # advertising the new epoch: a failed store write leaves no
            # trace in memory.
            chain = self._chain(handle)
            self._backing_write({handle: document})
            epoch = self._clock.publish((frozenset((handle,)),))
            chain.append((epoch, document))
            self._prune(self._clock.trim())
        return epoch

    # -- transactions -------------------------------------------------------

    def begin(self, owner: Optional[str] = None) -> "SessionTransaction":
        """Start a transaction pinned to the current committed epoch."""
        with self.lock:
            txn = SessionTransaction(self, *self._clock.begin(), owner)
        _count(
            "DEBUG", "begin", tid=txn.tid, snapshot=txn.snapshot,
            owner=owner, layer="extern",
        )
        return txn


class SessionTransaction:
    """One snapshot-isolated view of the extern namespace.

    Reads resolve against the snapshot's version of each handle (a
    handle this transaction wrote reads back its own buffered value);
    writes buffer privately until :meth:`commit`.  Unlike a
    :class:`HeapTransaction`, commit *ends* the transaction (the
    session surface is SQL-shaped: ``:begin … :commit``), returning the
    session to autocommit.
    """

    def __init__(
        self,
        manager: TransactionManager,
        tid: int,
        snapshot: int,
        owner: Optional[str] = None,
    ):
        self._manager = manager
        self.tid = tid
        self.snapshot = snapshot
        self.owner = owner
        self._active_flag = True
        self.reads: Set[str] = set()
        self.writes: Dict[str, object] = {}

    @property
    def active(self) -> bool:
        """Whether the transaction can still read, write, and commit."""
        return self._active_flag

    def _check_active(self) -> None:
        if not self._active_flag:
            raise TransactionError(
                "transaction %d is no longer active" % self.tid
            )

    def read(self, handle: str) -> Optional[object]:
        """The handle's value at this snapshot (own writes win)."""
        self._check_active()
        if handle in self.writes:
            return self.writes[handle]
        self.reads.add(handle)
        with self._manager.lock:
            return self._manager._value_at(handle, self.snapshot)

    def write(self, handle: str, document: object) -> None:
        """Buffer a write, invisible to every other session until commit."""
        self._check_active()
        self.writes[handle] = document

    def commit(self) -> Tuple[int, int]:
        """Publish buffered writes; returns ``(epoch, handles_written)``.

        First-committer-wins: if any commit since this snapshot touched
        a handle this transaction read or wrote, the transaction aborts
        with a retryable
        :class:`~repro.errors.TransactionConflictError`.  A read-only
        commit always succeeds (at its snapshot epoch, writing nothing).
        A commit whose durable write fails raises the store's error and
        ends the transaction with nothing published — the manager never
        advertises an epoch the log did not accept.
        """
        self._check_active()
        manager = self._manager
        started = time.perf_counter()
        if not self.writes:
            self._end()
            _count(
                "DEBUG", "commit", tid=self.tid, epoch=self.snapshot,
                written=0, read_only=True, owner=self.owner, layer="extern",
            )
            return self.snapshot, 0
        sweep = self.reads | set(self.writes)
        with manager.lock:
            # Every epoch above this snapshot is still in the history:
            # the horizon never passes an open snapshot.
            clash = manager._clock.conflict(self.snapshot, (sweep,))
            if clash:
                epoch, (overlap,) = clash
                self._end()
                _count(
                    "WARN", "conflict", tid=self.tid,
                    snapshot=self.snapshot, winner_epoch=epoch,
                    handles=sorted(overlap), owner=self.owner,
                    layer="extern",
                )
                raise TransactionConflictError(
                    "commit conflict: handle(s) %s changed since"
                    " snapshot %d (won by epoch %d)"
                    % (", ".join(sorted(overlap)), self.snapshot, epoch),
                    keys=sorted(overlap),
                    winner_epoch=epoch,
                )
            # Seed the chains first (their epoch-0 base must be the
            # pre-write backing value), then make the batch durable
            # *before* installing anything: if the store write fails
            # (disk full, fsync error) no epoch is advertised that was
            # never made durable, and the transaction ends rather than
            # staying open forever, pinning the horizon.
            chains = {
                handle: manager._chain(handle) for handle in self.writes
            }
            try:
                manager._backing_write(self.writes)
            except BaseException:
                self._end()
                _count(
                    "WARN", "abort", tid=self.tid, owner=self.owner,
                    layer="extern", reason="backing write failed",
                )
                raise
            epoch = manager._clock.publish((frozenset(self.writes),))
            for handle, document in self.writes.items():
                chains[handle].append((epoch, document))
            written = len(self.writes)
            self._end()
        _metrics.REGISTRY.histogram("txn.commit.seconds").observe(
            time.perf_counter() - started
        )
        _count(
            "INFO", "commit", tid=self.tid, epoch=epoch, written=written,
            owner=self.owner, layer="extern",
        )
        return epoch, written

    def abort(self) -> None:
        """Discard buffered writes and end the transaction."""
        self._check_active()
        self._end()
        _count("DEBUG", "abort", tid=self.tid, owner=self.owner, layer="extern")

    def _end(self) -> None:
        # Every way out (commit, read-only commit, conflict, abort, a
        # failed store write, a dropped connection) may advance the
        # horizon, so each one prunes.
        self._active_flag = False
        manager = self._manager
        with manager.lock:
            manager._prune(manager._clock.end(self.tid))

    def __enter__(self) -> "SessionTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._active_flag:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
