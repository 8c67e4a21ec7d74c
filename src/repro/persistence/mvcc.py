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
* a writer prepares its commit privately (its own identity maps, its own
  encoder) and publishes with **first-committer-wins** conflict
  detection: if any epoch committed after the snapshot wrote an object
  in this transaction's reachability sweep, rebound a root name this
  transaction rebound, or kept alive an object this transaction would
  garbage-collect, the commit aborts with a retryable
  :class:`~repro.errors.TransactionConflictError`; otherwise the
  changed root bindings are merged onto the newest committed root
  table, so concurrent commits on disjoint roots all land.

Two flavours share the epoch/conflict machinery:

* :class:`MVCCHeap` / :class:`HeapTransaction` — version chains for the
  intrinsic object heap itself (roots, PObject graphs, sharing, cycles);
* :class:`TransactionManager` / :class:`SessionTransaction` — version
  chains over the *extern namespace* (``extern``/``intern`` handles),
  which is what the multi-session server threads through every session's
  interpreter.  Committed values write through to the plain ``extern:``
  keys, so the on-disk format stays readable by non-transactional code.

Both emit ``txn.{begin,commit,abort,conflict}`` metrics and journal
events under the ``txn`` subsystem; the ``txn.conflict_rate`` health
probe (:mod:`repro.obs.monitor`) watches the conflict fraction.
See TRANSACTIONS.md for the isolation model and worked examples.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left, bisect_right
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.errors import (
    PersistenceError,
    StoreCorruptError,
    TransactionConflictError,
    TransactionError,
    UnknownHandleError,
)
from repro.persistence.heap import PObject
from repro.persistence.intrinsic import CommitStats, Namespace
from repro.persistence.serialize import _Decoder, _Encoder, _node_refs
from repro.persistence.store import LogStore

_VER_PREFIX = "ver:"
_COMMIT_PREFIX = "vcommit:"
_META_EPOCH = "vmeta:epoch"
_META_NEXT_OID = "vmeta:next_oid"
_EXTERN_PREFIX = "extern:"


def _ver_key(oid: int, epoch: int) -> str:
    return "%s%d:%d" % (_VER_PREFIX, oid, epoch)


def _journal(severity: str, name: str, **payload: object) -> None:
    if _events.CURRENT.enabled:
        _events.CURRENT.publish(severity, "txn", name, **payload)


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
            value = self._heap._resolve_root(self._name, name, value)
        return value


class _TxnEncoder(_Encoder):
    """Encoder interning PObjects at the transaction's private oids."""

    def __init__(self, txn: "HeapTransaction"):
        super().__init__(include_transient=False)
        self._txn = txn
        self.touched: Dict[int, PObject] = {}

    def _intern(self, obj: PObject) -> int:
        oid = self._txn._ensure_oid(obj)
        self.touched[oid] = obj
        return oid


class _TxnDecoder(_Decoder):
    """Decoder resolving object references at the transaction's snapshot."""

    def __init__(self, txn: "HeapTransaction"):
        super().__init__({})
        self._txn = txn

    def _object(self, oid: int) -> PObject:
        return self._txn._materialize(oid, self)


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
        # epoch -> oids that commit wrote (for first-committer-wins checks)
        self._commit_writes: Dict[int, FrozenSet[int]] = {}
        # epoch -> root keys ("ns:name") that commit rebound or deleted
        self._root_writes: Dict[int, FrozenSet[str]] = {}
        # epoch -> oids that commit kept alive without writing them (its
        # published roots reference them); a later collector with an
        # older snapshot must not tombstone these out from under it
        self._commit_kept: Dict[int, FrozenSet[int]] = {}
        self._epochs: List[int] = []  # committed epochs, sorted
        self._epoch = 0
        self._next_oid = 0
        self._next_tid = 1
        self._active: Dict[int, "HeapTransaction"] = {}
        self._load()

    def _load(self) -> None:
        meta = self._store.get(_META_EPOCH)
        self._epoch = int(meta) if meta is not None else 0
        meta = self._store.get(_META_NEXT_OID)
        self._next_oid = int(meta) if meta is not None else 0
        for key in self._store.keys():
            if key.startswith(_VER_PREFIX):
                oid_text, epoch_text = key[len(_VER_PREFIX):].split(":", 1)
                self._versions.setdefault(int(oid_text), []).append(
                    int(epoch_text)
                )
            elif key.startswith(_COMMIT_PREFIX):
                epoch = int(key[len(_COMMIT_PREFIX):])
                record = self._store.get(key)
                self._epochs.append(epoch)
                self._commit_writes[epoch] = frozenset(
                    record.get("written", [])
                )
                self._root_writes[epoch] = frozenset(
                    record.get("root_writes", [])
                )
                self._commit_kept[epoch] = frozenset(
                    record.get("kept", [])
                )
        self._epochs.sort()
        for chain in self._versions.values():
            chain.sort()

    # -- shared-state helpers (called by transactions) ----------------------

    def _allocate_oid(self) -> int:
        with self._lock:
            oid = self._next_oid
            self._next_oid += 1
            return oid

    def _version_at(
        self, oid: int, snapshot: int
    ) -> Tuple[Optional[dict], Optional[int]]:
        """The newest version of ``oid`` at or below ``snapshot``.

        History at or below a pinned snapshot is immutable (vacuum never
        prunes past an active snapshot), so no lock is needed: a
        committer may append to the chain concurrently, but only at
        epochs above every active snapshot.
        """
        chain = self._versions.get(oid)
        if not chain:
            return None, None
        index = bisect_right(chain, snapshot) - 1
        if index < 0:
            return None, None
        epoch = chain[index]
        return self._store.get(_ver_key(oid, epoch)), epoch

    def _roots_at(self, snapshot: int) -> Dict[str, object]:
        """The root-table nodes of the newest commit at/below ``snapshot``."""
        index = bisect_right(self._epochs, snapshot) - 1
        if index < 0:
            return {}
        record = self._store.get(_COMMIT_PREFIX + str(self._epochs[index]))
        return dict(record.get("roots", {})) if record else {}

    def _live_at(self, snapshot: int) -> Set[int]:
        """Oids whose newest version at/below ``snapshot`` is not a tombstone."""
        live: Set[int] = set()
        with self._lock:  # a concurrent commit may be adding chains
            chains = list(self._versions.items())
        for oid, chain in chains:
            index = bisect_right(chain, snapshot) - 1
            if index < 0:
                continue
            entry = self._store.get(_ver_key(oid, chain[index]))
            if entry is not None and not entry.get("dead"):
                live.add(oid)
        return live

    # -- transactions -------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The newest committed epoch (0 before any commit)."""
        return self._epoch

    def begin(self) -> "HeapTransaction":
        """Start a transaction pinned to the current committed epoch."""
        with self._lock:
            tid = self._next_tid
            self._next_tid += 1
            txn = HeapTransaction(self, tid, self._epoch)
            self._active[tid] = txn
        _metrics.REGISTRY.counter("txn.begin").inc()
        _journal("DEBUG", "begin", tid=tid, snapshot=txn.snapshot, layer="heap")
        return txn

    def active_transactions(self) -> int:
        """How many transactions are currently open."""
        return len(self._active)

    def _oldest_snapshot(self) -> int:
        snapshots = [txn.snapshot for txn in self._active.values()]
        return min(snapshots) if snapshots else self._epoch

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
            horizon = self._oldest_snapshot()
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
                        self._commit_writes.pop(epoch, None)
                        self._root_writes.pop(epoch, None)
                        self._commit_kept.pop(epoch, None)
                        commits_pruned += 1
                    self._epochs = self._epochs[anchor:]
        if versions_pruned or commits_pruned:
            _journal(
                "INFO", "vacuum",
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
        return len(self._live_at(self._epoch))

    def close(self) -> None:
        """Close the backing store (open transactions become unusable)."""
        self._store.close()

    def __enter__(self) -> "MVCCHeap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class HeapTransaction:
    """One snapshot-isolated view of an :class:`MVCCHeap`.

    Mirrors the :class:`~repro.persistence.intrinsic.PersistentHeap`
    surface — :meth:`namespace`, :meth:`root`, :meth:`get_root`,
    :meth:`commit`, :meth:`abort` — but everything it materializes is
    private to the transaction: two transactions reading the same oid
    each hold their own PObject, so a writer's in-memory mutations are
    invisible to everyone until commit publishes them.

    :meth:`commit` publishes and the transaction *continues* against the
    new epoch (PS-algol style: the program keeps its object graph);
    :meth:`abort` ends the transaction and abandons the graph.
    """

    def __init__(self, heap: MVCCHeap, tid: int, snapshot: int):
        self._heap = heap
        self.tid = tid
        self.snapshot = snapshot
        self._active_flag = True
        self._oid_by_id: Dict[int, int] = {}
        self._obj_by_oid: Dict[int, PObject] = {}
        # oid -> canonical JSON of the version this snapshot read, so an
        # unchanged object skips rewrite (and never counts as a write in
        # conflict detection).
        self._base_canonical: Dict[int, str] = {}
        self._root_canonical: Dict[str, str] = {}
        self._namespaces: Dict[str, Dict[str, object]] = {}
        self._load_roots()

    # -- loading the snapshot ----------------------------------------------

    def _load_roots(self) -> None:
        for key, node in self._heap._roots_at(self.snapshot).items():
            ns_name, root_name = key.split(":", 1)
            roots = self._namespaces.setdefault(ns_name, {})
            roots[root_name] = _LazyRoot(node)
            self._root_canonical[key] = json.dumps(node, sort_keys=True)

    def _resolve_root(self, ns_name: str, root_name: str, lazy: _LazyRoot):
        # A decoder per resolution, never kept: one held on the
        # transaction would point back at it and make a cycle.
        value = _TxnDecoder(self).decode(lazy.node)
        roots = self._namespaces[ns_name]
        # Replace only if still the same lazy binding (the program may
        # have rebound the root between lookup and resolution).
        if roots.get(root_name) is lazy:
            roots[root_name] = value
        return value

    def _materialize(self, oid: int, decoder: _TxnDecoder) -> PObject:
        obj = self._obj_by_oid.get(oid)
        if obj is not None:
            return obj
        entry, _ = self._heap._version_at(oid, self.snapshot)
        if entry is None or entry.get("dead"):
            raise StoreCorruptError(
                "dangling object reference %d at epoch %d"
                % (oid, self.snapshot)
            )
        _metrics.REGISTRY.counter("heap.materializations").inc()
        obj = PObject(entry.get("kind", "Object"))
        # Register before decoding fields so cycles resolve.
        self._obj_by_oid[oid] = obj
        self._oid_by_id[id(obj)] = oid
        self._base_canonical[oid] = json.dumps(entry, sort_keys=True)
        for name, node in entry.get("fields", {}).items():
            obj[name] = decoder.decode(node)
        obj.mark_transient(*entry.get("transient", []))
        return obj

    def _ensure_oid(self, obj: PObject) -> int:
        oid = self._oid_by_id.get(id(obj))
        if oid is None:
            oid = self._heap._allocate_oid()
            self._oid_by_id[id(obj)] = oid
            self._obj_by_oid[oid] = obj
        return oid

    # -- namespace surface (mirrors PersistentHeap) -------------------------

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
        if ":" in name:
            raise PersistenceError(
                "namespace names may not contain ':': %r" % (name,)
            )
        roots = self._namespaces.setdefault(name, {})
        return _TxnNamespace(self, name, roots)

    def namespaces(self) -> List[str]:
        """The namespace names, sorted."""
        return sorted(self._namespaces)

    def root(self, name: str, value: object) -> object:
        """Bind a root in the default namespace."""
        return self.namespace().bind(name, value)

    def get_root(self, name: str) -> object:
        """Read a root from the default namespace."""
        return self.namespace()[name]

    # -- commit / abort -----------------------------------------------------

    def commit(self) -> CommitStats:
        """Publish this transaction's state as a new epoch.

        Encodes every root and the reachable closure privately, then —
        under the heap lock — runs first-committer-wins conflict
        detection: the transaction aborts with a retryable
        :class:`~repro.errors.TransactionConflictError` if any epoch
        committed after this snapshot (a) wrote an object in this
        transaction's sweep (everything it read, wrote, or collected),
        (b) rebound or deleted a root name this transaction rebound or
        deleted, or (c) kept alive an object this transaction is about
        to garbage-collect.  Otherwise the changed root bindings are
        merged onto the newest committed root table (concurrent commits
        on disjoint roots all land) and the new versions, tombstones,
        and commit record go down in one atomic store batch (a crash
        mid-commit replays as if the commit never happened); the
        transaction continues, re-pinned to the epoch it just created.
        A commit that changed nothing publishes nothing and keeps its
        snapshot.
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
        encoder = _TxnEncoder(self)
        root_nodes: Dict[str, object] = {}
        lazy_seeds: Set[int] = set()
        for ns_name, roots in self._namespaces.items():
            for root_name, value in roots.items():
                if isinstance(value, _LazyRoot):
                    # Never read: re-commit the stored node verbatim and
                    # keep its subgraph out of the sweep.
                    root_nodes["%s:%s" % (ns_name, root_name)] = value.node
                    _node_refs(value.node, lazy_seeds)
                    continue
                try:
                    node = encoder.encode(value)
                except RecursionError:
                    raise PersistenceError(
                        "value graph too deep to persist"
                    ) from None
                root_nodes["%s:%s" % (ns_name, root_name)] = node

        # Drain the worklist: encoding an object's fields may touch more.
        entries: Dict[int, dict] = {}
        while True:
            pending = [oid for oid in encoder.touched if oid not in entries]
            if not pending:
                break
            for oid in pending:
                obj = encoder.touched[oid]
                entries[oid] = {
                    "kind": obj.kind,
                    "fields": {
                        name: encoder.encode(value)
                        for name, value in sorted(
                            obj.persistent_fields().items()
                        )
                    },
                }

        changed: Dict[int, str] = {}
        for oid, entry in entries.items():
            canonical = json.dumps(entry, sort_keys=True)
            if self._base_canonical.get(oid) != canonical:
                changed[oid] = canonical

        # Objects kept alive only through unread lazy roots stay as their
        # stored versions: walk ref edges over the store at our snapshot,
        # without materializing anything.
        retained: Set[int] = set()
        queue = list(lazy_seeds)
        while queue:
            oid = queue.pop()
            if oid in retained or oid in entries:
                continue
            retained.add(oid)
            entry, _ = heap._version_at(oid, self.snapshot)
            if entry is None or entry.get("dead"):
                continue
            refs: Set[int] = set()
            for node in entry.get("fields", {}).values():
                _node_refs(node, refs)
            queue.extend(refs)

        collected = heap._live_at(self.snapshot) - set(entries) - retained

        # Root changes are per-binding, not whole-table: commit merges
        # them onto the *latest* committed root table, so concurrent
        # transactions that add or rebind disjoint roots both land.  A
        # binding whose re-encoded node matches what this transaction
        # started from (untouched lazy roots included) is not a write.
        current_root_canonical = {
            key: json.dumps(node, sort_keys=True)
            for key, node in root_nodes.items()
        }
        root_writes = {
            key
            for key, canonical in current_root_canonical.items()
            if self._root_canonical.get(key) != canonical
        }
        root_deletes = set(self._root_canonical) - set(root_nodes)
        root_changes = root_writes | root_deletes

        if not changed and not collected and not root_changes:
            # Read-only (or no-op) commit: nothing to publish, nothing
            # to conflict with; the snapshot stays pinned.
            span.annotate(epoch=self.snapshot, written=0, read_only=True)
            _metrics.REGISTRY.counter("txn.commit").inc()
            _journal(
                "DEBUG", "commit", tid=self.tid, epoch=self.snapshot,
                written=0, read_only=True, layer="heap",
            )
            return CommitStats(
                roots_written=len(root_nodes),
                objects_written=0,
                objects_unchanged=len(entries),
                objects_collected=0,
            )

        # The sweep: everything this transaction read, wrote, or is
        # about to collect.  Any overlap with a commit that landed after
        # our snapshot means our work was based on stale state.
        writes = set(changed) | collected
        sweep = set(self._base_canonical) | set(entries) | collected
        # What this commit keeps alive without rewriting: its published
        # roots still reference these oids, so a concurrent collector
        # must conflict rather than tombstone them.
        kept = (set(entries) - set(changed)) | retained

        with heap._lock:
            since = bisect_right(heap._epochs, self.snapshot)
            for epoch in heap._epochs[since:]:
                overlap = heap._commit_writes.get(epoch, frozenset()) & sweep
                # Two transactions rebinding (or deleting) the same root
                # name conflict even when their object sweeps are
                # disjoint (fresh roots allocate fresh oids).
                root_overlap = (
                    heap._root_writes.get(epoch, frozenset()) & root_changes
                )
                # Our GC decision was made at our snapshot; if a later
                # commit still references an oid we are about to
                # tombstone, collecting it would dangle that commit's
                # published roots.
                kept_overlap = collected & heap._commit_kept.get(
                    epoch, frozenset()
                )
                if overlap or root_overlap or kept_overlap:
                    self._end()
                    _metrics.REGISTRY.counter("txn.conflict").inc()
                    _journal(
                        "WARN", "conflict", tid=self.tid,
                        snapshot=self.snapshot, winner_epoch=epoch,
                        overlap=len(overlap) + len(kept_overlap),
                        roots=sorted(root_overlap), layer="heap",
                    )
                    raise TransactionConflictError(
                        "commit conflict: epoch %d already wrote %d"
                        " object(s) and %d root(s) in this transaction's"
                        " sweep (snapshot %d)"
                        % (
                            epoch, len(overlap | kept_overlap),
                            len(root_overlap), self.snapshot,
                        ),
                        keys=sorted(overlap | kept_overlap)
                        + sorted(root_overlap),
                        winner_epoch=epoch,
                    )

            # Merge, don't replace: start from the newest committed root
            # table (which may carry roots committed after our snapshot)
            # and overlay only the bindings this transaction changed.
            merged_roots = heap._roots_at(heap._epoch)
            for key in root_deletes:
                merged_roots.pop(key, None)
            for key in root_writes:
                merged_roots[key] = root_nodes[key]

            epoch = heap._epoch + 1
            with heap._store.batch():
                for oid, canonical in changed.items():
                    heap._store.put(_ver_key(oid, epoch), entries[oid])
                for oid in collected:
                    heap._store.put(_ver_key(oid, epoch), {"dead": 1})
                heap._store.put(
                    _COMMIT_PREFIX + str(epoch),
                    {
                        "roots": merged_roots,
                        "written": sorted(writes),
                        "root_writes": sorted(root_changes),
                        "kept": sorted(kept),
                        "sweep": len(sweep),
                    },
                )
                heap._store.put(_META_EPOCH, epoch)
                heap._store.put(_META_NEXT_OID, heap._next_oid)
            for oid in writes:
                heap._versions.setdefault(oid, []).append(epoch)
            heap._commit_writes[epoch] = frozenset(writes)
            heap._root_writes[epoch] = frozenset(root_changes)
            heap._commit_kept[epoch] = frozenset(kept)
            heap._epochs.append(epoch)
            heap._epoch = epoch
            # Re-pin: the transaction continues against what it just
            # committed.
            self.snapshot = epoch

        for oid, canonical in changed.items():
            self._base_canonical[oid] = canonical
        for oid in collected:
            obj = self._obj_by_oid.pop(oid, None)
            if obj is not None:
                self._oid_by_id.pop(id(obj), None)
            self._base_canonical.pop(oid, None)
        self._root_canonical = current_root_canonical
        # Fold the merged table into the continuing transaction: roots
        # other commits added or rebound appear (lazily) at the new
        # snapshot, roots they deleted disappear.  Roots this
        # transaction has materialized keep their in-memory objects.
        for key, node in merged_roots.items():
            ns_name, root_name = key.split(":", 1)
            roots = self._namespaces.setdefault(ns_name, {})
            if root_name in roots and not isinstance(
                roots[root_name], _LazyRoot
            ):
                continue
            canonical = json.dumps(node, sort_keys=True)
            if self._root_canonical.get(key) != canonical:
                roots[root_name] = _LazyRoot(node)
                self._root_canonical[key] = canonical
        for ns_name, roots in self._namespaces.items():
            for root_name in list(roots):
                key = "%s:%s" % (ns_name, root_name)
                if key not in merged_roots and isinstance(
                    roots[root_name], _LazyRoot
                ):
                    del roots[root_name]
                    self._root_canonical.pop(key, None)

        stats = CommitStats(
            roots_written=len(merged_roots),
            objects_written=len(changed),
            objects_unchanged=len(entries) - len(changed),
            objects_collected=len(collected),
        )
        span.annotate(
            epoch=epoch, written=stats.objects_written,
            collected=stats.objects_collected,
        )
        registry = _metrics.REGISTRY
        registry.counter("txn.commit").inc()
        registry.counter("heap.objects_written").inc(stats.objects_written)
        registry.counter("heap.objects_collected").inc(stats.objects_collected)
        _journal(
            "INFO", "commit", tid=self.tid, epoch=epoch,
            written=stats.objects_written, collected=stats.objects_collected,
            sweep=len(sweep), layer="heap",
        )
        return stats

    def abort(self) -> None:
        """End the transaction, abandoning its in-memory object graph."""
        self._check_active()
        self._end()
        _metrics.REGISTRY.counter("txn.abort").inc()
        _journal("DEBUG", "abort", tid=self.tid, layer="heap")

    def _end(self) -> None:
        self._active_flag = False
        with self._heap._lock:
            self._heap._active.pop(self.tid, None)

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

    One manager fronts one backing store (a :class:`LogStore` or a plain
    dict for in-memory sessions); the multi-session broker owns a single
    manager and hands it to every session's interpreter.  Version chains
    live in memory — the durable format is unchanged: a commit writes
    the winning values through to the plain ``extern:<handle>`` keys in
    one atomic batch, so stores written under MVCC replay exactly like
    stores written without it (a crash inside the commit window replays
    to the state before the commit).

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
        store: Optional[LogStore] = None,
        memory: Optional[dict] = None,
    ):
        self._store = store
        if store is None:
            self._memory = memory if memory is not None else {}
        else:
            self._memory = memory
        self._lock = threading.RLock()
        # handle -> [(epoch, value-or-None)] sorted by epoch; epoch 0 is
        # the backing store's value when the chain was seeded.
        self._chains: Dict[str, List[Tuple[int, Optional[object]]]] = {}
        # (epoch, handles it wrote) for every epoch above the last prune
        # horizon, oldest first: the history conflict validation scans,
        # and the chains the next prune has to revisit.
        self._writes: List[Tuple[int, FrozenSet[str]]] = []
        # handles whose chains were seeded since the last prune
        self._seeded: Set[str] = set()
        self._epoch = 0
        self._next_tid = 1
        self._active: Dict[int, "SessionTransaction"] = {}

    # -- backing store ------------------------------------------------------

    def _backing_get(self, handle: str) -> Optional[object]:
        if self._store is not None:
            return self._store.get(_EXTERN_PREFIX + handle)
        return self._memory.get(handle)

    def _backing_write(self, writes: Dict[str, object]) -> None:
        if self._store is not None:
            with self._store.batch():
                for handle, document in writes.items():
                    self._store.put(_EXTERN_PREFIX + handle, document)
        else:
            self._memory.update(writes)

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

    def _prune(self) -> None:
        """Trim the chains the horizon has moved past; drop dead ones.

        Every chain left by the last prune holds one version at or below
        that horizon and at least one above it, so only two kinds can
        need work now: handles written by the epochs the horizon has
        since passed, and chains seeded since the last prune.  A chain
        whose newest version is at or below the horizon equals the
        backing store for every snapshot that can still read it, so it
        goes; a later snapshot read reseeds it from the backing store.
        """
        horizon = self._oldest_snapshot()
        passed = bisect_left(self._writes, (horizon + 1,))
        visit = self._seeded
        self._seeded = set()
        for __, handles in self._writes[:passed]:
            visit.update(handles)
        del self._writes[:passed]
        for handle in visit:
            chain = self._chains.get(handle)
            if chain is None:
                continue
            keep = bisect_left(chain, (horizon + 1,)) - 1
            if keep == len(chain) - 1:
                del self._chains[handle]
            elif keep > 0:
                del chain[:keep]

    def _oldest_snapshot(self) -> int:
        snapshots = [txn.snapshot for txn in self._active.values()]
        return min(snapshots) if snapshots else self._epoch

    # -- autocommit surface -------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The newest committed epoch (0 before any commit)."""
        return self._epoch

    def active_transactions(self) -> int:
        """How many session transactions are currently open."""
        return len(self._active)

    def version_chains(self) -> int:
        """How many handles currently keep an in-memory version chain."""
        return len(self._chains)

    def get(self, handle: str) -> Optional[object]:
        """Read the committed value of ``handle`` (``None`` when absent).

        Reads the backing store directly: every commit writes through,
        so the backing is always the newest committed state — and
        writers that bypass this manager (another process, a legacy
        interpreter sharing the same dict) stay visible, exactly as
        before MVCC.  Version chains only serve snapshot reads inside
        transactions.
        """
        return self._backing_get(handle)

    def put(self, handle: str, document: object) -> int:
        """Autocommit one write; returns the epoch it created."""
        with self._lock:
            # Seed the chain (capturing the pre-write backing value as
            # its epoch-0 base) and make the write durable *before*
            # advertising the new epoch: a failed store write leaves no
            # trace in memory.
            chain = self._chain(handle)
            self._backing_write({handle: document})
            self._epoch += 1
            epoch = self._epoch
            chain.append((epoch, document))
            self._writes.append((epoch, frozenset((handle,))))
            self._prune()
        return epoch

    # -- transactions -------------------------------------------------------

    def begin(self, owner: Optional[str] = None) -> "SessionTransaction":
        """Start a transaction pinned to the current committed epoch."""
        with self._lock:
            tid = self._next_tid
            self._next_tid += 1
            txn = SessionTransaction(self, tid, self._epoch, owner)
            self._active[tid] = txn
        _metrics.REGISTRY.counter("txn.begin").inc()
        _journal(
            "DEBUG", "begin", tid=tid, snapshot=txn.snapshot,
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
        with self._manager._lock:
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
            _metrics.REGISTRY.counter("txn.commit").inc()
            _journal(
                "DEBUG", "commit", tid=self.tid, epoch=self.snapshot,
                written=0, read_only=True, owner=self.owner, layer="extern",
            )
            return self.snapshot, 0
        sweep = self.reads | set(self.writes)
        with manager._lock:
            # Every epoch above this snapshot is still in the history:
            # the prune horizon never passes an open snapshot.
            history = manager._writes
            since = bisect_left(history, (self.snapshot + 1,))
            for epoch, handles in history[since:]:
                overlap = handles & sweep
                if overlap:
                    self._end()
                    _metrics.REGISTRY.counter("txn.conflict").inc()
                    _journal(
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
            # sitting in ``_active`` forever pinning the prune horizon.
            chains = {
                handle: manager._chain(handle) for handle in self.writes
            }
            try:
                manager._backing_write(self.writes)
            except BaseException:
                self._end()
                _metrics.REGISTRY.counter("txn.abort").inc()
                _journal(
                    "WARN", "abort", tid=self.tid, owner=self.owner,
                    layer="extern", reason="backing write failed",
                )
                raise
            manager._epoch += 1
            epoch = manager._epoch
            for handle, document in self.writes.items():
                chains[handle].append((epoch, document))
            manager._writes.append((epoch, frozenset(self.writes)))
            written = len(self.writes)
            self._end()
        _metrics.REGISTRY.counter("txn.commit").inc()
        _metrics.REGISTRY.histogram("txn.commit.seconds").observe(
            time.perf_counter() - started
        )
        _journal(
            "INFO", "commit", tid=self.tid, epoch=epoch, written=written,
            owner=self.owner, layer="extern",
        )
        return epoch, written

    def abort(self) -> None:
        """Discard buffered writes and end the transaction."""
        self._check_active()
        self._end()
        _metrics.REGISTRY.counter("txn.abort").inc()
        _journal("DEBUG", "abort", tid=self.tid, owner=self.owner, layer="extern")

    def _end(self) -> None:
        # Every way out (commit, read-only commit, conflict, abort, a
        # failed store write, a dropped connection) may advance the
        # horizon, so each one prunes.
        self._active_flag = False
        manager = self._manager
        with manager._lock:
            manager._active.pop(self.tid, None)
            manager._prune()

    def __enter__(self) -> "SessionTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._active_flag:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
