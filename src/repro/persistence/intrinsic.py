"""Intrinsic persistence: reachability from named roots, with commit.

The paper: "Here the idea is that every value in a program is persistent,
however there is no need physically to retain storage for values for
which all reference is lost.  In this model of persistence there is no
need to replicate data or control its movement ...  The entire purpose of
handles for this form of persistence is to maintain reference to values.
Creating this global name is all that is required to ensure persistence;
there is no need for any extern or intern operations."

And the practical caveats, all implemented here:

* "In practice one needs to operate with multiple name spaces and
  control the sharing of structures among name spaces" —
  :meth:`PersistentHeap.namespace` gives independent root tables over
  one shared object space, so two namespaces rooting the same object
  genuinely share it;
* "PS-algol provides an explicit *commit* instruction.  Before this
  instruction is called, the persistent value and the value being used
  by the program can diverge" — :meth:`PersistentHeap.commit` writes the
  divergence; :meth:`PersistentHeap.abort` discards it and
  rematerializes the last committed state;
* unreachable objects are garbage-collected from the store at commit;
* fields marked transient on a :class:`~repro.persistence.heap.PObject`
  never persist, even though the object does — the paper's closing
  memoization idiom.

A commit costs what changed, not what is reachable.  The heap remembers,
per stored object, the write stamp (:attr:`PObject.stamp
<repro.persistence.heap.PObject.stamp>`) its stored entry matches and the
elements of every list, dict and set in its persistent fields; per root,
the bound value and its containers.  A commit re-encodes only objects
whose stamp moved, whose containers changed, or that became reachable,
and only roots whose binding or containers changed; whatever it
re-encodes is still compared with the stored entry as canonical JSON, so
only real changes are written.  The reachability sweep that collects
garbage runs only when a re-encoded object or root dropped a reference.

Unlike replicating persistence, sharing survives: two roots reaching the
same object get the *same* object back after reopen, and an update
through one is visible through the other.

This heap is single-program: one in-memory graph, one commit stream.
For several programs sharing one store concurrently, use the MVCC layer
(:mod:`repro.persistence.mvcc`), which extends this module's commit into
per-epoch version chains with snapshot-isolated transactions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import chain
from operator import is_
from typing import Dict, Iterator, List, Set, Tuple, Union

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.errors import (
    PersistenceError,
    StoreCorruptError,
    UnknownHandleError,
)
from repro.persistence.heap import PObject
from repro.persistence.serialize import _Decoder, _Encoder, _node_refs
from repro.persistence.store import LogStore
from repro.types.dynamic import Dynamic

_ROOT_PREFIX = "root:"
_OBJ_PREFIX = "obj:"
_META_NEXT_OID = "meta:next_oid"

# (container, its elements when last stored) for every list, dict and
# set inside a value; dicts contribute keys and values, in order.
_Snapshot = List[Tuple[object, tuple]]

# Values that hold no container: PObjects are covered by their stamps.
_LEAVES = frozenset((int, float, str, bool, type(None), PObject))


@dataclass
class CommitStats:
    """What one commit did — the unit benchmark E3 measures.

    ``roots_written`` counts the roots the committed state binds (the
    store holds each one after the commit, whether or not its record had
    to change); ``objects_written`` counts object records the commit
    wrote, ``objects_unchanged`` the reachable objects whose stored
    record already matched, ``objects_collected`` the stored objects
    that lost all reference and were deleted.
    """

    roots_written: int
    objects_written: int
    objects_unchanged: int
    objects_collected: int

    @property
    def objects_reachable(self) -> int:
        """Total reachable objects at commit time."""
        return self.objects_written + self.objects_unchanged


def _canonical(node: object) -> str:
    return json.dumps(node, sort_keys=True)


def _drops_reference(old: object, new: object) -> bool:
    """Does stored node ``old`` reference an oid that ``new`` does not?"""
    before: Set[int] = set()
    _node_refs(old, before)
    if not before:
        return False
    after: Set[int] = set()
    _node_refs(new, after)
    return not before <= after


def _snapshot(value: object, into: _Snapshot) -> None:
    """Record every mutable container inside ``value`` with its elements.

    Tuples, frozensets and Dynamics are searched but, being immutable,
    not recorded; PObjects, domain values and scalars end the search.
    """
    if type(value) in _LEAVES:
        return
    if isinstance(value, (list, set)):
        into.append((value, tuple(value)))
        items = value
    elif isinstance(value, dict):
        into.append((value, tuple(chain.from_iterable(value.items()))))
        items = value.values()
    elif isinstance(value, (tuple, frozenset)):
        items = value
    elif isinstance(value, Dynamic):
        items = (value.value,)
    else:
        return
    for item in items:
        _snapshot(item, into)


def _unchanged(snapshot: _Snapshot) -> bool:
    """Does every container still hold the same objects, in order?"""
    for container, elements in snapshot:
        if isinstance(container, dict):
            if 2 * len(container) != len(elements) or not all(
                map(is_, chain.from_iterable(container.items()), elements)
            ):
                return False
        elif len(container) != len(elements) or not all(
            map(is_, container, elements)
        ):
            return False
    return True


class _HeapEncoder(_Encoder):
    """Encoder interning PObjects at heap-stable oids.

    Queues every object it meets that the store does not hold yet: the
    commit must encode whatever became reachable.
    """

    def __init__(self, heap: "PersistentHeap"):
        super().__init__(include_transient=False)
        self._heap = heap
        self.queue: List[Tuple[int, PObject]] = []
        self._queued: Set[int] = set()

    def _intern(self, obj: PObject) -> int:
        oid = self._heap._ensure_oid(obj)
        if oid not in self._heap._stamps:
            self.enqueue(oid, obj)
        return oid

    def enqueue(self, oid: int, obj: PObject) -> None:
        """Add ``obj`` to the objects this commit encodes (once)."""
        if oid not in self._queued:
            self._queued.add(oid)
            self.queue.append((oid, obj))


class _HeapDecoder(_Decoder):
    """Decoder resolving object references through the heap.

    Built per load and then dropped: a decoder kept on the heap would
    point back at it, and the heap could then only be freed by a
    cyclic-GC pass.
    """

    def __init__(self, heap: "PersistentHeap"):
        super().__init__({})
        self._heap = heap

    def _object(self, oid: int) -> PObject:
        return self._heap._materialize(oid, self)


class Namespace:
    """A root table: names that keep values alive across programs.

    Obtained from :meth:`PersistentHeap.namespace`.  Binding a name is
    "all that is required to ensure persistence" — the next commit
    writes everything the value reaches.
    """

    __slots__ = ("_heap", "_name", "_roots")

    def __init__(self, heap: "PersistentHeap", name: str, roots: Dict[str, object]):
        self._heap = heap
        self._name = name
        self._roots = roots

    @property
    def name(self) -> str:
        """The namespace's name."""
        return self._name

    def bind(self, name: str, value: object) -> object:
        """Bind ``name`` to ``value`` (the persistence-inducing act)."""
        if ":" in name:
            raise PersistenceError("root names may not contain ':': %r" % (name,))
        self._roots[name] = value
        return value

    def __setitem__(self, name: str, value: object) -> None:
        self.bind(name, value)

    def __getitem__(self, name: str) -> object:
        try:
            return self._roots[name]
        except KeyError:
            raise UnknownHandleError(
                "no root %r in namespace %r" % (name, self._name)
            ) from None

    def __delitem__(self, name: str) -> None:
        if name not in self._roots:
            raise UnknownHandleError(
                "no root %r in namespace %r" % (name, self._name)
            )
        del self._roots[name]

    def __contains__(self, name: object) -> bool:
        return name in self._roots

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._roots))

    def __len__(self) -> int:
        return len(self._roots)

    def names(self) -> List[str]:
        """The bound root names, sorted."""
        return sorted(self._roots)


class PersistentHeap:
    """A persistent object heap over a log store.

    Open the same path again and the committed namespaces, roots, and
    object graph come back — with sharing and cycles intact.
    """

    def __init__(self, store: Union[LogStore, str]):
        self._store = store if isinstance(store, LogStore) else LogStore(store)
        self._oid_by_id: Dict[int, int] = {}
        self._obj_by_oid: Dict[int, PObject] = {}
        self._next_oid = 0
        # What the store holds, as of the last commit (or the load): per
        # stored oid the stamp its entry matches, the containers of the
        # objects holding any, and per root key the bound value and its
        # containers.  Orphans are stored objects no root reached at load.
        self._stamps: Dict[int, int] = {}
        self._snapshots: Dict[int, _Snapshot] = {}
        self._root_state: Dict[str, Tuple[object, _Snapshot]] = {}
        self._orphans: List[int] = []
        self._namespaces: Dict[str, Dict[str, object]] = {}
        self._load()

    # -- namespaces -------------------------------------------------------------

    def namespace(self, name: str = "user") -> Namespace:
        """The namespace called ``name`` (created on first use)."""
        if ":" in name:
            raise PersistenceError(
                "namespace names may not contain ':': %r" % (name,)
            )
        roots = self._namespaces.setdefault(name, {})
        return Namespace(self, name, roots)

    def namespaces(self) -> List[str]:
        """The namespace names, sorted."""
        return sorted(self._namespaces)

    # -- convenience over the default namespace -----------------------------------

    def root(self, name: str, value: object) -> object:
        """Bind a root in the default namespace."""
        return self.namespace().bind(name, value)

    def get_root(self, name: str) -> object:
        """Read a root from the default namespace."""
        return self.namespace()[name]

    # -- oid management ------------------------------------------------------------

    def _ensure_oid(self, obj: PObject) -> int:
        oid = self._oid_by_id.get(id(obj))
        if oid is None:
            oid = self._next_oid
            self._next_oid += 1
            self._oid_by_id[id(obj)] = oid
            self._obj_by_oid[oid] = obj
        return oid

    def _materialize(self, oid: int, decoder: _HeapDecoder) -> PObject:
        obj = self._obj_by_oid.get(oid)
        if obj is not None:
            return obj
        entry = self._store.get(_OBJ_PREFIX + str(oid))
        if entry is None:
            raise StoreCorruptError("dangling object reference %d" % oid)
        _metrics.REGISTRY.counter("heap.materializations").inc()
        obj = PObject(entry.get("kind", "Object"))
        # Register before decoding fields so cycles resolve.
        self._obj_by_oid[oid] = obj
        self._oid_by_id[id(obj)] = oid
        for name, node in entry.get("fields", {}).items():
            obj[name] = decoder.decode(node)
        obj.mark_transient(*entry.get("transient", []))
        snapshot: _Snapshot = []
        for value in obj.persistent_fields().values():
            _snapshot(value, snapshot)
        self._track(oid, obj.stamp, snapshot)
        return obj

    def _track(self, oid: int, stamp: int, snapshot: _Snapshot) -> None:
        """Record that the stored entry of ``oid`` matches this state."""
        self._stamps[oid] = stamp
        if snapshot:
            self._snapshots[oid] = snapshot
        else:
            self._snapshots.pop(oid, None)

    # -- load / commit / abort ---------------------------------------------------------

    def _load(self) -> None:
        meta = self._store.get(_META_NEXT_OID)
        stored: List[int] = []
        decoder = _HeapDecoder(self)
        for key in list(self._store.keys()):
            if key.startswith(_OBJ_PREFIX):
                stored.append(int(key[len(_OBJ_PREFIX):]))
            elif key.startswith(_ROOT_PREFIX):
                __, ns_name, root_name = key.split(":", 2)
                value = decoder.decode(self._store.get(key))
                self._namespaces.setdefault(ns_name, {})[root_name] = value
                snapshot: _Snapshot = []
                _snapshot(value, snapshot)
                self._root_state[key] = (value, snapshot)
        # Decoding the roots materialized everything they reach; a stored
        # object left over is garbage the next commit collects.
        self._orphans = [oid for oid in stored if oid not in self._stamps]
        self._next_oid = max(
            int(meta) if meta is not None else 0,
            max(stored, default=-1) + 1,
        )

    def commit(self) -> CommitStats:
        """Make the current state durable.

        Writes what diverged since the last commit: objects whose stamp
        moved or whose lists, dicts or sets changed in place, objects
        that became reachable, and roots whose binding or containers
        changed — each only if its canonical encoding differs from the
        stored one.  When a rewritten object or root dropped a reference,
        a reachability sweep garbage-collects the stored objects nothing
        reaches any more.  The whole commit is one atomic store batch,
        synced once; a commit with nothing to write appends nothing.
        Returns :class:`CommitStats`.  Commit latency and
        write/skip/collect counts land in the global metrics registry
        (``heap.commit.seconds``, ``heap.*``); with tracing on the whole
        commit is one ``heap.commit`` span with the store's
        ``store.commit`` span nested inside.
        """
        started = time.perf_counter()
        with _trace.CURRENT.span("heap.commit") as commit_span:
            stats = self._commit_inner()
            commit_span.annotate(
                written=stats.objects_written,
                unchanged=stats.objects_unchanged,
                collected=stats.objects_collected,
            )
        registry = _metrics.REGISTRY
        registry.counter("heap.commits").inc()
        registry.counter("heap.objects_written").inc(stats.objects_written)
        registry.counter("heap.objects_unchanged").inc(stats.objects_unchanged)
        registry.counter("heap.objects_collected").inc(stats.objects_collected)
        registry.histogram("heap.commit.seconds").observe(
            time.perf_counter() - started
        )
        # Audit trail: each commit records the size of the reachable
        # graph and what the commit decided, so a journal export shows the
        # heap's promotion/collection history over the whole run.
        if _events.CURRENT.enabled:
            _events.CURRENT.publish(
                "INFO", "heap", "commit",
                roots=stats.roots_written,
                reachable=stats.objects_reachable,
                written=stats.objects_written,
                unchanged=stats.objects_unchanged,
                collected=stats.objects_collected,
            )
        return stats

    def _commit_inner(self) -> CommitStats:
        store = self._store
        encoder = _HeapEncoder(self)
        bound: Set[str] = set()
        # key -> (value, containers, node) for roots to re-encode.
        roots: Dict[str, Tuple[object, _Snapshot, object]] = {}
        # oid -> (stamp, containers, entry) for objects to re-encode.
        objects: Dict[int, Tuple[int, _Snapshot, dict]] = {}
        try:
            for ns_name, table in self._namespaces.items():
                for root_name, value in table.items():
                    key = "%s%s:%s" % (_ROOT_PREFIX, ns_name, root_name)
                    bound.add(key)
                    state = self._root_state.get(key)
                    if (state is not None and state[0] is value
                            and _unchanged(state[1])):
                        continue
                    snapshot: _Snapshot = []
                    _snapshot(value, snapshot)
                    roots[key] = (value, snapshot, encoder.encode(value))

            # The slot, not the property: this runs over every stored object.
            by_oid = self._obj_by_oid
            for oid, stamp in self._stamps.items():
                if by_oid[oid]._stamp != stamp:
                    encoder.enqueue(oid, by_oid[oid])
            for oid, snapshot in self._snapshots.items():
                if not _unchanged(snapshot):
                    encoder.enqueue(oid, by_oid[oid])

            # Encoding an object may queue more: the newly reachable.
            for oid, obj in encoder.queue:
                stamp = obj.stamp
                fields = obj.persistent_fields()
                snapshot = []
                for value in fields.values():
                    _snapshot(value, snapshot)
                entry = {
                    "kind": obj.kind,
                    "fields": {
                        name: encoder.encode(value)
                        for name, value in sorted(fields.items())
                    },
                }
                objects[oid] = (stamp, snapshot, entry)
        except RecursionError:
            raise PersistenceError("value graph too deep to persist") from None

        # Compare what was re-encoded with what is stored.  A reference
        # an object or root no longer holds may have been the last one.
        sweep = False
        changed: Dict[str, object] = {}
        for oid, (__, __, entry) in objects.items():
            key = _OBJ_PREFIX + str(oid)
            old = store.get(key)
            if old is not None:
                if _canonical(old) == _canonical(entry):
                    continue
                sweep = sweep or _drops_reference(old, entry)
            changed[key] = entry
        dropped = [key for key in self._root_state if key not in bound]
        for key, (__, __, node) in roots.items():
            old = store.get(key)
            if old is not None:
                if _canonical(old) == _canonical(node):
                    continue
                sweep = sweep or _drops_reference(old, node)
            changed[key] = node
        for key in dropped:
            sweep = sweep or _drops_reference(store.get(key), None)

        collected: List[int] = list(self._orphans)
        if sweep:
            live = self._reachable(bound, roots, objects)
            collected.extend(oid for oid in self._stamps if oid not in live)
            for oid in list(objects):
                if oid not in live:
                    del objects[oid]
                    changed.pop(_OBJ_PREFIX + str(oid), None)

        # The whole commit is one atomic batch: a crash mid-commit
        # replays as if the commit never happened (PS-algol's promise).
        # A batch with nothing in it appends nothing and does not sync.
        with store.batch():
            for key, node in changed.items():
                store.put(key, node)
            for oid in collected:
                store.delete(_OBJ_PREFIX + str(oid))
            for key in dropped:
                store.delete(key)
            meta = store.get(_META_NEXT_OID)
            if (int(meta) if meta is not None else 0) != self._next_oid:
                store.put(_META_NEXT_OID, self._next_oid)

        written = sum(1 for key in changed if key.startswith(_OBJ_PREFIX))
        for oid, (stamp, snapshot, __) in objects.items():
            self._track(oid, stamp, snapshot)
        for oid in collected:
            self._stamps.pop(oid, None)
            self._snapshots.pop(oid, None)
        self._orphans = []
        for key in dropped:
            del self._root_state[key]
        for key, (value, snapshot, __) in roots.items():
            self._root_state[key] = (value, snapshot)
        self._release_unstored()
        return CommitStats(
            roots_written=len(bound),
            objects_written=written,
            objects_unchanged=len(self._stamps) - written,
            objects_collected=len(collected),
        )

    def _reachable(
        self,
        bound: Set[str],
        roots: Dict[str, Tuple[object, _Snapshot, object]],
        objects: Dict[int, Tuple[int, _Snapshot, dict]],
    ) -> Set[int]:
        """The oids the bound roots reach after this commit: through the
        re-encoded nodes where there are any, the stored ones elsewhere."""
        pending: Set[int] = set()
        for key in bound:
            _node_refs(
                roots[key][2] if key in roots else self._store.get(key), pending
            )
        live: Set[int] = set()
        while pending:
            oid = pending.pop()
            live.add(oid)
            if oid in objects:
                entry = objects[oid][2]
            else:
                entry = self._store.get(_OBJ_PREFIX + str(oid))
                if entry is None:
                    raise StoreCorruptError("dangling object reference %d" % oid)
            found: Set[int] = set()
            _node_refs(entry, found)
            pending |= found - live
        return live

    def _release_unstored(self) -> None:
        """Forget objects the store does not hold: those a commit
        collected, and any given an oid by a commit that then failed.
        Both maps together — a stale oid left under a reused ``id()``
        would be handed to a different object."""
        if len(self._obj_by_oid) == len(self._stamps):
            return
        for oid in [oid for oid in self._obj_by_oid if oid not in self._stamps]:
            obj = self._obj_by_oid.pop(oid)
            self._oid_by_id.pop(id(obj), None)

    def abort(self) -> None:
        """Discard uncommitted divergence; reload the committed state.

        In-memory objects held by the program are abandoned: re-fetch
        roots after an abort, as a PS-algol program would.
        """
        self._oid_by_id.clear()
        self._obj_by_oid.clear()
        self._stamps.clear()
        self._snapshots.clear()
        self._root_state.clear()
        # Clear the root tables in place: Namespace wrappers handed out
        # earlier keep referring to the same dicts and thus observe the
        # reloaded (committed) bindings.
        for roots in self._namespaces.values():
            roots.clear()
        self._load()

    # -- lifecycle -------------------------------------------------------------------

    @property
    def store(self) -> LogStore:
        """The backing log store."""
        return self._store

    def storage_bytes(self) -> int:
        """On-disk size of the heap's log."""
        return self._store.size_bytes()

    def stored_object_count(self) -> int:
        """How many objects the store currently holds."""
        return sum(1 for key in self._store.keys() if key.startswith(_OBJ_PREFIX))

    def close(self) -> None:
        """Close the backing store (without committing)."""
        self._store.close()

    def __enter__(self) -> "PersistentHeap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
