"""Model-based stateful testing of the persistent heap.

A hypothesis state machine drives a :class:`PersistentHeap` through
random sequences of binds, mutations, commits, aborts, and full
close/reopen cycles, checking it against a plain in-memory model.
Invariants: after a commit (or reopen) the heap agrees with the model's
last committed state; aborts roll the live state back; object sharing
is preserved across reopens; the heap's object table holds exactly the
stored objects.

The mutations cover everything a commit has to notice: fields set,
deleted, and marked or unmarked transient; ``kind`` reassigned; lists
(in a field, as a root, inside a tuple), dicts and sets changed in
place; values that compare equal but persist differently (``-0.0``
over ``0.0``, ``True`` over ``1``).  Every commit is also held to
:func:`full_sweep`, the commit at its simplest — encode every root and
every object reachable from one: the store must hold exactly its
records, and the commit's written / unchanged / collected counts must
be the ones it implies.
"""

import json
import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from repro.persistence.heap import PObject
from repro.persistence.intrinsic import PersistentHeap, _unchanged
from repro.persistence.serialize import _Encoder

NAMES = ("alpha", "beta")
FIELDS = ("f", "g")
KEYS = ("x", "y")
KINDS = ("N", "M")
LIST_OPS = st.sampled_from(("append", "pop", "replace"))
POSITIONS = st.integers(min_value=0, max_value=3)
# Equal-but-different pairs sit side by side: 0 / False, 1 / True,
# 0.0 / -0.0.
SCALARS = st.sampled_from((0, False, 1, True, 0.0, -0.0, 2.5, "s", None))


# -- the full-sweep reference ------------------------------------------------


def canonical(node):
    return json.dumps(node, sort_keys=True)


class _SweepEncoder(_Encoder):
    """Interns PObjects at the oids the heap gave them; never assigns."""

    def __init__(self, heap):
        super().__init__(include_transient=False)
        self._heap = heap
        self.order = []
        self._seen = set()

    def _intern(self, obj):
        oid = self._heap._oid_by_id.get(id(obj))
        assert oid is not None, "reachable %r has no oid" % (obj,)
        if oid not in self._seen:
            self._seen.add(oid)
            self.order.append((oid, obj))
        return oid


def full_sweep(heap):
    """The records a committed heap's store must hold: key -> canonical."""
    encoder = _SweepEncoder(heap)
    records = {}
    for ns_name in heap.namespaces():
        namespace = heap.namespace(ns_name)
        for name in namespace.names():
            node = encoder.encode(namespace[name])
            records["root:%s:%s" % (ns_name, name)] = canonical(node)
    for oid, obj in encoder.order:  # grows as encoding reaches further
        fields = sorted(obj.persistent_fields().items())
        entry = {
            "kind": obj.kind,
            "fields": {name: encoder.encode(value) for name, value in fields},
        }
        records["obj:%d" % oid] = canonical(entry)
    return records


def stored_records(heap):
    store = heap.store
    return {
        key: canonical(store.get(key))
        for key in store.keys()
        if key.startswith(("root:", "obj:"))
    }


def checked_commit(heap):
    """Commit, then hold the store and the stats to the full sweep."""
    before = stored_records(heap)
    stats = heap.commit()
    expected = full_sweep(heap)
    assert stored_records(heap) == expected
    objects = [key for key in expected if key.startswith("obj:")]
    written = sum(1 for key in objects if before.get(key) != expected[key])
    collected = sum(
        1 for key in before if key.startswith("obj:") and key not in expected
    )
    assert (
        stats.objects_written,
        stats.objects_unchanged,
        stats.objects_collected,
    ) == (written, len(objects) - written, collected)
    return stats


# -- the model ---------------------------------------------------------------------


class ModelObject:
    """The model's counterpart of a PObject."""

    def __init__(self, kind="N", fields=None):
        self.kind = kind
        self.fields = dict(fields or {})
        self.transient = set()

    def persistent_fields(self):
        return {
            name: value
            for name, value in self.fields.items()
            if name not in self.transient
        }


def shape_of(value):
    """Flatten a heap or model value into comparable plain data.

    Cycle-safe; objects are numbered in discovery order, so sharing is
    compared too; scalars keep their type, so ``-0.0`` is not ``0.0``
    and ``True`` is not ``1``.
    """
    seen = {}

    def walk(v):
        if isinstance(v, (PObject, ModelObject)):
            if id(v) in seen:
                return ("ref", seen[id(v)])
            seen[id(v)] = len(seen)
            fields = sorted(v.persistent_fields().items())
            return (
                "obj", seen[id(v)], v.kind,
                tuple((k, walk(w)) for k, w in fields),
            )
        if isinstance(v, list):
            return ("list", tuple(walk(w) for w in v))
        if isinstance(v, tuple):
            return ("tuple", tuple(walk(w) for w in v))
        if isinstance(v, dict):
            return ("dict", tuple((k, walk(w)) for k, w in v.items()))
        if isinstance(v, set):
            return ("set", tuple(sorted((walk(w) for w in v), key=repr)))
        return ("scalar", type(v).__name__, repr(v))

    return walk(value)


def committed_copy(roots):
    """The model roots as a commit leaves them on disk: persistent fields
    only, fresh containers, object sharing kept."""
    memo = {}

    def walk(v):
        if isinstance(v, ModelObject):
            if id(v) not in memo:
                clone = memo[id(v)] = ModelObject(v.kind)
                clone.fields = {
                    k: walk(w) for k, w in v.persistent_fields().items()
                }
            return memo[id(v)]
        if isinstance(v, list):
            return [walk(w) for w in v]
        if isinstance(v, tuple):
            return tuple(walk(w) for w in v)
        if isinstance(v, dict):
            return {k: walk(w) for k, w in v.items()}
        if isinstance(v, set):
            return set(v)
        return v

    return {name: walk(value) for name, value in roots.items()}


class HeapMachine(RuleBasedStateMachine):
    objects = Bundle("objects")

    @initialize(target=objects)
    def setup(self):
        self._dir = tempfile.mkdtemp()
        self._path = os.path.join(self._dir, "heap.log")
        self.heap = PersistentHeap(self._path)
        # twin lists: heap PObject <-> model object, by index.  Every
        # run starts with three committed objects, one bound to a root
        # and two in a list root, so most changes land on stored ones.
        fields = [{"f": seed, "g": -seed} for seed in range(3)]
        self.heap_objects = [PObject("N", each) for each in fields]
        self.model_objects = [ModelObject("N", each) for each in fields]
        self.heap.root("alpha", self.heap_objects[0])
        self.heap.root("beta", self.heap_objects[1:])
        self.live_roots = {
            "alpha": self.model_objects[0],
            "beta": self.model_objects[1:],
        }
        self.committed_roots = {}
        self.commit()
        return multiple(0, 1, 2)

    # -- twins -------------------------------------------------------------------

    def _element(self, other, ref, scalar):
        """A twin element: the object ``other`` if ``ref``, else ``scalar``."""
        if ref:
            return self.heap_objects[other], self.model_objects[other]
        return scalar, scalar

    def _field(self, index, field, kind):
        """The twin values of a field when they are of ``kind``."""
        model = self.model_objects[index].fields.get(field)
        if not isinstance(model, kind):
            return None, None
        return self.heap_objects[index][field], model

    def _set_field(self, index, field, heap_value, model_value):
        self.heap_objects[index][field] = heap_value
        self.model_objects[index].fields[field] = model_value

    def _change_list(self, lists, op, position, element):
        heap_list, model_list = lists
        if heap_list is None:
            return
        if op == "append":
            heap_list.append(element[0])
            model_list.append(element[1])
        elif heap_list and op == "pop":
            heap_list.pop()
            model_list.pop()
        elif heap_list:
            at = position % len(heap_list)
            heap_list[at], model_list[at] = element

    # -- objects and roots --------------------------------------------------------

    @rule(target=objects, seed=st.integers(min_value=0, max_value=99))
    def new_object(self, seed):
        self.heap_objects.append(PObject("N", {"f": seed}))
        self.model_objects.append(ModelObject("N", {"f": seed}))
        return len(self.heap_objects) - 1

    @rule(
        name=st.sampled_from(NAMES),
        what=st.sampled_from(("object", "scalar", "list")),
        index=objects,
        scalar=st.one_of(st.integers(), SCALARS),
    )
    def bind_root(self, name, what, index, scalar):
        if what == "object":
            heap_value = self.heap_objects[index]
            model_value = self.model_objects[index]
        elif what == "scalar":
            heap_value = model_value = scalar
        else:
            heap_value, model_value = [], []
        self.heap.root(name, heap_value)
        self.live_roots[name] = model_value

    @rule(name=st.sampled_from(NAMES))
    def drop_root(self, name):
        if name in self.live_roots:
            del self.heap.namespace()[name]
            del self.live_roots[name]

    @rule(
        name=st.sampled_from(NAMES),
        op=LIST_OPS,
        position=POSITIONS,
        other=objects,
        ref=st.booleans(),
        scalar=SCALARS,
    )
    def change_root_list(self, name, op, position, other, ref, scalar):
        if isinstance(self.live_roots.get(name), list):
            lists = self.heap.get_root(name), self.live_roots[name]
            self._change_list(
                lists, op, position, self._element(other, ref, scalar)
            )

    # -- fields ---------------------------------------------------------------------

    @rule(
        index=objects,
        field=st.sampled_from(FIELDS),
        other=objects,
        ref=st.booleans(),
        scalar=SCALARS,
    )
    def set_field(self, index, field, other, ref, scalar):
        self._set_field(index, field, *self._element(other, ref, scalar))

    @rule(index=objects, field=st.sampled_from(FIELDS))
    def delete_field(self, index, field):
        if field in self.heap_objects[index]:
            del self.heap_objects[index][field]
            model = self.model_objects[index]
            del model.fields[field]
            model.transient.discard(field)

    @rule(index=objects, kind=st.sampled_from(KINDS))
    def set_kind(self, index, kind):
        self.heap_objects[index].kind = kind
        self.model_objects[index].kind = kind

    @rule(
        index=objects,
        field=st.just(FIELDS[0]),
        op=st.sampled_from(("toggle", "set_then_mark", "mark_then_set")),
        value=SCALARS,
    )
    def change_transient(self, index, field, op, value):
        heap_obj, model = self.heap_objects[index], self.model_objects[index]
        if op == "toggle" and field in model.transient:
            heap_obj.clear_transient(field)
            model.transient.discard(field)
            return
        if op == "mark_then_set":
            heap_obj.mark_transient(field)
            model.transient.add(field)
        if op != "toggle":
            heap_obj[field] = model.fields[field] = value
        heap_obj.mark_transient(field)
        model.transient.add(field)

    # -- containers changed in place -------------------------------------------------

    @rule(
        index=objects,
        field=st.sampled_from(FIELDS),
        kind=st.sampled_from(("list", "dict", "set", "tuple")),
    )
    def set_container_field(self, index, field, kind):
        make = {
            "list": list,
            "dict": dict,
            "set": set,
            "tuple": lambda: ([], "t"),
        }[kind]
        self._set_field(index, field, make(), make())

    @rule(
        index=objects,
        field=st.sampled_from(FIELDS),
        op=LIST_OPS,
        position=POSITIONS,
        other=objects,
        ref=st.booleans(),
        scalar=SCALARS,
    )
    def change_list_field(self, index, field, op, position, other, ref, scalar):
        """Change the list in the field, or the one inside its tuple."""
        heap_value, model_value = self._field(index, field, tuple)
        if model_value is not None:
            lists = heap_value[0], model_value[0]
        else:
            lists = self._field(index, field, list)
        self._change_list(lists, op, position, self._element(other, ref, scalar))

    @rule(
        index=objects,
        field=st.sampled_from(FIELDS),
        op=st.sampled_from(("put", "delete")),
        key=st.sampled_from(KEYS),
        other=objects,
        ref=st.booleans(),
        scalar=SCALARS,
    )
    def change_dict_field(self, index, field, op, key, other, ref, scalar):
        heap_dict, model_dict = self._field(index, field, dict)
        if heap_dict is None:
            return
        if op == "put":
            heap_dict[key], model_dict[key] = self._element(other, ref, scalar)
        elif key in heap_dict:
            del heap_dict[key]
            del model_dict[key]

    @rule(
        index=objects,
        field=st.sampled_from(FIELDS),
        op=st.sampled_from(("add", "discard")),
        scalar=SCALARS,
    )
    def change_set_field(self, index, field, op, scalar):
        heap_set, model_set = self._field(index, field, set)
        if heap_set is not None:
            getattr(heap_set, op)(scalar)
            getattr(model_set, op)(scalar)

    # -- commit / abort / reopen ----------------------------------------------------------

    @rule()
    def commit(self):
        checked_commit(self.heap)
        self.committed_roots = committed_copy(self.live_roots)

    @rule()
    def commit_twice(self):
        # With nothing changed since, a commit appends nothing at all.
        self.commit()
        size = os.path.getsize(self._path)
        stats = checked_commit(self.heap)
        assert stats.objects_written == stats.objects_collected == 0
        assert os.path.getsize(self._path) == size

    @rule()
    def abort(self):
        # The live state snaps back to the committed one.  Objects the
        # program still holds are abandoned by the heap: bound again,
        # they persist as new objects.
        self.heap.abort()
        self.live_roots = committed_copy(self.committed_roots)

    @rule()
    def reopen(self):
        self.commit()
        self.heap.close()
        self.heap = PersistentHeap(self._path)
        self.live_roots = committed_copy(self.committed_roots)

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def committed_state_matches_after_reload(self):
        # Compare the heap's *store contents* with the committed model by
        # loading a scratch copy.
        self.heap.store.sync()
        scratch = PersistentHeap(self._path)
        try:
            ns = scratch.namespace()
            names = sorted(self.committed_roots)
            assert ns.names() == names
            assert shape_of([ns[name] for name in names]) == shape_of(
                [self.committed_roots[name] for name in names]
            )
        finally:
            scratch.close()

    @invariant()
    def what_a_commit_would_skip_is_stored(self):
        # Between commits: an object whose stamp and containers are as
        # the heap recorded them, or a root still bound to the recorded
        # value with the same containers, must encode to what is stored.
        # Catches a missed change right after the rule that made it.
        heap = self.heap
        encoder = _SweepEncoder(heap)
        for oid, stamp in heap._stamps.items():
            obj = heap._obj_by_oid[oid]
            snapshot = heap._snapshots.get(oid, [])
            if obj.stamp == stamp and _unchanged(snapshot):
                fields = sorted(obj.persistent_fields().items())
                entry = {
                    "kind": obj.kind,
                    "fields": {n: encoder.encode(v) for n, v in fields},
                }
                stored = heap.store.get("obj:%d" % oid)
                assert canonical(entry) == canonical(stored), oid
        for key, (value, snapshot) in heap._root_state.items():
            __, ns_name, name = key.split(":", 2)
            roots = heap.namespace(ns_name)
            if name in roots and roots[name] is value and _unchanged(snapshot):
                stored = heap.store.get(key)
                assert canonical(encoder.encode(value)) == canonical(stored), key

    @invariant()
    def object_table_holds_only_stored_objects(self):
        stored = self.heap.stored_object_count()
        assert len(self.heap._obj_by_oid) == len(self.heap._oid_by_id) == stored

    def teardown(self):
        self.heap.close()
        shutil.rmtree(self._dir, ignore_errors=True)


HeapMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
TestHeapStateful = HeapMachine.TestCase
