"""Mutable persistent objects and reachability.

Immutable domain values (:class:`~repro.core.orders.Value`) have no
identity — the paper's relational side.  Object-oriented databases need
the opposite: "objects are not identified by intrinsic properties", two
identical cars may coexist.  :class:`PObject` provides that: a mutable
record-like cell whose identity is the cell itself, which may reference
other PObjects (cycles included).

Intrinsic persistence is defined by *reachability*: "every value in a
program is persistent, however there is no need physically to retain
storage for values for which all reference is lost."  :func:`reachable`
computes the closure a commit makes durable — skipping fields marked
*transient*, the paper's closing observation that "adding transient
information to a persistent structure can be quite useful" (memoizing
TotalCost without persisting the memo).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set

from repro.core.orders import Value
from repro.errors import PersistenceError
from repro.types.dynamic import Dynamic


# One process-wide counter, so every heap holding an object sees its
# changes: a heap remembers the stamp its stored copy matches.
_next_stamp = itertools.count(1).__next__


class PObject:
    """A mutable record-like object with identity.

    Fields are accessed with ``obj['field']`` / ``obj['field'] = value``;
    field values may be scalars, domain values, lists/dicts/sets,
    Dynamics, or other PObjects.  Fields registered with
    :meth:`mark_transient` exist in memory but are skipped by
    serialization and commits.

    An optional ``kind`` string names what the object models ("Part",
    "Car"); it is persisted and has no semantics beyond display and
    filtering.

    **Write stamp.**  Every change to the object's *persistent view* —
    setting or deleting a non-transient field, reassigning ``kind``,
    marking a present field transient or clearing that mark — moves
    :attr:`stamp` to a fresh value from one process-wide counter; a
    write to a field already marked transient leaves it put.  An
    intrinsic heap commit re-encodes only objects whose stamp moved, so
    memoize the paper's way: mark the memo field transient *first*, then
    store into it (set-then-mark stamps the object once and it is
    re-encoded, though nothing new is written); :meth:`set_transient`
    does both in one call.  Deleting a transient field drops its mark
    along with its value, so a memo cleared and computed again is marked
    again before it is stored.  In-place changes to a list, dict or set
    held in a field do not move the stamp; the heap finds them at commit
    by comparing the containers' elements.

    **Whole-graph walks** (a heap's stamp diff, the bill of materials'
    roll-ups) read the ``_fields`` slot, the field mapping itself, once
    per object instead of paying a method call per field read, as they
    read ``_stamp``.  They treat it as read-only and write through the
    methods, which keep the stamp rule; where a walk finds a field
    absent, :func:`missing_field` gives the error ``obj[field]`` raises.
    """

    __slots__ = ("_kind", "_fields", "_transient", "_stamp")

    def __init__(
        self,
        kind: str = "Object",
        fields: Optional[Mapping[str, object]] = None,
        transient: Iterable[str] = (),
    ):
        self._kind = kind
        self._fields: Dict[str, object] = dict(fields or {})
        self._transient: Set[str] = set(transient)
        self._stamp = _next_stamp()

    @property
    def kind(self) -> str:
        """What the object models; persisted."""
        return self._kind

    @kind.setter
    def kind(self, kind: str) -> None:
        self._kind = kind
        self._stamp = _next_stamp()

    @property
    def stamp(self) -> int:
        """The write stamp: moves on every change to the persistent view."""
        return self._stamp

    # -- field access -------------------------------------------------------

    def __getitem__(self, field: str) -> object:
        try:
            return self._fields[field]
        except KeyError:
            raise missing_field(self, field) from None

    def __setitem__(self, field: str, value: object) -> None:
        self._fields[field] = value
        if field not in self._transient:
            self._stamp = _next_stamp()

    def __delitem__(self, field: str) -> None:
        try:
            del self._fields[field]
        except KeyError:
            raise missing_field(self, field) from None
        if field in self._transient:
            self._transient.discard(field)
        else:
            self._stamp = _next_stamp()

    def __contains__(self, field: object) -> bool:
        return field in self._fields

    def get(self, field: str, default: object = None) -> object:
        """The field's value, or ``default`` when absent."""
        return self._fields.get(field, default)

    def fields(self) -> Dict[str, object]:
        """A copy of the field mapping (transient fields included)."""
        return dict(self._fields)

    def field_names(self) -> List[str]:
        """The defined field names, sorted."""
        return sorted(self._fields)

    # -- transient fields ---------------------------------------------------

    def mark_transient(self, *fields: str) -> None:
        """Mark fields as transient: visible in memory, never persisted."""
        for field in fields:
            if field not in self._transient:
                self._transient.add(field)
                if field in self._fields:
                    self._stamp = _next_stamp()

    def set_transient(self, field: str, value: object) -> None:
        """Mark ``field`` transient, then store ``value`` in it: a memo
        write in one call.  No stamp moves unless ``field`` held a
        persistent value."""
        if field not in self._transient:
            self._transient.add(field)
            if field in self._fields:
                self._stamp = _next_stamp()
        self._fields[field] = value

    def clear_transient(self, *fields: str) -> None:
        """Remove the transient mark (the fields become persistent)."""
        for field in fields:
            if field in self._transient:
                self._transient.discard(field)
                if field in self._fields:
                    self._stamp = _next_stamp()

    @property
    def transient_fields(self) -> Set[str]:
        """The currently transient field names (a copy)."""
        return set(self._transient)

    def persistent_fields(self) -> Dict[str, object]:
        """The fields a commit would write."""
        return {
            name: value
            for name, value in self._fields.items()
            if name not in self._transient
        }

    def __repr__(self) -> str:
        return "<%s %s>" % (self.kind, ", ".join(self.field_names()))


def missing_field(obj: PObject, field: str) -> PersistenceError:
    """The error a read or delete of ``obj``'s absent ``field`` raises."""
    return PersistenceError("%s object has no field %r" % (obj.kind, field))


def reachable(roots, include_transient: bool = False) -> List[PObject]:
    """All PObjects reachable from ``roots``, in discovery order.

    Traverses PObject fields (skipping transient ones unless asked),
    lists, tuples, sets, dicts, and the payloads of Dynamics.  Immutable
    domain values cannot reference PObjects, so they end traversal.
    """
    seen: Set[int] = set()
    found: List[PObject] = []
    for root in roots if isinstance(roots, (list, tuple)) else [roots]:
        if isinstance(root, PObject) and id(root) not in seen:
            seen.add(id(root))
            found.append(root)
        # Depth-first with an explicit stack of child iterators, so a
        # chain of any length costs no interpreter stack.
        stack = [_children(root, include_transient)]
        while stack:
            item = next(stack[-1], _END)
            if item is _END:
                stack.pop()
                continue
            if isinstance(item, PObject):
                if id(item) in seen:
                    continue
                seen.add(id(item))
                found.append(item)
            stack.append(_children(item, include_transient))
    return found


_END = object()  # the exhausted-iterator sentinel of reachable()


def _children(value: object, include_transient: bool) -> Iterator[object]:
    """The immediate sub-values of ``value`` for traversal purposes."""
    if isinstance(value, PObject):
        source = (
            value.fields() if include_transient else value.persistent_fields()
        )
        yield from source.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value
    elif isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, Dynamic):
        yield value.value
    elif isinstance(value, Value):
        return
    # scalars and unknowns end the walk
