"""Self-describing serialization: a value persists together with its type.

The paper's two principles:

    (1) Persistence is a property of values and should be independent of
        type.
    (2) While a value persists, so should its description (type).

Principle (1) means *any* value in the universe serializes — scalars,
domain values, lists, sets, dicts, Dynamics, Types themselves, and
mutable :class:`~repro.persistence.heap.PObject` graphs with sharing and
cycles.  Principle (2) "guards against the possibility of writing out a
data structure as one type and reading it in as another": the wire format
is fully tagged, and :func:`serialize` can attach an explicit type
description checked on :func:`deserialize`.

The wire format is JSON-compatible (nested lists/dicts of scalars):

* scalars: ``["i", n]``, ``["f", x]``, ``["s", text]``, ``["b", flag]``,
  ``["u"]`` (unit/None);
* domain values: ``["A", scalar-node]``, ``["R", {label: node}]``;
* containers: ``["L"|"T"|"S"|"FS", [nodes]]``, ``["D", [[key, node]...]]``;
* dynamics: ``["dyn", value-node, type-node]``; types: ``["ty", type-node]``;
* objects: ``["ref", oid]`` into a side table of
  ``{oid: {"kind": ..., "fields": {...}, "transient": [...]}}`` —
  sharing and cycles fall out of the indirection.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.orders import Atom, PartialRecord, Value
from repro.errors import SerializationError
from repro.persistence.heap import PObject
from repro.types.dynamic import Dynamic
from repro.types.equivalence import equivalent_types
from repro.types.infer import infer_type
from repro.types.kinds import (
    BOOL,
    BOTTOM,
    DYNAMIC,
    FLOAT,
    INT,
    STRING,
    TOP,
    TYPE,
    UNIT,
    BaseType,
    BottomType,
    DynamicType,
    Exists,
    ForAll,
    FunctionType,
    ListType,
    Mu,
    RecordType,
    RecVar,
    SetType,
    TopType,
    Type,
    TypeType,
    TypeVar,
    VariantType,
)

Node = object  # JSON-compatible nested structure


# ---------------------------------------------------------------------------
# Type encoding
# ---------------------------------------------------------------------------

_BASE_BY_NAME = {t.name: t for t in (INT, FLOAT, STRING, BOOL, UNIT)}


def encode_type(t: Type) -> Node:
    """Encode a type expression as a JSON-compatible node."""
    if isinstance(t, BaseType):
        return ["Base", t.name]
    if isinstance(t, TopType):
        return ["Top"]
    if isinstance(t, BottomType):
        return ["Bottom"]
    if isinstance(t, DynamicType):
        return ["Dynamic"]
    if isinstance(t, TypeType):
        return ["Type"]
    if isinstance(t, RecordType):
        return ["Rec", [[label, encode_type(ft)] for label, ft in t.fields]]
    if isinstance(t, VariantType):
        return ["Var", [[label, encode_type(ct)] for label, ct in t.cases]]
    if isinstance(t, ListType):
        return ["List", encode_type(t.element)]
    if isinstance(t, SetType):
        return ["Set", encode_type(t.element)]
    if isinstance(t, FunctionType):
        return ["Fun", [encode_type(p) for p in t.params], encode_type(t.result)]
    if isinstance(t, TypeVar):
        return ["TVar", t.name]
    if isinstance(t, ForAll):
        return ["All", t.var, encode_type(t.bound), encode_type(t.body)]
    if isinstance(t, Exists):
        return ["Ex", t.var, encode_type(t.bound), encode_type(t.body)]
    if isinstance(t, Mu):
        return ["Mu", t.var, encode_type(t.body)]
    if isinstance(t, RecVar):
        return ["RVar", t.name]
    raise SerializationError("cannot encode type %r" % (t,))


def decode_type(node: Node) -> Type:
    """Decode a node produced by :func:`encode_type`."""
    if not isinstance(node, list) or not node:
        raise SerializationError("malformed type node %r" % (node,))
    tag = node[0]
    try:
        if tag == "Base":
            return _BASE_BY_NAME[node[1]]
        if tag == "Top":
            return TOP
        if tag == "Bottom":
            return BOTTOM
        if tag == "Dynamic":
            return DYNAMIC
        if tag == "Type":
            return TYPE
        if tag == "Rec":
            return RecordType({label: decode_type(ft) for label, ft in node[1]})
        if tag == "Var":
            return VariantType({label: decode_type(ct) for label, ct in node[1]})
        if tag == "List":
            return ListType(decode_type(node[1]))
        if tag == "Set":
            return SetType(decode_type(node[1]))
        if tag == "Fun":
            return FunctionType(
                [decode_type(p) for p in node[1]], decode_type(node[2])
            )
        if tag == "TVar":
            return TypeVar(node[1])
        if tag == "All":
            return ForAll(node[1], decode_type(node[3]), decode_type(node[2]))
        if tag == "Ex":
            return Exists(node[1], decode_type(node[3]), decode_type(node[2]))
        if tag == "Mu":
            return Mu(node[1], decode_type(node[2]))
        if tag == "RVar":
            return RecVar(node[1])
    except (KeyError, IndexError, TypeError) as exc:
        raise SerializationError("malformed type node %r" % (node,)) from exc
    raise SerializationError("unknown type tag %r" % (tag,))


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------


class _Encoder:
    """One serialization pass; assigns oids to PObjects as encountered."""

    def __init__(self, include_transient: bool = False):
        self._oids: Dict[int, int] = {}
        self._objects: Dict[int, PObject] = {}
        self._include_transient = include_transient

    def encode(self, value: object) -> Node:
        if value is None:
            return ["u"]
        if isinstance(value, bool):
            return ["b", value]
        if isinstance(value, int):
            return ["i", value]
        if isinstance(value, float):
            return ["f", value]
        if isinstance(value, str):
            return ["s", value]
        if isinstance(value, Atom):
            return ["A", self.encode(value.payload)]
        if isinstance(value, PartialRecord):
            return ["R", [[label, self.encode(f)] for label, f in value.items()]]
        if isinstance(value, list):
            return ["L", [self.encode(v) for v in value]]
        if isinstance(value, tuple):
            return ["T", [self.encode(v) for v in value]]
        if isinstance(value, (set, frozenset)):
            tag = "S" if isinstance(value, set) else "FS"
            encoded = sorted((self.encode(v) for v in value), key=repr)
            return [tag, encoded]
        if isinstance(value, dict):
            items = []
            for key, item in value.items():
                if not isinstance(key, str):
                    raise SerializationError(
                        "dict keys must be strings, got %r" % (key,)
                    )
                items.append([key, self.encode(item)])
            return ["D", items]
        if isinstance(value, Dynamic):
            return ["dyn", self.encode(value.value), encode_type(value.carried)]
        if isinstance(value, Type):
            return ["ty", encode_type(value)]
        if isinstance(value, PObject):
            return ["ref", self._intern(value)]
        raise SerializationError("cannot serialize %r" % (value,))

    def _intern(self, obj: PObject) -> int:
        oid = self._oids.get(id(obj))
        if oid is None:
            oid = len(self._oids)
            self._oids[id(obj)] = oid
            self._objects[oid] = obj
        return oid

    def object_table(self) -> Dict[str, Node]:
        """Encode every interned object's fields (may intern more objects)."""
        table: Dict[str, Node] = {}
        done = 0
        while done < len(self._objects):
            oid = done
            obj = self._objects[oid]
            fields = (
                obj.fields()
                if self._include_transient
                else obj.persistent_fields()
            )
            entry = {
                "kind": obj.kind,
                "fields": {name: self.encode(v) for name, v in fields.items()},
            }
            # Transient marks only travel when the values do (image
            # copies); a normal persist drops both value and mark, so
            # marking a field transient never dirties the stored object.
            if self._include_transient and obj.transient_fields:
                entry["transient"] = sorted(obj.transient_fields)
            table[str(oid)] = entry
            done += 1
        return table


def serialize(
    value: object,
    typ: Optional[Type] = None,
    include_transient: bool = False,
) -> Dict[str, Node]:
    """Serialize ``value`` into a self-describing JSON-compatible document.

    The document records the value graph, the side table of mutable
    objects, and a type description (inferred when possible, mandatory
    for PObject graphs only if supplied).  Transient PObject fields are
    omitted unless ``include_transient`` — this is how "there is no need
    for the additional information to persist".
    """
    encoder = _Encoder(include_transient)
    root = encoder.encode(value)
    document: Dict[str, Node] = {
        "format": 1,
        "root": root,
        "objects": encoder.object_table(),
    }
    if typ is not None:
        document["type"] = encode_type(typ)
    else:
        try:
            document["type"] = encode_type(infer_type(value))
        except Exception:
            document["type"] = None  # PObject graphs have no domain type
    return document


def _node_refs(node: Node, into: Set[int]) -> None:
    """Collect every ``["ref", oid]`` occurrence inside a stored node."""
    if isinstance(node, list):
        if len(node) == 2 and node[0] == "ref" and isinstance(node[1], int):
            into.add(node[1])
            return
        for item in node:
            _node_refs(item, into)
    elif isinstance(node, dict):
        for item in node.values():
            _node_refs(item, into)


class _Decoder:
    """One deserialization pass; rebuilds shared/cyclic PObject graphs."""

    def __init__(self, object_table: Dict[str, Node]):
        self._table = object_table
        self._built: Dict[int, PObject] = {}

    def decode(self, node: Node) -> object:
        if not isinstance(node, list) or not node:
            raise SerializationError("malformed value node %r" % (node,))
        tag = node[0]
        try:
            if tag == "u":
                return None
            if tag == "b":
                return bool(node[1])
            if tag == "i":
                return int(node[1])
            if tag == "f":
                return float(node[1])
            if tag == "s":
                return str(node[1])
            if tag == "A":
                return Atom(self.decode(node[1]))
            if tag == "R":
                return PartialRecord(
                    {label: self.decode(f) for label, f in node[1]}
                )
            if tag == "L":
                return [self.decode(v) for v in node[1]]
            if tag == "T":
                return tuple(self.decode(v) for v in node[1])
            if tag == "S":
                return {self.decode(v) for v in node[1]}
            if tag == "FS":
                return frozenset(self.decode(v) for v in node[1])
            if tag == "D":
                return {key: self.decode(v) for key, v in node[1]}
            if tag == "dyn":
                return Dynamic(self.decode(node[1]), decode_type(node[2]))
            if tag == "ty":
                return decode_type(node[1])
            if tag == "ref":
                return self._object(int(node[1]))
        except SerializationError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise SerializationError("malformed value node %r" % (node,)) from exc
        raise SerializationError("unknown value tag %r" % (tag,))

    def _object(self, oid: int) -> PObject:
        if oid in self._built:
            return self._built[oid]
        try:
            entry = self._table[str(oid)]
        except KeyError:
            raise SerializationError("dangling object reference %d" % oid) from None
        obj = PObject(entry.get("kind", "Object"))
        self._built[oid] = obj  # register before decoding fields: cycles
        for name, node in entry.get("fields", {}).items():
            obj[name] = self.decode(node)
        obj.mark_transient(*entry.get("transient", []))
        return obj


def deserialize(
    document: Dict[str, Node], expected_type: Optional[Type] = None
) -> object:
    """Rebuild the value from a :func:`serialize` document.

    When ``expected_type`` is given, the persisted type description must
    be α-equivalent to it (principle (2)'s guard — the type travels and
    is checked, unlike "manipulating files in conventional languages").
    Callers wanting subtype-tolerant reads should intern a Dynamic and
    :func:`~repro.types.dynamic.coerce` it instead.
    """
    if not isinstance(document, dict) or "root" not in document:
        raise SerializationError("not a serialized document: %r" % (document,))
    if expected_type is not None:
        stored = document.get("type")
        if stored is None:
            raise SerializationError(
                "document carries no type description to check"
            )
        stored_type = decode_type(stored)
        if not equivalent_types(stored_type, expected_type):
            raise SerializationError(
                "persisted type %s does not match expected %s"
                % (stored_type, expected_type)
            )
    decoder = _Decoder(document.get("objects", {}))
    return decoder.decode(document["root"])


def stored_type(document: Dict[str, Node]) -> Optional[Type]:
    """The type description persisted with a document, if any."""
    node = document.get("type")
    return None if node is None else decode_type(node)
