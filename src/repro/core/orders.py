"""The information ordering on partial values.

The paper ("Inheritance on Values") treats database objects as *partial
records* ordered by information content::

    o1 = {Name = 'J Doe', Address = {City = 'Austin'}}
    o2 = {Name = 'J Doe', Address = {City = 'Austin'}, Emp_no = 1234}
    o3 = {Name = 'J Doe', Address = {City = 'Austin', Zip = 78759}}

``o1 ⊑ o2`` and ``o1 ⊑ o3``: a better-defined record either adds new
fields or better-defines an existing field.  Two consistent records have a
least upper bound, the *join* ``⊔`` which merges their information; records
that disagree on a common field (``{Name='J Doe'}`` vs ``{Name='K Smith'}``)
have no join.

Following [AitK84] and [Bune86], the domain has two kinds of values:

* :class:`Atom` — a maximal, fully-defined scalar.  Atoms form a flat
  order: ``Atom(a) ⊑ Atom(b)`` iff ``a == b``.
* :class:`PartialRecord` — a partial function from field labels to values.
  ``r ⊑ s`` iff every field of ``r`` is present in ``s`` with a
  ``⊑``-greater value.  The empty record ``{}`` is the least record.

Atoms and records are never comparable with each other, so the domain is a
disjoint union of a flat part and a record part; within the record part
every consistent pair has a least upper bound (the domain of records is a
bounded-complete partial order).

All values are immutable and hashable, so they can live in sets and serve
as dictionary keys — which the relation layer relies on.  Both kinds
compute their hash once, at construction, and keep it in a slot: the
relation kernel hashes every atom it buckets or probes by.

``⊔`` is computed without raising: :func:`try_join` walks both values
and returns ``None`` at the first clash, building each result record
through :func:`trusted_record`, which skips re-validating labels and
values that are already checked.  Only :func:`join` turns a clash into
an :class:`InconsistentJoinError`, with the field path of the first
clash.  Where both sides of ``a ⊔ b`` define an atom, the result keeps
``a``'s: ``{x=1} ⊔ {x=1.0, y=2}`` is ``{x=Atom(1), y=Atom(2)}``, while
``{x=1.0, y=2} ⊔ {x=1}`` spells ``x`` as ``Atom(1.0)``.  The two are
equal (``Atom(1) == Atom(1.0)``), but ``repr`` — and the relation
layer's member order, which sorts by it — tells them apart.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Mapping, Optional, Tuple, Union

from repro.errors import InconsistentJoinError, NoMeetError, NotAValueError

AtomPayload = Union[int, float, str, bool]

_ATOM_TYPES = (int, float, str, bool)


class Value:
    """Abstract base class of all domain values.

    Rich comparisons implement the information ordering: ``a <= b`` means
    "``b`` is at least as informative as ``a``".  Incomparable values
    compare ``False`` in both directions, as is usual for partial orders.
    """

    __slots__ = ()

    def leq(self, other: "Value") -> bool:
        """Return ``True`` iff ``self ⊑ other``."""
        raise NotImplementedError

    def join(self, other: "Value") -> "Value":
        """Return the least upper bound ``self ⊔ other``.

        Raises :class:`InconsistentJoinError` when no upper bound exists.
        """
        return join(self, other)

    def try_join(self, other: "Value") -> Optional["Value"]:
        """Return ``self ⊔ other``, or ``None`` when inconsistent."""
        return try_join(self, other)

    def meet(self, other: "Value") -> "Value":
        """Return the greatest lower bound ``self ⊓ other``.

        Raises :class:`NoMeetError` when the two values have no common
        lower bound (an atom against a record, or two distinct atoms —
        the flat atom order has no bottom element).
        """
        result = _meet(self, other)
        if result is None:
            raise NoMeetError("no common lower bound of %r and %r" % (self, other))
        return result

    def consistent(self, other: "Value") -> bool:
        """Return ``True`` iff ``self`` and ``other`` have an upper bound."""
        return self.try_join(other) is not None

    # Rich comparisons spell the information order.
    def __le__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self.leq(other)

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return other.leq(self)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self.leq(other) and self != other

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return other.leq(self) and self != other


class Atom(Value):
    """A fully-defined scalar value (int, float, str, or bool).

    Atoms are maximal: the only atom below ``Atom(x)`` is itself.  Distinct
    atoms are inconsistent — there is no value "better than" both
    ``'J Doe'`` and ``'K Smith'``.
    """

    __slots__ = ("_payload", "_hash")

    def __init__(self, payload: AtomPayload):
        if not isinstance(payload, _ATOM_TYPES):
            raise NotAValueError(
                "atom payload must be int, float, str or bool, not %r"
                % type(payload).__name__
            )
        self._payload = payload
        # bool hashes like int in Python; fold in a bool flag so that
        # Atom(True) and Atom(1) — which we treat as distinct — differ.
        # Only the flag, not the type name: Atom(1) == Atom(1.0) (numeric
        # comparison, matching the Float ≥ Int coercion), so their hashes
        # must coincide too — hash(1) == hash(1.0) makes this free, and
        # the relation kernel's hash buckets rely on it.
        self._hash = hash((Atom, isinstance(payload, bool), payload))

    @property
    def payload(self) -> AtomPayload:
        """The wrapped Python scalar."""
        return self._payload

    def leq(self, other: Value) -> bool:
        """Flat order: only an equal atom is above an atom."""
        return isinstance(other, Atom) and _atoms_equal(self._payload, other._payload)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Atom) and _atoms_equal(self._payload, other._payload)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Atom(%r)" % (self._payload,)


def _atoms_equal(a: AtomPayload, b: AtomPayload) -> bool:
    """Payload equality that keeps bool and int apart.

    Python's ``True == 1`` would otherwise make ``Atom(True)`` and
    ``Atom(1)`` one value; the type system downstream keeps Bool and Int
    distinct, so the value domain must as well.  Int and float payloads
    are compared numerically, matching the Float ≥ Int coercion the type
    layer performs.
    """
    if type(a) is type(b):
        return a == b
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, str) or isinstance(b, str):
        return isinstance(a, str) and isinstance(b, str) and a == b
    return a == b


class PartialRecord(Value):
    """An immutable partial function from field labels to values.

    The fields mapping is copied and frozen at construction.  Iteration
    order is the sorted label order so that ``repr`` is deterministic.

    Construction precomputes the structural facts the relation kernel
    (:mod:`repro.core.kernel`) consults on every comparison: a frozen
    label set (the record's *signature*), a by-label dict for O(1) field
    lookup, the hash, and whether the record is *ground* (every field an
    atom).  ``repr`` — the relation layer's deterministic sort key — is
    computed once and cached.  The constructor checks every label and
    value; :func:`trusted_record` builds a record from ones already
    checked.
    """

    __slots__ = ("_fields", "_by_label", "_label_set", "_ground", "_hash", "_repr")

    def __init__(self, fields: Mapping[str, Value] = ()):
        items = dict(fields)
        ground = True
        for label, value in items.items():
            if not isinstance(label, str):
                raise NotAValueError("field label must be str, not %r" % (label,))
            if not isinstance(value, Value):
                raise NotAValueError(
                    "field %r must map to a Value, not %r" % (label, value)
                )
            if not isinstance(value, Atom):
                ground = False
        self._fill(items, ground)

    def _fill(self, by_label: dict, ground: bool) -> None:
        # Labels are distinct, so sorting the pairs compares labels only.
        self._fields: Tuple[Tuple[str, Value], ...] = tuple(sorted(by_label.items()))
        self._by_label: dict = by_label
        self._label_set: FrozenSet[str] = frozenset(by_label)
        self._ground: bool = ground
        self._hash = hash((PartialRecord, self._fields))
        self._repr: Optional[str] = None

    # -- mapping-like access ------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        """The defined field labels, in sorted order."""
        return tuple(label for label, __ in self._fields)

    @property
    def label_set(self) -> FrozenSet[str]:
        """The defined field labels as a frozen set (the *signature*).

        ``r ⊑ s`` can only hold when ``r.label_set <= s.label_set``, which
        is what lets the relation kernel partition cochains by signature
        and skip comparisons across unrelated signatures entirely.
        """
        return self._label_set

    @property
    def is_ground(self) -> bool:
        """``True`` when every field value is an :class:`Atom`.

        Two distinct ground records with the same signature are always
        incomparable (atoms form a flat order), so cochain reduction on
        ground same-signature groups is pure deduplication.
        """
        return self._ground

    def __iter__(self) -> Iterator[str]:
        return (label for label, __ in self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __contains__(self, label: object) -> bool:
        return label in self._by_label

    def __getitem__(self, label: str) -> Value:
        return self._by_label[label]

    def get(self, label: str, default: Optional[Value] = None) -> Optional[Value]:
        """Return the value at ``label``, or ``default`` when undefined."""
        return self._by_label.get(label, default)

    def items(self) -> Tuple[Tuple[str, Value], ...]:
        """The (label, value) pairs in sorted label order."""
        return self._fields

    # -- derived records ----------------------------------------------------

    def with_field(self, label: str, value: Value) -> "PartialRecord":
        """A copy of this record with ``label`` (re)defined to ``value``."""
        fields = dict(self._fields)
        fields[label] = value
        return PartialRecord(fields)

    def without_field(self, label: str) -> "PartialRecord":
        """A copy of this record with ``label`` undefined."""
        fields = {name: value for name, value in self._fields if name != label}
        return PartialRecord(fields)

    def restrict(self, labels) -> "PartialRecord":
        """The restriction of this partial function to ``labels``.

        Labels on which the record is undefined are silently dropped —
        restriction of a partial function can only lose information.
        """
        wanted = set(labels)
        return PartialRecord(
            {name: value for name, value in self._fields if name in wanted}
        )

    # -- the information order ----------------------------------------------

    def leq(self, other: Value) -> bool:
        """Every field present here must be present and ⊒ in ``other``."""
        if not isinstance(other, PartialRecord):
            return False
        if not self._label_set <= other._label_set:
            return False
        other_by_label = other._by_label
        for label, value in self._fields:
            if not value.leq(other_by_label[label]):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialRecord) and self._fields == other._fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self._repr is None:
            inner = ", ".join(
                "%s=%r" % (label, value) for label, value in self._fields
            )
            self._repr = "{%s}" % inner
        return self._repr


EMPTY_RECORD = PartialRecord()
"""The least record ``{}`` — the bottom of the record part of the domain."""


def trusted_record(by_label: dict, ground: bool) -> PartialRecord:
    """A record over labels and values that are already checked.

    The caller vouches that every key of ``by_label`` is a ``str`` and
    every value a :class:`Value`, hands the dict over (the record keeps
    it), and says whether every value is an :class:`Atom`.  The join
    and the language's record conversion build their results this way,
    skipping the constructor's per-field checks.
    """
    record = object.__new__(PartialRecord)
    record._fill(by_label, ground)
    return record


# ---------------------------------------------------------------------------
# Join and meet
# ---------------------------------------------------------------------------


def _clash(a: Value, b: Value, path: Tuple[str, ...]) -> InconsistentJoinError:
    """The error for an ``a ⊔ b`` that does not exist.

    Walks as :func:`try_join` does — ``b``'s fields in label order — to
    the first clash, so the error names the field path the walk stopped
    at and the two values that clash there.
    """
    if isinstance(a, PartialRecord) and isinstance(b, PartialRecord):
        mine = a._by_label
        for label, theirs in b._fields:
            ours = mine.get(label)
            if ours is not None and try_join(ours, theirs) is None:
                return _clash(ours, theirs, path + (label,))
    return InconsistentJoinError(a, b, path)


def _meet(a: Value, b: Value) -> Optional[Value]:
    """Greatest lower bound, or ``None`` when no lower bound exists.

    Within records a meet always exists (drop disagreeing fields, recurse
    on agreeing ones); across the atom/record divide, or between distinct
    atoms, nothing lies below both.
    """
    if isinstance(a, Atom) and isinstance(b, Atom):
        return a if _atoms_equal(a.payload, b.payload) else None
    if isinstance(a, PartialRecord) and isinstance(b, PartialRecord):
        fields = {}
        for label, a_value in a.items():
            b_value = b.get(label)
            if b_value is None:
                continue
            lower = _meet(a_value, b_value)
            if lower is not None:
                fields[label] = lower
        return PartialRecord(fields)
    return None


# ---------------------------------------------------------------------------
# Module-level functional API
# ---------------------------------------------------------------------------


def leq(a: Value, b: Value) -> bool:
    """Return ``True`` iff ``a ⊑ b`` (``b`` is at least as informative)."""
    return a.leq(b)


def lt(a: Value, b: Value) -> bool:
    """Return ``True`` iff ``a ⊑ b`` and ``a != b``."""
    return a.leq(b) and a != b


def join(a: Value, b: Value) -> Value:
    """Return ``a ⊔ b`` or raise :class:`InconsistentJoinError`."""
    result = try_join(a, b)
    if result is None:
        raise _clash(a, b, ())
    return result


def try_join(a: Value, b: Value) -> Optional[Value]:
    """Return ``a ⊔ b``, or ``None`` when the two are inconsistent.

    Raises nothing: the walk stops at the first clash.  Where both sides
    define an atom, the result keeps ``a``'s; a record that gains
    nothing from ``b`` is returned as it is.
    """
    if isinstance(a, PartialRecord):
        if not isinstance(b, PartialRecord):
            return None
        mine = a._by_label
        merged = None
        for label, theirs in b._fields:
            ours = mine.get(label)
            if ours is None:
                joined = theirs
            else:
                joined = try_join(ours, theirs)
                if joined is None:
                    return None
                if joined is ours:
                    continue
            if merged is None:
                merged = dict(mine)
            merged[label] = joined
        if merged is None:
            return a
        return trusted_record(merged, a._ground and b._ground)
    if isinstance(a, Atom):
        if isinstance(b, Atom) and _atoms_equal(a._payload, b._payload):
            return a
    return None


def meet(a: Value, b: Value) -> Value:
    """Return ``a ⊓ b`` or raise :class:`NoMeetError`."""
    return a.meet(b)


def consistent(a: Value, b: Value) -> bool:
    """Return ``True`` iff ``a`` and ``b`` have a common upper bound."""
    return a.consistent(b)


# ---------------------------------------------------------------------------
# Conversion to and from plain Python data
# ---------------------------------------------------------------------------


def atom(payload: AtomPayload) -> Atom:
    """Wrap a Python scalar as an :class:`Atom`."""
    return Atom(payload)


def record(**fields) -> PartialRecord:
    """Build a :class:`PartialRecord` from keyword arguments.

    Values may be plain Python scalars, dicts, or already-built
    :class:`Value` instances::

        >>> record(Name='J Doe', Address={'City': 'Austin'})
        {Address={City=Atom('Austin')}, Name=Atom('J Doe')}
    """
    return PartialRecord({label: from_python(value) for label, value in fields.items()})


def from_python(data: object) -> Value:
    """Convert nested Python scalars/dicts into a domain :class:`Value`.

    ``Value`` instances pass through unchanged; scalars become atoms;
    mappings become partial records (recursively).  Anything else raises
    :class:`NotAValueError`.
    """
    if isinstance(data, Value):
        return data
    if isinstance(data, _ATOM_TYPES):
        return Atom(data)
    if isinstance(data, Mapping):
        return PartialRecord({label: from_python(value) for label, value in data.items()})
    raise NotAValueError("cannot convert %r to a domain value" % (data,))


def to_python(value: Value) -> object:
    """Convert a domain value back to nested Python scalars and dicts."""
    if isinstance(value, Atom):
        return value.payload
    if isinstance(value, PartialRecord):
        return {label: to_python(field) for label, field in value.items()}
    raise NotAValueError("cannot convert %r to Python data" % (value,))
