"""Shared hypothesis strategies for the repro test suite."""

from hypothesis import strategies as st

from repro.core.orders import Atom, PartialRecord

LABELS = tuple("abcdef")

atoms = st.one_of(
    st.integers(min_value=-3, max_value=3).map(Atom),
    st.sampled_from(["x", "y", "z"]).map(Atom),
    st.booleans().map(Atom),
)
"""Atoms with one spelling per value."""

spelled_atoms = st.one_of(atoms, st.sampled_from([1.0, 0.0, -0.0, 2.5]).map(Atom))
"""Atoms including equal ones spelled differently: ``Atom(1)`` and
``Atom(1.0)``, ``Atom(0)``, ``Atom(0.0)`` and ``Atom(-0.0)`` are equal
and hash alike, but print apart.

The kernel, order-law and spelling suites draw from these.  The
type-property suite does not: an atom's inferred type follows its
spelling (``Int`` for ``0``, ``Float`` for ``0.0``) while the value order
makes the two equal, so ``{a=0} ⊑ {a=0.0}`` with ``{a: Float}`` not a
subtype of ``{a: Int}`` — the value/type order reversal does not hold
there (an open defect, recorded in ROADMAP.md)."""


def _records(children):
    return st.dictionaries(
        st.sampled_from(LABELS), children, max_size=4
    ).map(PartialRecord)


def _values(scalars):
    return st.recursive(
        scalars, lambda children: _records(st.one_of(scalars, children)), max_leaves=8
    )


def _nested_records(scalars):
    return _records(st.one_of(scalars, _records(scalars)))


def _flat_records(scalars):
    return st.dictionaries(st.sampled_from(LABELS), scalars, max_size=4).map(
        PartialRecord
    )


values = _values(atoms)
"""Arbitrary domain values: atoms and nested partial records.

Label and atom alphabets are deliberately tiny so that comparable and
consistent pairs occur often enough to exercise join/meet paths.
"""

records = _nested_records(atoms)
"""Arbitrary (possibly nested) partial records."""

flat_records = _flat_records(atoms)
"""Arbitrary flat partial records (atoms only)."""

spelled_values = _values(spelled_atoms)
spelled_records = _nested_records(spelled_atoms)
spelled_flat_records = _flat_records(spelled_atoms)
"""The same three over :data:`spelled_atoms`."""
