"""Results, spellings and member order pinned to a frozen reference.

``Atom(1) == Atom(1.0)`` and ``Atom(0.0) == Atom(-0.0)``, but each pair
prints apart, so a relation's ``repr`` — and its member order, which
sorts by ``repr`` — shows which spelling an operation kept.  ``==``
cannot.  This suite compares ``repr``s against a frozen copy of the
straightforward implementation: ``⊔`` as a raising walk over fields,
the reduction as the all-pairs maximal elements keeping the first of
equal values, member order as ``sorted(..., key=repr)``, and the join
trying pairs in the order the signature kernel always has (partition
pair by partition pair, partitions and their sets filled in member
order).  The kernel's indexes, its exception-free ``⊔`` and its
on-demand member order must change none of it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cpo
from repro.core.orders import Atom, PartialRecord, join, record, try_join
from repro.core.relation import GeneralizedRelation
from repro.errors import InconsistentJoinError

from tests.strategies import spelled_atoms as atoms
from tests.strategies import spelled_records as records
from tests.strategies import spelled_values as values


# -- the frozen reference ---------------------------------------------------


def ref_atoms_equal(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, str) or isinstance(b, str):
        return isinstance(a, str) and isinstance(b, str) and a == b
    return a == b


def ref_leq(a, b):
    if isinstance(a, Atom):
        return isinstance(b, Atom) and ref_atoms_equal(a.payload, b.payload)
    if not isinstance(b, PartialRecord) or not set(a.labels) <= set(b.labels):
        return False
    return all(ref_leq(value, b[label]) for label, value in a.items())


def ref_join(a, b, path=()):
    if isinstance(a, Atom) and isinstance(b, Atom):
        if ref_atoms_equal(a.payload, b.payload):
            return a
        raise InconsistentJoinError(a, b, path)
    if isinstance(a, PartialRecord) and isinstance(b, PartialRecord):
        fields = dict(a.items())
        for label, b_value in b.items():
            a_value = fields.get(label)
            if a_value is None:
                fields[label] = b_value
            else:
                fields[label] = ref_join(a_value, b_value, path + (label,))
        return PartialRecord(fields)
    raise InconsistentJoinError(a, b, path)


def ref_try_join(a, b):
    try:
        return ref_join(a, b)
    except InconsistentJoinError:
        return None


def ref_ordered(values):
    return tuple(sorted(values, key=repr))


def ref_relation(values):
    return ref_ordered(cpo.maximal_elements(list(values), ref_leq))


def ref_partitions(members):
    atoms_found, groups = set(), {}
    for member in members:
        if isinstance(member, Atom):
            atoms_found.add(member)
        else:
            groups.setdefault(member.label_set, set()).add(member)
    return atoms_found, groups


def ref_rjoin(left, right):
    atoms_l, groups_l = ref_partitions(left)
    atoms_r, groups_r = ref_partitions(right)
    joined = list(atoms_l & atoms_r)
    for members_l in groups_l.values():
        for members_r in groups_r.values():
            for mine in members_l:
                for theirs in members_r:
                    combined = ref_try_join(mine, theirs)
                    if combined is not None:
                        joined.append(combined)
    return ref_relation(joined)


def ref_insert(members, value):
    if any(ref_leq(value, m) for m in members):
        return tuple(members)
    return ref_ordered([m for m in members if not ref_leq(m, value)] + [value])


def spelled(relation):
    """What the relation prints, member by member, in its order."""
    return tuple(repr(member) for member in relation.objects)


def ref_spelled(members):
    return tuple(repr(member) for member in members)


def respell(value):
    """An equal value whose whole-number atoms are spelled the other way
    (``1`` as ``1.0`` and back)."""
    if isinstance(value, Atom):
        payload = value.payload
        if isinstance(payload, (bool, str)):
            return value
        if isinstance(payload, int):
            return Atom(float(payload))
        return Atom(int(payload)) if payload == int(payload) else value
    return PartialRecord({label: respell(field) for label, field in value.items()})


# Few labels and numerically equal atoms make clashing spellings common.
close_atoms = st.sampled_from([0, 1, 0.0, -0.0, 1.0]).map(Atom)
close_records = st.recursive(
    st.dictionaries(st.sampled_from("abc"), close_atoms, max_size=3).map(PartialRecord),
    lambda children: st.dictionaries(
        st.sampled_from("abc"), st.one_of(close_atoms, children), max_size=3
    ).map(PartialRecord),
    max_leaves=6,
)
member_lists = st.one_of(
    st.lists(records, max_size=10), st.lists(close_records, max_size=8)
)


@st.composite
def overlapping_relations(draw):
    """Two member lists cut from one record and its respelling, so that
    different pairs often join to equal results spelled apart."""
    full = draw(
        st.dictionaries(
            st.sampled_from("abcd"), st.one_of(close_atoms, close_records),
            min_size=2, max_size=4,
        ).map(PartialRecord)
    )
    spellings = [full, respell(full)]

    def members():
        return draw(st.lists(
            st.builds(
                lambda whole, wanted: whole.restrict(wanted),
                st.sampled_from(spellings),
                st.sets(st.sampled_from(full.labels), min_size=1),
            ),
            min_size=1, max_size=5,
        ))

    return members(), members()


# -- ⊔ on values ----------------------------------------------------------------


class TestValueJoin:
    @given(values, values)
    @settings(max_examples=300, deadline=None)
    def test_try_join_spells_as_reference(self, a, b):
        assert repr(try_join(a, b)) == repr(ref_try_join(a, b))

    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_atoms_come_from_the_left(self, a):
        b = respell(a)
        assert repr(try_join(a, b)) == repr(a)
        assert repr(try_join(b, a)) == repr(b)

    @given(values, values)
    @settings(max_examples=200, deadline=None)
    def test_join_raises_as_reference(self, a, b):
        try:
            expected = repr(ref_join(a, b))
        except InconsistentJoinError as exc:
            expected = exc
        try:
            got = repr(join(a, b))
        except InconsistentJoinError as exc:
            got = exc
        if isinstance(expected, InconsistentJoinError):
            assert isinstance(got, InconsistentJoinError)
            assert (str(got), got.path) == (str(expected), expected.path)
            assert (repr(got.left), repr(got.right)) == (
                repr(expected.left), repr(expected.right),
            )
        else:
            assert got == expected

    def test_left_spelling_example(self):
        assert repr(try_join(record(x=1), record(x=1.0, y=2))) == (
            "{x=Atom(1), y=Atom(2)}"
        )
        assert repr(try_join(record(x=1.0, y=2), record(x=1))) == (
            "{x=Atom(1.0), y=Atom(2)}"
        )


# -- relations --------------------------------------------------------------------


class TestRelationSpelling:
    @given(member_lists)
    @settings(max_examples=200, deadline=None)
    def test_construction(self, members):
        relation = GeneralizedRelation(members)
        assert spelled(relation) == ref_spelled(ref_relation(members))
        assert len(relation) == len(relation.objects)

    @given(st.lists(st.one_of(atoms, close_records), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_construction_with_atoms(self, members):
        assert spelled(GeneralizedRelation(members)) == ref_spelled(
            ref_relation(members)
        )

    @given(member_lists, member_lists)
    @settings(max_examples=300, deadline=None)
    def test_join(self, left, right):
        g_left, g_right = GeneralizedRelation(left), GeneralizedRelation(right)
        expected = ref_rjoin(ref_relation(left), ref_relation(right))
        assert spelled(g_left.join(g_right)) == ref_spelled(expected)

    @given(overlapping_relations())
    @settings(max_examples=300, deadline=None)
    def test_join_of_overlapping_spellings(self, pair):
        left, right = pair
        g_left, g_right = GeneralizedRelation(left), GeneralizedRelation(right)
        expected = ref_rjoin(ref_relation(left), ref_relation(right))
        assert spelled(g_left.join(g_right)) == ref_spelled(expected)

    @given(member_lists, member_lists)
    @settings(max_examples=100, deadline=None)
    def test_join_of_ordered_operands(self, left, right):
        # Operands whose order was observed before the join.
        g_left, g_right = GeneralizedRelation(left), GeneralizedRelation(right)
        g_left.objects, g_right.objects
        expected = ref_rjoin(ref_relation(left), ref_relation(right))
        assert spelled(g_left.join(g_right)) == ref_spelled(expected)

    @given(member_lists, close_records)
    @settings(max_examples=150, deadline=None)
    def test_matching(self, members, pattern):
        expected = [m for m in ref_relation(members) if ref_leq(pattern, m)]
        matched = GeneralizedRelation(members).matching(pattern)
        assert spelled(matched) == ref_spelled(expected)

    @given(member_lists, st.lists(st.sampled_from("abcdef"), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_project(self, members, labels):
        wanted = set(labels)
        expected = ref_relation(
            PartialRecord({k: v for k, v in m.items() if k in wanted})
            for m in ref_relation(members)
        )
        projected = GeneralizedRelation(members).project(labels)
        assert spelled(projected) == ref_spelled(expected)

    @given(member_lists, member_lists)
    @settings(max_examples=150, deadline=None)
    def test_meet(self, left, right):
        expected = ref_ordered(cpo.minimal_elements(
            list(ref_relation(left)) + list(ref_relation(right)), ref_leq
        ))
        met = GeneralizedRelation(left).meet(GeneralizedRelation(right))
        assert spelled(met) == ref_spelled(expected)

    @given(member_lists, close_records, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_insert(self, members, value, probed):
        relation = GeneralizedRelation(members)
        if probed:
            relation.admits(value)  # builds nothing new: the index exists
        expected = ref_insert(ref_relation(members), value)
        assert spelled(relation.insert(value)) == ref_spelled(expected)

    def test_join_keeps_the_member_ordered_spelling(self):
        # l ⊔ r1 == l ⊔ r2, spelled c=2 and c=2.0.  r1 comes first in
        # member order, so c=2 is kept, even though the right operand's
        # index met r2's partition first.
        left = GeneralizedRelation([record(a=1, b=5)])
        right = GeneralizedRelation([record(b=5, c=2.0), record(a=1, c=2)])
        assert repr(left.join(right)) == (
            "GeneralizedRelation(\n {a=Atom(1), b=Atom(5), c=Atom(2)}\n)"
        )
