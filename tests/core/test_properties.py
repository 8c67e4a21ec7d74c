"""Property-based tests: the order-theoretic laws the paper relies on.

The paper's formal claims — objects form a partial order under ⊑ with a
join operation ⊔; relations (cochains) form a partial order with a join
generalizing the natural join — are checked here on randomly generated
values via hypothesis.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cpo
from repro.core.orders import join, leq, meet, try_join
from repro.core.relation import GeneralizedRelation
from repro.errors import NoMeetError

from tests.strategies import spelled_flat_records as flat_records
from tests.strategies import spelled_records as records
from tests.strategies import spelled_values as values


class TestValuePartialOrder:
    @given(values)
    def test_reflexive(self, a):
        assert leq(a, a)

    @given(values, values)
    def test_antisymmetric(self, a, b):
        if leq(a, b) and leq(b, a):
            assert a == b

    @given(values, values, values)
    @settings(max_examples=300)
    def test_transitive(self, a, b, c):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


class TestJoinLaws:
    @given(values)
    def test_idempotent(self, a):
        assert try_join(a, a) == a

    @given(values, values)
    def test_commutative(self, a, b):
        assert try_join(a, b) == try_join(b, a)

    @given(values, values, values)
    @settings(max_examples=300)
    def test_associative_where_defined(self, a, b, c):
        ab = try_join(a, b)
        bc = try_join(b, c)
        if ab is not None and bc is not None:
            left = try_join(ab, c)
            right = try_join(a, bc)
            # bounded completeness: if both sides are defined they agree
            if left is not None and right is not None:
                assert left == right

    @given(values, values)
    def test_join_is_upper_bound(self, a, b):
        combined = try_join(a, b)
        if combined is not None:
            assert leq(a, combined)
            assert leq(b, combined)

    @given(values, values, values)
    @settings(max_examples=300)
    def test_join_is_least_upper_bound(self, a, b, witness):
        """Any other upper bound dominates the join (leastness)."""
        combined = try_join(a, b)
        if combined is not None and leq(a, witness) and leq(b, witness):
            assert leq(combined, witness)

    @given(values, values)
    def test_comparable_join_is_greater(self, a, b):
        if leq(a, b):
            assert try_join(a, b) == b

    @given(values, values)
    def test_consistency_iff_join_defined(self, a, b):
        assert a.consistent(b) == (try_join(a, b) is not None)


class TestMeetLaws:
    @given(records, records)
    def test_meet_of_records_always_defined(self, a, b):
        # The record part of the domain has a bottom ({}), so meets exist.
        low = meet(a, b)
        assert leq(low, a)
        assert leq(low, b)

    @given(records, records, records)
    @settings(max_examples=300)
    def test_meet_is_greatest_lower_bound(self, a, b, witness):
        low = meet(a, b)
        if leq(witness, a) and leq(witness, b):
            assert leq(witness, low)

    @given(records)
    def test_meet_idempotent(self, a):
        assert meet(a, a) == a

    @given(records, records)
    def test_meet_commutative(self, a, b):
        assert meet(a, b) == meet(b, a)

    @given(values, values)
    def test_meet_raises_only_without_lower_bound(self, a, b):
        try:
            low = meet(a, b)
        except NoMeetError:
            return
        assert leq(low, a) and leq(low, b)


class TestLawCheckers:
    @given(st.lists(values, max_size=6))
    def test_check_partial_order_passes(self, sample):
        assert cpo.check_partial_order(sample, leq) == []

    @given(st.lists(st.tuples(values, values), max_size=6))
    def test_check_join_laws_pass(self, pairs):
        assert cpo.check_join_laws(pairs, try_join, leq) == []

    @given(st.lists(values, max_size=8))
    def test_maximal_elements_form_antichain(self, sample):
        reduced = cpo.maximal_elements(sample, leq)
        assert cpo.is_antichain(reduced, leq)
        # everything in the sample is dominated by something kept
        for element in sample:
            assert any(leq(element, kept) for kept in reduced)

    @given(st.lists(values, max_size=8))
    def test_minimal_elements_form_antichain(self, sample):
        reduced = cpo.minimal_elements(sample, leq)
        assert cpo.is_antichain(reduced, leq)
        for element in sample:
            assert any(leq(kept, element) for kept in reduced)


class TestRelationLaws:
    @given(st.lists(flat_records, max_size=8))
    def test_construction_yields_cochain(self, objects):
        GeneralizedRelation(objects).check_cochain()

    @given(st.lists(flat_records, max_size=6), flat_records)
    def test_insert_preserves_cochain(self, objects, extra):
        relation = GeneralizedRelation(objects).insert(extra)
        relation.check_cochain()

    @given(st.lists(flat_records, max_size=6), flat_records)
    def test_insert_monotone_in_relation_order(self, objects, extra):
        relation = GeneralizedRelation(objects)
        inserted = relation.insert(extra)
        # inserting can only make the relation *more* informative... note
        # the ordering's direction: new info grows members or adds them,
        # and R ⊑ R' requires every member of R' to dominate one of R —
        # which fresh incomparable members break.  What *is* always true:
        # every old member is dominated by... itself (it survives) or its
        # subsumer.
        for member in relation:
            assert any(member.leq(new) for new in inserted)

    @given(st.lists(flat_records, max_size=5), st.lists(flat_records, max_size=5))
    def test_join_commutative(self, left, right):
        r1 = GeneralizedRelation(left)
        r2 = GeneralizedRelation(right)
        assert r1.join(r2) == r2.join(r1)

    @given(st.lists(flat_records, max_size=5), st.lists(flat_records, max_size=5))
    def test_join_is_upper_bound(self, left, right):
        r1 = GeneralizedRelation(left)
        r2 = GeneralizedRelation(right)
        joined = r1.join(r2)
        assert r1.leq(joined)
        assert r2.leq(joined)

    @given(st.lists(flat_records, max_size=5))
    def test_self_join_dominates(self, objects):
        # Join is NOT idempotent on relations: consistent distinct members
        # combine into strictly more informative objects.  But the result
        # always dominates the operand and stays a cochain.
        r = GeneralizedRelation(objects)
        joined = r.join(r)
        assert r.leq(joined)
        joined.check_cochain()

    @given(st.lists(flat_records, max_size=5), st.lists(flat_records, max_size=5))
    def test_meet_is_lower_bound(self, left, right):
        r1 = GeneralizedRelation(left)
        r2 = GeneralizedRelation(right)
        low = r1.meet(r2)
        assert low.leq(r1)
        assert low.leq(r2)
        low.check_cochain()

    @given(
        st.lists(flat_records, max_size=4),
        st.lists(flat_records, max_size=4),
        st.lists(flat_records, max_size=4),
    )
    @settings(max_examples=200)
    def test_meet_is_greatest_lower_bound(self, left, right, witness):
        r1 = GeneralizedRelation(left)
        r2 = GeneralizedRelation(right)
        w = GeneralizedRelation(witness)
        if w.leq(r1) and w.leq(r2):
            assert w.leq(r1.meet(r2))

    @given(st.lists(flat_records, max_size=5), st.lists(flat_records, max_size=5))
    def test_relation_order_reflexive_transitive_sample(self, left, right):
        r1 = GeneralizedRelation(left)
        r2 = GeneralizedRelation(right)
        assert r1.leq(r1)
        joined = r1.join(r2)
        if r1.leq(r2):
            assert r1.leq(joined)
