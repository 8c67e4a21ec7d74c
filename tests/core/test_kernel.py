"""Property tests: the signature-partitioned kernel vs the naive oracle.

Every relation operation that now runs on :mod:`repro.core.kernel` —
construction (cochain reduction), ``insert``, ``join``, ``meet``,
``leq``, plus the probe-backed ``admits``/``matching``/``subsumed_by``
— is checked for *exact* agreement with a naive all-pairs reference
implementation written here from the definitions, on random cochains of
partial records including nested values and mixed signatures.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cpo, kernel
from repro.core.orders import Atom, leq, record, try_join
from repro.core.relation import GeneralizedRelation
from repro.obs.metrics import REGISTRY
from repro.workloads.relations import mixed_signature_pair

from tests.strategies import spelled_records as records
from tests.strategies import spelled_values as values


# -- the oracle: straight from the paper's definitions, all pairs ----------


def naive_maximal(members):
    return cpo.maximal_elements(list(members), leq)


def naive_join(left_members, right_members):
    joined = []
    for mine in left_members:
        for theirs in right_members:
            combined = try_join(mine, theirs)
            if combined is not None:
                joined.append(combined)
    return naive_maximal(joined)


def naive_meet(left_members, right_members):
    return cpo.minimal_elements(list(left_members) + list(right_members), leq)


def naive_insert(members, value):
    if any(leq(value, m) for m in members):
        return list(members)
    return [m for m in members if not leq(m, value)] + [value]


def naive_relation_leq(left_members, right_members):
    return all(
        any(leq(mine, theirs) for mine in left_members)
        for theirs in right_members
    )


record_lists = st.lists(records, max_size=12)
value_lists = st.lists(values, max_size=12)


class TestReductionAgainstOracle:
    @given(record_lists)
    @settings(max_examples=200, deadline=None)
    def test_construction_reduces_exactly(self, members):
        relation = GeneralizedRelation(members)
        assert set(relation.objects) == set(naive_maximal(members))
        relation.check_cochain()

    @given(value_lists)
    @settings(max_examples=100, deadline=None)
    def test_reduction_with_atoms_mixed_in(self, members):
        assert set(kernel.reduce_to_maximal(members)) == set(
            naive_maximal(members)
        )

    @given(value_lists)
    @settings(max_examples=100, deadline=None)
    def test_minimal_reduction_agrees(self, members):
        assert set(kernel.reduce_to_minimal(members)) == set(
            cpo.minimal_elements(members, leq)
        )

    @given(record_lists)
    @settings(max_examples=100, deadline=None)
    def test_member_order_is_deterministic(self, members):
        relation = GeneralizedRelation(members)
        assert relation.objects == tuple(
            sorted(set(naive_maximal(members)), key=repr)
        )


class TestInsertAgainstOracle:
    @given(record_lists, records)
    @settings(max_examples=200, deadline=None)
    def test_insert_agrees(self, members, value):
        relation = GeneralizedRelation(members)
        inserted = relation.insert(value)
        expected = naive_insert(relation.objects, value)
        assert set(inserted.objects) == set(expected)
        inserted.check_cochain()

    @given(record_lists, records)
    @settings(max_examples=150, deadline=None)
    def test_admits_agrees(self, members, value):
        relation = GeneralizedRelation(members)
        expected = not any(leq(value, m) for m in relation.objects)
        assert relation.admits(value) == expected

    @given(record_lists, records)
    @settings(max_examples=150, deadline=None)
    def test_subsumed_by_agrees(self, members, value):
        relation = GeneralizedRelation(members)
        expected = {
            m for m in relation.objects if leq(m, value) and m != value
        }
        assert set(relation.subsumed_by(value)) == expected

    @given(record_lists, records)
    @settings(max_examples=150, deadline=None)
    def test_matching_agrees(self, members, pattern):
        relation = GeneralizedRelation(members)
        expected = {m for m in relation.objects if leq(pattern, m)}
        assert set(relation.matching(pattern).objects) == expected


class TestJoinMeetLeqAgainstOracle:
    @given(record_lists, record_lists)
    @settings(max_examples=200, deadline=None)
    def test_join_agrees(self, left, right):
        g_left = GeneralizedRelation(left)
        g_right = GeneralizedRelation(right)
        joined = g_left.join(g_right)
        expected = naive_join(g_left.objects, g_right.objects)
        assert set(joined.objects) == set(expected)
        joined.check_cochain()

    @given(record_lists, record_lists)
    @settings(max_examples=150, deadline=None)
    def test_meet_agrees(self, left, right):
        g_left = GeneralizedRelation(left)
        g_right = GeneralizedRelation(right)
        met = g_left.meet(g_right)
        expected = naive_meet(g_left.objects, g_right.objects)
        assert set(met.objects) == set(expected)

    @given(record_lists, record_lists)
    @settings(max_examples=150, deadline=None)
    def test_relation_leq_agrees(self, left, right):
        g_left = GeneralizedRelation(left)
        g_right = GeneralizedRelation(right)
        expected = naive_relation_leq(g_left.objects, g_right.objects)
        assert g_left.leq(g_right) == expected


class TestKernelPruning:
    """The partition logic must actually prune — not just agree."""

    def test_join_pairs_pruned_on_mixed_signatures(self):
        left, right = mixed_signature_pair(60, key_cardinality=15, seed=3)
        g_left = GeneralizedRelation(left)
        g_right = GeneralizedRelation(right)
        joined, tried = kernel.join_pairs(g_left.objects, g_right.objects)
        pairs = len(g_left) * len(g_right)
        assert tried < pairs  # bucketing skipped conflicting-key pairs
        assert set(kernel.reduce_to_maximal(joined)) == set(
            naive_join(g_left.objects, g_right.objects)
        )

    def test_pruned_counter_advances(self):
        left, right = mixed_signature_pair(40, key_cardinality=10, seed=7)
        g_left = GeneralizedRelation(left)
        g_right = GeneralizedRelation(right)
        pruned = REGISTRY.counter("relation.join.pairs_pruned")
        tried = REGISTRY.counter("relation.join.pairs_tried")
        pairs = REGISTRY.counter("relation.join.pairs")
        pruned_before, tried_before, pairs_before = (
            pruned.value, tried.value, pairs.value,
        )
        g_left.join(g_right)
        assert pruned.value > pruned_before
        assert (pruned.value - pruned_before) + (
            tried.value - tried_before
        ) == pairs.value - pairs_before

    def test_flat_inputs_degenerate_to_hash_join_pruning(self):
        # Uniform signature, shared ground key: only equal-key pairs tried.
        left = [record(K=i % 5, A=i) for i in range(20)]
        right = [record(K=i % 5, B=i) for i in range(20)]
        g_left = GeneralizedRelation(left)
        g_right = GeneralizedRelation(right)
        joined, tried = kernel.join_pairs(g_left.objects, g_right.objects)
        assert tried == sum(
            1
            for mine in g_left.objects
            for theirs in g_right.objects
            if mine["K"] == theirs["K"]
        )
        assert set(kernel.reduce_to_maximal(joined)) == set(
            naive_join(g_left.objects, g_right.objects)
        )

    def test_atoms_never_meet_records(self):
        joined, tried = kernel.join_pairs(
            [Atom(1), Atom(2), record(a=1)], [Atom(1), record(a=1, b=2)]
        )
        # Only the equal-atom pair and the record×record pair are tried.
        assert tried == 2
        assert set(joined) == {Atom(1), record(a=1, b=2)}


class TestSignatureIndexProbes:
    @given(record_lists, records)
    @settings(max_examples=150, deadline=None)
    def test_any_above_below_agree_with_scans(self, members, probe):
        relation = GeneralizedRelation(members)
        index = kernel.SignatureIndex(relation.objects)
        assert index.any_above(probe) == any(
            leq(probe, m) for m in relation.objects
        )
        assert index.any_below(probe) == any(
            leq(m, probe) for m in relation.objects
        )
        assert set(index.members_above(probe)) == {
            m for m in relation.objects if leq(probe, m)
        }
        assert set(index.members_below(probe)) == {
            m for m in relation.objects if leq(m, probe)
        }

    def test_atom_probes(self):
        index = kernel.SignatureIndex([Atom(1), record(a=1)])
        assert index.any_above(Atom(1))
        assert not index.any_above(Atom(2))
        assert index.any_below(Atom(1))
        assert index.members_above(Atom(1)) == [Atom(1)]
        assert index.members_below(Atom(2)) == []
