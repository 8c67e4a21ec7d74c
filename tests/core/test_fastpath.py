"""Flat detection, and the generalized join against the classical one.

``join_with_fastpath`` is the generalized join under the name DBPL's
``rjoin`` calls; on flat operands it must agree with the flat hash join
(the E4 claim), and everywhere with ``GeneralizedRelation.join``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flat import FlatRelation
from repro.core.orders import record
from repro.core.relation import (
    GeneralizedRelation,
    flat_schema_of,
    join_with_fastpath,
)
from repro.obs.metrics import REGISTRY
from repro.workloads.relations import flat_join_pair, random_partial_records

FLAT_ROWS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=8
)


class TestFlatDetection:
    def test_flat_relation_detected(self):
        relation = GeneralizedRelation([{"A": 1, "B": 2}, {"A": 3, "B": 4}])
        assert flat_schema_of(relation) == ("A", "B")

    def test_partial_member_rejected(self):
        relation = GeneralizedRelation([{"A": 1, "B": 2}, {"A": 3}])
        assert flat_schema_of(relation) is None

    def test_nested_member_rejected(self):
        relation = GeneralizedRelation([{"A": {"X": 1}}])
        assert flat_schema_of(relation) is None

    def test_empty_relation_has_empty_schema(self):
        # vacuously flat, schema unknown → None means "not usable"
        assert flat_schema_of(GeneralizedRelation()) is None


class TestFastpathEquivalence:
    def test_matches_generic_on_flat(self):
        left, right = flat_join_pair(40, key_cardinality=8, seed=7)
        g_left, g_right = left.to_generalized(), right.to_generalized()
        assert join_with_fastpath(g_left, g_right) == g_left.join(g_right)

    def test_falls_back_on_partial(self):
        left = GeneralizedRelation([{"K": 1, "A": 2}, {"K": 2}])
        right = GeneralizedRelation([{"K": 1, "B": 3}])
        assert join_with_fastpath(left, right) == left.join(right)

    def test_empty_operand_short_circuits(self):
        empty = GeneralizedRelation()
        other = GeneralizedRelation([{"A": 1}])
        assert join_with_fastpath(empty, other) == other.join(empty)
        assert join_with_fastpath(other, empty) == GeneralizedRelation()
        assert join_with_fastpath(empty, empty) == GeneralizedRelation()

    def test_empty_partial_operand_short_circuits(self):
        # Even a non-flat operand joins with the empty relation to empty;
        # the short-circuit must not require flat schemas.
        nested = GeneralizedRelation([{"A": {"X": 1}}, {"B": 2}])
        empty = GeneralizedRelation()
        assert join_with_fastpath(nested, empty) == nested.join(empty)

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_flat_inputs(self, n_left, n_right, cardinality):
        left = GeneralizedRelation(
            record(K=i % (cardinality + 1), A=i) for i in range(n_left)
        )
        right = GeneralizedRelation(
            record(K=i % (cardinality + 1), B=i) for i in range(n_right)
        )
        assert join_with_fastpath(left, right) == left.join(right)

    @given(FLAT_ROWS, FLAT_ROWS)
    @settings(max_examples=80, deadline=None)
    def test_property_flat_hash_join_equals_kernel_join(self, left, right):
        flat_left = FlatRelation(("K", "A"), left)
        flat_right = FlatRelation(("K", "B"), right)
        kernel = flat_left.to_generalized().join(flat_right.to_generalized())
        assert flat_left.natural_join(flat_right).to_generalized() == kernel

    @given(st.integers(min_value=0, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_property_partial_inputs(self, seed):
        left = GeneralizedRelation(
            random_partial_records(10, null_fraction=0.4, seed=seed)
        )
        right = GeneralizedRelation(
            random_partial_records(10, null_fraction=0.4, seed=seed + 100)
        )
        assert join_with_fastpath(left, right) == left.join(right)


class TestFastpathCounters:
    """The kernel join's counters make its work measurable."""

    def test_generic_join_counts_calls_and_pairs(self):
        left = GeneralizedRelation([{"K": 1, "A": 2}, {"K": 2, "A": 3}])
        right = GeneralizedRelation([{"K": 1, "B": 3}])
        joins = REGISTRY.counter("relation.join")
        pairs = REGISTRY.counter("relation.join.pairs")
        joins_before, pairs_before = joins.value, pairs.value
        left.join(right)
        assert joins.value == joins_before + 1
        assert pairs.value == pairs_before + 2

    def test_insert_counted(self):
        relation = GeneralizedRelation([{"A": 1}])
        inserts = REGISTRY.counter("relation.insert")
        before = inserts.value
        relation.insert({"A": 2})
        assert inserts.value == before + 1
