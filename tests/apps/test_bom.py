"""Unit tests for the bill-of-materials application."""

import os

import pytest

from repro.apps.bom import (
    TOTAL_COST,
    TOTAL_MASS,
    clear_memos,
    components_of,
    explosion_size,
    is_tree_explosion,
    make_assembly,
    make_base_part,
    roll_up_memoized,
    roll_up_naive,
    total_cost,
    total_cost_memoized,
    total_mass,
)
from repro.errors import ReproError
from repro.persistence.intrinsic import PersistentHeap


def tree_explosion():
    """bike = frame + 2 wheels, all distinct objects: a tree."""
    frame = make_base_part("frame", 100.0, mass=3.0)
    wheel_a = make_base_part("wheel", 25.0, mass=1.5)
    wheel_b = make_base_part("wheel", 25.0, mass=1.5)
    return make_assembly(
        "bike", 10.0, [(frame, 1), (wheel_a, 1), (wheel_b, 1)], assembly_mass=0.5
    )


def dag_explosion(depth=6):
    """A ladder DAG: each level uses the previous level *twice*.

    Naive costing visits 2^depth leaves; memoized visits depth+1 parts.
    """
    part = make_base_part("bolt", 1.0, mass=0.1)
    for level in range(depth):
        part = make_assembly("asm%d" % level, 0.0, [(part, 1), (part, 1)])
    return part


class TestConstruction:
    def test_base_part_fields(self):
        bolt = make_base_part("bolt", 0.5, mass=0.01)
        assert bolt["IsBase"]
        assert bolt["PurchasePrice"] == 0.5
        assert components_of(bolt) == []

    def test_assembly_components(self):
        bolt = make_base_part("bolt", 0.5)
        plate = make_assembly("plate", 2.0, [(bolt, 4)])
        assert not plate["IsBase"]
        assert components_of(plate) == [(bolt, 4)]

    def test_bad_component_rejected(self):
        with pytest.raises(ReproError):
            make_assembly("x", 1.0, [("not a part", 1)])

    def test_nonpositive_qty_rejected(self):
        bolt = make_base_part("bolt", 0.5)
        with pytest.raises(ReproError):
            make_assembly("x", 1.0, [(bolt, 0)])


class TestCosting:
    def test_paper_recursion_on_tree(self):
        bike = tree_explosion()
        assert total_cost(bike) == 10.0 + 100.0 + 25.0 + 25.0

    def test_quantities_multiply(self):
        bolt = make_base_part("bolt", 0.5)
        plate = make_assembly("plate", 2.0, [(bolt, 4)])
        assert total_cost(plate) == 2.0 + 4 * 0.5

    def test_memoized_equals_naive(self):
        for explosion in (tree_explosion(), dag_explosion(5)):
            naive = total_cost(explosion)
            clear_memos(explosion)
            assert total_cost_memoized(explosion) == naive

    def test_naive_visits_explode_on_dag(self):
        """'the total cost will be needlessly recomputed' — visit counts
        grow with paths (2^depth), not parts (depth+1)."""
        part = dag_explosion(depth=8)
        naive = roll_up_naive(part, TOTAL_COST)
        clear_memos(part)
        memo = roll_up_memoized(part, TOTAL_COST)
        assert naive.value == memo.value
        assert naive.visits == 2 ** 9 - 1     # every path
        assert memo.visits == 9               # every part once

    def test_tree_explosion_gains_nothing(self):
        bike = tree_explosion()
        naive = roll_up_naive(bike, TOTAL_COST)
        clear_memos(bike)
        memo = roll_up_memoized(bike, TOTAL_COST)
        assert naive.visits == memo.visits == explosion_size(bike)

    def test_total_mass(self):
        bike = tree_explosion()
        assert total_mass(bike) == pytest.approx(0.5 + 3.0 + 1.5 + 1.5)

    def test_mass_and_cost_memos_independent(self):
        part = dag_explosion(4)
        roll_up_memoized(part, TOTAL_COST)
        mass = roll_up_memoized(part, TOTAL_MASS)
        assert mass.visits == 5  # cost memo does not shadow mass memo


class TestTransientMemo:
    def test_memo_fields_marked_transient(self):
        part = dag_explosion(3)
        roll_up_memoized(part, TOTAL_COST)
        assert "_TotalCost" in part
        assert "_TotalCost" in part.transient_fields

    def test_clear_memos(self):
        part = dag_explosion(3)
        roll_up_memoized(part, TOTAL_COST)
        cleared = clear_memos(part, TOTAL_COST)
        assert cleared == explosion_size(part)
        assert "_TotalCost" not in part

    def test_memo_not_persisted(self, tmp_path):
        """'there is no need for the additional information to persist':
        committing after a memoized run writes no memo fields."""
        path = str(tmp_path / "parts.log")
        heap = PersistentHeap(path)
        part = dag_explosion(4)
        heap.root("catalog", part)
        heap.commit()
        size = os.path.getsize(path)
        roll_up_memoized(part, TOTAL_COST)
        stats = heap.commit()
        # Parts already persisted and memos are transient: nothing changed.
        assert stats.objects_written == 0
        # The memo is marked transient before it is stored, so no part is
        # even re-encoded, and the commit appends nothing.
        assert os.path.getsize(path) == size
        heap.close()
        reopened = PersistentHeap(path).get_root("catalog")
        assert "_TotalCost" not in reopened

    def test_persistent_parts_survive_with_costs_recomputable(self, tmp_path):
        path = str(tmp_path / "parts.log")
        heap = PersistentHeap(path)
        part = dag_explosion(4)
        expected = total_cost_memoized(part)
        heap.root("catalog", part)
        heap.commit()
        heap.close()
        back = PersistentHeap(path).get_root("catalog")
        assert total_cost_memoized(back) == expected


class TestShapeDiagnostics:
    def test_tree_detected(self):
        assert is_tree_explosion(tree_explosion())

    def test_dag_detected(self):
        assert not is_tree_explosion(dag_explosion(2))

    def test_explosion_size(self):
        assert explosion_size(tree_explosion()) == 4
        assert explosion_size(dag_explosion(6)) == 7
