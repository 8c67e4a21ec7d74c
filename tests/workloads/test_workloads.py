"""Unit tests for the synthetic workload generators."""

import pytest

from repro.apps.bom import (
    components_of,
    explosion_size,
    is_tree_explosion,
    roll_up_naive,
)
from repro.extents.database import Database, TypeIndexedDatabase
from repro.workloads.employees import (
    EMPLOYEE_T,
    PERSON_T,
    STUDENT_T,
    WORKING_STUDENT_T,
    employee_database,
    populate,
    synthetic_hierarchy,
)
from repro.workloads.parts import (
    ladder_dag,
    layered_dag,
    random_dag,
    uniform_tree,
)
from repro.workloads.relations import (
    flat_join_pair,
    random_flat_relation,
    random_generalized_relation,
    random_partial_records,
)
from repro.types.subtyping import is_subtype


class TestEmployees:
    def test_size_and_heterogeneity(self):
        db = employee_database(200, seed=7)
        assert len(db) == 200
        carried = {m.carried for m in db}
        assert PERSON_T in carried and EMPLOYEE_T in carried

    def test_deterministic(self):
        a = employee_database(50, seed=3)
        b = employee_database(50, seed=3)
        assert [m.value for m in a] == [m.value for m in b]

    def test_different_seeds_differ(self):
        a = employee_database(50, seed=3)
        b = employee_database(50, seed=4)
        assert [m.value for m in a] != [m.value for m in b]

    def test_extraction_hierarchy_holds(self):
        db = employee_database(300, seed=11)
        persons = len(db.scan(PERSON_T))
        employees = len(db.scan(EMPLOYEE_T))
        working = len(db.scan(WORKING_STUDENT_T))
        assert persons == 300  # everything in the diamond is a person
        assert persons >= employees >= working

    def test_indexed_database_class(self):
        db = employee_database(100, database_class=TypeIndexedDatabase, seed=5)
        assert isinstance(db, TypeIndexedDatabase)
        assert len(db.scan(STUDENT_T)) == len(
            employee_database(100, seed=5).scan(STUDENT_T)
        )

    def test_synthetic_hierarchy_is_chain(self):
        levels = synthetic_hierarchy(depth=4, width=2)
        assert len(levels) == 5
        for upper, lower in zip(levels, levels[1:]):
            assert is_subtype(lower, upper)
            assert not is_subtype(upper, lower)

    def test_populate(self):
        levels = synthetic_hierarchy(3)
        db = populate(Database, levels, per_type=10, seed=2)
        assert len(db) == 40
        # everything is a subtype of the top level
        assert len(db.scan(levels[0])) == 40
        assert len(db.scan(levels[-1])) == 10


class TestParts:
    def test_uniform_tree_is_tree(self):
        tree = uniform_tree(depth=4, fan=2)
        assert is_tree_explosion(tree)
        assert explosion_size(tree) == 2 ** 5 - 1

    def test_ladder_is_small_but_pathy(self):
        dag = ladder_dag(depth=10, fan=2)
        assert explosion_size(dag) == 11
        assert not is_tree_explosion(dag)
        assert roll_up_naive(dag).visits == 2 ** 11 - 1

    def test_random_dag_zero_sharing_is_tree(self):
        dag = random_dag(depth=4, fan=2, sharing=0.0, seed=9)
        assert is_tree_explosion(dag)
        assert explosion_size(dag) == 2 ** 5 - 1

    def test_random_dag_visit_count_fixed_by_shape(self):
        # Paths (hence naive visits) depend only on depth and fan.
        for sharing in (0.0, 0.5, 0.9):
            dag = random_dag(depth=5, fan=2, sharing=sharing, seed=9)
            assert roll_up_naive(dag).visits == 2 ** 6 - 1

    def test_random_dag_sharing_dial(self):
        shared = random_dag(depth=6, fan=2, sharing=0.9, seed=9)
        unshared = random_dag(depth=6, fan=2, sharing=0.0, seed=9)
        assert explosion_size(shared) < explosion_size(unshared)
        shared_ratio = roll_up_naive(shared).visits / explosion_size(shared)
        unshared_ratio = roll_up_naive(unshared).visits / explosion_size(unshared)
        assert shared_ratio > unshared_ratio

    def test_random_dag_deterministic(self):
        a = roll_up_naive(random_dag(4, 2, 0.5, seed=4)).value
        b = roll_up_naive(random_dag(4, 2, 0.5, seed=4)).value
        assert a == b

    def test_random_dag_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            random_dag(-1)

    def test_layered_dag_has_the_heap_workload_shape(self):
        product = layered_dag((800, 400, 200, 100, 50), fan=3, seed=11)
        parts, seen = [product], {id(product)}
        for part in parts:  # grows as the walk finds parts
            for sub_part, __ in components_of(part):
                if id(sub_part) not in seen:
                    seen.add(id(sub_part))
                    parts.append(sub_part)
        assert len(parts) == explosion_size(product) == 1551
        assert sum(len(components_of(part)) for part in parts) == 2300
        assert not is_tree_explosion(product)
        # One path per use: 50 top assemblies, each level fanning out 3.
        assert roll_up_naive(product).visits == 1 + 50 + 150 + 450 + 1350 + 4050

    def test_layered_dag_uses_every_part_and_varies_by_seed(self):
        product = layered_dag((12, 4, 2), fan=3, seed=5)
        assert explosion_size(product) == 12 + 4 + 2 + 1
        assert roll_up_naive(product).value == roll_up_naive(
            layered_dag((12, 4, 2), fan=3, seed=5)).value
        assert roll_up_naive(product).value != roll_up_naive(
            layered_dag((12, 4, 2), fan=3, seed=6)).value

    def test_layered_dag_rejects_levels_it_cannot_cover(self):
        with pytest.raises(ValueError):
            layered_dag((10, 3), fan=3)
        with pytest.raises(ValueError):
            layered_dag(())


class TestRelations:
    def test_flat_relation_size(self):
        r = random_flat_relation(100, seed=1)
        assert len(r) == 100

    def test_key_cardinality_bounds_keys(self):
        r = random_flat_relation(100, ("K", "A"), key_cardinality=5, seed=1)
        keys = {row["K"] for row in r}
        assert keys <= set(range(5))

    def test_flat_join_pair_joins(self):
        left, right = flat_join_pair(50, key_cardinality=10, seed=2)
        joined = left.natural_join(right)
        assert len(joined) > 0

    def test_partial_records_null_fraction(self):
        records = random_partial_records(
            500, null_fraction=0.5, seed=3
        )
        defined = sum(len(r) for r in records)
        # Expect about half the 4 × 500 fields defined.
        assert 800 < defined < 1200

    def test_zero_null_fraction_total(self):
        records = random_partial_records(50, null_fraction=0.0, seed=4)
        assert all(len(r) == 4 for r in records)

    def test_generalized_relation_is_cochain(self):
        relation = random_generalized_relation(200, seed=5)
        relation.check_cochain()
        assert len(relation) <= 200

    def test_deterministic(self):
        a = random_generalized_relation(80, seed=6)
        b = random_generalized_relation(80, seed=6)
        assert a == b
