"""Unit tests for sorted indexes and index-aware query optimization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flat import FlatRelation
from repro.core.index import Catalog, SortedIndex
from repro.core.query import (
    IndexScan,
    eq,
    explain,
    ge,
    gt,
    le,
    lt,
    ne,
    optimize,
    scan,
)
from repro.errors import RelationError

EMP = FlatRelation(
    ("Name", "Salary"),
    [("A", 10), ("B", 20), ("C", 20), ("D", 30), ("E", 40)],
)


class TestSortedIndex:
    def test_lookup_eq(self):
        index = SortedIndex(EMP, "Salary")
        assert {row["Name"] for row in index.lookup_eq(20)} == {"B", "C"}
        assert index.lookup_eq(99) == []

    def test_lookup_range_inclusive(self):
        index = SortedIndex(EMP, "Salary")
        rows = index.lookup_range(20, 30)
        assert {row["Name"] for row in rows} == {"B", "C", "D"}

    def test_lookup_range_exclusive(self):
        index = SortedIndex(EMP, "Salary")
        rows = index.lookup_range(20, 30, low_inclusive=False,
                                  high_inclusive=False)
        assert rows == []

    def test_open_ranges(self):
        index = SortedIndex(EMP, "Salary")
        assert len(index.lookup_range(low=21)) == 2
        assert len(index.lookup_range(high=20)) == 3
        assert len(index.lookup_range()) == 5

    def test_select_matches_scan(self):
        index = SortedIndex(EMP, "Salary")
        for op, operand in (("==", 20), ("<", 25), ("<=", 20),
                            (">", 20), (">=", 30)):
            via_index = index.select(op, operand)
            from repro.core.query import Predicate

            predicate = Predicate(op, "Salary", operand)
            via_scan = EMP.select(predicate.evaluate)
            assert via_index == via_scan

    def test_lookup_range_on_empty_relation(self):
        empty = FlatRelation(("Name", "Salary"))
        index = SortedIndex(empty, "Salary")
        assert len(index) == 0
        assert index.lookup_range() == []
        assert index.lookup_range(0, 100) == []
        assert index.lookup_eq(10) == []

    def test_lookup_range_inverted_bounds_is_empty(self):
        index = SortedIndex(EMP, "Salary")
        assert index.lookup_range(30, 20) == []
        assert index.lookup_range(30, 20, low_inclusive=False,
                                  high_inclusive=False) == []

    def test_lookup_range_degenerate_single_value(self):
        index = SortedIndex(EMP, "Salary")
        assert {row["Name"] for row in index.lookup_range(20, 20)} == {
            "B", "C"
        }
        assert index.lookup_range(20, 20, low_inclusive=False) == []
        assert index.lookup_range(20, 20, high_inclusive=False) == []

    def test_lookup_range_bounds_between_keys(self):
        index = SortedIndex(EMP, "Salary")
        # Neither bound is a stored key: 15..35 still brackets 20,20,30.
        assert len(index.lookup_range(15, 35)) == 3
        assert index.lookup_range(41, 99) == []
        assert index.lookup_range(-5, 5) == []

    def test_lookup_range_mixed_type_keys(self):
        mixed = FlatRelation(
            ("Name", "Tag"),
            [("A", 1), ("B", 9), ("C", "high"), ("D", "low"), ("E", True)],
        )
        index = SortedIndex(mixed, "Tag")
        # The (type name, value) tagging groups by type: bool < int < str.
        ints = index.lookup_range(0, 100)
        assert {row["Name"] for row in ints} == {"A", "B"}
        strings = index.lookup_range("a", "z")
        assert {row["Name"] for row in strings} == {"C", "D"}
        assert {row["Name"] for row in index.lookup_eq(True)} == {"E"}
        # bool operands never capture the int 1, and vice versa.
        assert index.lookup_eq(1) == [{"Name": "A", "Tag": 1}]
        everything = index.lookup_range()
        assert len(everything) == 5

    def test_unsupported_operator(self):
        with pytest.raises(RelationError):
            SortedIndex(EMP, "Salary").select("!=", 20)

    def test_unknown_attribute(self):
        with pytest.raises(RelationError):
            SortedIndex(EMP, "Dept")

    def test_mixed_types_total_order(self):
        # NOTE: flat relations store raw Python rows, so True == 1 at the
        # row level (unlike the Atom layer); the index just needs a total
        # sort order across the remaining mixed types.
        mixed = FlatRelation(("K",), [(1,), ("a",), (2,), (3.5,)])
        index = SortedIndex(mixed, "K")
        assert len(index.lookup_eq("a")) == 1
        assert len(index.lookup_eq(1)) == 1
        assert len(index.lookup_eq(3.5)) == 1
        assert len(index.lookup_range()) == 4  # sort never raises

    def test_other_type_operands_on_a_one_type_column(self):
        # Salary holds ints only: bool and float sort before int and str
        # after it, exactly as the type-tagged order puts them.
        index = SortedIndex(EMP, "Salary")
        assert index.lookup_eq(True) == []
        assert index.lookup_eq(20.0) == []
        assert len(index.lookup_range(low=False)) == 5
        assert len(index.lookup_range(low=99.5)) == 5
        assert index.lookup_range(high=0.5) == []
        assert len(index.lookup_range(high="a")) == 5
        assert index.lookup_range(low="a") == []
        assert index.select("<", "x") == EMP

    def test_lookups_return_fresh_dicts(self):
        index = SortedIndex(EMP, "Salary")
        index.lookup_eq(10)[0]["Name"] = "changed"
        assert index.lookup_eq(10) == [{"Name": "A", "Salary": 10}]

    def test_select_keeps_schema_order(self):
        selected = SortedIndex(EMP, "Salary").select(">=", 30)
        assert selected.schema == ("Name", "Salary")
        assert set(selected.rows) == {("D", 30), ("E", 40)}

    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=30),
           st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_range_property(self, values, low, high):
        relation = FlatRelation(
            ("I", "V"), [(i, v) for i, v in enumerate(values)]
        )
        index = SortedIndex(relation, "V")
        got = {row["I"] for row in index.lookup_range(low, high)}
        expected = {i for i, v in enumerate(values) if low <= v <= high}
        assert got == expected


class TestCatalog:
    def test_mapping_protocol(self):
        catalog = Catalog({"emp": EMP})
        assert catalog["emp"] == EMP
        assert "emp" in catalog
        assert list(catalog) == ["emp"]
        with pytest.raises(KeyError):
            catalog["ghost"]

    def test_create_and_find_index(self):
        catalog = Catalog({"emp": EMP})
        catalog.create_index("emp", "Salary")
        assert catalog.index_on("emp", "Salary") is not None
        assert catalog.index_on("emp", "Name") is None
        assert catalog.indexes() == [("emp", "Salary")]

    def test_index_on_missing_relation(self):
        with pytest.raises(RelationError):
            Catalog().create_index("ghost", "X")

    def test_rebind_drops_indexes(self):
        catalog = Catalog({"emp": EMP})
        catalog.create_index("emp", "Salary")
        catalog.bind("emp", FlatRelation(("Name", "Salary"), [("Z", 1)]))
        assert catalog.index_on("emp", "Salary") is None


class TestIndexAwareOptimization:
    def _catalog(self):
        catalog = Catalog({"emp": EMP})
        catalog.create_index("emp", "Salary")
        return catalog

    def test_sargable_select_becomes_index_scan(self):
        plan = scan("emp").where(eq("Salary", 20))
        optimized = optimize(plan, self._catalog())
        assert isinstance(optimized, IndexScan)
        assert "IndexScan" in explain(optimized)

    def test_results_agree(self):
        catalog = self._catalog()
        for predicate in (eq("Salary", 20), lt("Salary", 25),
                          ge("Salary", 30), le("Salary", 20), gt("Salary", 20)):
            plan = scan("emp").where(predicate)
            assert optimize(plan, catalog).execute(catalog) == plan.execute(
                catalog
            )

    def test_non_sargable_not_rewritten(self):
        plan = scan("emp").where(ne("Salary", 20))
        optimized = optimize(plan, self._catalog())
        assert not isinstance(optimized, IndexScan)

    def test_unindexed_attribute_not_rewritten(self):
        plan = scan("emp").where(eq("Name", "A"))
        optimized = optimize(plan, self._catalog())
        assert not isinstance(optimized, IndexScan)

    def test_plain_dict_catalog_unaffected(self):
        plan = scan("emp").where(eq("Salary", 20))
        optimized = optimize(plan, {"emp": EMP})
        assert not isinstance(optimized, IndexScan)
        assert optimized.execute({"emp": EMP}) == plan.execute({"emp": EMP})

    def test_index_scan_through_join_pushdown(self):
        dept = FlatRelation(("Name", "Dept"), [("A", "S"), ("D", "M")])
        catalog = Catalog({"emp": EMP, "dept": dept})
        catalog.create_index("emp", "Salary")
        plan = scan("emp").join(scan("dept")).where(ge("Salary", 30))
        optimized = optimize(plan, catalog)
        assert "IndexScan" in explain(optimized)
        assert optimized.execute(catalog) == plan.execute(catalog)

    def test_fallback_when_index_dropped(self):
        catalog = self._catalog()
        plan = optimize(scan("emp").where(eq("Salary", 20)), catalog)
        assert isinstance(plan, IndexScan)
        catalog.bind("emp", EMP)  # drops the index
        # Executing the stale plan falls back to a scan, same result.
        assert plan.execute(catalog) == EMP.select(
            lambda row: row["Salary"] == 20
        )
