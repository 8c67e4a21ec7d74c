"""ANALYZE: one-pass statistics over flat, generalized, and extent data."""

import pytest

from repro.core.flat import FlatRelation
from repro.core.orders import record
from repro.core.relation import GeneralizedRelation
from repro.extents.database import Database
from repro.obs.metrics import REGISTRY
from repro.stats.collect import analyze, analyze_extent
from repro.types.kinds import INT, STRING, record_type
from repro.workloads.queries import EMPLOYEES

EMP_T = record_type(Name=STRING, Salary=INT)


class TestFlatRelations:
    def test_row_and_distinct_counts(self):
        stats = analyze(EMPLOYEES, name="emp")
        assert stats.row_count == 5
        dept = stats.column("Dept")
        assert dept.distinct_count == 3
        assert dept.value_count == 5
        assert dept.null_fraction == 0.0

    def test_min_max_and_mcvs(self):
        stats = analyze(EMPLOYEES)
        salary = stats.column("Salary")
        assert salary.min_value == 40
        assert salary.max_value == 60
        mcv = dict(salary.mcvs)
        assert mcv[40] == pytest.approx(0.4)

    def test_eq_selectivity_mcv_hit_is_exact(self):
        dept = analyze(EMPLOYEES).column("Dept")
        assert dept.eq_selectivity("Manuf") == pytest.approx(0.4)
        assert dept.eq_selectivity("Sales") == pytest.approx(0.4)
        assert dept.eq_selectivity("Admin") == pytest.approx(0.2)

    def test_eq_selectivity_unseen_value(self):
        dept = analyze(EMPLOYEES).column("Dept")
        # All three distinct values are MCVs, so an unseen operand
        # matches nothing.
        assert dept.eq_selectivity("Ghost") == 0.0

    def test_eq_selectivity_uncommon_tail(self):
        rows = [("v%d" % i, i % 3) for i in range(30)]
        relation = FlatRelation(("Name", "Tag"), rows)
        name = analyze(relation, mcv_limit=4).column("Name")
        # 4 of 30 distinct values are MCVs; the rest of the mass spreads
        # over the remaining 26.
        assert name.eq_selectivity("zzz") == pytest.approx(
            (1.0 - 4 / 30) / 26
        )

    def test_range_selectivity_scales_by_null_fraction(self):
        stats = analyze(EMPLOYEES)
        salary = stats.column("Salary")
        assert salary.range_selectivity("<=", 60) == pytest.approx(1.0)
        assert salary.range_selectivity("<", 40) == pytest.approx(0.0)

    def test_analyze_bumps_metrics(self):
        runs = REGISTRY.counter("stats.analyze.runs").value
        rows = REGISTRY.counter("stats.analyze.rows").value
        analyze(EMPLOYEES)
        assert REGISTRY.counter("stats.analyze.runs").value == runs + 1
        assert REGISTRY.counter("stats.analyze.rows").value == rows + 5


class TestOptionValidation:
    def test_negative_mcv_limit_raises(self):
        # A 5-row, all-distinct column used to yield 4 MCVs (ranked[:-1]).
        relation = FlatRelation(("K",), [(i,) for i in range(5)])
        with pytest.raises(ValueError, match="mcv_limit"):
            analyze(relation, mcv_limit=-1)

    def test_zero_buckets_raises(self):
        with pytest.raises(ValueError, match="bucket"):
            analyze(EMPLOYEES, buckets=0)

    def test_bad_options_raise_on_empty_relations_too(self):
        empty = FlatRelation(("K", "V"))
        with pytest.raises(ValueError, match="bucket"):
            analyze(empty, buckets=0)
        with pytest.raises(ValueError, match="mcv_limit"):
            analyze(empty, mcv_limit=-1)
        with pytest.raises(ValueError, match="bucket"):
            analyze([], buckets=0)

    def test_boundary_options_are_accepted(self):
        stats = analyze(EMPLOYEES, buckets=1, mcv_limit=0)
        salary = stats.column("Salary")
        assert salary.mcvs == ()
        assert salary.histogram.buckets == 1


class TestColumnKeys:
    def test_one_scalar_type_and_mixed_columns_agree_on_counts(self):
        # 1, 1.0 and True are one value to Python but three to order_key.
        relation = FlatRelation(
            ("K", "V"), [("a", 1), ("b", 1.0), ("c", True), ("d", 1)]
        )
        v = analyze(relation, mcv_limit=8).column("V")
        assert v.distinct_count == 3
        assert [(type(value), f) for value, f in v.mcvs] == [
            (int, 0.5), (bool, 0.25), (float, 0.25)
        ]
        assert v.min_value is True and v.max_value == 1

    def test_mcv_ties_break_by_repr_of_the_order_key(self):
        relation = FlatRelation(("K",), [(i,) for i in (2, 9, 10, 11, -1)])
        k = analyze(relation, mcv_limit=3).column("K")
        # repr order: "('int', -1)" < "('int', 10)" < "('int', 11)" < ...
        assert [value for value, __ in k.mcvs] == [-1, 10, 11]

    def test_counts_outrank_the_tie_break(self):
        rows = [(i, v) for i, v in enumerate([5, 5, 5, 3, 3, 10, 11, 12])]
        v = analyze(FlatRelation(("I", "V"), rows), mcv_limit=3).column("V")
        assert [value for value, __ in v.mcvs] == [5, 3, 10]


class TestPartialRecords:
    def test_absent_fields_count_as_nulls_not_distinct(self):
        relation = GeneralizedRelation(
            [
                record(Name="K", Addr="Philadelphia"),
                record(Name="J", Addr="Glasgow"),
                record(Name="Q"),  # partial: no Addr
                record(Salary=40),  # partial: no Name, no Addr
            ]
        )
        stats = analyze(relation, name="people")
        assert stats.row_count == 4
        addr = stats.column("Addr")
        assert addr.null_fraction == pytest.approx(0.5)
        assert addr.distinct_count == 2
        name = stats.column("Name")
        assert name.null_fraction == pytest.approx(0.25)
        assert name.distinct_count == 3

    def test_explicit_none_is_null(self):
        stats = analyze(
            [{"A": 1, "B": None}, {"A": 2, "B": 7}], name="mixed"
        )
        b = stats.column("B")
        assert b.null_fraction == pytest.approx(0.5)
        assert b.distinct_count == 1

    def test_nested_values_excluded_from_histogram(self):
        relation = GeneralizedRelation(
            [
                record(Name="K", Addr=record(City="Glasgow")),
                record(Name="J", Addr="Penn"),
            ]
        )
        addr = analyze(relation).column("Addr")
        # The nested record participates in distinct counting but not in
        # min/max or the histogram.
        assert addr.distinct_count == 2
        assert addr.min_value == "Penn"
        assert addr.max_value == "Penn"
        assert len(addr.histogram) == 1

    def test_format_mentions_rows_and_epoch(self):
        stats = analyze(EMPLOYEES, name="emp", epoch=3)
        text = stats.format()
        assert text.startswith("emp: 5 rows, 3 columns (epoch 3)")
        assert "Dept" in text


class TestExtents:
    def test_analyze_extent_stamps_mutation_count(self):
        db = Database()
        db.insert(record(Name="K", Salary=40), EMP_T)
        db.insert(record(Name="J", Salary=50), EMP_T)
        stats = analyze_extent(db, EMP_T, name="employees")
        assert stats.row_count == 2
        assert stats.epoch == db.mutation_count == 2
        salary = stats.column("Salary")
        assert salary.distinct_count == 2

    def test_mutations_make_extent_stats_stale(self):
        db = Database()
        member = db.insert(record(Name="K", Salary=40), EMP_T)
        stats = analyze_extent(db, EMP_T)
        assert stats.epoch == db.mutation_count
        db.remove(member)
        assert stats.epoch != db.mutation_count
