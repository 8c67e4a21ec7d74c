"""Equi-depth histogram construction and range selectivity."""

import pytest

from repro.stats.histogram import (
    EquiDepthHistogram,
    order_key,
    uniform_scalar_type,
)


class TestOrderKey:
    def test_totally_orders_mixed_types(self):
        values = [3, "b", 1, True, "a", 2.5]
        ordered = sorted(values, key=order_key)
        # Grouped by type name (bool < float < int < str), ordered within.
        assert ordered == [True, 2.5, 1, 3, "a", "b"]

    def test_bool_is_not_an_int(self):
        assert order_key(True) != order_key(1)
        assert order_key(False) != order_key(0)


class TestConstruction:
    def test_bounds_span_min_to_max(self):
        histogram = EquiDepthHistogram(range(100), buckets=4)
        assert histogram.bounds[0] == 0
        assert histogram.bounds[-1] == 99
        assert histogram.buckets == 4
        assert len(histogram.bounds) == 5

    def test_buckets_capped_by_value_count(self):
        histogram = EquiDepthHistogram([1, 2, 3], buckets=16)
        assert histogram.buckets == 3

    def test_empty_column(self):
        histogram = EquiDepthHistogram([], buckets=8)
        assert len(histogram) == 0
        assert histogram.buckets == 0
        assert histogram.fraction_below(42) == 0.0

    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram([1], buckets=0)


class TestFromSorted:
    def test_counts_match_the_expanded_values(self):
        distinct = [1, 4, 7, 9]
        counts = [3, 1, 5, 2]
        expanded = [v for v, n in zip(distinct, counts) for __ in range(n)]
        for buckets in (1, 2, 3, 5, 11, 16):
            direct = EquiDepthHistogram(expanded, buckets=buckets)
            compact = EquiDepthHistogram.from_sorted(distinct, counts, buckets)
            assert compact.bounds == direct.bounds
            assert compact.buckets == direct.buckets
            assert len(compact) == len(direct) == 11

    def test_empty_and_zero_buckets(self):
        assert len(EquiDepthHistogram.from_sorted([], [], 4)) == 0
        with pytest.raises(ValueError):
            EquiDepthHistogram.from_sorted([1], [1], 0)


class TestUniformScalarType:
    def test_one_scalar_type(self):
        assert uniform_scalar_type([3, 1, 2]) is int
        assert uniform_scalar_type(("a",)) is str
        assert uniform_scalar_type([0.5, -0.0]) is float
        assert uniform_scalar_type([True, False]) is bool

    def test_mixed_empty_or_non_scalar(self):
        assert uniform_scalar_type([1, True]) is None
        assert uniform_scalar_type([1, 1.0]) is None
        assert uniform_scalar_type([]) is None
        assert uniform_scalar_type([(1,), (2,)]) is None


class TestSelectivity:
    def test_uniform_values_interpolate_linearly(self):
        histogram = EquiDepthHistogram(range(1000), buckets=10)
        for operand, expected in ((250, 0.25), (500, 0.5), (900, 0.9)):
            assert histogram.selectivity("<", operand) == pytest.approx(
                expected, abs=0.02
            )

    def test_below_minimum_and_above_maximum(self):
        histogram = EquiDepthHistogram(range(10, 20), buckets=4)
        assert histogram.selectivity("<", 0) == 0.0
        assert histogram.selectivity(">", 100) == 0.0
        assert histogram.selectivity(">=", 0) == 1.0
        assert histogram.selectivity("<=", 100) == 1.0

    def test_complements_sum_to_one(self):
        histogram = EquiDepthHistogram([1, 5, 5, 5, 9, 12, 40], buckets=3)
        for operand in (0, 5, 9, 41):
            below = histogram.selectivity("<", operand)
            at_or_above = histogram.selectivity(">=", operand)
            assert below + at_or_above == pytest.approx(1.0)

    def test_skew_gets_narrow_buckets(self):
        # 90% of the mass at one value: most boundaries equal 7, so the
        # duplicate's row mass is visible to the bisection.
        values = [7] * 90 + list(range(10))
        histogram = EquiDepthHistogram(values, buckets=10)
        kept = 1.0 - histogram.selectivity("<", 7) - histogram.selectivity(
            ">", 7
        )
        assert kept == pytest.approx(0.9, abs=0.15)

    def test_string_buckets_use_midpoint(self):
        histogram = EquiDepthHistogram(["a", "b", "c", "d", "e"], buckets=2)
        below = histogram.selectivity("<", "ca")
        assert 0.0 < below < 1.0

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram([1, 2]).selectivity("~", 1)
