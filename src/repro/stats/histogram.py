"""Equi-depth histograms over one attribute's values.

An equi-depth (equi-height) histogram stores the attribute values found
at evenly spaced *quantiles* of the sorted value list — each bucket
holds the same number of rows, so skewed distributions get narrow
buckets where the data is dense and wide buckets where it is sparse.
Range selectivity is then "how many buckets (plus a fraction of one)
lie below the operand", which is exactly the interpolation real
optimizers do.

Values may be of mixed type within one column (the relational layer
permits it); ordering uses the same ``(type name, value)`` tagging
scheme as :class:`repro.core.index.SortedIndex`, so the sort is total
even when ints and strings share a column.  Interpolation *within* a
bucket is linear when both bucket bounds are numeric, and falls back to
the bucket midpoint otherwise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from repro.core.orders import _ATOM_TYPES

__all__ = ["EquiDepthHistogram", "order_key", "uniform_scalar_type"]


def order_key(value) -> Tuple[str, object]:
    """The total order every statistic and index sorts by: the value
    tagged with its type name, so bool sorts as its own type, not as
    int, and ints never meet strings."""
    return (type(value).__name__, value)


def uniform_scalar_type(values: Sequence[object]) -> Optional[type]:
    """The type of every value in ``values``, when that is exactly
    ``int``, ``float``, ``str`` or ``bool``; otherwise ``None``.

    Values of one such type are their own order keys: equality, hashing
    and ``<`` among them agree with :func:`order_key` (NaN, which is
    unordered, aside), so counting and sorting them needs no tagging.
    """
    kinds = set(map(type, values))
    if len(kinds) == 1:
        (kind,) = kinds
        if kind in _ATOM_TYPES:
            return kind
    return None


class EquiDepthHistogram:
    """Bucket boundaries at quantiles of a column's non-null values.

    ``bounds`` has ``buckets + 1`` entries: the minimum, the values at
    each interior quantile, and the maximum.  Duplicate-heavy columns
    produce runs of equal boundaries, which the bisection below turns
    into the duplicate's row mass — no separate frequency table needed.
    """

    __slots__ = ("_bounds", "_bound_keys", "_buckets", "_count")

    def __init__(self, values: Sequence[object], buckets: int = 16):
        ordered = sorted(values, key=order_key)
        self._build(ordered, [1] * len(ordered), buckets)

    @classmethod
    def from_sorted(
        cls,
        ordered: Sequence[object],
        counts: Sequence[int],
        buckets: int = 16,
    ) -> "EquiDepthHistogram":
        """The histogram of ``ordered[i]`` occurring ``counts[i]`` times,
        for distinct values already sorted by :func:`order_key`.

        That is the shape a ``Counter`` and one sort of its keys give, so
        the statistics collector never sorts a column's duplicates.
        """
        histogram = cls.__new__(cls)
        histogram._build(ordered, counts, buckets)
        return histogram

    def _build(self, ordered, counts, buckets) -> None:
        if buckets < 1:
            raise ValueError("a histogram needs at least one bucket")
        # ends[j]: how many values sort at or before ordered[j].
        ends = list(accumulate(counts))
        self._count = ends[-1] if ends else 0
        if not self._count:
            self._bounds: List[object] = []
            self._bound_keys: List[Tuple[str, object]] = []
            self._buckets = 0
            return
        buckets = min(buckets, self._count)
        last = self._count - 1
        self._bounds = [
            ordered[bisect_right(ends, round(i * last / buckets))]
            for i in range(buckets + 1)
        ]
        self._bound_keys = [order_key(b) for b in self._bounds]
        self._buckets = buckets

    def __len__(self) -> int:
        """The number of values the histogram was built over."""
        return self._count

    @property
    def buckets(self) -> int:
        """The number of equi-depth buckets (0 for an empty column)."""
        return self._buckets

    @property
    def bounds(self) -> Tuple[object, ...]:
        """The bucket boundary values, smallest to largest."""
        return tuple(self._bounds)

    def fraction_below(self, value, inclusive: bool = False) -> float:
        """The estimated fraction of values ``< value`` (``<=`` when
        ``inclusive``)."""
        if not self._bounds:
            return 0.0
        key = order_key(value)
        keys = self._bound_keys
        bisector = bisect_right if inclusive else bisect_left
        position = bisector(keys, key)
        if position == 0:
            return 0.0
        if position == len(keys):
            return 1.0
        # ``value`` falls inside the bucket [bounds[position-1],
        # bounds[position]); interpolate its position within it.
        low = self._bounds[position - 1]
        high = self._bounds[position]
        return ((position - 1) + _interpolate(low, high, value)) / self._buckets

    def selectivity(self, op: str, operand) -> float:
        """The estimated fraction of values satisfying ``value <op> operand``."""
        if op == "<":
            return self.fraction_below(operand, inclusive=False)
        if op == "<=":
            return self.fraction_below(operand, inclusive=True)
        if op == ">":
            return 1.0 - self.fraction_below(operand, inclusive=True)
        if op == ">=":
            return 1.0 - self.fraction_below(operand, inclusive=False)
        raise ValueError("histogram cannot estimate operator %r" % op)

    def __repr__(self) -> str:
        return "EquiDepthHistogram(buckets=%d, n=%d)" % (
            self._buckets,
            self._count,
        )


def _interpolate(low, high, value) -> float:
    """Where ``value`` sits within ``[low, high]``, as a fraction.

    Linear for numeric (non-bool) endpoints; 0.5 otherwise — strings
    and mixed-type buckets have no meaningful metric.
    """
    numeric = (int, float)
    if (
        isinstance(low, numeric)
        and isinstance(high, numeric)
        and isinstance(value, numeric)
        and not any(isinstance(v, bool) for v in (low, high, value))
        and high > low
    ):
        return min(1.0, max(0.0, (value - low) / (high - low)))
    return 0.5
