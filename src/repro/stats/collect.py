"""Per-attribute statistics collection (the ``ANALYZE`` of this system).

:func:`analyze` scans a relation once and produces a
:class:`TableStats`: for every attribute a :class:`ColumnStats` with
row/distinct counts, the null-or-absent fraction, min/max, a
most-common-values list, and an equi-depth histogram.  The cost model
(:mod:`repro.stats.cost`) turns these into measured selectivities,
replacing the fixed 0.1/0.5 guesses the optimizer shipped with.

Every statistic is exact and costs about what its column work costs: a
flat relation's rows are transposed once into columns, and each column
is counted once (one ``Counter``) and sorted once — only its distinct
values, shared by min/max and the histogram.  A column whose values all
have one scalar type is counted and sorted on the values themselves;
any other column on their type-tagged :func:`order_key`.  The
most-common values come from a top-k selection, not from sorting every
distinct value.

Partial records make collection interesting: a
:class:`~repro.core.relation.GeneralizedRelation` member may simply
*lack* an attribute.  An absent (or, equivalently, null) field counts
toward ``null_fraction`` and never toward the distinct count — the
paper's partiality is the relational world's null, and the statistics
treat it that way.  Nested (non-atom) field values participate in
distinct/MCV counting but are excluded from min/max and histograms,
which only make sense over the totally-ordered scalar tagging scheme.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.flat import FlatRelation
from repro.core.orders import Atom, PartialRecord
from repro.obs import metrics as _metrics
from repro.stats.histogram import (
    EquiDepthHistogram,
    order_key,
    uniform_scalar_type,
)

__all__ = ["ColumnStats", "TableStats", "analyze", "analyze_extent"]

DEFAULT_BUCKETS = 16
DEFAULT_MCV_LIMIT = 8

_SCALAR_TYPES = (int, float, str, bool)


@dataclass(frozen=True)
class ColumnStats:
    """Measured statistics for one attribute of one relation.

    ``mcvs`` pairs each most-common value with its fraction *of all
    rows* (not of non-null rows), so an MCV hit is directly an equality
    selectivity.  ``null_fraction`` counts rows where the attribute is
    null **or absent** — partial records land here, never in
    ``distinct_count``.
    """

    attribute: str
    row_count: int
    value_count: int  # rows where the attribute is present
    distinct_count: int
    null_fraction: float
    min_value: Optional[object]
    max_value: Optional[object]
    mcvs: Tuple[Tuple[object, float], ...]
    histogram: Optional[EquiDepthHistogram]

    # -- selectivities -----------------------------------------------------

    def eq_selectivity(self, value) -> float:
        """The fraction of rows whose attribute equals ``value``.

        An MCV hit answers exactly; otherwise the non-MCV row mass is
        spread evenly over the remaining distinct values (the classic
        1/distinct assumption, restricted to the uncommon tail).
        """
        if self.row_count == 0:
            return 0.0
        key = order_key(value)
        for mcv_value, fraction in self.mcvs:
            if order_key(mcv_value) == key:
                return fraction
        covered = sum(fraction for __, fraction in self.mcvs)
        rest_fraction = max(0.0, (1.0 - self.null_fraction) - covered)
        rest_distinct = self.distinct_count - len(self.mcvs)
        if rest_distinct <= 0:
            # Every distinct value is an MCV; an unseen operand matches
            # nothing (the 1-row estimate floor keeps plans sane).
            return 0.0
        return rest_fraction / rest_distinct

    def range_selectivity(self, op: str, operand) -> Optional[float]:
        """The fraction of rows satisfying ``attribute <op> operand``.

        ``None`` when the column has no histogram (no scalar values),
        letting the cost model fall back to its default.
        """
        if self.histogram is None or len(self.histogram) == 0:
            return None
        value_fraction = 1.0 - self.null_fraction
        return self.histogram.selectivity(op, operand) * value_fraction

    def format(self) -> str:
        """One line of the ``:stats <name>`` table."""
        span = (
            "%r..%r" % (self.min_value, self.max_value)
            if self.min_value is not None
            else "-"
        )
        common = ", ".join(
            "%r %.0f%%" % (value, fraction * 100.0)
            for value, fraction in self.mcvs[:3]
        )
        return "%-12s distinct=%-5d nulls=%4.0f%%  %-22s %s" % (
            self.attribute,
            self.distinct_count,
            self.null_fraction * 100.0,
            span,
            common or "-",
        )


@dataclass(frozen=True)
class TableStats:
    """Everything :func:`analyze` learned about one relation.

    ``epoch`` is the staleness counter of the underlying container at
    collection time (a :class:`~repro.core.index.Catalog` bind epoch or
    an extent's mutation count); comparing it against the current value
    tells whether the statistics still describe the data.
    """

    name: Optional[str]
    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    epoch: int = 0

    def column(self, attribute: str) -> Optional[ColumnStats]:
        """The statistics for ``attribute``, if collected."""
        return self.columns.get(attribute)

    def format(self) -> str:
        """A human-readable table (what the REPL's ``:stats <name>`` prints)."""
        header = "%s: %d rows, %d columns (epoch %d)" % (
            self.name or "<anonymous>",
            self.row_count,
            len(self.columns),
            self.epoch,
        )
        lines = [header]
        for attribute in sorted(self.columns):
            lines.append("  " + self.columns[attribute].format())
        return "\n".join(lines)


def analyze(
    relation,
    name: Optional[str] = None,
    buckets: int = DEFAULT_BUCKETS,
    mcv_limit: int = DEFAULT_MCV_LIMIT,
    epoch: int = 0,
) -> TableStats:
    """Collect :class:`TableStats` for a relation in one pass.

    Accepts a :class:`~repro.core.flat.FlatRelation`, a
    :class:`~repro.core.relation.GeneralizedRelation` (whose partial
    records may lack attributes), or any iterable of mappings.  A flat
    relation's rows are transposed once into columns; anything else is
    walked member by member.  Each column is then counted once and its
    distinct values sorted once.  ``buckets`` (at least 1) caps the
    histogram's buckets and ``mcv_limit`` (at least 0) the number of
    most-common values kept.
    """
    if buckets < 1:
        raise ValueError("analyze needs at least one histogram bucket")
    if mcv_limit < 0:
        raise ValueError("analyze needs a non-negative mcv_limit")
    started = time.perf_counter()
    row_count, values_by_attribute = _gather(relation)
    flat = relation if isinstance(relation, FlatRelation) else None
    columns = {
        attribute: _column_stats(
            attribute, values, row_count, buckets, mcv_limit, flat
        )
        for attribute, values in values_by_attribute.items()
    }
    registry = _metrics.REGISTRY
    registry.counter("stats.analyze.runs").inc()
    registry.counter("stats.analyze.rows").inc(row_count)
    registry.histogram("stats.analyze.seconds").observe(
        time.perf_counter() - started
    )
    return TableStats(
        name=name, row_count=row_count, columns=columns, epoch=epoch
    )


def analyze_extent(database, typ, name: Optional[str] = None) -> TableStats:
    """Statistics over the records of one extent of a heterogeneous database.

    Scans ``database`` for values of ``typ`` and analyzes their (partial)
    records; the result is stamped with the database's current
    ``mutation_count``, so ``stats.epoch != database.mutation_count``
    detects staleness after later inserts or removals.
    """
    # Analyze the raw member list, not a GeneralizedRelation of it — the
    # cochain reduction would collapse subsumed records and skew counts.
    members = [dynamic.value for dynamic in database.scan(typ)]
    return analyze(
        members,
        name=name if name is not None else str(typ),
        epoch=getattr(database, "mutation_count", 0),
    )


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _gather(relation) -> Tuple[int, Dict[str, Sequence[object]]]:
    """One pass over ``relation``: present values per attribute.

    A flat relation is total, so its rows transpose straight into one
    column per attribute.  Elsewhere, attributes a row lacks simply
    contribute nothing to that row's lists; ``row_count`` minus the
    list length is the absent count.
    """
    if isinstance(relation, FlatRelation):
        return len(relation.rows), dict(zip(relation.schema, relation.columns()))
    values: Dict[str, List[object]] = {}
    row_count = 0
    for member in relation:
        row_count += 1
        fields = _fields_of(member)
        if fields is None:
            continue
        for label, value in fields:
            if value is None:
                continue  # an explicit null is as absent as a missing field
            values.setdefault(label, []).append(value)
    return row_count, values


def _fields_of(member) -> Optional[Iterable[Tuple[str, object]]]:
    if isinstance(member, PartialRecord):
        return [
            (label, value.payload if isinstance(value, Atom) else value)
            for label, value in member.items()
        ]
    if isinstance(member, Mapping):
        return list(member.items())
    return None  # a bare atom in a generalized relation: no attributes


def _column_stats(
    attribute: str,
    present: Sequence[object],
    row_count: int,
    buckets: int,
    mcv_limit: int,
    flat: Optional[FlatRelation] = None,
) -> ColumnStats:
    kind = uniform_scalar_type(present)
    if kind is not None:
        # One scalar type: the values are their own order keys.
        counts = Counter(present)
        value_of, tag = _itself, _itself
    else:
        counts = Counter(map(order_key, present))
        value_of, tag = itemgetter(1), order_key
    zero = tag(0.0)
    if flat is not None and kind in (float, None) and zero in counts:
        # ±0.0 share a key, spelled as first met; a walk of the relation
        # (``repr`` row order) decides that spelling, and it ranks MCV ties.
        position = flat.schema.index(attribute)
        first = min(
            (repr(row), row[position]) for row in flat.rows
            if type(row[position]) is float and row[position] == 0.0
        )[1]
        counts[tag(first)] = counts.pop(zero)
    if kind is not None:
        ordered = scalars = sorted(counts)
    else:
        ordered = sorted(
            key for key in counts if isinstance(key[1], _SCALAR_TYPES)
        )
        scalars = [key[1] for key in ordered]
    histogram = (
        EquiDepthHistogram.from_sorted(
            scalars, list(map(counts.__getitem__, ordered)), buckets
        )
        if scalars
        else None
    )
    return ColumnStats(
        attribute=attribute,
        row_count=row_count,
        value_count=len(present),
        distinct_count=len(counts),
        null_fraction=(
            (row_count - len(present)) / row_count if row_count else 0.0
        ),
        min_value=scalars[0] if scalars else None,
        max_value=scalars[-1] if scalars else None,
        mcvs=tuple(
            (value_of(key), counts[key] / row_count)
            for key in _most_common(counts, mcv_limit)
        ),
        histogram=histogram,
    )


def _itself(value):
    return value


def _most_common(counts: Counter, limit: int) -> List[object]:
    """The first ``limit`` keys of ``counts`` ranked by descending count,
    then by ``repr`` of the order key.

    Exactly ``sorted(counts, key=lambda k: (-counts[k], repr(k)))
    [:limit]`` without ranking every distinct value: every key counted
    more often than the ``limit``-th largest count is in, and the rest
    of the places go to the keys at that count with the smallest
    ``repr``.  A raw scalar key's ``repr`` ranks like the ``repr`` of
    its ``order_key``, ``"('int', " + repr(value) + ")"``: the prefix is
    shared, and where one value's ``repr`` is a proper prefix of
    another's (``1`` and ``12``, ``1.5`` and ``1.5e+16``) the longer one
    goes on with a digit, ``.``, ``e``, ``+`` or ``-``, which all sort
    after the closing ``)``.
    """
    if not counts or limit == 0:
        return []
    cut = heapq.nlargest(limit, counts.values())[-1]
    above = sorted(
        (key for key, count in counts.items() if count > cut),
        key=lambda key: (-counts[key], repr(key)),
    )
    tied = [key for key, count in counts.items() if count == cut]
    return above + heapq.nsmallest(limit - len(above), tied, key=repr)
