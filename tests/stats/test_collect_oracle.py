"""ANALYZE and SortedIndex against their row-at-a-time originals.

The collector transposes a flat relation once, counts each column once,
sorts only its distinct values and picks the most-common values by a
top-k selection; the index sorts row tuples once and builds dicts only
for the rows a lookup returns.  Both choose raw values as keys when a
column holds one scalar type.  The oracle below is the code they
replaced — ``_gather``/``_column_stats`` reading columns in ``repr`` row
order, a histogram that sorts every value, and an index of per-row
dicts under type-tagged keys — and every statistic and every lookup
must agree with it.

Statistics compare by :func:`order_key`: ``-0.0`` and ``0.0`` are one
class, and which of them stands for it depends on scan order, which the
new code does not keep.  MCV order must match exactly, repr tie-break
included.

NaN is never drawn: it is unequal to itself and unordered, so neither
side's counts nor sorts are defined on it and there is nothing to agree
with.
"""

from bisect import bisect_left, bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flat import FlatRelation
from repro.core.index import SortedIndex
from repro.core.orders import PartialRecord, from_python
from repro.core.relation import GeneralizedRelation
from repro.stats.collect import _fields_of, analyze
from repro.stats.histogram import order_key
from repro.workloads.queries import DEPARTMENTS, EMPLOYEES, skewed_orders
from repro.workloads.relations import star_catalog

# ---------------------------------------------------------------------------
# The oracle: the row-at-a-time collector and index this suite replaced.
# ---------------------------------------------------------------------------

_SCALAR_TYPES = (int, float, str, bool)


def oracle_gather(relation):
    values = {}
    if isinstance(relation, FlatRelation):
        ordered_rows = sorted(relation.rows, key=repr)
        for position, attribute in enumerate(relation.schema):
            values[attribute] = [row[position] for row in ordered_rows]
        return len(relation), values
    row_count = 0
    for member in relation:
        row_count += 1
        fields = _fields_of(member)
        if fields is None:
            continue
        for label, value in fields:
            if value is None:
                continue
            values.setdefault(label, []).append(value)
    return row_count, values


def oracle_histogram(values, buckets):
    """(count, buckets, bounds) of the sort-everything histogram."""
    ordered = sorted(values, key=order_key)
    if not ordered:
        return 0, 0, []
    buckets = min(buckets, len(ordered))
    last = len(ordered) - 1
    bounds = [ordered[round(i * last / buckets)] for i in range(buckets + 1)]
    return len(ordered), buckets, bounds


def oracle_column(present, row_count, buckets, mcv_limit):
    scalars = [v for v in present if isinstance(v, _SCALAR_TYPES)]
    counts = Counter(order_key(v) for v in present)
    originals = {}
    for v in present:
        originals.setdefault(order_key(v), v)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    mcvs = [
        (originals[key], count / row_count)
        for key, count in ranked[:mcv_limit]
        if count > 0
    ]
    ordered = sorted(scalars, key=order_key)
    return {
        "row_count": row_count,
        "value_count": len(present),
        "distinct_count": len(counts),
        "null_fraction": (
            (row_count - len(present)) / row_count if row_count else 0.0
        ),
        "min_value": ordered[0] if ordered else None,
        "max_value": ordered[-1] if ordered else None,
        "mcvs": mcvs,
        "histogram": oracle_histogram(ordered, buckets) if ordered else None,
    }


def oracle_analyze(relation, buckets, mcv_limit):
    row_count, values = oracle_gather(relation)
    return row_count, {
        attribute: oracle_column(present, row_count, buckets, mcv_limit)
        for attribute, present in values.items()
    }


class OracleIndex:
    """Row dicts sorted by their type-tagged key."""

    def __init__(self, relation, attribute):
        pairs = sorted(
            ((order_key(row[attribute]), row) for row in relation),
            key=lambda pair: pair[0],
        )
        self.keys = [key for key, __ in pairs]
        self.rows = [row for __, row in pairs]

    def lookup_eq(self, value):
        key = order_key(value)
        low = bisect_left(self.keys, key)
        high = bisect_right(self.keys, key)
        return [dict(row) for row in self.rows[low:high]]

    def lookup_range(self, low=None, high=None, low_inclusive=True,
                     high_inclusive=True):
        start, end = 0, len(self.rows)
        if low is not None:
            key = order_key(low)
            start = (bisect_left if low_inclusive else bisect_right)(
                self.keys, key
            )
        if high is not None:
            key = order_key(high)
            end = (bisect_right if high_inclusive else bisect_left)(
                self.keys, key
            )
        return [dict(row) for row in self.rows[start:end]]


# ---------------------------------------------------------------------------
# Comparison by order_key
# ---------------------------------------------------------------------------


def tagged(value):
    return None if value is None else order_key(value)


def assert_same_stats(relation, buckets, mcv_limit):
    stats = analyze(relation, buckets=buckets, mcv_limit=mcv_limit)
    row_count, expected = oracle_analyze(relation, buckets, mcv_limit)
    assert stats.row_count == row_count
    assert set(stats.columns) == set(expected)
    for attribute, want in expected.items():
        got = stats.columns[attribute]
        assert got.attribute == attribute
        assert got.row_count == want["row_count"]
        assert got.value_count == want["value_count"]
        assert got.distinct_count == want["distinct_count"]
        assert got.null_fraction == want["null_fraction"]
        assert tagged(got.min_value) == tagged(want["min_value"])
        assert tagged(got.max_value) == tagged(want["max_value"])
        assert [(order_key(v), f) for v, f in got.mcvs] == [
            (order_key(v), f) for v, f in want["mcvs"]
        ], attribute
        if want["histogram"] is None:
            assert got.histogram is None
        else:
            count, bucket_count, bounds = want["histogram"]
            assert len(got.histogram) == count
            assert got.histogram.buckets == bucket_count
            assert [order_key(b) for b in got.histogram.bounds] == [
                order_key(b) for b in bounds
            ]


def row_multiset(rows, schema):
    """Rows (dicts or tuples) as a multiset that keeps 1, 1.0 and True
    apart."""
    if rows and isinstance(rows[0], dict):
        rows = [tuple(row[a] for a in schema) for row in rows]
    return Counter(tuple(map(order_key, row)) for row in rows)


def assert_same_index(relation, attribute, probes, ranges):
    index = SortedIndex(relation, attribute)
    oracle = OracleIndex(relation, attribute)
    schema = relation.schema
    assert len(index) == len(oracle.rows)
    for value in probes:
        assert row_multiset(index.lookup_eq(value), schema) == row_multiset(
            oracle.lookup_eq(value), schema
        ), value
        for op, low, high, low_in, high_in in (
            ("<", None, value, True, False),
            ("<=", None, value, True, True),
            (">", value, None, False, True),
            (">=", value, None, True, True),
        ):
            selected = index.select(op, value)
            assert selected.schema == schema
            assert row_multiset(list(selected.rows), schema) == row_multiset(
                oracle.lookup_range(low, high, low_in, high_in), schema
            ), (op, value)
        selected = index.select("==", value)
        assert row_multiset(list(selected.rows), schema) == row_multiset(
            oracle.lookup_eq(value), schema
        )
    for low, high, low_in, high_in in ranges:
        assert row_multiset(
            index.lookup_range(low, high, low_in, high_in), schema
        ) == row_multiset(
            oracle.lookup_range(low, high, low_in, high_in), schema
        ), (low, high, low_in, high_in)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

INTS = st.one_of(st.integers(-25, 25), st.integers())
FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, 1.55, 1e16, 1e160, -2.5]),
)
# Quotes, backslashes and characters that sort below ")" make repr
# tie-breaks differ from value order and from each other.
STRS = st.text(alphabet="ab'\" \\!)(", max_size=3)
BOOLS = st.booleans()
# Equal under ==, distinct under order_key (or, for ±0.0, equal both ways).
TRICKY = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False])
MIXED = st.one_of(INTS, FLOATS, STRS, BOOLS, TRICKY)
COLUMN_KINDS = (INTS, FLOATS, STRS, BOOLS, TRICKY, MIXED)
OPTIONS = dict(buckets=st.integers(1, 20), mcv_limit=st.integers(0, 10))


@st.composite
def flat_relations(draw, max_rows=30):
    width = draw(st.integers(1, 3))
    schema = tuple("ABC"[:width])
    kinds = [draw(st.sampled_from(COLUMN_KINDS)) for __ in range(width)]
    shape = draw(st.sampled_from(("random", "all_equal", "all_distinct")))
    n = draw(st.integers(0, max_rows))
    columns = []
    for kind in kinds:
        if shape == "all_equal":
            columns.append([draw(kind)] * n)
        elif shape == "all_distinct":
            # A small domain (TRICKY) may run out first: zip cuts every
            # column to the shortest.
            columns.append(
                draw(st.lists(kind, max_size=n, unique_by=order_key))
            )
        else:
            # A small pool makes duplicates (and count ties) common.
            pool = draw(st.lists(kind, min_size=1, max_size=6))
            columns.append([draw(st.sampled_from(pool)) for __ in range(n)])
    return FlatRelation.bulk_build(schema, list(zip(*columns)))


def _nested(children):
    return st.dictionaries(
        st.sampled_from("abc"), children, min_size=1, max_size=3
    )


NESTED = st.recursive(
    st.one_of(INTS, STRS, BOOLS, TRICKY, st.floats(allow_nan=False)),
    _nested,
    max_leaves=6,
)


@st.composite
def generalized_relations(draw):
    members = draw(st.lists(_nested(NESTED), max_size=12))
    return GeneralizedRelation([from_python(m) for m in members])


@st.composite
def mapping_lists(draw):
    value = st.one_of(
        MIXED,
        st.none(),
        _nested(MIXED).map(from_python),
        st.tuples(INTS, STRS),
    )
    return draw(
        st.lists(st.dictionaries(st.sampled_from("abc"), value), max_size=15)
    )


def probes_for(relation, attribute, draw):
    column = [row[relation.schema.index(attribute)] for row in relation.rows]
    extra = draw(st.lists(MIXED, max_size=4))
    return column[:6] + extra


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(relation=flat_relations(), **OPTIONS)
def test_flat_statistics_match_oracle(relation, buckets, mcv_limit):
    assert_same_stats(relation, buckets, mcv_limit)


@settings(max_examples=150, deadline=None)
@given(relation=generalized_relations(), **OPTIONS)
def test_generalized_statistics_match_oracle(relation, buckets, mcv_limit):
    assert_same_stats(relation, buckets, mcv_limit)


@settings(max_examples=150, deadline=None)
@given(members=mapping_lists(), **OPTIONS)
def test_mapping_statistics_match_oracle(members, buckets, mcv_limit):
    assert_same_stats(members, buckets, mcv_limit)


@settings(max_examples=200, deadline=None)
@given(relation=flat_relations(max_rows=20), data=st.data())
def test_index_matches_oracle(relation, data):
    for attribute in relation.schema:
        probes = probes_for(relation, attribute, data.draw)
        bound = st.one_of(st.none(), st.sampled_from(probes or [0]))
        ranges = data.draw(
            st.lists(
                st.tuples(bound, bound, st.booleans(), st.booleans()),
                max_size=4,
            )
        )
        assert_same_index(relation, attribute, probes, ranges)


@pytest.mark.parametrize(
    "relation",
    [
        FlatRelation(("A", "B")),
        FlatRelation(()),
        FlatRelation((), [()]),
        FlatRelation(("A", "B"), [(1, "x")]),
        FlatRelation(("A", "B"), [(7, "x"), (7, "y"), (7, "z")]),
        FlatRelation(
            ("A", "B"),
            [(1, "a"), (1.0, "b"), (True, "c"), ("1", "d"), (-0.0, "e"),
             (0.0, "f"), (1.5, "g")],
        ),
        FlatRelation(("A",), [(i,) for i in range(-12, 13)]),
    ],
    ids=["empty", "no-attributes", "one-empty-row", "one-row",
         "all-equal", "mixed-1-1.5-True", "ints-repr-order"],
)
@pytest.mark.parametrize("mcv_limit", [0, 1, 3, 8, 30])
def test_edge_relations_match_oracle(relation, mcv_limit):
    for buckets in (1, 2, 16):
        assert_same_stats(relation, buckets, mcv_limit)
    for attribute in relation.schema:
        probes = [row[relation.schema.index(attribute)] for row in relation.rows]
        assert_same_index(
            relation, attribute, probes + [0, 1, True, "1", 2.5],
            [(None, None, True, True), (0, 1, False, True)],
        )


def test_workload_relations_match_oracle():
    relations = [
        EMPLOYEES,
        DEPARTMENTS,
        skewed_orders(400),
        *star_catalog(1500, n_depts=20, seed=11).values(),
    ]
    for relation in relations:
        assert_same_stats(relation, 16, 8)
        for attribute in relation.schema:
            column = [
                row[relation.schema.index(attribute)] for row in relation.rows
            ]
            assert_same_index(
                relation, attribute, column[:5],
                [(column[0], column[-1], True, False)],
            )


def test_partial_and_nested_records_match_oracle():
    relation = GeneralizedRelation(
        [
            from_python({"Name": "K", "Addr": {"City": "Glasgow"}}),
            from_python({"Name": "J", "Addr": "Penn"}),
            from_python({"Name": "Q"}),
            PartialRecord({}),
        ]
    )
    assert_same_stats(relation, 4, 2)
    assert_same_stats(
        [{"A": 1, "B": None}, {"A": True}, {"B": (1, "x")}, {}], 3, 8
    )
