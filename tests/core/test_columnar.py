"""The vectorized columnar engine agrees with the row-at-a-time oracle.

Two layers of pinning:

* kernel level — ``scan``/``filter_sel``/``project``/``hash_join``
  against hand-rolled row semantics (and ``natural_join``), under
  Hypothesis, including empty relations, all-rows-selected identity
  vectors, and dictionary-encoded columns with their posting lists —
  whose filters must keep, and raise, what ``Predicate.evaluate``
  keeps and raises, NaN and spelled-apart equal values included;
* plan level — ``optimize`` with the columnar switch on produces a
  ``ColumnarExec`` whose result equals the row plan's, with the cost
  threshold and the default-off switch each checked separately.

Projections skip their dedup when a kept column is unique, so the
rules for which gathered columns inherit uniqueness are pinned on
joins of keyed relations, comparing the row count as well as the rows
(equal frozensets would hide a duplicated row).
"""

import contextlib
import gc
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columnar as col
from repro.core import query
from repro.core.columnar import (
    BATCH_ROWS,
    ColumnarResult,
    batch_count,
    filter_sel,
    from_flat,
    hash_join,
    project,
    to_flat,
)
from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import (
    ColumnarExec,
    attr_eq,
    eq,
    explain,
    explain_analyze,
    ne,
    optimize,
    scan,
)
from repro.errors import RelationError, SchemaMismatchError
from repro.stats.cost import CostModel
from repro.workloads.relations import star_catalog

# Tiny alphabets so collisions (matches, joins, dedup) are common.
ATOMS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["x", "y", "z"]),
    st.booleans(),
)
INTS = st.integers(min_value=-3, max_value=3)
OPERATORS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
             "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def relations(schema, elements=ATOMS, max_rows=30):
    row = st.tuples(*(elements for _ in schema))
    return st.lists(row, max_size=max_rows).map(
        lambda rows: FlatRelation(schema, rows)
    )


def rows_of(rel, sel):
    """The row tuples selected by ``(rel, sel)`` — the oracle's view."""
    values = [column.values() for column in rel.columns]
    all_rows = list(zip(*values))
    if sel is None:
        return all_rows
    return [all_rows[i] for i in sel]


@contextlib.contextmanager
def forced_columnar(setup_rows=0.0):
    """Columnar on, with the cost threshold floored so tiny Hypothesis
    relations still lower."""
    saved = query.COST_MODEL
    query.COST_MODEL = CostModel(columnar_setup_rows=setup_rows)
    col.enable()
    try:
        yield
    finally:
        col.disable()
        query.COST_MODEL = saved


# ---------------------------------------------------------------- kernels


@given(relations(("K", "A", "B")))
def test_scan_roundtrip(flat):
    assert to_flat(from_flat(flat), None) == flat


@given(relations(("K", "A")), st.sampled_from(["==", "!="]), ATOMS)
def test_filter_eq_matches_oracle(flat, op, operand):
    rel = from_flat(flat)
    sel, batches = filter_sel(rel, None, op, "A", operand)
    want = [
        row for row in rows_of(rel, None)
        if (row[1] == operand) == (op == "==")
    ]
    got = rows_of(rel, sel)
    assert len(got) == len(want)
    assert FlatRelation.bulk_build(rel.schema, got) == FlatRelation.bulk_build(
        rel.schema, want
    )
    assert batches == batch_count(rel.nrows)


@given(
    relations(("K", "A"), elements=INTS),
    st.sampled_from(["<", "<=", ">", ">="]),
    INTS,
)
def test_filter_order_matches_oracle(flat, op, operand):
    fn = OPERATORS[op]
    rel = from_flat(flat)
    sel, __ = filter_sel(rel, None, op, "K", operand)
    want = [row for row in rows_of(rel, None) if fn(row[0], operand)]
    assert sorted(rows_of(rel, sel)) == sorted(want)


@given(relations(("K", "A", "B")))
def test_filter_attr_eq_matches_oracle(flat):
    rel = from_flat(flat)
    sel, __ = filter_sel(rel, None, "attr==", "A", "B")
    want = [row for row in rows_of(rel, None) if row[1] == row[2]]
    got = rows_of(rel, sel)
    assert len(got) == len(want)
    assert set(got) == set(want)


@given(relations(("K", "A"), elements=INTS), INTS, INTS)
def test_filter_composes_selections(flat, first, second):
    """Filtering an already-filtered selection intersects predicates."""
    rel = from_flat(flat)
    sel, __ = filter_sel(rel, None, ">=", "K", first)
    sel, __ = filter_sel(rel, sel, "<=", "A", second)
    want = [
        row for row in rows_of(rel, None)
        if row[0] >= first and row[1] <= second
    ]
    assert sorted(rows_of(rel, sel)) == sorted(want)


@given(relations(("K", "A"), elements=INTS))
def test_all_rows_selected_stays_identity(flat):
    """A predicate every row passes returns the identity vector ``None``
    — the engine never materializes ``range(nrows)``."""
    rel = from_flat(flat)
    sel, __ = filter_sel(rel, None, "!=", "A", 99)
    assert sel is None
    sel, __ = filter_sel(rel, None, "<=", "K", 3)
    assert sel is None


@given(
    relations(("K", "A", "B")),
    st.lists(st.sampled_from(["K", "A", "B"]), unique=True),
)
def test_project_matches_oracle(flat, attributes):
    rel = from_flat(flat)
    out, __ = project(rel, None, attributes)
    positions = [flat.schema.index(a) for a in attributes]
    want = {tuple(row[p] for p in positions) for row in rows_of(rel, None)}
    assert out.schema == tuple(attributes)
    assert to_flat(out, None) == FlatRelation.bulk_build(
        tuple(attributes), want
    )


@given(relations(("K", "A")), relations(("K", "B")))
def test_hash_join_matches_natural_join(left, right):
    out, __ = hash_join(from_flat(left), None, from_flat(right), None)
    assert to_flat(out, None) == left.natural_join(right)


@given(relations(("A",), max_rows=8), relations(("B",), max_rows=8))
def test_join_without_common_attribute_is_cross_product(left, right):
    out, __ = hash_join(from_flat(left), None, from_flat(right), None)
    assert to_flat(out, None) == left.natural_join(right)
    assert out.nrows == len(left) * len(right)


@given(
    relations(("K", "A"), elements=INTS),
    relations(("K", "B"), elements=INTS),
    INTS,
)
def test_join_respects_input_selections(left, right, threshold):
    """Selections feeding the join prune exactly the filtered rows."""
    c_left, c_right = from_flat(left), from_flat(right)
    left_sel, __ = filter_sel(c_left, None, ">=", "K", threshold)
    out, __ = hash_join(c_left, left_sel, c_right, None)
    filtered = FlatRelation(left.schema, rows_of(c_left, left_sel))
    assert to_flat(out, None) == filtered.natural_join(right)


def test_empty_relations_flow_through():
    empty = FlatRelation(("K", "A"), [])
    rel = from_flat(empty)
    assert rel.nrows == 0
    sel, batches = filter_sel(rel, None, "==", "K", 1)
    assert rows_of(rel, sel) == [] and batches == 1
    out, __ = project(rel, sel, ["A"])
    assert to_flat(out, None) == FlatRelation(("A",), [])
    joined, __ = hash_join(rel, None, from_flat(empty), None)
    assert joined.nrows == 0


def test_project_to_no_attributes_keeps_set_semantics():
    rel = from_flat(FlatRelation(("K",), [(1,), (2,)]))
    out, __ = project(rel, None, [])
    assert to_flat(out, None) == FlatRelation((), [()])
    empty, __ = project(from_flat(FlatRelation(("K",), [])), None, [])
    assert to_flat(empty, None) == FlatRelation((), [])


def test_unknown_attribute_raises():
    rel = from_flat(FlatRelation(("K",), [(1,)]))
    with pytest.raises(RelationError):
        rel.column("missing")


# ------------------------------------------------------ key-aware project


# The attributes two keyed relations share.
SHARED = [(), ("J",), ("K",), ("M",), ("J", "K"), ("J", "M"), ("K", "M")]


@st.composite
def keyed_relations(draw, key, shared, payload):
    """A relation whose ``key`` column is unique, beside the ``shared``
    join columns — a low-cardinality ``J`` or a foreign key into the
    other side's key — and maybe a ``payload`` column, all over a
    domain small enough that one value matches several rows."""
    schema = (key,) + shared + ((payload,) if draw(st.booleans()) else ())
    keys = draw(st.lists(st.integers(0, 7), unique=True, min_size=1))
    small = st.integers(0, 2)
    rows = [(k,) + tuple(draw(small) for __ in schema[1:]) for k in keys]
    return FlatRelation(schema, rows)


def filtered(data, flat, rel):
    """Maybe filter ``rel`` (the columnar form of ``flat``) on a drawn
    predicate; returns the selection and the row oracle's relation."""
    if data.draw(st.integers(0, 2)):
        return None, flat
    attribute = data.draw(st.sampled_from(flat.schema))
    op = data.draw(st.sampled_from(sorted(OPERATORS)))
    operand = data.draw(st.integers(0, 3))
    sel, __ = filter_sel(rel, None, op, attribute, operand)
    test = OPERATORS[op]
    return sel, flat.select(lambda row: test(row[attribute], operand))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_keyed_join_projections_match_oracle(data):
    """Every projection of a join of keyed relations has the row
    oracle's rows and row count.  Build rows repeat, probe rows repeat
    under a non-unique build, and a cross product repeats each side
    once per row of the other, so a key gathered through any of these
    must not let a projection skip its dedup."""
    # "K" keys the left input and "M" the right; sharing one of them
    # joins a key with a foreign key, and sharing none is a cross product.
    shared = data.draw(st.sampled_from(SHARED))
    left = data.draw(
        keyed_relations("K", tuple(a for a in shared if a != "K"), "A")
    )
    right = data.draw(
        keyed_relations("M", tuple(a for a in shared if a != "M"), "B")
    )
    if data.draw(st.booleans()):
        left, right = right, left
    c_left, c_right = from_flat(left), from_flat(right)
    left_sel, left = filtered(data, left, c_left)
    right_sel, right = filtered(data, right, c_right)
    joined, __ = hash_join(c_left, left_sel, c_right, right_sel)
    expected = left.natural_join(right)
    assert joined.nrows == len(expected)
    # No gathered column counts its own values: each one knows its
    # answer or the source it inherits from.
    sources = c_left.columns + c_right.columns
    for column in joined.columns:
        assert column._unique is not None or any(
            column is source for source in sources
        )
    sel, expected = filtered(data, expected, joined)
    for size in range(len(joined.schema) + 1):
        for kept in itertools.combinations(joined.schema, size):
            out, __ = project(joined, sel, kept)
            want = expected.project(kept)
            assert out.nrows == len(want), kept
            assert to_flat(out, None) == want, kept


def test_key_projection_returns_its_input_columns():
    rel = from_flat(FlatRelation(("K", "A"), [(i, i % 2) for i in range(10)]))
    out, __ = project(rel, None, ["A", "K"])
    assert out.nrows == 10
    assert out.columns[0] is rel.column("A")
    assert out.columns[1] is rel.column("K")


def test_key_projection_through_a_filter_keeps_encoding():
    flat = FlatRelation(
        ("K", "S"), [(i, "xyz"[i % 3]) for i in range(2 * BATCH_ROWS)]
    )
    rel = from_flat(flat)
    assert rel.column("S").is_encoded
    sel, __ = filter_sel(rel, None, "!=", "S", "x")
    out, __ = project(rel, sel, ["S", "K"])
    assert out.columns[0].is_encoded
    assert out.nrows == len(sel)
    assert to_flat(out, None) == flat.project(["S", "K"]).select(
        lambda row: row["S"] != "x"
    )


def test_projection_keeping_a_repeated_build_side_key_collapses():
    # dept is the smaller side, so it builds; each of its rows pairs
    # with several emps, so its key Dept repeats in the join output.
    dept = FlatRelation(("Dept", "City"), [("d0", "c0"), ("d1", "c1")])
    emp = FlatRelation(
        ("Emp", "Dept"), [(i, "d%d" % (i % 2)) for i in range(6)]
    )
    c_dept = from_flat(dept)
    assert c_dept.column("Dept").is_unique()
    joined, __ = hash_join(c_dept, None, from_flat(emp), None)
    assert joined.nrows == 6
    for kept in (["Dept"], ["City"], ["Dept", "City"]):
        out, __ = project(joined, None, kept)
        assert out.nrows == 2, kept
        assert to_flat(out, None) == dept.project(kept), kept


@pytest.mark.parametrize(
    "values",
    [[1, 1.0], [1, True], [0.0, -0.0]],
    ids=["int-float", "int-bool", "signed-zero"],
)
def test_uniqueness_is_the_row_sets_equality(values):
    """Values equal under ``==`` are one value to the row frozenset, so
    a column holding two of them is not unique and its projection
    collapses them, as the row path does."""
    flat = FlatRelation(("K", "A"), list(zip(values, ["a", "b"])))
    rel = from_flat(flat)
    assert not rel.column("K").is_unique()
    assert rel.column("A").is_unique()
    out, __ = project(rel, None, ["K"])
    assert out.nrows == len(flat.project(["K"])) == 1


# ------------------------------------------------- dictionary encoding


def test_low_cardinality_strings_get_encoded():
    values = ["dept%d" % (i % 5) for i in range(200)]
    column = col._build_column(list(values))
    assert column.codes is not None and len(column.domain) == 5
    assert column.values() == values
    assert column.code_for("dept3") == column.codes[3]
    assert column.code_for("absent") is None


def test_high_cardinality_stays_plain():
    column = col._build_column(list(range(200)))
    assert column.codes is None


# One NaN object: encoding gives it a code of its own (a dict finds it
# by identity), yet it equals nothing, itself included.
NAN = float("nan")


@given(
    st.lists(st.sampled_from(["x", "y", "z", NAN]), min_size=80, max_size=120),
    st.sampled_from(["x", "y", "z", "w", NAN]),
)
def test_encoded_filter_matches_oracle(values, operand):
    flat = FlatRelation(("K", "S"), list(enumerate(values)))
    rel = from_flat(flat)
    assert rel.column("S").codes is not None, "expected dictionary encoding"
    for op in ("==", "!="):
        sel, __ = filter_sel(rel, None, op, "S", operand)
        want = [
            row for row in rows_of(rel, None)
            if (row[1] == operand) == (op == "==")
        ]
        assert sorted(rows_of(rel, sel)) == sorted(want)


@given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=80, max_size=120))
def test_encoded_join_and_project_match_oracle(values):
    left = FlatRelation(("K", "S"), list(enumerate(values)))
    right = FlatRelation(("S", "B"), [("x", 1), ("y", 2), ("w", 3)])
    c_left = from_flat(left)
    assert c_left.column("S").codes is not None
    out, __ = hash_join(c_left, None, from_flat(right), None)
    assert to_flat(out, None) == left.natural_join(right)
    projected, __ = project(c_left, None, ["S"])
    assert to_flat(projected, None) == FlatRelation(("S",), set(values))


# ------------------------------------------------------- posting lists


def encoded(values):
    """``(flat, rel)``: ``values`` as column "S" beside a key "K", and
    its columnar form, in which "S" must be dictionary-encoded."""
    flat = FlatRelation(("K", "S"), list(enumerate(values)))
    rel = from_flat(flat)
    assert rel.column("S").is_encoded, "expected dictionary encoding"
    return flat, rel


def row_path(flat, sel, op, attribute, operand):
    """The positions ``Predicate.evaluate`` keeps among the selected
    rows of ``flat``, in the row order :func:`from_flat` transposes."""
    predicate = query.Predicate(op, attribute, operand)
    rows = [dict(zip(flat.schema, row)) for row in flat.rows]
    positions = range(len(rows)) if sel is None else sel
    return sorted(i for i in positions if predicate.evaluate(rows[i]))


def kernel_path(rel, sel, op, attribute, operand):
    """The positions :func:`filter_sel` keeps, sorted (a selection built
    from postings is grouped by code)."""
    out, __ = filter_sel(rel, sel, op, attribute, operand)
    return sorted(range(rel.nrows) if out is None else out)


def outcome(path, *args):
    """``path(*args)``, or ``TypeError`` if it raised one."""
    try:
        return path(*args)
    except TypeError:
        return TypeError


def test_encoded_filter_of_a_nan_matches_the_row_path():
    """== on the NaN object keeps no row and != every row, with or
    without a selection and through a lowered plan, as on the row path
    — although the column holds that very object under one code."""
    flat, rel = encoded(["x" if i % 2 else NAN for i in range(100)])
    every_third = list(range(0, 100, 3))
    for op, kept in (("==", 0), ("!=", 100)):
        assert len(row_path(flat, None, op, "S", NAN)) == kept
        for sel in (None, every_third):
            assert kernel_path(rel, sel, op, "S", NAN) == row_path(
                flat, sel, op, "S", NAN
            )
    plan = scan("r").where(eq("S", NAN))
    catalog = Catalog({"r": flat})
    with forced_columnar():
        lowered = optimize(plan, catalog)
    assert isinstance(lowered, ColumnarExec), explain(lowered)
    assert len(lowered.execute(catalog)) == len(plan.execute({"r": flat})) == 0


# Values equal under == but spelled apart share one code, so a filter
# compares the first spelling met where the row path compares each.
SPELLED = [0, 0.0, False, -0.0, 1, 1.0, True, 2, 2.5, NAN]
STRINGS = ["x", "y", "z"]
ALPHABETS = [STRINGS, SPELLED, STRINGS + [1, 2.5, NAN]]
# Operands inside and outside each domain, and of other types.
OPERANDS = STRINGS + SPELLED + ["w", -7, 9, None]


@given(
    st.lists(st.sampled_from(STRINGS + SPELLED), min_size=64, max_size=200),
    st.data(),
)
def test_postings_partition_the_rows(values, data):
    """Each row appears once, under the code it holds, rows ascending
    within a code — for a scanned column and for one gathered through a
    selection, whose domain has codes no row holds."""
    __, rel = encoded(values)
    sel = data.draw(
        st.lists(st.integers(0, len(values) - 1), unique=True), label="sel"
    )
    gathered, __ = project(rel, sel, ["S", "K"])
    for column in (rel.column("S"), gathered.column("S")):
        positions, offsets = column.postings()
        assert column.postings()[0] is positions  # built once
        assert len(offsets) == len(column.domain) + 1
        assert offsets[0] == 0 and offsets[-1] == len(column.codes)
        seen = []
        for code in range(len(column.domain)):
            rows = list(positions[offsets[code] : offsets[code + 1]])
            assert rows == sorted(rows)
            assert all(column.codes[row] == code for row in rows)
            seen += rows
        assert sorted(seen) == list(range(len(column.codes)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encoded_filters_match_the_row_path(data):
    """All six comparisons, with and without a selection (in any order),
    keep the rows the row path keeps — spelled-apart equal values and a
    NaN included — and raise ``TypeError`` exactly when it does: when a
    selected row holds a value the operand cannot be ordered against."""
    alphabet = data.draw(st.sampled_from(ALPHABETS), label="alphabet")
    values = data.draw(
        st.lists(st.sampled_from(alphabet), min_size=64, max_size=150),
        label="values",
    )
    flat, rel = encoded(values)
    sel = data.draw(
        st.none() | st.lists(st.integers(0, len(values) - 1), unique=True),
        label="sel",
    )
    op = data.draw(st.sampled_from(sorted(OPERATORS)), label="op")
    operand = data.draw(st.sampled_from(OPERANDS), label="operand")
    assert outcome(kernel_path, rel, sel, op, "S", operand) == outcome(
        row_path, flat, sel, op, "S", operand
    )


def test_an_incomparable_value_outside_the_selection_raises_nothing():
    flat, rel = encoded(["x", "y"] * 40 + [5] * 10)
    strings = [
        i for i, value in enumerate(rel.column("S").values())
        if isinstance(value, str)
    ]
    for path, relation in ((kernel_path, rel), (row_path, flat)):
        with pytest.raises(TypeError):
            path(relation, None, "<", "S", "y")
    assert kernel_path(rel, strings, "<", "S", "y") == row_path(
        flat, strings, "<", "S", "y"
    )
    assert len(row_path(flat, strings, "<", "S", "y")) == 40


@pytest.mark.parametrize("matching", ["every", "some", "no"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_postings_probe_matches_natural_join(matching, data):
    """A unique build side probing a whole encoded column equals the
    row path's natural join whether every probe row, some or none
    match, with and without a build selection, on either side of the
    join.  Only a probe in which some row misses builds postings; when
    every row matches, the map probe's identity vector is kept."""
    values = data.draw(
        st.lists(st.sampled_from("abcde"), min_size=64, max_size=120),
        label="values",
    )
    probe_flat, probe = encoded(values)
    held = sorted(set(values))
    if matching == "every":
        keys = held
    elif matching == "some":
        keys = data.draw(
            st.lists(st.sampled_from(held), unique=True, min_size=1,
                     max_size=len(held) - 1) if len(held) > 1 else st.just([]),
            label="keys",
        )
    else:
        keys = []
    keys = keys + data.draw(
        st.lists(st.sampled_from("vwxyz"), unique=True), label="outside"
    )
    keys = data.draw(st.permutations(keys), label="order")
    build_flat = FlatRelation(("S", "B"), [(k, i) for i, k in enumerate(keys)])
    build = from_flat(build_flat)
    build_sel = None
    if data.draw(st.booleans(), label="build selection"):
        build_sel = data.draw(st.lists(
            st.integers(0, len(keys) - 1), unique=True
        ) if keys else st.just([]), label="build_sel")
        build_flat = FlatRelation(build_flat.schema, rows_of(build, build_sel))
    if data.draw(st.booleans(), label="build on the left"):
        out, __ = hash_join(build, build_sel, probe, None)
        expected = build_flat.natural_join(probe_flat)
    else:
        out, __ = hash_join(probe, None, build, build_sel)
        expected = probe_flat.natural_join(build_flat)
    assert out.nrows == len(expected)
    assert to_flat(out, None) == expected
    every_row_matched = set(held) <= {
        row[0] for row in rows_of(build, build_sel)
    }
    assert (probe.column("S")._postings is None) == every_row_matched


def test_repeated_build_keys_probe_without_postings():
    probe_flat, probe = encoded(["a", "b", "c"] * 30)
    build_flat = FlatRelation(("S", "B"), [("a", 1), ("a", 2), ("b", 3)])
    out, __ = hash_join(probe, None, from_flat(build_flat), None)
    assert out.nrows == 90
    assert to_flat(out, None) == probe_flat.natural_join(build_flat)
    assert probe.column("S")._postings is None


def test_fresh_statistics_choose_the_encoding():
    """ANALYZE's exact count encodes a column whose leading sample looks
    near-unique — 50 distinct values over 200 rows — but only while the
    statistics describe the bound relation; without them, or once a
    rebind left them stale, the sample decides."""
    rows = [(i, i % 50) for i in range(200)]
    flat = FlatRelation(("K", "A"), rows)
    assert not from_flat(flat).column("A").is_encoded
    catalog = Catalog({"r": flat}, reanalyze_threshold=None)
    plan = scan("r").where(query.lt("A", 10))

    def lowered_column():
        with forced_columnar():
            result = optimize(plan, catalog).execute(catalog)
        assert result == plan.execute({"r": catalog["r"]})
        return col.scan(catalog["r"]).column("A")

    assert not lowered_column().is_encoded
    catalog.bind("r", FlatRelation(("K", "A"), rows))
    catalog.analyze("r")
    assert lowered_column().is_encoded
    catalog.bind("r", FlatRelation(("K", "A"), rows))
    assert catalog.stats_stale("r")
    assert not lowered_column().is_encoded


def test_scan_cache_is_bounded_by_live_relations():
    """Each rebind leaves its old relation to the collector, and the
    weakref evicts its conversion (postings and all): after 200 rebinds
    the cache holds one entry more than before, the bound relation's."""
    gc.collect()
    before = len(col._SCAN_CACHE)
    catalog = Catalog()
    plan = scan("r").where(eq("S", "x")).project(["K"])
    with forced_columnar():
        for version in range(200):
            rows = [(version + i, "xyz"[i % 3]) for i in range(96)]
            catalog.bind("r", FlatRelation(("K", "S"), rows))
            catalog.analyze("r")
            lowered = optimize(plan, catalog)
            assert len(lowered.execute(catalog)) == 32
    gc.collect()
    assert len(col._SCAN_CACHE) == before + 1


# ------------------------------------------------------------ plan level


def star_plan():
    return (
        scan("emp")
        .join(scan("dept"))
        .where(eq("Salary", 42))
        .project(["Emp", "City"])
    )


def test_lowering_fires_and_results_agree():
    catalog = Catalog(star_catalog(300))
    row_result = optimize(star_plan(), catalog).execute(catalog)
    with forced_columnar():
        plan = optimize(star_plan(), catalog)
        assert isinstance(plan, ColumnarExec)
        rendered = explain(plan)
        for label in ("ColumnarExec", "CScan", "CFilter", "CHashJoin",
                      "CProject"):
            assert label in rendered, rendered
        assert plan.execute(catalog) == row_result


@settings(max_examples=40, deadline=None)
@given(
    relations(("K", "A")),
    relations(("K", "B")),
    st.sampled_from([eq, ne]),
    ATOMS,
)
def test_lowered_plans_equal_row_plans(left, right, pred, constant):
    """End-to-end property: whatever the optimizer lowers computes the
    same relation the row pipeline does."""
    catalog = Catalog({"L": left, "R": right})
    plan = scan("L").where(pred("A", constant)).join(scan("R")).project(
        ["K", "B"]
    )
    row_result = optimize(plan, catalog).execute(catalog)
    with forced_columnar():
        lowered = optimize(plan, catalog)
        assert lowered.execute(catalog) == row_result


def test_cost_threshold_keeps_tiny_inputs_row_wise():
    tiny = Catalog(star_catalog(4, n_depts=2))
    with forced_columnar(setup_rows=12.0):
        assert not isinstance(optimize(star_plan(), tiny), ColumnarExec)
    big = Catalog(star_catalog(300))
    with forced_columnar(setup_rows=12.0):
        assert isinstance(optimize(star_plan(), big), ColumnarExec)


def test_switch_defaults_off():
    catalog = Catalog(star_catalog(300))
    assert not col.COLUMNAR.enabled
    assert not isinstance(optimize(star_plan(), catalog), ColumnarExec)


def test_index_scan_is_not_lowered():
    """An eligible sibling still lowers, but IndexScan stays row-wise."""
    catalog = Catalog(star_catalog(300))
    catalog.create_index("emp", "Salary")
    with forced_columnar():
        plan = optimize(star_plan(), catalog)
        rendered = explain(plan)
    assert "IndexScan" in rendered
    assert "CScan(dept)" in rendered, rendered
    assert plan.execute(catalog) == optimize(
        star_plan(), catalog
    ).execute(catalog)


def test_explain_analyze_reports_batches():
    catalog = Catalog(star_catalog(300))
    with forced_columnar():
        plan = optimize(star_plan(), catalog)
        report = explain_analyze(plan, catalog)
    assert "ColumnarExec" in report
    assert "columnar batches=" in report and "rows/s=" in report


def test_columnar_result_is_lazy_then_equal():
    catalog = Catalog(star_catalog(300))
    with forced_columnar():
        result = optimize(star_plan(), catalog).execute(catalog)
    assert isinstance(result, ColumnarResult)
    assert result._columns is not None  # not yet materialized
    n = len(result)  # O(1), still unmaterialized
    assert result._columns is not None
    row_result = optimize(star_plan(), catalog).execute(catalog)
    assert result == row_result  # forces materialization
    assert result._columns is None
    assert len(result) == n == len(row_result)


def test_attr_eq_lowered_plan_agrees():
    catalog = Catalog(
        {"r": FlatRelation(("A", "B"), [(i, i % 3) for i in range(50)])}
    )
    plan = scan("r").where(attr_eq("A", "B"))
    row_result = optimize(plan, catalog).execute(catalog)
    with forced_columnar():
        assert optimize(plan, catalog).execute(catalog) == row_result


# ---------------------------------------------------------- plumbing


def test_batch_count():
    assert batch_count(0) == 1
    assert batch_count(1) == 1
    assert batch_count(BATCH_ROWS) == 1
    assert batch_count(BATCH_ROWS + 1) == 2


def test_bulk_build_matches_validating_constructor():
    rows = [(1, "x"), (2, "y")]
    assert FlatRelation.bulk_build(("K", "A"), rows) == FlatRelation(
        ("K", "A"), rows
    )
    with pytest.raises(SchemaMismatchError):
        FlatRelation.bulk_build(("K", "K"), rows)


def test_scan_cache_hits_by_identity():
    flat = FlatRelation(("K",), [(1,)])
    assert col.scan(flat) is col.scan(flat)
    assert col.scan(FlatRelation(("K",), [(1,)])) is not col.scan(flat)


def test_prefer_columnar_break_even():
    model = CostModel()
    assert not model.prefer_columnar(8)
    assert model.prefer_columnar(16)
    assert model.prefer_columnar(100_000)
    assert model.columnar_cost(1000) < model.scan_cost(1000)
