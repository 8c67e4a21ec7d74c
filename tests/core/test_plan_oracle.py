"""The planner against the naive row plan, on random plans and relations.

The oracle is the plan as written — unoptimized, row at a time, over a
plain dict.  ``optimize`` must compute the same relation in all six
modes: columnar lowering off or forced (the cost model's setup charge
floored to zero, so even tiny inputs lower), each over a bare catalog,
one with sorted indexes on every column, and one analyzed — whose
statistics cost the plan and choose the columnar scan's encodings by
ANALYZE's exact distinct counts.  The type-level half checks that a
plan's inferred ``schema`` is exactly the schema of the relation it
produces, in the spirit of Van den Bussche & Waller's typing of the
relational algebra.

Most relations hold 0–80 rows over int and str columns, each attribute with
one type across the catalog so every predicate compares like with
like.  Some relations have 64 rows or more and a low-cardinality
column, which is where the columnar scan dictionary-encodes.  Others
have 128 or more rows and 40–60 distinct values in "A": the exact count
says encode, but a 64-value sample sees more than 32 of them, so the
analyzed and the bare catalog lower them differently; two explicit
examples filter and probe such a column through its postings.  Some
carry a unique id column "I", whose values other relations' "I"
columns share, so joins pair keys with foreign keys and projections
may keep a key.  Plans use all seven predicate operators, joins with
and without shared attributes, and projections that collapse rows.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import columnar, query
from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import Predicate, analyze, explain, optimize, scan
from repro.stats.cost import CostModel

# Attribute → its value domain.  "A" is wide enough to key the large
# relations and "K" the largest; the rest are low-cardinality, so joins
# and filters match.
DOMAINS = {
    "A": list(range(100)),
    "B": [0, 1, 2, 3],
    "C": [-2, -1, 0, 1, 2],
    "D": ["x", "y", "z"],
    "E": ["p", "q"],
    "I": list(range(12)),
    "K": list(range(160)),
}
LOW_CARDINALITY = ("B", "C", "D", "E")
NAMES = ("r", "s", "t")
OPS = ("==", "!=", "<", "<=", ">", ">=")
# The cross-product size a generated plan may reach, which bounds what
# one example costs.
MAX_ROWS = 6400

FORCED = CostModel(columnar_setup_rows=0.0)


@st.composite
def relations(draw):
    shape = draw(st.integers(0, 4))
    if shape == 0:
        # Exact count and sample disagree: "A" holds 40-60 distinct
        # values over 128+ rows, each row keyed by a distinct "K".
        count = draw(st.integers(128, 160))
        distinct = draw(st.integers(40, 60))
        spread = draw(
            st.lists(st.integers(0, distinct - 1), min_size=count - distinct,
                     max_size=count - distinct)
        )
        values = draw(st.permutations(list(range(distinct)) + spread))
        return FlatRelation(("K", "A"), list(enumerate(values)))
    if shape == 1:
        # Large enough to dictionary-encode: distinct keys in "A" and a
        # low-cardinality column beside them.
        count = draw(st.integers(64, 80))
        low = draw(st.sampled_from(LOW_CARDINALITY))
        values = draw(
            st.lists(
                st.sampled_from(DOMAINS[low]), min_size=count, max_size=count
            )
        )
        return FlatRelation(("A", low), list(enumerate(values)))
    schema = tuple(
        draw(st.lists(st.sampled_from(sorted(DOMAINS)), min_size=1,
                      max_size=3, unique=True))
    )
    rows = draw(
        st.lists(
            st.tuples(*(st.sampled_from(DOMAINS[a]) for a in schema)),
            max_size=80,
        )
    )
    if "I" not in schema and draw(st.booleans()):
        # A unique id beside the drawn columns, from the "I" domain
        # while the rows fit in it, so other relations' ids match.
        ids = draw(st.permutations(range(max(len(rows), len(DOMAINS["I"])))))
        schema = ("I",) + schema
        rows = [(i,) + row for i, row in zip(ids, rows)]
    return FlatRelation(schema, rows)


def constants(attribute):
    """Operands for ``attribute``: its domain plus a value outside it."""
    domain = DOMAINS[attribute]
    outside = max(domain) + 1 if isinstance(domain[0], int) else "w"
    return st.sampled_from(domain + [outside])


@st.composite
def predicates(draw, schema):
    attribute = draw(st.sampled_from(schema))
    if draw(st.integers(0, 6)) == 0:
        return Predicate("attr==", attribute, draw(st.sampled_from(schema)))
    return Predicate(draw(st.sampled_from(OPS)), attribute,
                     draw(constants(attribute)))


@st.composite
def cases(draw):
    """A catalog of three relations and a random plan over it."""
    catalog = {name: draw(relations()) for name in NAMES}
    first = draw(st.sampled_from(NAMES))
    plan = scan(first)
    bound = max(len(catalog[first]), 1)
    for __ in range(draw(st.integers(0, 6))):
        schema = plan.schema(catalog)
        action = draw(st.sampled_from(("select", "select", "join", "project")))
        if action == "select":
            plan = plan.where(draw(predicates(schema)))
        elif action == "join":
            fits = [n for n in NAMES
                    if bound * max(len(catalog[n]), 1) <= MAX_ROWS]
            if not fits:
                continue
            name = draw(st.sampled_from(fits))
            other = scan(name)
            other_schema = catalog[name].schema
            shape = draw(st.sampled_from(("scan", "select", "project")))
            if shape == "select":
                other = other.where(draw(predicates(other_schema)))
            elif shape == "project":
                # Often drops the shared attributes: a cross product.
                other = other.project(draw(st.lists(
                    st.sampled_from(other_schema), min_size=1,
                    max_size=len(other_schema), unique=True)))
            plan = plan.join(other)
            bound *= max(len(catalog[name]), 1)
        else:
            kept = draw(st.lists(st.sampled_from(schema), min_size=1,
                                 max_size=len(schema), unique=True))
            plan = plan.project(kept)
    return catalog, plan


# The disagreeing shape, where only an analyzed scan encodes "A" (50
# distinct values over 150 rows, more than 32 among the first 64): a
# range filter over the whole column and a unique build probing it each
# keep rows whose codes lie past the first 32.
DISAGREEING = {
    "r": FlatRelation(("K", "A"), [(i, i * 7 % 50) for i in range(150)]),
    "s": FlatRelation(("A", "B"), [(a, a % 4) for a in range(0, 60, 3)]),
    "t": FlatRelation(("I",), []),
}


@pytest.fixture
def default_model():
    """The cost model in force; put back after the forced-columnar runs
    swap it out (the suite-wide fixture resets the columnar switch)."""
    saved = query.COST_MODEL
    yield saved
    query.COST_MODEL = saved


@pytest.mark.parametrize("prepared", ["no-index", "index", "analyzed"])
@pytest.mark.parametrize("forced", [False, True], ids=["row", "columnar"])
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=cases())
@example(case=(DISAGREEING, scan("r").where(Predicate("<", "A", 25))))
@example(case=(
    DISAGREEING, scan("r").join(scan("s").where(Predicate("==", "B", 1)))
))
def test_optimized_plan_matches_the_naive_row_plan(
    default_model, forced, prepared, case
):
    relations_by_name, plan = case
    columnar.disable()
    query.COST_MODEL = default_model
    naive = plan.execute(dict(relations_by_name))
    assert plan.schema(relations_by_name) == naive.schema

    # Copies: an explicit example's relations serve every mode, and the
    # scan cache would hand one mode the conversion an earlier one made.
    catalog = Catalog({
        name: FlatRelation.bulk_build(relation.schema, relation.rows)
        for name, relation in relations_by_name.items()
    })
    if prepared == "index":
        for name, relation in relations_by_name.items():
            for attribute in relation.schema:
                catalog.create_index(name, attribute)
    elif prepared == "analyzed":
        catalog.analyze_all()
    if forced:
        query.COST_MODEL = FORCED
        columnar.enable()
    optimized = optimize(plan, catalog)
    result = optimized.execute(catalog)
    rendered = explain(optimized)
    # Equality compares row sets; the length also catches a result that
    # holds a row twice (a columnar result trusts its row count).
    assert result == naive and len(result) == len(naive), rendered
    assert optimized.schema(catalog) == result.schema, rendered
    assert analyze(optimized, catalog)[0] == result, rendered
