"""Relational query plans and an algebraic optimizer.

The paper observes that relational database programming routinely
"creates an intermediate, transient relation in order to simplify or
optimize some larger computation".  This module makes those
computations first-class: queries over the flat algebra are *plans* —
trees of scans, selections, projections, and joins — that can be
inspected, rewritten, and executed against a catalog of relations.

The optimizer applies the textbook algebraic rewrites:

* cascade and merge selections;
* push selections below joins (to the side holding the attributes);
* push projections down, keeping the attributes later operators need;
* greedily enumerate join orders over cardinality estimates (smallest
  intermediate result first, cross products last);
* choose index scans over filtered table scans when the cost model says
  the probe is cheaper.

Cardinality estimates consult the statistics subsystem
(:mod:`repro.stats`): when the catalog carries
:class:`~repro.stats.collect.TableStats` (see
:meth:`repro.core.index.Catalog.analyze`), equality selectivities come
from most-common-value lists, ranges from equi-depth histograms, and
join sizes from the containment assumption on distinct counts.  Without
statistics the historical 0.1/0.5 constants apply, so plain-dict
catalogs behave as before.  Every estimate is clamped to a floor of one
row, keeping drift ratios and join-order comparisons finite.

Plans are immutable; ``optimize`` returns a new plan that computes the
same relation (a property the test suite checks on random plans and
catalogs), and the E9 benchmark measures the speedup.

Predicates are restricted to conjunctions of *atomic comparisons* so
the optimizer can reason about them — exactly the restriction real
optimizers impose on sargable conditions::

    plan = (scan("emp")
            .join(scan("dept"))
            .where(eq("Dept", "Sales"), lt("Salary", 50)))
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core import columnar as _columnar
from repro.core.flat import FlatRelation
from repro.core.orders import AtomPayload
from repro.errors import RelationError
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import profile as _profile
from repro.obs import slowlog as _slowlog
from repro.obs import trace as _trace
from repro.obs import wide as _wide
from repro.stats import adaptive as _adaptive
from repro.stats import feedback as _feedback
from repro.stats.cost import CostModel

# The cost model every estimate consults; tests may swap it out, but the
# plan classes read it at call time so there is one source of truth.
COST_MODEL = CostModel()


# ---------------------------------------------------------------------------
# Predicates (sargable conditions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Predicate:
    """An atomic comparison ``attribute <op> constant`` or attr=attr."""

    op: str  # '==', '!=', '<', '<=', '>', '>=', 'attr=='
    attribute: str
    operand: object  # a constant, or the other attribute for 'attr=='

    def attributes(self) -> FrozenSet[str]:
        """The attributes this predicate mentions."""
        if self.op == "attr==":
            return frozenset({self.attribute, str(self.operand)})
        return frozenset({self.attribute})

    def evaluate(self, row: Mapping[str, AtomPayload]) -> bool:
        """Apply to one row (attribute→value mapping)."""
        left = row[self.attribute]
        right = row[str(self.operand)] if self.op == "attr==" else self.operand
        if self.op in ("==", "attr=="):
            return left == right
        if self.op == "!=":
            return left != right
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == ">":
            return left > right
        if self.op == ">=":
            return left >= right
        raise RelationError("unknown predicate operator %r" % self.op)

    def __str__(self) -> str:
        if self.op == "attr==":
            return "%s = %s" % (self.attribute, self.operand)
        return "%s %s %r" % (self.attribute, self.op, self.operand)


def eq(attribute: str, constant: object) -> Predicate:
    """``attribute == constant``"""
    return Predicate("==", attribute, constant)


def ne(attribute: str, constant: object) -> Predicate:
    """``attribute != constant``"""
    return Predicate("!=", attribute, constant)


def lt(attribute: str, constant: object) -> Predicate:
    """``attribute < constant``"""
    return Predicate("<", attribute, constant)


def le(attribute: str, constant: object) -> Predicate:
    """``attribute <= constant``"""
    return Predicate("<=", attribute, constant)


def gt(attribute: str, constant: object) -> Predicate:
    """``attribute > constant``"""
    return Predicate(">", attribute, constant)


def ge(attribute: str, constant: object) -> Predicate:
    """``attribute >= constant``"""
    return Predicate(">=", attribute, constant)


def attr_eq(left: str, right: str) -> Predicate:
    """``left = right`` between two attributes of one row."""
    return Predicate("attr==", left, right)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class Plan:
    """Abstract base of query plans (immutable trees).

    Every node decomposes into :meth:`children` (input plans) and
    :meth:`_apply` (this operator over its inputs' results); the flat
    operators also carry ``_kernel``, the same operator on the columnar
    representation.  One walk (:func:`_walk`) evaluates every plan in
    both representations, so it is instrumentable in one place — when
    the process-global tracer is on, each node records a span with
    rows-in/rows-out/elapsed, and :func:`analyze` runs the same walk to
    time each operator separately for :func:`explain_analyze`.
    """

    def where(self, *predicates: Predicate) -> "Plan":
        """Filter by the conjunction of ``predicates``."""
        plan: Plan = self
        for predicate in predicates:
            plan = Select(predicate, plan)
        return plan

    def project(self, attributes: Iterable[str]) -> "Plan":
        """Keep only ``attributes``."""
        return Project(tuple(attributes), self)

    def join(self, other: "Plan") -> "Plan":
        """Natural join with another plan."""
        return Join(self, other)

    # Subclasses provide: schema(catalog), estimate(catalog),
    # children(), _apply(catalog, *inputs), label().  Scan, Select,
    # Project and Join also provide their columnar twins:
    # _kernel(catalog, *inputs) -> ((relation, selection), batches) and
    # columnar_label().

    def children(self) -> Tuple["Plan", ...]:
        """The input plans of this node (empty for leaves)."""
        return ()

    def label(self) -> str:
        """The one-line rendering used by explain/explain_analyze."""
        return repr(self)

    def execute(self, catalog) -> FlatRelation:
        """Evaluate the plan bottom-up against ``catalog``.

        Runs the plan walk (:func:`_walk`).  With tracing, profiling,
        and the slow-query log off this is the children's results fed
        through each operator — the only observability cost is two
        attribute checks per node.  With tracing on, every node records
        a nested span carrying rows-in, rows-out, and elapsed wall time;
        with the profiler on, each operator's own wall time, rows, and
        join-pair counter deltas accumulate per label; with the
        slow-query log on, the run is wall-clocked and offered to it as
        a ``plan`` wide event when it took at least the threshold (see
        :func:`_offer_slow`).
        """
        if not _slowlog.CURRENT.enabled:
            return _walk(self, catalog)
        counters = _wide.counters_snapshot()
        started = time.perf_counter()
        result = _walk(self, catalog)
        _offer_slow("plan", self, time.perf_counter() - started, counters)
        return result


@dataclass(frozen=True)
class Scan(Plan):
    """Read a named relation from the catalog."""

    name: str

    def schema(self, catalog) -> Tuple[str, ...]:
        return _relation(catalog, self.name).schema

    def _apply(self, catalog) -> FlatRelation:
        return _relation(catalog, self.name)

    def _kernel(self, catalog):
        rel = _columnar.scan(_relation(catalog, self.name))
        return (rel, None), _columnar.batch_count(rel.nrows)

    def estimate(self, catalog) -> float:
        return COST_MODEL.clamp_rows(len(_relation(catalog, self.name)))

    def label(self) -> str:
        return "Scan(%s)" % self.name

    def columnar_label(self) -> str:
        return "CScan(%s)" % self.name


@dataclass(frozen=True)
class Select(Plan):
    """Filter the child by one atomic predicate."""

    predicate: Predicate
    child: Plan

    def schema(self, catalog) -> Tuple[str, ...]:
        schema = self.child.schema(catalog)
        missing = self.predicate.attributes() - set(schema)
        if missing:
            raise RelationError(
                "selection on %s: attributes %r not in schema %r"
                % (self.predicate, sorted(missing), schema)
            )
        return schema

    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def _apply(self, catalog, child_result: FlatRelation) -> FlatRelation:
        self.schema(catalog)  # validate
        return child_result.select(self.predicate.evaluate)

    def _kernel(self, catalog, child):
        rel, sel = child
        predicate = self.predicate
        sel, batches = _columnar.filter_sel(
            rel, sel, predicate.op, predicate.attribute, predicate.operand
        )
        return (rel, sel), batches

    def estimate(self, catalog) -> float:
        selectivity = _predicate_selectivity(
            self.predicate, self.child, catalog
        )
        return COST_MODEL.clamp_rows(
            self.child.estimate(catalog) * selectivity
        )

    def label(self) -> str:
        return "Select[%s]" % self.predicate

    def columnar_label(self) -> str:
        return "CFilter[%s]" % self.predicate


@dataclass(frozen=True)
class Project(Plan):
    """Keep only the named attributes of the child."""

    attributes: Tuple[str, ...]
    child: Plan

    def schema(self, catalog) -> Tuple[str, ...]:
        child_schema = self.child.schema(catalog)
        missing = set(self.attributes) - set(child_schema)
        if missing:
            raise RelationError(
                "projection onto %r: not in schema %r"
                % (sorted(missing), child_schema)
            )
        return self.attributes

    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def _apply(self, catalog, child_result: FlatRelation) -> FlatRelation:
        return child_result.project(self.attributes)

    def _kernel(self, catalog, child):
        rel, batches = _columnar.project(*child, self.attributes)
        return (rel, None), batches

    def estimate(self, catalog) -> float:
        return self.child.estimate(catalog)

    def label(self) -> str:
        return "Project[%s]" % ", ".join(self.attributes)

    def columnar_label(self) -> str:
        return "CProject[%s]" % ", ".join(self.attributes)


@dataclass(frozen=True)
class Join(Plan):
    """Natural join of two children."""

    left: Plan
    right: Plan

    def schema(self, catalog) -> Tuple[str, ...]:
        left_schema = self.left.schema(catalog)
        right_schema = self.right.schema(catalog)
        return left_schema + tuple(
            a for a in right_schema if a not in left_schema
        )

    def children(self) -> Tuple[Plan, ...]:
        return (self.left, self.right)

    def _apply(
        self, catalog, left_result: FlatRelation, right_result: FlatRelation
    ) -> FlatRelation:
        return left_result.natural_join(right_result)

    def _kernel(self, catalog, left, right):
        rel, batches = _columnar.hash_join(*left, *right)
        return (rel, None), batches

    def estimate(self, catalog) -> float:
        left_rows = self.left.estimate(catalog)
        right_rows = self.right.estimate(catalog)
        shared = set(self.left.schema(catalog)) & set(
            self.right.schema(catalog)
        )
        if not shared:
            return COST_MODEL.clamp_rows(left_rows * right_rows)
        rows = left_rows * right_rows
        measured = False
        for attribute in sorted(shared):
            selectivity = COST_MODEL.join_selectivity(
                _base_column_stats(self.left, catalog, attribute),
                _base_column_stats(self.right, catalog, attribute),
                left_rows,
                right_rows,
            )
            if selectivity is not None:
                rows *= selectivity
                measured = True
        if not measured:
            # No statistics on any shared attribute: the historical crude
            # guess — a shared key divides the cross product by ~max side.
            return COST_MODEL.clamp_rows(max(left_rows, right_rows))
        return COST_MODEL.clamp_rows(rows)

    def label(self) -> str:
        return "Join"

    def columnar_label(self) -> str:
        return "CHashJoin"


@dataclass(frozen=True)
class IndexScan(Plan):
    """Answer a sargable selection from a sorted index.

    Produced by the optimizer when the catalog (a
    :class:`~repro.core.index.Catalog`) has an index on the selection's
    attribute; plain-dict catalogs never yield these.
    """

    name: str
    predicate: Predicate

    def schema(self, catalog) -> Tuple[str, ...]:
        schema = _relation(catalog, self.name).schema
        if self.predicate.attribute not in schema:
            raise RelationError(
                "index scan on %s: %r not in schema %r"
                % (self.name, self.predicate.attribute, schema)
            )
        return schema

    def _apply(self, catalog) -> FlatRelation:
        index = getattr(catalog, "index_on", lambda *a: None)(
            self.name, self.predicate.attribute
        )
        if index is None:
            # Defensive: the catalog lost its index; fall back to a scan.
            return _relation(catalog, self.name).select(
                self.predicate.evaluate
            )
        return index.select(self.predicate.op, self.predicate.operand)

    def estimate(self, catalog) -> float:
        stats = _catalog_stats(catalog, self.name)
        column = (
            stats.column(self.predicate.attribute)
            if stats is not None
            else None
        )
        selectivity = COST_MODEL.selectivity(
            self.predicate.op, self.predicate.operand, column
        )
        selectivity = _adapted_selectivity(
            selectivity, self.predicate, self.name, catalog
        )
        return COST_MODEL.clamp_rows(
            len(_relation(catalog, self.name)) * selectivity
        )

    def label(self) -> str:
        return "IndexScan(%s)[%s]" % (self.name, self.predicate)


@dataclass(frozen=True)
class ColumnarExec(Plan):
    """Vectorized execution of an eligible flat subtree.

    Planted by :func:`optimize` (see :func:`_lower_columnar`) around a
    Scan/Select/Project/Join subtree whose inputs are flat relations —
    all-ground, single-signature, exactly the shape on which the
    generalized join is the natural join.  Executes the *whole* subtree on the
    array kernels of :mod:`repro.core.columnar` — per-attribute value
    arrays, selection vectors, batch hash joins — and hands back a
    lazily materialized :class:`~repro.core.flat.FlatRelation`, so
    everything above (row operators, ``EXPLAIN``, result equality) is
    oblivious to the representation change.

    ``children()`` is empty — the node walks the inner plan itself, in
    its ``_apply`` and under the caller's measured run, if any — but
    ``explain`` renders the inner tree beneath it with the columnar
    operator names (``CScan``, ``CFilter``, ``CProject``,
    ``CHashJoin``), and ``explain_analyze`` times every inner operator,
    reporting batch counts and rows/sec.
    """

    inner: Plan

    def schema(self, catalog) -> Tuple[str, ...]:
        return self.inner.schema(catalog)

    def estimate(self, catalog) -> float:
        return self.inner.estimate(catalog)

    def _apply(self, catalog, run: Optional["_Run"] = None) -> FlatRelation:
        rel, sel = _walk(self.inner, catalog, run, columnar=True)
        _metrics.REGISTRY.counter("columnar.exec").inc()
        return _columnar.to_flat(rel, sel)

    def label(self) -> str:
        return "ColumnarExec"


def scan(name: str) -> Scan:
    """A catalog scan (entry point of the fluent plan builders)."""
    return Scan(name)


def _relation(catalog, name: str) -> FlatRelation:
    try:
        return catalog[name]
    except KeyError:
        raise RelationError("catalog has no relation %r" % (name,)) from None


def _condensed_plan(plan: Plan) -> str:
    """The :func:`explain` tree flattened to one ``|``-separated line —
    the query text of a slow plan's wide event."""
    return " | ".join(
        line.strip() for line in explain(plan).splitlines()
    )


def _offer_slow(
    mode: str,
    plan: Plan,
    seconds: float,
    counters: Mapping[str, int],
    worst: Optional["NodeStats"] = None,
) -> None:
    """Offer a run outside any session to the slow-query log.

    Builds the run's wide event — the condensed plan as its query, the
    thread's request id, the watched-counter deltas since ``counters``
    and, for EXPLAIN ANALYZE, the estimate and actual rows of the
    ``worst``-drift node — only when ``seconds`` reaches the threshold,
    so a fast run never renders plan text.
    """
    log = _slowlog.CURRENT
    if seconds * 1000.0 < log.threshold_ms:
        return
    log.offer(
        _wide.WideEvent(
            request_id=_trace.current_request_id(),
            session=None,
            mode=mode,
            query=_condensed_plan(plan),
            ok=True,
            elapsed_ms=seconds * 1000.0,
            counters=_wide.counters_since(counters),
            est_rows=worst.estimate if worst is not None else None,
            act_rows=worst.rows_out if worst is not None else None,
        )
    )


def _catalog_stats(catalog, name: str):
    """The catalog's :class:`~repro.stats.collect.TableStats` for ``name``.

    Plain-dict catalogs expose no ``stats_for`` and yield ``None``, which
    sends every estimate down the historical fixed-constant path.
    """
    stats_for = getattr(catalog, "stats_for", None)
    return stats_for(name) if stats_for is not None else None


def _base_column_stats(plan: Plan, catalog, attribute: str):
    """Column statistics for ``attribute`` at ``plan``'s base relation.

    Walks down the plan tree to the :class:`Scan`/:class:`IndexScan`
    that contributes ``attribute``; intermediate operators do not change
    which base column the value came from (selections may shrink its
    distinct count, which the cost model caps by the estimated rows).
    """
    if isinstance(plan, (Scan, IndexScan)):
        stats = _catalog_stats(catalog, plan.name)
        return stats.column(attribute) if stats is not None else None
    for child in plan.children():
        try:
            schema = child.schema(catalog)
        except RelationError:
            continue
        if attribute in schema:
            found = _base_column_stats(child, catalog, attribute)
            if found is not None:
                return found
    return None


def _predicate_selectivity(
    predicate: Predicate, child: Plan, catalog
) -> float:
    """Statistics-backed selectivity of ``predicate`` over ``child``'s rows.

    When adaptive estimation is live (global store enabled, catalog not
    opted out) and the predicate's subtree reads one unambiguous base
    relation, the static estimate is blended with the observed
    posterior for ``(relation, attribute, op, operand)``.
    """
    column = _base_column_stats(child, catalog, predicate.attribute)
    other = (
        _base_column_stats(child, catalog, str(predicate.operand))
        if predicate.op == "attr=="
        else None
    )
    static = COST_MODEL.selectivity(
        predicate.op, predicate.operand, column, other
    )
    return _adapted_selectivity(
        static, predicate, _base_relation_name(child), catalog
    )


def _catalog_epoch(catalog, name: Optional[str]) -> int:
    """The bind epoch of ``name`` (0 for plain-dict catalogs)."""
    if name is None:
        return 0
    bind_epoch = getattr(catalog, "bind_epoch", None)
    return bind_epoch(name) if bind_epoch is not None else 0


def _adaptive_live(catalog) -> bool:
    """Is adaptive estimation applicable to this catalog right now?

    Two gates: the process-global switch
    (:data:`repro.stats.adaptive.ADAPTIVE`) and the catalog's own
    ``adaptive`` flag (absent on plain dicts — treated as opted in, so
    the global switch alone governs them).
    """
    return _adaptive.ADAPTIVE.enabled and getattr(catalog, "adaptive", True)


def _adapted_selectivity(
    static: float, predicate: Predicate, relation: Optional[str], catalog
) -> float:
    """Blend ``static`` with the adaptive posterior, when live and keyed."""
    if relation is None or not _adaptive_live(catalog):
        return static
    return _adaptive.ADAPTIVE.correct(
        static,
        relation,
        predicate.attribute,
        predicate.op,
        predicate.operand,
        epoch=_catalog_epoch(catalog, relation),
        cost_model=COST_MODEL,
    )


# ---------------------------------------------------------------------------
# The optimizer
# ---------------------------------------------------------------------------


def optimize(plan: Plan, catalog, refresh_stats: bool = True) -> Plan:
    """Rewrite ``plan`` into an equivalent, usually cheaper plan.

    Before costing anything, stale statistics on the plan's base
    relations are refreshed (see :func:`_refresh_stale_stats`) so join
    ordering and index choice never silently run on histograms describing
    a value the name no longer holds.  ``refresh_stats=False`` restores
    the historical use-what-is-there behavior.
    """
    if refresh_stats:
        _refresh_stale_stats(plan, catalog)
    original = plan
    plan = _push_selections(plan, catalog)
    plan = _use_indexes(plan, catalog)
    plan = _order_joins(plan, catalog)
    plan = _push_projections(plan, catalog, needed=None)
    if _columnar.COLUMNAR.enabled:
        plan = _lower_columnar(plan, catalog)
    if _events.CURRENT.enabled:
        names: set = set()
        _base_names(original, names)
        _events.publish(
            "INFO",
            "query",
            "optimize",
            relations=",".join(sorted(names)),
            estimate=plan.estimate(catalog),
            rewritten=plan is not original,
            columnar=isinstance(plan, ColumnarExec),
        )
    return plan


def _base_names(plan: Plan, names: set) -> None:
    """Collect every base-relation name the plan tree reads."""
    if isinstance(plan, (Scan, IndexScan)):
        names.add(plan.name)
    for child in plan.children():
        _base_names(child, names)


def _refresh_stale_stats(plan: Plan, catalog) -> None:
    """Re-analyze the plan's base relations whose statistics went stale.

    Only catalogs that expose the statistics protocol participate
    (``stats_drift``/``analyze``, i.e. :class:`repro.core.index.Catalog`);
    plain-dict catalogs are untouched.  A name is refreshed when it *has*
    statistics whose staleness (rebinds since collection — the catalog's
    mutation counter for that name) meets the catalog's configurable
    ``reanalyze_threshold``.  Never-analyzed names are skipped: absence
    of statistics is a choice, staleness is drift.  Each refresh counts
    into ``stats.auto_reanalyze``.
    """
    stats_drift = getattr(catalog, "stats_drift", None)
    analyze = getattr(catalog, "analyze", None)
    if stats_drift is None or analyze is None:
        return
    threshold = getattr(catalog, "reanalyze_threshold", None)
    if threshold is None:
        return
    names: set = set()
    _base_names(plan, names)
    for name in sorted(names):
        drift = stats_drift(name)
        if drift is not None and drift >= threshold:
            analyze(name)
            _metrics.REGISTRY.counter("stats.auto_reanalyze").inc()
            if _events.CURRENT.enabled:
                _events.publish(
                    "INFO",
                    "stats",
                    "auto_reanalyze",
                    relation=name,
                    drift=drift,
                    threshold=threshold,
                )


_SARGABLE_OPS = ("==", "<", "<=", ">", ">=")


def _use_indexes(plan: Plan, catalog) -> Plan:
    """Rewrite ``Select(sargable, Scan)`` into an ``IndexScan`` when the
    cost model prefers the probe.

    Runs after selection pushdown so selections sit directly on their
    base tables.  Only catalogs exposing ``index_on`` participate; the
    index-vs-scan decision compares the bisection-plus-matching-run cost
    against the full scan using the (statistics-backed) selectivity, so
    a predicate that keeps nearly every row stays a scan.
    """
    index_on = getattr(catalog, "index_on", None)
    if isinstance(plan, Select):
        child = _use_indexes(plan.child, catalog)
        if (
            index_on is not None
            and isinstance(child, Scan)
            and plan.predicate.op in _SARGABLE_OPS
            and index_on(child.name, plan.predicate.attribute) is not None
        ):
            table_rows = len(_relation(catalog, child.name))
            selectivity = _predicate_selectivity(
                plan.predicate, child, catalog
            )
            if COST_MODEL.prefer_index(table_rows, selectivity):
                return IndexScan(child.name, plan.predicate)
        return Select(plan.predicate, child)
    if isinstance(plan, Project):
        return Project(plan.attributes, _use_indexes(plan.child, catalog))
    if isinstance(plan, Join):
        return Join(
            _use_indexes(plan.left, catalog), _use_indexes(plan.right, catalog)
        )
    return plan


def _push_selections(plan: Plan, catalog) -> Plan:
    if isinstance(plan, Select):
        child = _push_selections(plan.child, catalog)
        return _sink_select(plan.predicate, child, catalog)
    if isinstance(plan, Project):
        return Project(plan.attributes, _push_selections(plan.child, catalog))
    if isinstance(plan, Join):
        return Join(
            _push_selections(plan.left, catalog),
            _push_selections(plan.right, catalog),
        )
    return plan


def _sink_select(predicate: Predicate, plan: Plan, catalog) -> Plan:
    """Push one selection as deep as its attributes allow."""
    needed = predicate.attributes()
    if isinstance(plan, Join):
        left_schema = set(plan.left.schema(catalog))
        right_schema = set(plan.right.schema(catalog))
        if needed <= left_schema:
            return Join(_sink_select(predicate, plan.left, catalog), plan.right)
        if needed <= right_schema:
            return Join(plan.left, _sink_select(predicate, plan.right, catalog))
        return Select(predicate, plan)
    if isinstance(plan, Select):
        # Commute below an existing selection when possible (keeps the
        # cheaper equality tests innermost is out of scope; just sink).
        return Select(
            plan.predicate, _sink_select(predicate, plan.child, catalog)
        )
    if isinstance(plan, Project):
        if needed <= set(plan.attributes):
            return Project(
                plan.attributes, _sink_select(predicate, plan.child, catalog)
            )
        return Select(predicate, plan)
    return Select(predicate, plan)


def _order_joins(plan: Plan, catalog) -> Plan:
    """Greedy join-order enumeration over the cardinality estimates.

    A chain of :class:`Join` nodes is flattened into its non-join
    inputs, each recursively ordered, then rebuilt left-deep: start from
    the smallest estimated input and repeatedly join the input that
    minimizes the estimated intermediate result, always preferring a
    join with shared attributes over a cross product.  The natural join
    is associative and commutative, so any order computes the same
    relation (the property suite checks this on random plans).
    """
    if isinstance(plan, Join):
        leaves: List[Plan] = []
        _flatten_joins(plan, leaves)
        ordered = [_order_joins(leaf, catalog) for leaf in leaves]
        return _greedy_join(ordered, catalog)
    if isinstance(plan, Select):
        return Select(plan.predicate, _order_joins(plan.child, catalog))
    if isinstance(plan, Project):
        return Project(plan.attributes, _order_joins(plan.child, catalog))
    return plan


def _flatten_joins(plan: Plan, leaves: List[Plan]) -> None:
    """Collect the maximal non-Join subtrees of a join chain, in order."""
    if isinstance(plan, Join):
        _flatten_joins(plan.left, leaves)
        _flatten_joins(plan.right, leaves)
    else:
        leaves.append(plan)


def _greedy_join(inputs: List[Plan], catalog) -> Plan:
    """Left-deep greedy ordering of ``inputs`` (ties keep input order)."""
    remaining = list(inputs)
    seed = min(
        range(len(remaining)),
        key=lambda i: (remaining[i].estimate(catalog), i),
    )
    current = remaining.pop(seed)
    joined_schema = set(current.schema(catalog))
    while remaining:

        def cost(i: int):
            candidate = remaining[i]
            crosses = not (joined_schema & set(candidate.schema(catalog)))
            return (
                crosses,
                Join(current, candidate).estimate(catalog),
                i,
            )

        best = min(range(len(remaining)), key=cost)
        chosen = remaining.pop(best)
        joined_schema |= set(chosen.schema(catalog))
        current = Join(current, chosen)
    return current


def _push_projections(
    plan: Plan, catalog, needed: Optional[FrozenSet[str]]
) -> Plan:
    """Insert projections so operators see only the attributes required.

    ``needed`` is what the parent requires (``None`` = everything).
    """
    if isinstance(plan, Project):
        return Project(
            plan.attributes,
            _push_projections(
                plan.child, catalog, frozenset(plan.attributes)
            ),
        )
    if isinstance(plan, Select):
        child_needed = (
            None
            if needed is None
            else needed | plan.predicate.attributes()
        )
        return Select(
            plan.predicate,
            _push_projections(plan.child, catalog, child_needed),
        )
    if isinstance(plan, Join):
        left_schema = frozenset(plan.left.schema(catalog))
        right_schema = frozenset(plan.right.schema(catalog))
        join_attrs = left_schema & right_schema
        if needed is None:
            left_needed = None
            right_needed = None
        else:
            left_needed = (needed | join_attrs) & left_schema
            right_needed = (needed | join_attrs) & right_schema
        return Join(
            _maybe_project(
                _push_projections(plan.left, catalog, left_needed),
                left_needed,
                left_schema,
            ),
            _maybe_project(
                _push_projections(plan.right, catalog, right_needed),
                right_needed,
                right_schema,
            ),
        )
    if isinstance(plan, Scan) and needed is not None:
        schema = frozenset(plan.schema(catalog))
        if needed < schema:
            return Project(tuple(sorted(needed)), plan)
    return plan


def _maybe_project(plan: Plan, needed, schema) -> Plan:
    if needed is None or needed >= schema:
        return plan
    if isinstance(plan, Project) and set(plan.attributes) <= needed:
        return plan
    return Project(tuple(sorted(needed)), plan)


# ---------------------------------------------------------------------------
# Columnar lowering
# ---------------------------------------------------------------------------

# Predicate operators the vectorized filter kernel implements; a Select
# using anything else keeps its subtree row-at-a-time.
_COLUMNAR_OPS = frozenset(("==", "!=", "<", "<=", ">", ">=", "attr=="))


def _columnar_eligible(plan: Plan) -> bool:
    """Can the array kernels evaluate this whole subtree?

    Scans of flat relations qualify by construction (a FlatRelation is
    all-ground over a single signature — the shape
    :func:`~repro.core.relation.flat_schema_of` detects); selections need a kernel
    operator, projections distinct attributes.  ``IndexScan`` stays
    row-wise: its probe is already sub-linear, so there is nothing to
    vectorize.
    """
    if isinstance(plan, Scan):
        return True
    if isinstance(plan, Select):
        return plan.predicate.op in _COLUMNAR_OPS and _columnar_eligible(
            plan.child
        )
    if isinstance(plan, Project):
        return len(set(plan.attributes)) == len(
            plan.attributes
        ) and _columnar_eligible(plan.child)
    if isinstance(plan, Join):
        return _columnar_eligible(plan.left) and _columnar_eligible(
            plan.right
        )
    return False


def _scan_input_rows(plan: Plan, catalog) -> float:
    """Total base-table rows the subtree's scans will read."""
    if isinstance(plan, Scan):
        return float(len(_relation(catalog, plan.name)))
    return sum(_scan_input_rows(child, catalog) for child in plan.children())


def _lower_columnar(plan: Plan, catalog) -> Plan:
    """Wrap maximal eligible subtrees in :class:`ColumnarExec`.

    Top-down: the largest eligible subtree whose input volume clears
    the cost model's :meth:`~repro.stats.cost.CostModel.prefer_columnar`
    decision is lowered whole; otherwise the pass recurses, so an
    eligible branch below an ineligible operator (an IndexScan sibling,
    say) still runs vectorized.
    """
    if _columnar_eligible(plan) and COST_MODEL.prefer_columnar(
        _scan_input_rows(plan, catalog)
    ):
        _metrics.REGISTRY.counter("columnar.lowered").inc()
        return ColumnarExec(plan)
    if isinstance(plan, Select):
        return Select(plan.predicate, _lower_columnar(plan.child, catalog))
    if isinstance(plan, Project):
        return Project(plan.attributes, _lower_columnar(plan.child, catalog))
    if isinstance(plan, Join):
        return Join(
            _lower_columnar(plan.left, catalog),
            _lower_columnar(plan.right, catalog),
        )
    return plan


# ---------------------------------------------------------------------------
# Introspection
# ---------------------------------------------------------------------------


def explain(plan: Plan, indent: int = 0) -> str:
    """An indented rendering of the plan tree.

    A :class:`ColumnarExec` executes its inner plan itself (it has no
    children), but the rendering still shows the lowered tree beneath
    it under the columnar operator names.
    """
    return "\n".join(_explained(plan, indent, columnar=False))


def _explained(plan: Plan, indent: int, columnar: bool) -> Iterator[str]:
    yield "  " * indent + (plan.columnar_label() if columnar else plan.label())
    if isinstance(plan, ColumnarExec):
        yield from _explained(plan.inner, indent + 1, columnar=True)
    for child in plan.children():
        yield from _explained(child, indent + 1, columnar)


@dataclass
class NodeStats:
    """Measured execution of one plan node (what EXPLAIN ANALYZE shows).

    ``self_seconds`` is the operator's own cost (children excluded);
    ``total_seconds`` includes the whole subtree.  ``estimate`` is the
    optimizer's cardinality guess, kept beside ``rows_out`` so the
    estimate-vs-actual drift is visible per node.
    """

    label: str
    estimate: float
    rows_in: Tuple[int, ...]
    rows_out: int
    self_seconds: float
    total_seconds: float
    children: List["NodeStats"] = field(default_factory=list)
    # Join-pair accounting for this operator alone (counter deltas
    # around its ``_apply``): pairs the flat/cochain kernels actually
    # checked vs. pairs the hash partitioning discarded unexamined.
    pairs_tried: int = 0
    pairs_pruned: int = 0
    # Array chunks a columnar operator swept (0 for row operators);
    # rendered with the operator's rows/sec so the vectorized path is
    # visible per node in EXPLAIN ANALYZE.
    batches: int = 0
    # The statistics-only estimate this node would have carried with
    # adaptive feedback suppressed; ``None`` when adaptivity was not
    # live for the node (so no second estimate was computed).
    static_estimate: Optional[float] = None

    @property
    def corrected(self) -> bool:
        """Did execution feedback change this node's estimate?"""
        return (
            self.static_estimate is not None
            and abs(self.static_estimate - self.estimate) > 1e-9
        )

    @property
    def pruning_ratio(self) -> float:
        """Pruned pairs over logical pairs (0.0 when no pairs seen)."""
        logical = self.pairs_tried + self.pairs_pruned
        return self.pairs_pruned / logical if logical else 0.0

    @property
    def drift(self) -> float:
        """Actual rows over estimated rows (1.0 = perfect estimate).

        The estimate is floored at one row (the optimizer clamps there
        too), so the ratio is always finite — even for hand-built
        ``NodeStats`` with a zero estimate.
        """
        return self.rows_out / max(self.estimate, 1.0)

    @property
    def drift_ratio(self) -> float:
        """Symmetric drift: ``max(actual/estimate, estimate/actual)``.

        Both sides floored at one row, so over- and under-estimates are
        penalized alike and empty results stay finite.  1.0 is perfect.
        """
        actual = max(float(self.rows_out), 1.0)
        estimate = max(self.estimate, 1.0)
        return max(actual / estimate, estimate / actual)

    def walk(self):
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            for descendant in child.walk():
                yield descendant


# The tracer analyze() runs under: a switched-off one.  EXPLAIN ANALYZE
# measures into its NodeStats tree; a span tree it left on the global
# tracer outside any request (a served ``:explain``) would never be
# harvested.
_UNTRACED = _trace.Tracer()
_UNTRACED.enabled = False


class _Run:
    """The state one measured walk of a plan shares across its nodes.

    ``finished`` holds the :class:`NodeStats` of evaluated nodes that no
    parent has claimed yet: a node claims everything that finished after
    it started — its children and, for a :class:`ColumnarExec`, the
    lowered subtree its ``_apply`` walked.  ``bookkeeping`` sums the
    seconds spent accounting for finished nodes, which no node's time
    includes.  ``analyzing`` adds what :func:`analyze` records per node
    (see :func:`_observe`) and leaves the nodes untraced; ``observed``
    keeps those nodes, in the order they finished, for the feedback
    :func:`analyze` records once the walk is done.
    """

    __slots__ = ("analyzing", "tracer", "finished", "bookkeeping", "observed")

    def __init__(self, analyzing: bool):
        self.analyzing = analyzing
        self.tracer = _UNTRACED if analyzing else _trace.CURRENT
        self.finished: List[NodeStats] = []
        self.bookkeeping = 0.0
        self.observed: List[Tuple[Plan, NodeStats]] = []


def _walk(
    plan: Plan, catalog, run: Optional[_Run] = None, columnar: bool = False
):
    """Evaluate ``plan`` bottom-up: the one walk behind
    :meth:`Plan.execute`, :func:`analyze` and :meth:`ColumnarExec._apply`.

    ``columnar`` is the representation the subtree was lowered to: row
    nodes hand :class:`FlatRelation` s up through ``_apply``, lowered
    ones ``(ColumnarRelation, selection)`` pairs through ``_kernel``.
    With no ``run`` and the tracer and profiler off nothing is measured.
    Otherwise every node, in either representation, is accounted once:
    a tracer span (executions only), a :class:`NodeStats` whose self
    time and join pairs exclude what the node evaluated inside its
    operator (a ``ColumnarExec``'s lowered subtree, measured node by
    node), the profiler's per-label record, and :func:`_observe` when
    analyzing.
    """
    if run is None:
        if not (_trace.CURRENT.enabled or _profile.CURRENT.enabled):
            inputs = [
                _walk(child, catalog, None, columnar)
                for child in plan.children()
            ]
            if columnar:
                return _run_kernel(plan, catalog, inputs)[0]
            return plan._apply(catalog, *inputs)
        run = _Run(analyzing=False)
    finished = run.finished
    mark = len(finished)
    with run.tracer.span("plan." + type(plan).__name__.lower()) as span:
        inputs = [
            _walk(child, catalog, run, columnar) for child in plan.children()
        ]
        claimed = len(finished)
        bookkeeping = run.bookkeeping
        tried, pruned = _metrics.join_pairs()
        started = time.perf_counter()
        if columnar:
            out, rows_out, batches = _run_kernel(plan, catalog, inputs)
        else:
            if isinstance(plan, ColumnarExec):
                out = plan._apply(catalog, run)
            else:
                out = plan._apply(catalog, *inputs)
            rows_out, batches = len(out), 0
        stopped = time.perf_counter()
        tried_after, pruned_after = _metrics.join_pairs()
        children = finished[mark:]
        del finished[mark:]
        # What the operator itself walked (a ColumnarExec's lowered
        # subtree) keeps its own time and pairs, and the bookkeeping
        # for it is nobody's time.
        nested_roots = children[claimed - mark:]
        nested = [node for root in nested_roots for node in root.walk()]
        self_seconds = (
            stopped
            - started
            - sum(root.total_seconds for root in nested_roots)
            - (run.bookkeeping - bookkeeping)
        )
        stats = NodeStats(
            label=plan.columnar_label() if columnar else plan.label(),
            estimate=0.0,
            rows_in=tuple(child.rows_out for child in children),
            rows_out=rows_out,
            self_seconds=self_seconds,
            total_seconds=self_seconds
            + sum(child.total_seconds for child in children),
            children=children,
            pairs_tried=tried_after
            - tried
            - sum(node.pairs_tried for node in nested),
            pairs_pruned=pruned_after
            - pruned
            - sum(node.pairs_pruned for node in nested),
            batches=batches,
        )
        span.annotate(
            node=stats.label, rows_in=sum(stats.rows_in), rows_out=rows_out
        )
    profiler = _profile.CURRENT
    if profiler.enabled:
        profiler.record(
            stats.label,
            self_seconds,
            rows_out=rows_out,
            pairs_tried=stats.pairs_tried,
            pairs_pruned=stats.pairs_pruned,
        )
    if run.analyzing:
        _observe(plan, stats, catalog)
        run.observed.append((plan, stats))
    finished.append(stats)
    run.bookkeeping += time.perf_counter() - stopped
    return out


def _run_kernel(plan: Plan, catalog, inputs):
    """A lowered node's kernel over its inputs: ``(output, rows, batches)``.

    Batch and row counts land in ``columnar.batches``/``columnar.rows``
    whether or not the walk is measured.
    """
    (rel, sel), batches = plan._kernel(catalog, *inputs)
    rows = rel.nrows if sel is None else len(sel)
    registry = _metrics.REGISTRY
    registry.counter("columnar.batches").inc(batches)
    registry.counter("columnar.rows").inc(rows)
    return (rel, sel), rows, batches


def _observe(plan: Plan, stats: NodeStats, catalog) -> None:
    """What :func:`analyze` records for one measured node.

    The ``query.*`` metrics, the optimizer's estimate beside the actual
    rows, the adaptive-correction counter and event, and the drift
    accounting.  The feedback that trains the next run's estimate waits
    for the end of the walk, so no node's estimate includes this run's
    feedback.
    """
    registry = _metrics.REGISTRY
    registry.counter("query.nodes").inc()
    registry.counter("query.rows_out").inc(stats.rows_out)
    registry.histogram("query.node.seconds").observe(stats.self_seconds)
    stats.estimate = plan.estimate(catalog)
    if isinstance(plan, (Select, IndexScan)) and _adaptive_live(catalog):
        # Re-estimate with feedback suppressed so "corrected by
        # feedback" is attributable per node.
        with _adaptive.ADAPTIVE.suppressed():
            stats.static_estimate = plan.estimate(catalog)
    if stats.corrected:
        registry.counter("stats.adaptive.corrections").inc()
        if _events.CURRENT.enabled:
            _events.publish(
                "INFO",
                "stats",
                "adaptive_correction",
                node=stats.label,
                static=stats.static_estimate,
                blended=stats.estimate,
                rows_out=stats.rows_out,
            )
    # Estimate-error accounting: the drift histogram tracks how wrong
    # the optimizer is over the process lifetime; a "miss" is a node
    # whose estimate is off by more than 2x in either direction.
    registry.histogram("query.estimate.drift").observe(stats.drift_ratio)
    if stats.drift_ratio > 2.0:
        registry.counter("query.estimate.misses").inc()


def analyze(plan: Plan, catalog) -> Tuple[FlatRelation, NodeStats]:
    """Execute ``plan`` measuring each node; returns (result, stats tree).

    Children are evaluated before their parent is timed, so
    ``self_seconds`` isolates each operator's own cost — unlike a span
    around ``execute``, which would fold the subtree in.  Per-node
    cardinalities and timings also land in the global metrics registry
    (``query.nodes``, ``query.rows_out``, ``query.node.seconds``), and
    with the profiler on in the same per-label accumulation as
    :meth:`Plan.execute`'s, so a REPL ``:explain`` populates
    ``:profile``.  A :class:`ColumnarExec` node is measured operator by
    operator on the columnar side, under the columnar names.
    """
    run = _Run(analyzing=True)
    result = _walk(plan, catalog, run)
    for node, stats in run.observed:
        _record_feedback(node, stats, catalog)
    return result, run.finished[0]


def _base_relation_name(plan: Plan) -> Optional[str]:
    """The base table a single-input subtree reads, when unambiguous."""
    while True:
        if isinstance(plan, (Scan, IndexScan)):
            return plan.name
        children = plan.children()
        if len(children) != 1:
            return None
        plan = children[0]


def _record_feedback(plan: Plan, stats: NodeStats, catalog) -> None:
    """Log the observed selectivity of selection nodes (the feedback hook).

    The structured key parts (relation, attribute, operator, operand,
    bind epoch) ride along, so the observation also trains the adaptive
    store — the estimate the *next* run of this predicate sees.
    """
    if isinstance(plan, Select):
        relation = _base_relation_name(plan.child)
        _feedback.record(
            predicate=str(plan.predicate),
            estimate=stats.estimate,
            rows_in=stats.rows_in[0] if stats.rows_in else 0,
            rows_out=stats.rows_out,
            relation=relation,
            attribute=plan.predicate.attribute,
            op=plan.predicate.op,
            operand=plan.predicate.operand,
            epoch=_catalog_epoch(catalog, relation),
        )
    elif isinstance(plan, IndexScan):
        _feedback.record(
            predicate=str(plan.predicate),
            estimate=stats.estimate,
            rows_in=len(_relation(catalog, plan.name)),
            rows_out=stats.rows_out,
            relation=plan.name,
            attribute=plan.predicate.attribute,
            op=plan.predicate.op,
            operand=plan.predicate.operand,
            epoch=_catalog_epoch(catalog, plan.name),
        )


def _render_analyzed(stats: NodeStats, indent: int) -> List[str]:
    pad = "  " * indent
    rows_in_text = (
        "rows_in=%s " % "+".join(str(n) for n in stats.rows_in)
        if stats.rows_in
        else ""
    )
    pairs_text = ""
    if stats.pairs_tried or stats.pairs_pruned:
        pairs_text = "  (pairs tried=%d pruned=%d %.0f%%)" % (
            stats.pairs_tried,
            stats.pairs_pruned,
            100.0 * stats.pruning_ratio,
        )
    corrected_text = ""
    if stats.corrected:
        corrected_text = "  (corrected by feedback: static=%.1f)" % (
            stats.static_estimate,
        )
    batches_text = ""
    if stats.batches:
        batches_text = "  (columnar batches=%d rows/s=%.3g)" % (
            stats.batches,
            stats.rows_out / max(stats.self_seconds, 1e-9),
        )
    lines = [
        "%s%s  (estimate=%.1f)  (actual %srows=%d self=%.3fms total=%.3fms"
        " drift=%.2fx)%s%s%s"
        % (
            pad,
            stats.label,
            stats.estimate,
            rows_in_text,
            stats.rows_out,
            stats.self_seconds * 1000.0,
            stats.total_seconds * 1000.0,
            stats.drift_ratio,
            pairs_text,
            batches_text,
            corrected_text,
        )
    ]
    for child in stats.children:
        lines.extend(_render_analyzed(child, indent + 1))
    return lines


def drift_summary(stats: NodeStats) -> str:
    """One line summarizing estimate error over a measured plan tree."""
    nodes = list(stats.walk())
    worst = max(nodes, key=lambda n: n.drift_ratio)
    mean = sum(n.drift_ratio for n in nodes) / len(nodes)
    corrected = sum(1 for n in nodes if n.corrected)
    corrected_text = (
        ", %d corrected by feedback" % corrected if corrected else ""
    )
    return "drift: max=%.2fx (%s) mean=%.2fx over %d nodes%s" % (
        worst.drift_ratio,
        worst.label,
        mean,
        len(nodes),
        corrected_text,
    )


def explain_analyze(plan: Plan, catalog) -> str:
    """The :func:`explain` tree annotated with *measured* execution.

    Runs the plan (like ``EXPLAIN ANALYZE``), printing next to every
    node the optimizer's cardinality estimate and the actual rows in and
    out plus wall time (operator-only and subtree-total) and the
    symmetric estimate drift, then a per-plan drift summary line::

        Join  (estimate=2.0)  (actual rows_in=2+3 rows=2 self=0.031ms total=0.089ms drift=1.00x)
          Select[Dept == 'Sales']  (estimate=1.0)  (actual rows_in=4 rows=2 ... drift=2.00x)
            Scan(emp)  (estimate=4.0)  (actual rows=4 ... drift=1.00x)
          Scan(dept)  (estimate=3.0)  (actual rows=3 ... drift=1.00x)
        drift: max=2.00x (Select[Dept == 'Sales']) mean=1.25x over 4 nodes

    The tree's worst drift also lands in the
    ``query.estimate.max_drift`` gauge, so dashboards see the latest
    plan quality without parsing text.
    """
    counters = (
        _wide.counters_snapshot() if _slowlog.CURRENT.enabled else None
    )
    __, stats = analyze(plan, catalog)
    nodes = list(stats.walk())
    worst = max(nodes, key=lambda n: n.drift_ratio)
    _metrics.REGISTRY.gauge("query.estimate.max_drift").set(worst.drift_ratio)
    if counters is not None:
        _offer_slow("explain", plan, stats.total_seconds, counters, worst)
    if _events.CURRENT.enabled:
        _events.publish(
            "INFO",
            "query",
            "explain_analyze",
            root=stats.label,
            nodes=len(nodes),
            rows_out=stats.rows_out,
            total_ms=stats.total_seconds * 1000.0,
            max_drift=worst.drift_ratio,
            pairs_tried=sum(n.pairs_tried for n in nodes),
            pairs_pruned=sum(n.pairs_pruned for n in nodes),
            corrected=sum(1 for n in nodes if n.corrected),
        )
    return "\n".join(_render_analyzed(stats, 0) + [drift_summary(stats)])
