"""Ordered secondary indexes over flat relations, and an indexed catalog.

The E1 experiment showed what an index buys a *heterogeneous* store;
this module is the flat-relation counterpart: a sorted attribute index
supporting equality and range lookups in logarithmic time, and a
:class:`Catalog` the query optimizer consults to turn sargable
selections over base tables into :class:`~repro.core.query.IndexScan`
nodes.

Indexes are built once over an immutable :class:`FlatRelation`; the
relational world here is value-oriented, so "updating" a relation means
binding a new one (and re-indexing), exactly like every other value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.flat import FlatRelation
from repro.errors import RelationError
from repro.obs import metrics as _metrics
from repro.stats.collect import TableStats
from repro.stats.collect import analyze as _collect_stats
from repro.stats.histogram import order_key, uniform_scalar_type


class SortedIndex:
    """A sorted index on one attribute of a flat relation.

    Supports ``lookup_eq`` and ``lookup_range`` (both ends optional,
    inclusive/exclusive), returning rows as attribute→value dicts, and
    ``select``, returning them as a relation.  Mixed-type attribute
    values are ordered by (type name, value) — :func:`order_key` — so
    the sort is total even when ints and strings share a column.

    The relation's row tuples are sorted once and kept as tuples; dicts
    are built only for the rows a lookup returns.  When every value of
    the attribute has one scalar type the values are their own sort
    keys, and a lookup operand of another type sorts before or after
    all of them by its type name.  The order among rows with equal keys
    is unspecified.
    """

    __slots__ = ("_attribute", "_schema", "_keys", "_rows", "_tag")

    def __init__(self, relation: FlatRelation, attribute: str):
        if attribute not in relation.schema:
            raise RelationError(
                "cannot index %r: not in schema %r"
                % (attribute, relation.schema)
            )
        self._attribute = attribute
        self._schema = relation.schema
        position = relation.schema.index(attribute)
        rows = list(relation.rows)
        keys = [row[position] for row in rows]
        kind = uniform_scalar_type(keys)
        if kind is None:
            keys = list(map(order_key, keys))
        # The type name every key shares when keys are raw values; None
        # when they are type-tagged order keys.
        self._tag: Optional[str] = None if kind is None else kind.__name__
        order = sorted(range(len(rows)), key=keys.__getitem__)
        self._keys = [keys[i] for i in order]
        self._rows = [rows[i] for i in order]

    @property
    def attribute(self) -> str:
        """The indexed attribute."""
        return self._attribute

    def __len__(self) -> int:
        return len(self._rows)

    def lookup_eq(self, value) -> List[Dict[str, object]]:
        """All rows whose indexed attribute equals ``value``."""
        return self._dicts(*self._equal(value))

    def lookup_range(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> List[Dict[str, object]]:
        """All rows with the indexed attribute in the given range."""
        return self._dicts(
            *self._between(low, high, low_inclusive, high_inclusive)
        )

    def select(self, op: str, operand) -> FlatRelation:
        """Rows satisfying ``attribute <op> operand`` as a relation."""
        if op == "==":
            start, end = self._equal(operand)
        elif op == "<":
            start, end = self._between(None, operand, True, False)
        elif op == "<=":
            start, end = self._between(None, operand, True, True)
        elif op == ">":
            start, end = self._between(operand, None, False, True)
        elif op == ">=":
            start, end = self._between(operand, None, True, True)
        else:
            raise RelationError("index cannot answer operator %r" % op)
        return FlatRelation.bulk_build(self._schema, self._rows[start:end])

    # -- positions ------------------------------------------------------------

    def _dicts(self, start: int, end: int) -> List[Dict[str, object]]:
        schema = self._schema
        return [dict(zip(schema, row)) for row in self._rows[start:end]]

    def _equal(self, value) -> Tuple[int, int]:
        return self._bisect(value, False), self._bisect(value, True)

    def _between(
        self, low, high, low_inclusive: bool, high_inclusive: bool
    ) -> Tuple[int, int]:
        start = 0 if low is None else self._bisect(low, not low_inclusive)
        end = (
            len(self._rows)
            if high is None
            else self._bisect(high, high_inclusive)
        )
        return start, end

    def _bisect(self, value, after: bool) -> int:
        """Where ``value`` falls among the keys: before its run of equal
        keys, or after it when ``after``."""
        if self._tag is None:
            key = order_key(value)
        else:
            tag = type(value).__name__
            if tag != self._tag:
                # Another type sorts wholly before or after this column.
                return 0 if tag < self._tag else len(self._keys)
            key = value
        return (bisect_right if after else bisect_left)(self._keys, key)


class Catalog:
    """Named relations plus their secondary indexes and statistics.

    Quacks like the plain ``Mapping[str, FlatRelation]`` the query
    executor expects, and additionally answers :meth:`index_on`, which
    the optimizer uses to plant :class:`~repro.core.query.IndexScan`
    nodes, and :meth:`stats_for`, which the cost model consults for
    measured selectivities.

    Every relation carries a *bind epoch* — a staleness counter bumped
    each time the name is rebound.  :meth:`analyze` stamps the collected
    :class:`~repro.stats.collect.TableStats` with the epoch of the
    moment, so :meth:`stats_stale` can tell whether the statistics still
    describe the current value.  With ``auto_analyze=True`` statistics
    are collected at registration time (and kept fresh on rebinds)
    without any explicit calls.

    ``reanalyze_threshold`` configures lazy re-analysis instead: when
    :func:`repro.core.query.optimize` plans over a relation whose
    statistics have gone stale by at least that many rebinds, it calls
    :meth:`analyze` for the name rather than silently costing the plan
    from stale histograms.  The default of 1 refreshes on any staleness;
    ``None`` disables the behavior (historical: stale stats are used
    as-is).  Names never analyzed are left alone either way — a catalog
    that opted out of statistics keeps the fixed-constant estimates.

    ``adaptive`` is the per-catalog escape hatch for adaptive
    selectivity estimation (:mod:`repro.stats.adaptive`): with the
    process-global store enabled, a catalog built with
    ``adaptive=False`` keeps purely static estimates — execution
    feedback is still *recorded*, just never applied to this catalog's
    plans.

    Vectorized execution (:mod:`repro.core.columnar`) has no
    per-catalog switch: the process-global one alone decides whether
    the optimizer plants ``ColumnarExec`` nodes.
    """

    def __init__(
        self,
        relations: Optional[Mapping[str, FlatRelation]] = None,
        auto_analyze: bool = False,
        reanalyze_threshold: Optional[int] = 1,
        adaptive: bool = True,
    ):
        self._relations: Dict[str, FlatRelation] = {}
        self._indexes: Dict[Tuple[str, str], SortedIndex] = {}
        self._stats: Dict[str, TableStats] = {}
        self._epochs: Dict[str, int] = {}
        self._auto_analyze = auto_analyze
        self.reanalyze_threshold = reanalyze_threshold
        self.adaptive = adaptive
        for name, relation in (relations or {}).items():
            self.bind(name, relation)

    def __getitem__(self, name: str) -> FlatRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(name) from None

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self):
        return iter(self._relations)

    def bind(self, name: str, relation: FlatRelation) -> None:
        """(Re)bind a relation; its old indexes are dropped.

        Bumps the name's bind epoch, which marks previously collected
        statistics stale (they are kept — a stale estimate still beats
        a constant — unless ``auto_analyze`` refreshes them here).
        """
        self._relations[name] = relation
        self._epochs[name] = self._epochs.get(name, -1) + 1
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]
        if self._auto_analyze:
            self.analyze(name)

    def create_index(self, name: str, attribute: str) -> SortedIndex:
        """Build (or rebuild) a sorted index on ``name.attribute``."""
        if name not in self._relations:
            raise RelationError("catalog has no relation %r" % name)
        index = SortedIndex(self._relations[name], attribute)
        self._indexes[(name, attribute)] = index
        return index

    def index_on(self, name: str, attribute: str) -> Optional[SortedIndex]:
        """The index for ``name.attribute``, if one was created."""
        return self._indexes.get((name, attribute))

    def indexes(self) -> List[Tuple[str, str]]:
        """The (relation, attribute) pairs currently indexed."""
        return sorted(self._indexes)

    # -- statistics ---------------------------------------------------------

    def analyze(self, name: str, **options) -> TableStats:
        """Collect and store statistics for ``name`` (see
        :func:`repro.stats.collect.analyze`)."""
        if name not in self._relations:
            raise RelationError("catalog has no relation %r" % name)
        stats = _collect_stats(
            self._relations[name],
            name=name,
            epoch=self._epochs.get(name, 0),
            **options,
        )
        self._stats[name] = stats
        _metrics.REGISTRY.gauge("stats.catalog.analyzed_tables").set(
            len(self._stats)
        )
        return stats

    def analyze_all(self, **options) -> Dict[str, TableStats]:
        """Collect statistics for every relation in the catalog."""
        return {name: self.analyze(name, **options) for name in sorted(self)}

    def stats_for(self, name: str) -> Optional[TableStats]:
        """The stored statistics for ``name`` (possibly stale), if any."""
        return self._stats.get(name)

    def stats_stale(self, name: str) -> bool:
        """Whether ``name`` was rebound since its statistics were taken.

        ``True`` also when no statistics exist — either way,
        :meth:`analyze` is due.
        """
        stats = self._stats.get(name)
        return stats is None or stats.epoch != self._epochs.get(name, 0)

    def bind_epoch(self, name: str) -> int:
        """The staleness counter for ``name`` (bumped by every bind)."""
        return self._epochs.get(name, 0)

    def stats_drift(self, name: str) -> Optional[int]:
        """How many rebinds ``name`` has seen since its statistics.

        ``None`` when the name was never analyzed (there is nothing to
        refresh — the caller opted out of statistics for it); ``0`` when
        the statistics are current.  The optimizer's auto re-analyze
        compares this against :attr:`reanalyze_threshold`.
        """
        stats = self._stats.get(name)
        if stats is None:
            return None
        return self._epochs.get(name, 0) - stats.epoch
