"""Classic flat (1NF) relational algebra.

The paper contrasts object-oriented databases with relational ones, whose
relations are *flat*: "We cannot store complex structures such as arrays
or other relations as values in a relation."  This module implements the
textbook algebra over flat relations — selection, projection, natural
join, union, difference, rename — both as a baseline for the generalized
relations of :mod:`repro.core.relation` (experiment E4 shows the
generalized join restricted to flat data *is* the natural join) and as
the substrate for the Pascal/R emulation in :mod:`repro.classes.pascal_r`.

A flat relation has a fixed schema (a tuple of attribute names) and a set
of total rows mapping every attribute to a scalar.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple, Union

from repro.core.orders import AtomPayload, _ATOM_TYPES
from repro.core.relation import GeneralizedRelation
from repro.errors import SchemaMismatchError
from repro.obs import metrics as _metrics

Row = Tuple[AtomPayload, ...]
RowMapping = Mapping[str, AtomPayload]


class FlatRelation:
    """An immutable 1NF relation: a schema plus a set of total rows.

    Rows may be given as mappings or as tuples following the schema
    order.  Duplicate rows collapse (relations are sets)::

        >>> r = FlatRelation(('Name', 'Dept'),
        ...                  [{'Name': 'J Doe', 'Dept': 'Sales'}])
        >>> r.schema
        ('Name', 'Dept')
    """

    # ``__weakref__`` lets the columnar engine's scan-conversion cache
    # (:mod:`repro.core.columnar`) evict entries when a relation dies.
    __slots__ = ("_schema", "_rows", "__weakref__")

    def __init__(
        self,
        schema: Iterable[str],
        rows: Iterable[Union[Row, RowMapping]] = (),
    ):
        self._schema: Tuple[str, ...] = tuple(schema)
        if len(set(self._schema)) != len(self._schema):
            raise SchemaMismatchError(
                "duplicate attribute in schema %r" % (self._schema,)
            )
        normalized = set()
        for row in rows:
            normalized.add(self._normalize_row(row))
        self._rows: FrozenSet[Row] = frozenset(normalized)

    @classmethod
    def bulk_build(
        cls, schema: Iterable[str], rows: Iterable[Row]
    ) -> "FlatRelation":
        """Trusted bulk constructor: skip per-row normalization.

        ``rows`` must already be tuples of atoms in schema order — the
        shape workload generators and the columnar engine produce.  The
        per-row mapping/arity/atom checks of ``__init__`` are what
        dominate large-``n`` construction (the ``insert_stream`` row of
        ``BENCH_relation.json``); here rows go straight into the
        frozenset.  Duplicates still collapse; the schema is still
        checked (it is O(attributes), not O(rows)).
        """
        self = object.__new__(cls)
        self._schema = tuple(schema)
        if len(set(self._schema)) != len(self._schema):
            raise SchemaMismatchError(
                "duplicate attribute in schema %r" % (self._schema,)
            )
        self._rows = frozenset(rows)
        return self

    def _normalize_row(self, row: Union[Row, RowMapping]) -> Row:
        if isinstance(row, Mapping):
            missing = [a for a in self._schema if a not in row]
            if missing:
                raise SchemaMismatchError(
                    "row %r is missing attributes %r (flat rows are total)"
                    % (dict(row), missing)
                )
            extra = [a for a in row if a not in self._schema]
            if extra:
                raise SchemaMismatchError(
                    "row %r has attributes %r outside schema %r"
                    % (dict(row), extra, self._schema)
                )
            values = tuple(row[a] for a in self._schema)
        else:
            values = tuple(row)
            if len(values) != len(self._schema):
                raise SchemaMismatchError(
                    "row %r does not match schema %r" % (values, self._schema)
                )
        for value in values:
            if not isinstance(value, _ATOM_TYPES):
                raise SchemaMismatchError(
                    "flat relations hold scalars only; got %r (first-normal-form"
                    " condition)" % (value,)
                )
        return values

    # -- basic protocol -------------------------------------------------------

    @property
    def schema(self) -> Tuple[str, ...]:
        """The attribute names, in declaration order."""
        return self._schema

    @property
    def rows(self) -> FrozenSet[Row]:
        """The rows as tuples in schema order."""
        return self._rows

    def columns(self) -> list:
        """One list per attribute, all in one row order (an ``itemgetter``
        pass per column: cheaper than ``zip(*rows)`` at scale)."""
        rows = list(self._rows)
        return [list(map(itemgetter(i), rows)) for i in range(len(self._schema))]

    def __iter__(self) -> Iterator[Dict[str, AtomPayload]]:
        """Iterate rows as attribute→value dictionaries."""
        for row in sorted(self._rows, key=repr):
            yield dict(zip(self._schema, row))

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: object) -> bool:
        if isinstance(row, (Mapping, tuple, list)):
            try:
                return self._normalize_row(row) in self._rows  # type: ignore[arg-type]
            except SchemaMismatchError:
                return False
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlatRelation):
            return NotImplemented
        if set(self._schema) != set(other._schema):
            return False
        # Compare as sets of attribute→value mappings, so attribute order
        # is irrelevant (relations are functions of attribute names).
        mine = {frozenset(zip(self._schema, row)) for row in self._rows}
        theirs = {frozenset(zip(other._schema, row)) for row in other._rows}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._schema),
                frozenset(
                    frozenset(zip(self._schema, row)) for row in self._rows
                ),
            )
        )

    def __repr__(self) -> str:
        return "FlatRelation(schema=%r, rows=%d)" % (self._schema, len(self._rows))

    # -- algebra ----------------------------------------------------------------

    def select(self, predicate: Callable[[Dict[str, AtomPayload]], bool]) -> "FlatRelation":
        """Rows satisfying ``predicate`` (given attribute→value dicts)."""
        kept = [row for row in self._rows if predicate(dict(zip(self._schema, row)))]
        return FlatRelation(self._schema, kept)

    def project(self, attributes: Iterable[str]) -> "FlatRelation":
        """Project onto ``attributes`` (must all be in the schema)."""
        wanted = tuple(attributes)
        missing = [a for a in wanted if a not in self._schema]
        if missing:
            raise SchemaMismatchError(
                "cannot project onto %r: not in schema %r" % (missing, self._schema)
            )
        indexes = [self._schema.index(a) for a in wanted]
        rows = {tuple(row[i] for i in indexes) for row in self._rows}
        return FlatRelation(wanted, rows)

    def rename(self, renaming: Mapping[str, str]) -> "FlatRelation":
        """Rename attributes; unmentioned attributes keep their names."""
        new_schema = tuple(renaming.get(a, a) for a in self._schema)
        return FlatRelation(new_schema, self._rows)

    def union(self, other: "FlatRelation") -> "FlatRelation":
        """Set union; schemas must contain the same attributes."""
        self._require_same_schema(other, "union")
        other_rows = {self._reorder(other, row) for row in other._rows}
        return FlatRelation(self._schema, set(self._rows) | other_rows)

    def difference(self, other: "FlatRelation") -> "FlatRelation":
        """Set difference; schemas must contain the same attributes."""
        self._require_same_schema(other, "difference")
        other_rows = {self._reorder(other, row) for row in other._rows}
        return FlatRelation(self._schema, set(self._rows) - other_rows)

    def intersect(self, other: "FlatRelation") -> "FlatRelation":
        """Set intersection; schemas must contain the same attributes."""
        self._require_same_schema(other, "intersection")
        other_rows = {self._reorder(other, row) for row in other._rows}
        return FlatRelation(self._schema, set(self._rows) & other_rows)

    def natural_join(self, other: "FlatRelation") -> "FlatRelation":
        """The classical natural join: agree on shared attributes.

        Uses a hash join on the common attributes.  With no common
        attribute this degenerates to the Cartesian product, as usual.

        Pair work is observable like the generalized kernel's:
        ``flat.join.pairs_tried`` counts the bucket-matched pairs the
        join materialized, ``flat.join.pairs_pruned`` the rest of the
        |L|·|R| logical pairs the hash partitioning never touched —
        which is what EXPLAIN ANALYZE and the profiler attribute to
        individual Join nodes.
        """
        common = [a for a in self._schema if a in other._schema]
        result_schema = self._schema + tuple(
            a for a in other._schema if a not in common
        )
        by_key: Dict[Tuple[AtomPayload, ...], list] = {}
        other_common_idx = [other._schema.index(a) for a in common]
        other_rest_idx = [
            i for i, a in enumerate(other._schema) if a not in common
        ]
        for row in other._rows:
            key = tuple(row[i] for i in other_common_idx)
            by_key.setdefault(key, []).append(
                tuple(row[i] for i in other_rest_idx)
            )
        my_common_idx = [self._schema.index(a) for a in common]
        joined = set()
        tried = 0
        for row in self._rows:
            key = tuple(row[i] for i in my_common_idx)
            matches = by_key.get(key)
            if matches:
                tried += len(matches)
                for rest in matches:
                    joined.add(row + rest)
        registry = _metrics.REGISTRY
        registry.counter("flat.join.pairs_tried").inc(tried)
        registry.counter("flat.join.pairs_pruned").inc(
            len(self._rows) * len(other._rows) - tried
        )
        return FlatRelation(result_schema, joined)

    # -- bridges to the generalized world ------------------------------------------

    def to_generalized(self) -> GeneralizedRelation:
        """View this flat relation as a generalized relation of total records.

        Distinct total rows over one schema with atom values are pairwise
        incomparable, so the rows already form a cochain and no reduction
        pass is needed — this is what keeps the generalized-join flat
        fast path's conversions linear.
        """
        from repro.core.orders import Atom, PartialRecord
        from repro.core.relation import _from_cochain

        return _from_cochain(
            [
                PartialRecord(
                    {a: Atom(v) for a, v in zip(self._schema, row)}
                )
                for row in self._rows
            ]
        )

    @classmethod
    def from_generalized(
        cls, relation: GeneralizedRelation, schema: Iterable[str]
    ) -> "FlatRelation":
        """Flatten a generalized relation whose members are total over ``schema``.

        Raises :class:`SchemaMismatchError` when a member is partial or
        nested — flat relations cannot represent those, which is the
        paper's point (c): "Relations are flat."
        """
        from repro.core.orders import Atom, PartialRecord

        schema = tuple(schema)
        rows = []
        for member in relation:
            if not isinstance(member, PartialRecord):
                raise SchemaMismatchError("member %r is not a record" % (member,))
            if set(member.labels) != set(schema):
                raise SchemaMismatchError(
                    "member %r is not total over schema %r" % (member, schema)
                )
            row = []
            for attribute in schema:
                value = member[attribute]
                if not isinstance(value, Atom):
                    raise SchemaMismatchError(
                        "member %r is nested at %r; flat relations are"
                        " first-normal-form" % (member, attribute)
                    )
                row.append(value.payload)
            rows.append(tuple(row))
        return cls(schema, rows)

    # -- helpers -----------------------------------------------------------------

    def _require_same_schema(self, other: "FlatRelation", op: str) -> None:
        if set(self._schema) != set(other._schema):
            raise SchemaMismatchError(
                "%s requires equal schemas; got %r and %r"
                % (op, self._schema, other._schema)
            )

    def _reorder(self, other: "FlatRelation", row: Row) -> Row:
        """Reorder one of ``other``'s rows into this relation's schema order."""
        mapping = dict(zip(other._schema, row))
        return tuple(mapping[a] for a in self._schema)
