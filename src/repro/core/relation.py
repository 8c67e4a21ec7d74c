"""Generalized relations: cochains of partial objects, and their join.

The paper: "We shall call a set of objects R a (generalized) relation if
whenever o1, o2 ∈ R then neither o1 ⊑ o2 nor o2 ⊑ o1 hold (sets with this
property are called cochains in the jargon of lattice theory)."

Insertion therefore *subsumes*: an object already dominated by a member is
not admitted, and an object dominating members replaces them.  Relations
are ordered by

    R ⊑ R'  iff  for every object o' in R' there is an o in R with o ⊑ o'

("every object in R' is more informative than some object in R"), and the
join under this ordering generalizes the natural join of flat relations —
the paper's Figure 1.  Projection restricts every member to a label set
and re-reduces to a cochain.

:class:`GeneralizedRelation` is immutable; every operation returns a new
relation.  A thin mutable façade (:class:`RelationBuilder`) is provided
for bulk loading in benchmarks.

Hot paths run on the signature-partitioned cochain kernel
(:mod:`repro.core.kernel`): reduction, join, and the subsumption probes
partition members by defined-label set and hash-bucket by shared ground
atoms, so only subset-related, atom-compatible pairs are ever compared.
Semantics are unchanged — the property suite pins every operation to the
naive all-pairs oracle over :mod:`repro.core.cpo`.
"""

from __future__ import annotations

import bisect as _bisect
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core import cpo
from repro.core import kernel as _kernel
from repro.core.orders import PartialRecord, Value, from_python, leq
from repro.errors import RelationError
from repro.obs import metrics as _metrics
from repro.obs import profile as _profile


def _sort_key(value: Value) -> str:
    """The deterministic member order: the (cached) ``repr`` string.

    :class:`~repro.core.orders.PartialRecord` interns its ``repr`` at
    first use, so sorting a cochain costs one string build per *distinct*
    record over its lifetime instead of one per reduction.
    """
    return repr(value)


class GeneralizedRelation:
    """An immutable cochain of mutually incomparable partial objects.

    Construct from any iterable of :class:`Value` (or plain Python dicts,
    which are converted); comparable inputs are reduced so that only the
    maximal (most informative) ones survive::

        >>> r = GeneralizedRelation([{'Name': 'J Doe'},
        ...                          {'Name': 'J Doe', 'Dept': 'Sales'}])
        >>> len(r)
        1
    """

    __slots__ = ("_objects", "_index")

    def __init__(self, objects: Iterable[object] = ()):
        values = [from_python(o) for o in objects]
        reduced = _kernel.reduce_to_maximal(values)
        # Deterministic iteration order: sort by (cached) repr.  Objects
        # are heterogeneous partial records, so no natural key exists.
        self._objects: Tuple[Value, ...] = tuple(sorted(reduced, key=_sort_key))
        self._index: Optional[_kernel.SignatureIndex] = None

    def _sig_index(self) -> _kernel.SignatureIndex:
        """The lazily-built signature/bucket probe index over the members.

        The relation is immutable, so the index is built at most once and
        shared by every subsequent ``admits``/``insert``/``matching``/
        ``leq`` probe against this relation.
        """
        index = self._index
        if index is None:
            index = self._index = _kernel.SignatureIndex(self._objects)
        return index

    # -- container protocol ---------------------------------------------------

    def __iter__(self) -> Iterator[Value]:
        return iter(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, obj: object) -> bool:
        value = from_python(obj)
        return value in self._objects

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralizedRelation):
            return NotImplemented
        return set(self._objects) == set(other._objects)

    def __hash__(self) -> int:
        return hash(frozenset(self._objects))

    def __repr__(self) -> str:
        inner = ",\n ".join(repr(o) for o in self._objects)
        return "GeneralizedRelation(\n %s\n)" % inner if self._objects else (
            "GeneralizedRelation()"
        )

    @property
    def objects(self) -> Tuple[Value, ...]:
        """The member objects, in deterministic order."""
        return self._objects

    # -- membership-with-subsumption -------------------------------------------

    def admits(self, obj: object) -> bool:
        """Would inserting ``obj`` change the relation?

        ``False`` when some member already carries at least as much
        information as ``obj``.  Probes the signature index: only members
        whose signature contains ``obj``'s — and, within those, only the
        hash bucket agreeing with ``obj``'s ground atoms — are examined.
        """
        value = from_python(obj)
        return not self._sig_index().any_above(value)

    def subsumed_by(self, obj: object) -> Tuple[Value, ...]:
        """The members that inserting ``obj`` would subsume (replace)."""
        value = from_python(obj)
        dominated = [
            m for m in self._sig_index().members_below(value) if m != value
        ]
        return tuple(sorted(dominated, key=_sort_key))

    def insert(self, obj: object) -> "GeneralizedRelation":
        """Insert with subsumption, returning the new relation.

        "We will not admit an object o into a relation R if there is
        already an object in R which contains as much information as o,
        and if it is more informative than objects already in R, we will
        subsume those objects in R."

        Uses the signature index when this relation has already built one
        (repeated probes amortize it); on an index-less relation — the
        common case in an insert *stream*, where every step yields a
        fresh relation — a direct scan is cheaper than building an index
        for a single probe, and the ``leq`` signature fast path keeps the
        scan cheap.
        """
        _metrics.REGISTRY.counter("relation.insert").inc()
        value = from_python(obj)
        index = self._index
        if index is not None:
            if index.any_above(value):
                return self
            dominated = set(index.members_below(value))
        else:
            if any(leq(value, m) for m in self._objects):
                return self
            dominated = {m for m in self._objects if leq(m, value)}
        if dominated:
            survivors = [m for m in self._objects if m not in dominated]
        else:
            survivors = list(self._objects)
        # ``self._objects`` is sorted and removal preserves order, so the
        # new value bisects into place — no re-sort per insert.
        _bisect.insort(survivors, value, key=_sort_key)
        return _from_sorted_cochain(survivors)

    def remove(self, obj: object) -> "GeneralizedRelation":
        """Remove an exact member; raise :class:`RelationError` if absent."""
        value = from_python(obj)
        if value not in self._objects:
            raise RelationError("%r is not a member of the relation" % (value,))
        return _from_cochain([m for m in self._objects if m != value])

    # -- the ordering on relations ---------------------------------------------

    def leq(self, other: "GeneralizedRelation") -> bool:
        """``R ⊑ R'``: every object of ``other`` dominates one of ours.

        Each of ``other``'s objects is answered by one signature-index
        probe into this relation (subset signatures, matching bucket)
        instead of a scan of every member.
        """
        index = self._sig_index()
        return all(index.any_below(theirs) for theirs in other._objects)

    def __le__(self, other: object) -> bool:
        if not isinstance(other, GeneralizedRelation):
            return NotImplemented
        return self.leq(other)

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, GeneralizedRelation):
            return NotImplemented
        return other.leq(self)

    # -- algebra -----------------------------------------------------------------

    def join(self, other: "GeneralizedRelation") -> "GeneralizedRelation":
        """The generalized natural join (the paper's Figure 1).

        Every pairwise-consistent combination contributes its object-level
        join; the result is reduced to its maximal elements so it is again
        a cochain.  On flat 1NF inputs this coincides with the classical
        natural join (see :mod:`repro.core.flat` and the E4 benchmark).

        Order-theoretically the result is an upper bound of both operands
        under ``⊑`` (each member dominates a member of each operand); the
        paper's sources ([AitK84], [Bans86]) work in lattices where it is
        the least one, but over arbitrary cochains least upper bounds need
        not exist, so we claim (and test) only the bound property.

        Evaluation is the signature-partitioned hash-bucket kernel
        (:func:`repro.core.kernel.join_pairs`): pairs that disagree on a
        shared ground atom are pruned without a consistency check, which
        ``relation.join.pairs_pruned`` counts against the logical
        ``relation.join.pairs`` total.
        """
        registry = _metrics.REGISTRY
        registry.counter("relation.join").inc()
        pairs = len(self._objects) * len(other._objects)
        registry.counter("relation.join.pairs").inc(pairs)
        profiler = _profile.CURRENT
        if profiler.enabled:
            started = profiler.clock()
            joined, tried = _kernel.join_pairs(self._objects, other._objects)
            profiler.record(
                "relation.join",
                profiler.clock() - started,
                rows_out=len(joined),
                pairs_tried=tried,
                pairs_pruned=pairs - tried,
            )
        else:
            joined, tried = _kernel.join_pairs(self._objects, other._objects)
        registry.counter("relation.join.pairs_tried").inc(tried)
        registry.counter("relation.join.pairs_pruned").inc(pairs - tried)
        return _from_values(joined)

    def meet(self, other: "GeneralizedRelation") -> "GeneralizedRelation":
        """The greatest lower bound under ``⊑``.

        ``R ⊓ R'`` must lie below both: every object of either operand
        must dominate one of its members.  The greatest such cochain is
        the *minimal*-element reduction of ``R ∪ R'`` (note: minimal, not
        maximal — keeping a dominating member instead of the dominated one
        would leave the dominated object with nothing below it).
        """
        reduced = _kernel.reduce_to_minimal(self._objects + other._objects)
        return _from_cochain(reduced)

    def project(self, labels: Iterable[str]) -> "GeneralizedRelation":
        """Restrict every object to ``labels`` and re-reduce to a cochain.

        Objects undefined on all of ``labels`` project to the empty
        record, which is then subsumed by any non-empty projection.
        """
        wanted = tuple(labels)
        projected = []
        for member in self._objects:
            if isinstance(member, PartialRecord):
                projected.append(member.restrict(wanted))
            else:
                raise RelationError(
                    "cannot project non-record object %r" % (member,)
                )
        return GeneralizedRelation(projected)

    def select(self, predicate) -> "GeneralizedRelation":
        """Keep the members satisfying ``predicate(value) -> bool``."""
        return _from_cochain([m for m in self._objects if predicate(m)])

    def matching(self, pattern: object) -> "GeneralizedRelation":
        """Keep the members at least as informative as ``pattern``.

        This is the paper's "join of this relation with a relation R to
        extract all the objects" idiom specialized to a single pattern:
        ``r.matching({'Dept': 'Sales'})`` keeps exactly the objects that
        refine the pattern.  One signature-index probe: only members whose
        signature contains the pattern's, in the bucket matching its
        ground atoms, are tested.
        """
        wanted = from_python(pattern)
        return _from_cochain(self._sig_index().members_above(wanted))

    # -- invariant check -----------------------------------------------------------

    def check_cochain(self) -> None:
        """Raise :class:`RelationError` unless members are incomparable.

        The constructor maintains this invariant; the check exists for
        tests and for defensive verification after bulk operations.
        """
        if not cpo.is_antichain(self._objects, leq):
            raise RelationError("relation invariant violated: not a cochain")


def _from_cochain(values: Sequence[Value]) -> GeneralizedRelation:
    """Internal fast path: build from values already forming a cochain."""
    return _from_sorted_cochain(sorted(values, key=_sort_key))


def _from_sorted_cochain(values: Sequence[Value]) -> GeneralizedRelation:
    """Innermost fast path: a cochain already in ``_sort_key`` order."""
    relation = GeneralizedRelation.__new__(GeneralizedRelation)
    relation._objects = tuple(values)
    relation._index = None
    return relation


def _from_values(values: Sequence[Value]) -> GeneralizedRelation:
    """Build from domain values, reducing — skips ``from_python``."""
    return _from_cochain(_kernel.reduce_to_maximal(values))


class RelationBuilder:
    """Mutable accumulator for bulk-loading a :class:`GeneralizedRelation`.

    Collects objects and performs a single cochain reduction on
    :meth:`build`, avoiding the quadratic per-insert cost of repeated
    immutable inserts.  The reduction itself runs per signature
    partition (:func:`repro.core.kernel.reduce_to_maximal`), so bulk
    loads scale with partition/bucket sizes, not the square of the batch.
    Used by the workload generators and benchmarks.
    """

    def __init__(self) -> None:
        self._pending: List[Value] = []

    def add(self, obj: object) -> "RelationBuilder":
        """Queue an object for insertion; returns self for chaining."""
        self._pending.append(from_python(obj))
        return self

    def add_all(self, objects: Iterable[object]) -> "RelationBuilder":
        """Queue many objects for insertion; returns self for chaining."""
        for obj in objects:
            self._pending.append(from_python(obj))
        return self

    def __len__(self) -> int:
        return len(self._pending)

    def build(self) -> GeneralizedRelation:
        """Reduce the queued objects to a cochain and freeze them."""
        return GeneralizedRelation(self._pending)


def flat_schema_of(relation: GeneralizedRelation) -> Optional[Tuple[str, ...]]:
    """The schema of a relation that happens to be flat, else ``None``.

    A relation is *flat* when every member is a record defined on the
    same labels with atom values only — i.e. it is a classical 1NF
    relation wearing generalized clothes.
    """
    from repro.core.orders import Atom

    schema: Optional[Tuple[str, ...]] = None
    for member in relation:
        if not isinstance(member, PartialRecord):
            return None
        labels = member.labels
        if schema is None:
            schema = labels
        elif labels != schema:
            return None
        for __, field in member.items():
            if not isinstance(field, Atom):
                return None
    return schema


def join_with_fastpath(
    left: GeneralizedRelation, right: GeneralizedRelation
) -> GeneralizedRelation:
    """The generalized join of ``left`` and ``right`` (``left.join(right)``).

    DBPL's ``rjoin`` calls this name.  On flat operands the partitioned
    kernel of :meth:`GeneralizedRelation.join` already is a hash join,
    so no detour through :meth:`~repro.core.flat.FlatRelation.natural_join`
    pays (E4); the two agree there (tested).
    """
    return left.join(right)


def incremental_insert_all(
    relation: Optional[GeneralizedRelation], objects: Iterable[object]
) -> GeneralizedRelation:
    """Insert objects one at a time (the slow, per-insert-subsumption path).

    Exists so the E5 benchmark can contrast per-insert subsumption with
    :class:`RelationBuilder`'s bulk reduction; both yield the same
    relation.
    """
    current = relation if relation is not None else GeneralizedRelation()
    for obj in objects:
        current = current.insert(obj)
    return current
