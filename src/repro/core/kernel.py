"""Signature-partitioned cochain kernel: fast reduction, probes, and join.

The naive implementations of the relation layer compare *all pairs*:
cochain reduction is O(n²) ``leq`` calls, the generalized join tries
|L|·|R| ``try_join`` pairs, and every ``insert``/``admits``/``matching``
scans the whole member list.  This module exploits two structural facts
about the value domain of :mod:`repro.core.orders`:

1. **Signatures.**  ``r ⊑ s`` between partial records requires
   ``labels(r) ⊆ labels(s)``, so members partitioned by their defined
   label set (the *signature*) only ever need comparing across
   subset-related signatures.  The number of distinct signatures is
   typically tiny next to the number of members, so whole partitions are
   skipped wholesale.

2. **Ground atoms.**  An atom is only ⊑ an equal atom.  For the labels
   on which *every* member of a partition carries an atom (the
   partition's *atomic labels*), any ⊑ or join partner must carry equal
   atoms on the shared atomic labels.  Hash-bucketing a partition by its
   atomic-label values therefore prunes, in O(1), every pair that
   disagrees on a shared ground atom — a generalization of the flat hash
   join to arbitrary partial records.  Pairs with conflicting atoms on
   shared labels are never materialized.

On fully flat data the join kernel degenerates to exactly the classical
hash join; on nested or mixed data it falls back to pairwise checks
*within* matching buckets only, so results are always identical to the
naive oracle (property-tested in ``tests/core/test_kernel.py``).

Pruning is observable: the join kernel reports how many of the |L|·|R|
logical pairs were never tried, which the relation layer publishes as
``relation.join.pairs_pruned``; :func:`maximal` counts its partitions
under ``relation.reduce.groups``.

:class:`SignatureIndex` packages the same partition/bucket structure as
a reusable probe index, and each relation keeps one.  The reduction
that builds a relation (:func:`maximal`) already partitions the values
and finds each partition's atomic labels; it hands them over as the
relation's index, recomputing the atomic labels of a partition that
lost members to domination, so they describe exactly the survivors.
The join (:func:`join_indexes`) probes both operands' indexes and their
cached buckets instead of partitioning both sides per call, and the
point queries (``admits``, ``insert`` survivor collection, ``matching``,
relation-level ``leq``) use the same index.  A relation that lives
across queries — a session's ``dept``, say — is partitioned and bucketed
once.  Bucket and probe keys read a record's by-label dict through
:func:`operator.itemgetter`: the atom itself for one key label, a tuple
of atoms for several.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core import cpo
from repro.core.orders import Atom, PartialRecord, Value, leq, try_join
from repro.obs import metrics as _metrics

Signature = FrozenSet[str]
_Key = Callable[[dict], object]
_Buckets = Dict[object, List[PartialRecord]]


def _partition(
    values: Iterable[Value],
) -> Tuple[Set[Atom], Dict[Signature, Set[PartialRecord]], List[Value]]:
    """Split values into deduped atoms, records grouped by signature, and
    anything else (unknown :class:`Value` subclasses, handled naively)."""
    atoms: Set[Atom] = set()
    groups: Dict[Signature, Set[PartialRecord]] = {}
    others: List[Value] = []
    for value in values:
        if isinstance(value, PartialRecord):
            group = groups.get(value._label_set)
            if group is None:
                group = groups[value._label_set] = set()
            group.add(value)
        elif isinstance(value, Atom):
            atoms.add(value)
        else:
            others.append(value)
    return atoms, groups, others


def _atomic_labels(
    signature: Signature, members: Iterable[PartialRecord]
) -> Signature:
    """The labels on which *every* member carries an atom.

    Ground members (the common case in relational workloads) contribute
    all their labels without a per-field scan.
    """
    labels = signature
    for member in members:
        if member._ground:
            continue
        labels = frozenset(
            label for label in labels if isinstance(member.get(label), Atom)
        )
        if not labels:
            break
    return labels


def _bucket(members: Iterable[PartialRecord], key: _Key) -> _Buckets:
    """Hash members by ``key`` of their by-label dicts."""
    buckets: _Buckets = {}
    for member in members:
        found = key(member._by_label)
        bucket = buckets.get(found)
        if bucket is None:
            buckets[found] = [member]
        else:
            bucket.append(member)
    return buckets


def _extremal_in_group(
    members: Set[PartialRecord], atomic: Signature, extremal
) -> List[PartialRecord]:
    """The ``extremal`` (maximal or minimal) elements of one signature
    group whose members are not all ground on every label.

    Same-signature records are only comparable through nested fields.
    Members are bucketed by their shared atomic labels — cross-bucket
    pairs disagree on a ground atom, hence are incomparable — and only
    bucket-mates meet the pairwise oracle.
    """
    if not atomic:
        return extremal(list(members), leq)
    reduced: List[PartialRecord] = []
    for bucket in _bucket(members, itemgetter(*sorted(atomic))).values():
        if len(bucket) == 1:
            reduced.extend(bucket)
        else:
            reduced.extend(extremal(bucket, leq))
    return reduced


class SignatureIndex:
    """A probe index over one cochain's members.

    Partitions members by signature, remembers each partition's atomic
    labels, and lazily builds hash buckets per (signature, probe-label)
    pair.  All point queries — "is any member above/below this value?",
    "which members dominate it?" — touch only subset-related partitions
    and, within them, only the hash bucket matching the probe's ground
    atoms.  ``members`` holds the values the index was built over, in
    the order given.

    Unknown :class:`Value` subclasses force the naive linear scan over
    ``members`` (``_naive``), preserving semantics for exotic domains.
    """

    __slots__ = ("members", "atoms", "groups", "_atomic", "_buckets", "_naive")

    def __init__(self, members: Iterable[Value]):
        self.members: Tuple[Value, ...] = tuple(members)
        self.atoms, self.groups, others = _partition(self.members)
        self._naive = bool(others)
        self._atomic: Dict[Signature, Signature] = {}
        self._buckets: Dict[
            Tuple[Signature, Tuple[str, ...]], Tuple[_Key, _Buckets]
        ] = {}

    # -- cached per-partition structure --------------------------------------

    def atomic_labels(self, signature: Signature) -> Signature:
        found = self._atomic.get(signature)
        if found is None:
            found = self._atomic[signature] = _atomic_labels(
                signature, self.groups[signature]
            )
        return found

    def bucket(
        self, signature: Signature, key_labels: Tuple[str, ...]
    ) -> Tuple[_Key, _Buckets]:
        """The key for ``key_labels`` (non-empty, atomic in the
        partition) and the partition's members hashed by it."""
        cache_key = (signature, key_labels)
        found = self._buckets.get(cache_key)
        if found is None:
            key = itemgetter(*key_labels)
            found = self._buckets[cache_key] = (
                key, _bucket(self.groups[signature], key),
            )
        return found

    # -- probe helpers --------------------------------------------------------

    def _candidates(
        self, value: PartialRecord, signature: Signature, labels: Tuple[str, ...]
    ):
        """Members of ``signature`` carrying ``value``'s atoms on
        ``labels`` (sorted, atomic in the partition, defined in
        ``value``); none when ``value`` is nested on one of them."""
        if not labels:
            return self.groups[signature]
        fields = value._by_label
        for label in labels:
            if not isinstance(fields[label], Atom):
                return ()
        key, buckets = self.bucket(signature, labels)
        return buckets.get(key(fields), ())

    def _candidates_above(self, value: PartialRecord, signature: Signature):
        """Members of ``signature`` (⊇ value's) that *could* dominate ``value``.

        A dominator must carry atoms equal to ``value``'s on every label
        where the partition is uniformly atomic; if ``value`` is nested on
        such a label no member of the partition can dominate it at all.
        """
        labels = value._label_set & self.atomic_labels(signature)
        return self._candidates(value, signature, tuple(sorted(labels)))

    def _candidates_below(self, value: PartialRecord, signature: Signature):
        """Members of ``signature`` (⊆ value's) that *could* lie below ``value``.

        A member below ``value`` has atoms on the partition's atomic
        labels, which ``value`` must match exactly; if ``value`` is nested
        there, no member of the partition lies below it.
        """
        labels = self.atomic_labels(signature)
        return self._candidates(value, signature, tuple(sorted(labels)))

    # -- point queries --------------------------------------------------------

    def any_above(self, value: Value) -> bool:
        """Is some member ``m`` with ``value ⊑ m`` present?"""
        if self._naive:
            return any(leq(value, member) for member in self.members)
        if isinstance(value, Atom):
            return value in self.atoms
        if not isinstance(value, PartialRecord):
            return False
        for signature in self.groups:
            if value._label_set <= signature and any(
                value.leq(candidate)
                for candidate in self._candidates_above(value, signature)
            ):
                return True
        return False

    def members_above(self, value: Value) -> List[Value]:
        """All members ``m`` with ``value ⊑ m`` (dominators of ``value``)."""
        if self._naive:
            return [m for m in self.members if leq(value, m)]
        if isinstance(value, Atom):
            return [value] if value in self.atoms else []
        if not isinstance(value, PartialRecord):
            return []
        found: List[Value] = []
        for signature in self.groups:
            if value._label_set <= signature:
                found.extend(
                    candidate
                    for candidate in self._candidates_above(value, signature)
                    if value.leq(candidate)
                )
        return found

    def any_below(self, value: Value) -> bool:
        """Is some member ``m`` with ``m ⊑ value`` present?"""
        if self._naive:
            return any(leq(member, value) for member in self.members)
        if isinstance(value, Atom):
            return value in self.atoms
        if not isinstance(value, PartialRecord):
            return False
        for signature in self.groups:
            if signature <= value._label_set and any(
                candidate.leq(value)
                for candidate in self._candidates_below(value, signature)
            ):
                return True
        return False

    def members_below(self, value: Value) -> List[Value]:
        """All members ``m`` with ``m ⊑ value`` (dominated by ``value``)."""
        if self._naive:
            return [m for m in self.members if leq(m, value)]
        if isinstance(value, Atom):
            return [value] if value in self.atoms else []
        if not isinstance(value, PartialRecord):
            return []
        found: List[Value] = []
        for signature in self.groups:
            if signature <= value._label_set:
                found.extend(
                    candidate
                    for candidate in self._candidates_below(value, signature)
                    if candidate.leq(value)
                )
        return found


# ---------------------------------------------------------------------------
# Cochain reduction
# ---------------------------------------------------------------------------


def maximal(values: Iterable[Value]) -> SignatureIndex:
    """The maximal elements of ``values``: a :class:`SignatureIndex`
    whose ``members`` are exactly them.

    Agrees exactly (as a set, keeping the first of equal values) with
    ``cpo.maximal_elements(values, leq)``; the all-pairs oracle remains
    in :mod:`repro.core.cpo` and is what the property suite checks this
    against.  Atoms survive deduplication untouched (they are never
    comparable to records or to distinct atoms); each record partition is
    reduced internally, then survivors are checked only against the
    partitions whose signature strictly contains theirs, probing hash
    buckets keyed by the ground atoms shared with the candidate
    dominator partition.

    The partition, atomic labels and buckets built on the way stay in
    the returned index.  A partition that lost members to domination
    gets its atomic labels recomputed from the survivors and its buckets
    dropped, so the index is the one :class:`SignatureIndex` would build
    over the survivors.
    """
    index = SignatureIndex(values)
    if index._naive:
        return SignatureIndex(cpo.maximal_elements(list(index.members), leq))

    groups = index.groups
    registry = _metrics.REGISTRY
    registry.counter("relation.reduce").inc()
    registry.counter("relation.reduce.groups").inc(len(groups))

    # Within a partition, distinct records are comparable only through
    # nested fields: a uniformly atomic one is reduced by deduplication.
    sizes = {}
    atomic = index._atomic
    for signature, members in list(groups.items()):
        sizes[signature] = len(members)
        labels = atomic[signature] = _atomic_labels(signature, members)
        if len(members) > 1 and labels != signature:
            survivors = _extremal_in_group(members, labels, cpo.maximal_elements)
            if len(survivors) < len(members):
                groups[signature] = set(survivors)

    # Across partitions, only a strictly larger signature can dominate.
    out: List[Value] = list(index.atoms)
    lost: Dict[Signature, List[PartialRecord]] = {}
    for signature, members in groups.items():
        dominators = [other for other in groups if signature < other]
        if not dominators:
            out.extend(members)
            continue
        kept = [
            record
            for record in members
            if not any(
                any(
                    record.leq(candidate)
                    for candidate in index._candidates_above(record, other)
                )
                for other in dominators
            )
        ]
        out.extend(kept)
        if len(kept) < len(members):
            lost[signature] = kept

    for signature, kept in lost.items():
        if kept:
            groups[signature] = set(kept)
        else:
            del groups[signature]
            del atomic[signature]
    shrunk = [
        signature
        for signature, members in groups.items()
        if len(members) < sizes[signature]
    ]
    for signature in shrunk:
        atomic[signature] = _atomic_labels(signature, groups[signature])
    if shrunk or lost:
        index._buckets = {
            cache_key: found
            for cache_key, found in index._buckets.items()
            if cache_key[0] in groups and cache_key[0] not in shrunk
        }
    index.members = tuple(out)
    return index


def reduce_to_maximal(values: Iterable[Value]) -> List[Value]:
    """The maximal elements of ``values`` — the partitioned reduction
    (:func:`maximal`) without its index."""
    return list(maximal(values).members)


def reduce_to_minimal(values: Iterable[Value]) -> List[Value]:
    """The minimal elements of ``values`` — the dual partitioned reduction.

    Agrees exactly (as a set) with ``cpo.minimal_elements(values, leq)``.
    A record is eliminated when some *distinct* record below it exists,
    so partitions are checked against the partitions whose signature is
    strictly contained in theirs (plus bucket-mates within their own
    partition when nesting makes same-signature comparisons possible).
    """
    index = SignatureIndex(values)
    if index._naive:
        return cpo.minimal_elements(list(index.members), leq)

    groups = index.groups
    for signature, members in list(groups.items()):
        atomic = index._atomic[signature] = _atomic_labels(signature, members)
        if len(members) > 1 and atomic != signature:
            groups[signature] = set(
                _extremal_in_group(members, atomic, cpo.minimal_elements)
            )

    out: List[Value] = list(index.atoms)
    for signature, survivors in groups.items():
        dominated = [other for other in groups if other < signature]
        if not dominated:
            out.extend(survivors)
            continue
        for record in survivors:
            if not any(
                any(
                    candidate.leq(record)
                    for candidate in index._candidates_below(record, other)
                )
                for other in dominated
            ):
                out.append(record)
    return out


# ---------------------------------------------------------------------------
# The generalized join kernel
# ---------------------------------------------------------------------------


def join_indexes(
    left: SignatureIndex, right: SignatureIndex
) -> Tuple[List[Value], int]:
    """All consistent pairwise joins of two indexes' members, with
    hash-bucket pruning.

    Returns ``(joined, tried)`` where ``joined`` holds the object-level
    join of every consistent (left, right) pair — *not yet reduced* to a
    cochain — and ``tried`` counts the pairs actually materialized and
    checked.  ``len(left) * len(right) - tried`` pairs were pruned: they
    disagree on a shared ground atom (or cross the atom/record divide),
    so no consistency check was ever run for them.

    For each pair of signature partitions the probe key is the shared
    labels on which *both* partitions are uniformly atomic; on flat 1NF
    operands that key is the full set of common attributes and the
    kernel is exactly the classical hash join.  The right side's buckets
    stay cached in its index.  Pairs are tried partition pair by
    partition pair, in the indexes' partition order, left member by
    left member, in the order of the partition sets.
    """
    if left._naive or right._naive:
        joined_naive: List[Value] = []
        tried = 0
        for mine in left.members:
            for theirs in right.members:
                tried += 1
                combined = try_join(mine, theirs)
                if combined is not None:
                    joined_naive.append(combined)
        return joined_naive, tried

    joined: List[Value] = list(left.atoms & right.atoms)
    tried = len(joined)  # equal-atom pairs are the only atom pairs checked

    for sig_l, members_l in left.groups.items():
        atomic_l = left.atomic_labels(sig_l)
        for sig_r, members_r in right.groups.items():
            key_labels = tuple(sorted(atomic_l & right.atomic_labels(sig_r)))
            if not key_labels:
                # No shared uniformly-ground label: nothing to hash on.
                for mine in members_l:
                    for theirs in members_r:
                        combined = try_join(mine, theirs)
                        if combined is not None:
                            joined.append(combined)
                tried += len(members_l) * len(members_r)
                continue
            key, buckets = right.bucket(sig_r, key_labels)
            for mine in members_l:
                bucket = buckets.get(key(mine._by_label))
                if bucket is None:
                    continue
                tried += len(bucket)
                for theirs in bucket:
                    combined = try_join(mine, theirs)
                    if combined is not None:
                        joined.append(combined)
    return joined, tried


def join_pairs(
    left_values: Sequence[Value], right_values: Sequence[Value]
) -> Tuple[List[Value], int]:
    """:func:`join_indexes` over indexes built from ``left_values`` and
    ``right_values``."""
    return join_indexes(SignatureIndex(left_values), SignatureIndex(right_values))


def respelled(values: Iterable[Value]) -> bool:
    """Do two equal values among ``values`` differ in spelling?

    ``Atom(1) == Atom(1.0)`` and ``Atom(0.0) == Atom(-0.0)``, so two
    join results can be equal and still print differently; a reduction
    keeps the first of them, which then depends on the order the pairs
    were tried in.
    """
    seen: Dict[Value, Value] = {}
    for value in values:
        first = seen.setdefault(value, value)
        if first is not value and repr(first) != repr(value):
            return True
    return False
