"""Vectorized columnar execution for flat relations.

The paper's generalized relations degenerate to classical 1NF relations
whenever every record is ground and shares one signature — exactly the
case the cochain kernel already detects and routes to a hash join.  Row
execution over those inputs still builds a Python dict per row
(:meth:`~repro.core.flat.FlatRelation.select`) or a tuple per probe
(:meth:`~repro.core.flat.FlatRelation.natural_join`), which caps the
flat fast path well below the ROADMAP's million-row target.  This
module stores a flat relation *by column* and runs the algebra over
whole arrays at a time:

* :class:`ColumnarRelation` — one Python list per attribute, rows
  aligned by position; low-cardinality columns are dictionary-encoded
  (integer codes into a shared domain), so gathers move small ints, not
  strings.  A scanned column of 64 rows or more is encoded when at most
  half its values are distinct: by ANALYZE's exact distinct count when
  the catalog's statistics were taken at the relation's current bind
  epoch (``Scan`` hands them to :func:`scan`, which reads them only on
  a cache miss), else by its first 64 values.  Which encoding a column
  gets never changes an answer;
* **posting lists** — an encoded column knows, per code, the positions
  of the rows that hold it (one permutation of the rows plus per-code
  offsets, built on first use and cached with the column, so they live
  and die with the relation object).  Over a whole encoded column, a
  filter compares each distinct value once and concatenates the
  postings of the codes that pass, and a hash join whose unique build
  keys probe it looks each key up in the domain and concatenates that
  key's postings: both cost the column's domain plus their output, not
  its rows;
* **selection vectors** — a filter emits the list of surviving row
  positions instead of materializing rows; ``None`` means "all rows",
  so a filter that keeps everything costs nothing downstream.  Their
  order is unspecified: one built from postings is grouped by code;
* **batch kernels** — :func:`filter_sel`, :func:`project`, and
  :func:`hash_join` sweep the arrays in C-speed list comprehensions;
  ``EXPLAIN ANALYZE`` reports as ``batches=`` how many
  :data:`BATCH_ROWS`-sized chunks cover an operator's input;
* **key-aware projection** — relations are sets, so a projection
  merges the rows it collapses, but one that keeps a key collapses
  none: each :class:`Column` knows whether it is unique, and
  :func:`project` skips its dedup set when a kept column is.  A scanned
  column counts its values at most once per relation object; a column
  gathered through a row vector that repeats no row (a filter's
  selection, the probe side of a unique-build join, one side of a
  cross product with a one-row other side) inherits its source's
  answer, and every other gathered column is not known unique;
* **late materialization** — operator results stay columnar;
  :func:`to_flat` wraps the final columns in a
  :class:`ColumnarResult`, a :class:`~repro.core.flat.FlatRelation`
  whose row *set* is built only if someone actually asks for it
  (``len`` and the schema answer from the arrays directly).

Like the tracer, the journal, and adaptive estimation, the engine is
process-global and **off by default**: :func:`enable` flips the
:data:`COLUMNAR` switch (the REPL's ``:columnar on``), its only switch
— there is no per-catalog one.  The planner side lives in
:mod:`repro.core.query`: each flat plan node calls its kernel here
from its ``_kernel`` method, and the plan walk that runs row plans
runs a ``ColumnarExec``'s lowered subtree node by node, so spans,
profiling and ``EXPLAIN ANALYZE`` see every columnar operator.  This
module knows nothing about plans — only arrays, selection vectors, and
the kernels over them, each property-pinned to the row-at-a-time
oracle by the Hypothesis suite in ``tests/core/test_columnar.py``
(and whole plans by ``tests/core/test_plan_oracle.py``).

Scan conversions are cached per relation *object* (``id``-keyed, with
a weakref that evicts the entry when the relation is collected), so
repeated queries over a bound catalog pay the row→column transpose,
each column's uniqueness count and its postings once, and the cache
holds one entry per live relation.

Metrics: ``columnar.batches`` and ``columnar.rows`` count kernel work
(per operator, incremented by the plan walk),
``columnar.scan.cache_hits``/``cache_misses`` the conversion cache,
``columnar.exec`` and ``columnar.lowered`` (incremented by the
planner) the adoption of the path.
"""

from __future__ import annotations

import operator
import weakref
from array import array
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.flat import FlatRelation
from repro.errors import RelationError
from repro.obs import metrics as _metrics

__all__ = [
    "BATCH_ROWS",
    "COLUMNAR",
    "Column",
    "ColumnarRelation",
    "ColumnarResult",
    "ColumnarSwitch",
    "batch_count",
    "disable",
    "enable",
    "filter_sel",
    "from_flat",
    "hash_join",
    "project",
    "scan",
    "to_flat",
]

# Rows per kernel chunk.  Small enough that a chunk's index list stays
# cache-friendly, large enough that per-chunk Python overhead vanishes;
# EXPLAIN ANALYZE reports how many chunks each operator swept.
BATCH_ROWS = 4096

# Dictionary encoding: a column of at least this many rows is encoded
# when at most half its values are distinct — low-cardinality columns
# (department names, statuses, cities) win, and near-unique columns
# (names, ids) skip the encoding pass entirely.  ANALYZE's exact
# distinct count decides when fresh statistics come with the scan;
# otherwise this many leading values stand in for the column.
_ENCODE_SAMPLE = 64

# The comparisons a filter evaluates once per distinct value of an
# encoded column, as Predicate.evaluate does once per row.
_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

Sel = Optional[List[int]]  # selection vector; None = every row


class ColumnarSwitch:
    """The process-global on/off switch for columnar lowering.

    Mirrors :data:`repro.stats.adaptive.ADAPTIVE`: off by default so
    library users and the historical test corpus see row-at-a-time
    plans unchanged; the REPL turns it on for interactive sessions.
    """

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool = False):
        self.enabled = enabled


COLUMNAR = ColumnarSwitch()


def enable() -> ColumnarSwitch:
    """Turn columnar lowering on process-wide (the ``:columnar on``)."""
    COLUMNAR.enabled = True
    return COLUMNAR


def disable() -> None:
    """Turn columnar lowering off process-wide."""
    COLUMNAR.enabled = False


def batch_count(rows: int) -> int:
    """How many :data:`BATCH_ROWS` chunks cover ``rows`` (at least 1)."""
    return max(1, -(-rows // BATCH_ROWS))


class Column:
    """One attribute's values for every row, plain or dictionary-encoded.

    Plain columns hold the payloads directly in ``values``.  Encoded
    columns hold small-int ``codes`` into a ``domain`` list; payloads
    are decoded lazily (and cached) the first time an operator needs
    them.  Note encoding canonicalizes within Python's ``==``
    equivalence classes (``1``/``True``/``1.0`` share a code), which is
    exactly the equivalence ``frozenset`` rows already collapse under —
    so round-trips preserve relation equality.

    Each column also answers :meth:`is_unique` under that same equality.
    ``unique`` holds the answer once known, ``None`` when the column
    counts its own values on first use (only :func:`from_flat` builds
    such columns), or the source :class:`Column` a gather without
    repeated rows inherits the answer from.

    An encoded column also answers :meth:`postings`, the rows that hold
    each code, built on first use and kept with the column.
    """

    __slots__ = ("_values", "codes", "domain", "_code_of", "_unique", "_postings")

    def __init__(
        self,
        values: Optional[list] = None,
        codes: Optional[List[int]] = None,
        domain: Optional[list] = None,
        code_of: Optional[dict] = None,
        unique=False,
    ):
        self._values = values
        self.codes = codes
        self.domain = domain
        self._code_of = code_of
        self._unique = unique
        self._postings = None

    @property
    def is_encoded(self) -> bool:
        return self.codes is not None

    def values(self) -> list:
        """The decoded payloads (cached after the first decode)."""
        if self._values is None:
            domain = self.domain
            self._values = [domain[c] for c in self.codes]
        return self._values

    def code_for(self, value) -> Optional[int]:
        """The code of ``value`` in this column's domain, or ``None``.

        A dict lookup — identity, then ``==`` — which is how a hash join
        matches keys, not how a filter compares (a NaN is its own key
        but equals nothing).
        """
        if self._code_of is None:
            self._code_of = {v: c for c, v in enumerate(self.domain)}
        try:
            return self._code_of.get(value)
        except TypeError:  # unhashable operand can't be in the domain
            return None

    def postings(self) -> Tuple[array, List[int]]:
        """``(positions, offsets)``: the rows holding code ``c`` are
        ``positions[offsets[c]:offsets[c + 1]]``, in ascending order.

        Every row appears once, so the lists cost one machine int per
        row plus one offset per code.  Built on first use and cached,
        so a scanned column pays for them once per relation object.
        """
        postings = self._postings
        if postings is None:
            buckets: List[List[int]] = [[] for __ in self.domain]
            for row, code in enumerate(self.codes):
                buckets[code].append(row)
            positions = array("i" if len(self.codes) < 2**31 else "q")
            for bucket in buckets:
                positions.fromlist(bucket)
            offsets = [0]
            offsets.extend(accumulate(map(len, buckets)))
            postings = self._postings = (positions, offsets)
        return postings

    def is_unique(self) -> bool:
        """Whether no two rows hold ``==``-equal values (cached).

        A scanned column whose sampled values did not already repeat
        counts its values once, through a set.  ``False`` means "not
        known unique" for a gathered column that inherited nothing.
        """
        unique = self._unique
        if unique is None:
            values = self._values
            unique = self._unique = len(set(values)) == len(values)
        elif isinstance(unique, Column):
            unique = self._unique = unique.is_unique()
        return unique


def _encode_column(values: list) -> Column:
    code_of: dict = {}
    codes: List[int] = []
    domain: list = []
    append_code = codes.append
    get = code_of.get
    for value in values:
        code = get(value)
        if code is None:
            code = len(domain)
            code_of[value] = code
            domain.append(value)
        append_code(code)
    return Column(codes=codes, domain=domain, code_of=code_of)


def _build_column(values: list, distinct: Optional[int] = None) -> Column:
    """A scanned column, encoded when at most half its values are
    distinct: by ``distinct``, ANALYZE's exact count, when known, else
    by a leading sample."""
    sample = values[:_ENCODE_SAMPLE]
    seen = len(set(sample))
    if len(sample) >= _ENCODE_SAMPLE:
        if distinct is None:
            distinct, rows = seen, len(sample)
        else:
            rows = len(values)
        if distinct * 2 <= rows:
            return _encode_column(values)
    # A repeat among the sampled values already answers is_unique.
    unique = None if seen == len(sample) else False
    return Column(values=values, unique=unique)


class ColumnarRelation:
    """A flat relation stored by column: schema + aligned value arrays."""

    __slots__ = ("schema", "columns", "nrows")

    def __init__(
        self,
        schema: Tuple[str, ...],
        columns: Tuple[Column, ...],
        nrows: int,
    ):
        self.schema = schema
        self.columns = columns
        self.nrows = nrows

    def column(self, attribute: str) -> Column:
        try:
            return self.columns[self.schema.index(attribute)]
        except ValueError:
            raise RelationError(
                "no column %r in schema %r" % (attribute, self.schema)
            ) from None


def from_flat(flat: FlatRelation, stats=None) -> ColumnarRelation:
    """Transpose a flat relation into columns (no cache; see :func:`scan`).

    ``stats``, the relation's :class:`~repro.stats.collect.TableStats`
    when they describe this very relation, lends each column ANALYZE's
    exact distinct count to choose its encoding by.
    """
    columns = []
    for attribute, values in zip(flat.schema, flat.columns()):
        measured = stats.column(attribute) if stats is not None else None
        distinct = measured.distinct_count if measured is not None else None
        columns.append(_build_column(values, distinct))
    return ColumnarRelation(flat.schema, tuple(columns), len(flat.rows))


# Conversion cache: id(flat) → (weakref-to-flat, its columnar form).
# Keyed by identity because FlatRelation hashing is O(rows); the weakref
# both validates the entry (id reuse after collection) and evicts it,
# so the cache holds one entry per live relation object.
_SCAN_CACHE: Dict[int, Tuple["weakref.ref", ColumnarRelation]] = {}


def scan(flat: FlatRelation, stats=None) -> ColumnarRelation:
    """The columnar form of ``flat``, cached per relation object.

    ``stats`` (see :func:`from_flat`) is read only on a cache miss: a
    cached conversion keeps the encodings it was built with.
    """
    key = id(flat)
    cached = _SCAN_CACHE.get(key)
    if cached is not None and cached[0]() is flat:
        _metrics.REGISTRY.counter("columnar.scan.cache_hits").inc()
        return cached[1]
    _metrics.REGISTRY.counter("columnar.scan.cache_misses").inc()
    columnar = from_flat(flat, stats)
    try:
        ref = weakref.ref(flat, lambda _ref, _key=key: _SCAN_CACHE.pop(_key, None))
    except TypeError:
        return columnar  # not weakref-able (exotic subclass): don't cache
    _SCAN_CACHE[key] = (ref, columnar)
    return columnar


def _gather(values: list, sel: Sel) -> list:
    return values if sel is None else [values[i] for i in sel]


def _effective_count(rel: ColumnarRelation, sel: Sel) -> int:
    return rel.nrows if sel is None else len(sel)


# ---------------------------------------------------------------------------
# Filter: predicate over one or two columns → selection vector
# ---------------------------------------------------------------------------


def filter_sel(
    rel: ColumnarRelation,
    sel: Sel,
    op: str,
    attribute: str,
    operand,
) -> Tuple[Sel, int]:
    """Rows of ``(rel, sel)`` satisfying ``attribute <op> operand``.

    Returns ``(selection, batches)``.  The selection is ``None`` when
    every input row survives (the identity vector is never
    materialized); ``op`` is one of the planner's sargable comparisons,
    with ``attr==`` comparing two columns of the same row.

    On an encoded column the comparison runs once per distinct value
    the input rows hold — never on a value outside them, so what raises
    or matches is what the row path's ``Predicate.evaluate`` raises or
    matches.  Without a selection the result is the concatenated
    postings of the codes that pass, grouped by code.
    """
    if op == "attr==":
        left = rel.column(attribute).values()
        right = rel.column(str(operand)).values()
        return _filter_pairs(left, right, sel)
    column = rel.column(attribute)
    if column.is_encoded:
        test = _COMPARE.get(op)
        if test is None:
            raise RelationError("unknown predicate operator %r" % op)
        batches = batch_count(_effective_count(rel, sel))
        if sel is None:
            return _filter_postings(column, test, operand, rel.nrows), batches
        codes = column.codes
        domain = column.domain
        keep = [False] * len(domain)
        for code in set(map(codes.__getitem__, sel)):
            keep[code] = test(domain[code], operand)
        return [row for row in sel if keep[codes[row]]], batches
    return _filter_const(column.values(), sel, op, operand)


def _filter_postings(column: Column, test, operand, nrows: int) -> Sel:
    """The rows of a whole encoded column whose value passes ``test``."""
    positions, offsets = column.postings()
    passing = []
    kept = 0
    for code, value in enumerate(column.domain):
        held = offsets[code + 1] - offsets[code]
        if held and test(value, operand):
            passing.append(code)
            kept += held
    if kept == nrows:
        return None  # every row passed: keep the identity
    out: List[int] = []
    for code in passing:
        out += positions[offsets[code] : offsets[code + 1]]
    return out


def _filter_const(values: list, sel: Sel, op: str, target) -> Tuple[Sel, int]:
    out: List[int] = []
    extend = out.extend
    batches = 0
    if sel is None:
        total = len(values)
        for start in range(0, total, BATCH_ROWS):
            chunk = values[start : start + BATCH_ROWS]
            batches += 1
            if op == "==":
                extend(i for i, v in enumerate(chunk, start) if v == target)
            elif op == "!=":
                extend(i for i, v in enumerate(chunk, start) if v != target)
            elif op == "<":
                extend(i for i, v in enumerate(chunk, start) if v < target)
            elif op == "<=":
                extend(i for i, v in enumerate(chunk, start) if v <= target)
            elif op == ">":
                extend(i for i, v in enumerate(chunk, start) if v > target)
            elif op == ">=":
                extend(i for i, v in enumerate(chunk, start) if v >= target)
            else:
                raise RelationError("unknown predicate operator %r" % op)
    else:
        total = len(sel)
        for start in range(0, total, BATCH_ROWS):
            rows = sel[start : start + BATCH_ROWS]
            chunk = [values[i] for i in rows]
            batches += 1
            if op == "==":
                extend(r for r, v in zip(rows, chunk) if v == target)
            elif op == "!=":
                extend(r for r, v in zip(rows, chunk) if v != target)
            elif op == "<":
                extend(r for r, v in zip(rows, chunk) if v < target)
            elif op == "<=":
                extend(r for r, v in zip(rows, chunk) if v <= target)
            elif op == ">":
                extend(r for r, v in zip(rows, chunk) if v > target)
            elif op == ">=":
                extend(r for r, v in zip(rows, chunk) if v >= target)
            else:
                raise RelationError("unknown predicate operator %r" % op)
    batches = max(1, batches)
    if sel is None and len(out) == total:
        return None, batches  # all rows survived: keep the identity
    return out, batches


def _filter_pairs(left: list, right: list, sel: Sel) -> Tuple[Sel, int]:
    out: List[int] = []
    extend = out.extend
    batches = 0
    if sel is None:
        total = len(left)
        for start in range(0, total, BATCH_ROWS):
            a = left[start : start + BATCH_ROWS]
            b = right[start : start + BATCH_ROWS]
            batches += 1
            extend(start + i for i, (x, y) in enumerate(zip(a, b)) if x == y)
    else:
        total = len(sel)
        for start in range(0, total, BATCH_ROWS):
            rows = sel[start : start + BATCH_ROWS]
            batches += 1
            extend(r for r in rows if left[r] == right[r])
    batches = max(1, batches)
    if sel is None and len(out) == total:
        return None, batches
    return out, batches


# ---------------------------------------------------------------------------
# Project: gather the kept columns, dedup collapsed rows
# ---------------------------------------------------------------------------


def project(
    rel: ColumnarRelation, sel: Sel, attributes: Sequence[str]
) -> Tuple[ColumnarRelation, int]:
    """Projection onto ``attributes``; returns ``(relation, batches)``.

    Dropping attributes can collapse distinct rows, so the gathered
    columns are deduplicated through one set of row tuples — the same
    set semantics the row path's ``FlatRelation.project`` applies.  A
    projection that keeps a unique column (a key) or at most one row
    can collapse none: it skips the set and returns the kept columns
    gathered through ``sel``, dictionary encoding and all.
    """
    wanted = tuple(attributes)
    count = _effective_count(rel, sel)
    batches = batch_count(count)
    if not wanted:
        # Projection onto no attributes: the empty tuple survives iff
        # any row exists (the row path's set semantics).
        nrows = 1 if count else 0
        return ColumnarRelation((), (), nrows), batches
    kept = [rel.column(a) for a in wanted]
    if count > 1 and not any(column.is_unique() for column in kept):
        rows = set(zip(*(_gather(column.values(), sel) for column in kept)))
        if len(rows) < count:
            deduped = list(rows)
            columns = tuple(Column(values=list(col)) for col in zip(*deduped))
            return ColumnarRelation(wanted, columns, len(deduped)), batches
    # No row collapsed: the kept columns are already the answer.
    columns = tuple(_gather_column(column, sel, True) for column in kept)
    return ColumnarRelation(wanted, columns, count), batches


# ---------------------------------------------------------------------------
# Hash join: build on the smaller side, probe the larger in batches
# ---------------------------------------------------------------------------


def hash_join(
    left: ColumnarRelation,
    left_sel: Sel,
    right: ColumnarRelation,
    right_sel: Sel,
) -> Tuple[ColumnarRelation, int]:
    """Natural join of two columnar inputs; returns ``(relation, batches)``.

    Builds a hash table over the smaller input's join-key column(s) and
    probes with the larger.  When the build side's keys are unique —
    the common case of joining a fact table against a dimension — the
    probe is a single C-speed ``map(dict.get)`` over the key array; a
    probe where every row matches passes the input columns through
    untouched instead of gathering.  A unique build probing a whole
    encoded column on one shared attribute, where some row misses,
    reads the matching rows off the column's postings instead.  With no
    shared attribute this degenerates to the Cartesian product, as the
    row path does.
    """
    common = [a for a in left.schema if a in right.schema]
    result_schema = left.schema + tuple(
        a for a in right.schema if a not in common
    )
    left_count = _effective_count(left, left_sel)
    right_count = _effective_count(right, right_sel)
    batches = batch_count(left_count) + batch_count(right_count)
    if not common:
        left_rows, right_rows = _cross_rows(
            left_count, left_sel, right_count, right_sel
        )
        out_rows = len(left_rows) if left_rows is not None else left_count
        # A side's rows repeat once per row of the other side.
        left_distinct = right_count <= 1
        right_distinct = left_count <= 1
    else:
        # Build on the smaller side (fewer dict inserts), probe the rest.
        if right_count <= left_count:
            build, build_sel, probe, probe_sel = right, right_sel, left, left_sel
            build_is_left = False
        else:
            build, build_sel, probe, probe_sel = left, left_sel, right, right_sel
            build_is_left = True
        build_rows, probe_rows, unique_build = _hash_probe(
            build, build_sel, probe, probe_sel, common
        )
        # Build rows repeat once per matching probe row; probe rows
        # repeat only when a key has several build rows.
        if build_is_left:
            left_rows, right_rows = build_rows, probe_rows
            left_distinct, right_distinct = False, unique_build
        else:
            left_rows, right_rows = probe_rows, build_rows
            left_distinct, right_distinct = unique_build, False
        out_rows = len(left_rows) if left_rows is not None else left_count
        _metrics.REGISTRY.counter("flat.join.pairs_tried").inc(out_rows)
        _metrics.REGISTRY.counter("flat.join.pairs_pruned").inc(
            left_count * right_count - out_rows
        )
    columns = [
        _gather_column(column, left_rows, left_distinct)
        for column in left.columns
    ]
    for attribute, column in zip(right.schema, right.columns):
        if attribute not in common:
            columns.append(_gather_column(column, right_rows, right_distinct))
    return ColumnarRelation(result_schema, tuple(columns), out_rows), batches


def _gather_column(column: Column, rows: Sel, distinct: bool) -> Column:
    """Gather ``rows`` of ``column``; ``None`` passes it through as-is.

    ``distinct`` says that no row repeats in ``rows``, so the gathered
    column inherits the source's :meth:`Column.is_unique` answer;
    otherwise it is not known unique.
    """
    if rows is None:
        return column
    unique = False
    if distinct:
        unique = column._unique
        if unique is None:
            unique = column  # not counted yet: ask the source when needed
    if column.is_encoded:
        codes = column.codes
        return Column(
            codes=[codes[i] for i in rows],
            domain=column.domain,
            code_of=column._code_of,
            unique=unique,
        )
    values = column._values
    return Column(values=[values[i] for i in rows], unique=unique)


def _key_arrays(
    rel: ColumnarRelation, sel: Sel, common: List[str]
) -> list:
    """The join-key sequence of ``(rel, sel)``: values or row tuples."""
    if len(common) == 1:
        return _gather(rel.column(common[0]).values(), sel)
    gathered = [_gather(rel.column(a).values(), sel) for a in common]
    return list(zip(*gathered))


def _hash_probe(
    build: ColumnarRelation,
    build_sel: Sel,
    probe: ColumnarRelation,
    probe_sel: Sel,
    common: List[str],
) -> Tuple[Sel, Sel, bool]:
    """Row vectors ``(build_rows, probe_rows)`` of the matching pairs,
    and whether the build side's keys were unique.

    Either vector may come back ``None`` — the identity — when the
    side's rows all participate exactly once in input order.
    """
    build_keys = _key_arrays(build, build_sel, common)
    # Try the unique-build fast path first: one dict insert per key and
    # a map(get) probe.  Keys are atoms or tuples of atoms, so None can
    # never be a key — it doubles as the miss sentinel for free.
    positions: dict = {}
    unique = True
    for j, key in enumerate(build_keys):
        if key in positions:
            unique = False
            break
        positions[key] = j
    matched = None
    if unique and probe_sel is None and len(common) == 1:
        matched = _postings_probe(build_keys, probe.column(common[0]), probe.nrows)
    if matched is not None:
        probe_rows, build_positions = matched
    elif unique:
        probe_keys = _key_arrays(probe, probe_sel, common)
        matches = list(map(positions.get, probe_keys))
        if None in matches:
            if probe_sel is None:
                probe_rows = [i for i, m in enumerate(matches) if m is not None]
                build_positions = [matches[i] for i in probe_rows]
            else:
                probe_rows = [
                    probe_sel[i]
                    for i, m in enumerate(matches)
                    if m is not None
                ]
                build_positions = [m for m in matches if m is not None]
        else:
            probe_rows = probe_sel  # every probe row matched, in order
            build_positions = matches
    else:
        probe_keys = _key_arrays(probe, probe_sel, common)
        by_key: dict = {}
        for j, key in enumerate(build_keys):
            by_key.setdefault(key, []).append(j)
        probe_rows = []
        build_positions = []
        probe_append = probe_rows.append
        build_append = build_positions.append
        get = by_key.get
        for i, key in enumerate(probe_keys):
            bucket = get(key)
            if bucket:
                row = probe_sel[i] if probe_sel is not None else i
                for j in bucket:
                    probe_append(row)
                    build_append(j)
    # Build positions index into the *gathered* key array; route them
    # through the build selection to get real row numbers.
    if build_sel is not None:
        build_rows: Sel = [build_sel[j] for j in build_positions]
    elif build_positions == list(range(build.nrows)):
        build_rows = None  # identity: all build rows, in order
    else:
        build_rows = build_positions
    return build_rows, probe_rows, unique


def _postings_probe(
    build_keys: list, column: Column, nrows: int
) -> Optional[Tuple[List[int], List[int]]]:
    """``(probe_rows, build_positions)`` through the postings of the
    whole probe ``column``, for unique ``build_keys``; ``None`` where
    the map probe is the cheaper one.

    Each build key is looked up once in the probe column's domain and
    brings the rows that hold its code, so the work is the build side
    plus the output.  A plain column has no postings, and a probe in
    which every row matches is the map probe's identity vector, which
    gathers nothing.
    """
    if not column.is_encoded:
        return None
    code_for = column.code_for
    matched = [
        (j, code)
        for j, code in enumerate(map(code_for, build_keys))
        if code is not None
    ]
    if len(matched) == len(column.domain):
        return None  # every code has a build key, so every row matches
    positions, offsets = column.postings()
    if sum(offsets[code + 1] - offsets[code] for __, code in matched) == nrows:
        return None
    probe_rows: List[int] = []
    build_positions: List[int] = []
    for j, code in matched:
        start, end = offsets[code], offsets[code + 1]
        probe_rows += positions[start:end]
        build_positions += [j] * (end - start)
    return probe_rows, build_positions


def _cross_rows(
    left_count: int, left_sel: Sel, right_count: int, right_sel: Sel
) -> Tuple[Sel, Sel]:
    """Row vectors of the Cartesian product (no shared attribute)."""
    if right_count == 1 and left_sel is None:
        right_row = right_sel[0] if right_sel is not None else 0
        return None, [right_row] * left_count
    left_indexes = left_sel if left_sel is not None else range(left_count)
    right_indexes = right_sel if right_sel is not None else range(right_count)
    right_list = list(right_indexes)
    left_rows = [i for i in left_indexes for _ in right_list]
    right_rows = right_list * left_count
    return left_rows, right_rows


# ---------------------------------------------------------------------------
# Late materialization back into the row world
# ---------------------------------------------------------------------------

# The FlatRelation slot descriptor for ``_rows``; ColumnarResult shadows
# the name with a property and parks the materialized frozenset here.
_ROWS_SLOT = FlatRelation.__dict__["_rows"]


class ColumnarResult(FlatRelation):
    """A query result that *is* a FlatRelation but stays columnar.

    Length and schema answer from the arrays in O(1); the row frozenset
    — which at 10⁵ rows costs more than the whole columnar join — is
    transposed lazily the first time something row-shaped is needed
    (iteration, membership, equality, further row-path algebra), then
    cached in the parent's slot and the arrays dropped.

    Every kernel's output is distinct by construction (scans read sets,
    filters drop rows, joins of distinct inputs pair distinct row
    fragments, projections dedup unless a kept column is a key), so
    ``len`` can trust ``nrows`` without building the set.
    """

    __slots__ = ("_columns", "_nrows")

    def __init__(self, schema: Tuple[str, ...], columns, nrows: int):
        self._schema = tuple(schema)
        self._columns = columns
        self._nrows = nrows

    @property
    def _rows(self):
        columns = self._columns
        if columns is None:
            return _ROWS_SLOT.__get__(self)
        if columns:
            rows = frozenset(zip(*(c.values() for c in columns)))
        else:
            rows = frozenset([()] if self._nrows else [])
        _ROWS_SLOT.__set__(self, rows)
        self._columns = None  # free the arrays; the set is now canonical
        return rows

    def __len__(self) -> int:
        return self._nrows


def to_flat(rel: ColumnarRelation, sel: Sel) -> FlatRelation:
    """Wrap a kernel result as a (lazily materialized) flat relation."""
    if sel is None:
        return ColumnarResult(rel.schema, rel.columns, rel.nrows)
    columns = tuple(_gather_column(c, sel, True) for c in rel.columns)
    return ColumnarResult(rel.schema, columns, len(sel))
