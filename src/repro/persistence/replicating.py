"""Replicating persistence: Amber's ``extern``/``intern``.

The paper: "The second form of persistence is controlled by having
program instructions that move structures in and out of secondary
(persistent) storage.  We shall call this replicating persistence since
structures are replicated in secondary storage ...  Amber provides the
most complete example of replicating persistence through the use of
dynamic types"::

    extern('DBFile', dynamic d)          -- write a copy, with its type
    var x = intern 'DBFile'              -- read a fresh copy back
    var d = coerce x to database         -- fails if the type changed

Handles "maintain a name for a value across program boundaries", but
"the handle refers to a *copy* of the data": modifications made after an
extern do not survive a later intern, and "if values a and b both refer
to a third value c then any change made to c through a handle for a will
not be visible from a handle for b, since these two handles will refer
to distinct copies of c.  This may be the cause of both update anomalies
and wasted storage."  Both defects are deliberately reproduced here and
pinned down by tests and benchmark E3.

When a dynamic value is externed "it carries with it everything that is
reachable from that value" — the serializer walks the full object graph.

The handles live in a :class:`~repro.persistence.mvcc.TransactionManager`;
the Python API and every interpreter (the REPL's, each server
session's) reach them through a :class:`ReplicatingStore` front, so all
share one version rule, one conflict check and one anomaly audit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.errors import (
    PersistenceError,
    TransactionConflictError,
    TransactionError,
    UnknownHandleError,
)
from repro.persistence.mvcc import SessionTransaction, TransactionManager
from repro.persistence.serialize import deserialize, serialize, stored_type
from repro.persistence.store import LogStore
from repro.types.dynamic import Dynamic
from repro.types.kinds import Type


def _fingerprint(document: object) -> str:
    """A short content hash of a stored document, version excluded.

    Two documents fingerprint equal iff their serialized value and type
    agree, regardless of which extern (version) produced them — exactly
    the identity the audit trail needs to tell "same value re-externed"
    from "someone replaced the value underneath this handle".
    """
    if isinstance(document, dict):
        document = {k: v for k, v in document.items() if k != "version"}
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _version_of(document: Optional[dict]) -> int:
    """A stored document's version: 0 when absent, 1 when unstamped."""
    return 0 if document is None else int(document.get("version", 1))


class StaleHandleError(PersistenceError):
    """Raised by a conditional extern when the handle moved underneath.

    The paper: "if any concurrency is to be implemented through the use
    of replicating persistence, it must be done by ensuring that the
    various extern and intern operations for a given handle are properly
    synchronized."  Version checks are that synchronization: a program
    that interned version N may only extern on top of version N.
    """

    def __init__(self, handle: str, expected: int, actual: int):
        self.handle = handle
        self.expected = expected
        self.actual = actual
        super().__init__(
            "handle %r is at version %d, but the extern expected version %d"
            " (another program got there first)" % (handle, actual, expected)
        )


@dataclass
class Versioned:
    """An interned value together with the version it came from."""

    value: Dynamic
    version: int


class ReplicatingStore:
    """``extern``/``intern`` of dynamics over one extern namespace.

    ``store`` is a shared :class:`TransactionManager`, or a
    :class:`LogStore`, a path or ``None`` (in memory) to open one over;
    ``owner`` tags the front's transactions and journal events.  An
    extern copies the whole reachable closure and stamps the next
    version (1 for a fresh handle; unstamped reads as 1) under the
    manager's lock — at commit inside :meth:`begin`/:meth:`commit`.
    """

    def __init__(
        self,
        store: Union[TransactionManager, LogStore, str, None] = None,
        owner: Optional[str] = None,
    ):
        if not isinstance(store, TransactionManager):
            store = TransactionManager(store)
        self.manager = store
        self.owner = owner
        self._tags = {} if owner is None else {"session": owner}
        # The open transaction, if any (between begin and commit/abort).
        self.transaction: Optional[SessionTransaction] = None
        # The audit: per handle, the (version, stored document) last
        # round-tripped here; other content later is the update anomaly.
        self._seen: Dict[str, Tuple[int, dict]] = {}

    def last_fingerprint(self, handle: str) -> Optional[Tuple[int, str]]:
        """The (version, fingerprint) this front last saw for ``handle``."""
        seen = self._seen.get(handle)
        return None if seen is None else (seen[0], _fingerprint(seen[1]))

    def extern_document(self, handle: str, document: dict) -> Optional[int]:
        """Write a serialized document, which the front then owns and
        stamps; returns its version (``None`` inside a transaction)."""
        _metrics.REGISTRY.counter("replicating.externs").inc()
        return self._write(handle, document)

    def intern_document(self, handle: str) -> Optional[dict]:
        """The document under ``handle`` (``None`` if unbound), audited
        unless it is the open transaction's own buffered write."""
        document, txn = self._read(handle), self.transaction
        if document is not None and (txn is None or handle not in txn.writes):
            _metrics.REGISTRY.counter("replicating.interns").inc()
            self._audit(handle, document)
        return document

    def _read(self, handle: str) -> Optional[dict]:
        txn = self.transaction
        return self.manager.get(handle) if txn is None else txn.read(handle)

    def _write(self, handle: str, document: Optional[dict]) -> Optional[int]:
        txn = self.transaction
        if txn is not None:
            txn.write(handle, document)
            return None
        with self.manager.lock:
            if document is not None:
                document["version"] = _version_of(self.manager.get(handle)) + 1
            self.manager.put(handle, document)
        return self._committed(handle, document)

    def _committed(self, handle: str, document: Optional[dict]) -> Optional[int]:
        if document is None:
            self._seen.pop(handle, None)
            return None
        version = document["version"]
        self._seen[handle] = (version, document)
        self._publish("INFO", "extern", handle=handle, version=version)
        return version

    def _audit(self, handle: str, document: dict) -> None:
        version = _version_of(document)
        seen = self._seen.get(handle)
        self._seen[handle] = (version, document)
        if seen is not None and seen[1] is not document:
            # Another copy than the one last round-tripped: only now hash
            # both, to tell an equal value re-externed from the anomaly.
            fingerprint, remembered = _fingerprint(document), _fingerprint(seen[1])
            if fingerprint != remembered:
                _metrics.REGISTRY.counter("replicating.divergent_reinterns").inc()
                self._publish(
                    "WARN", "divergent_reintern", handle=handle,
                    remembered_version=seen[0],
                    remembered_fingerprint=remembered,
                    stored_version=version, stored_fingerprint=fingerprint,
                )
                return
        self._publish("INFO", "intern", handle=handle, version=version)

    def _publish(self, severity: str, name: str, **payload: object) -> None:
        if _events.CURRENT.enabled:
            payload.update(self._tags)
            _events.CURRENT.publish(severity, "replicating", name, **payload)

    # -- transactions ---------------------------------------------------------

    def begin(self) -> int:
        """Open a snapshot-isolated transaction; returns its snapshot epoch."""
        if self.transaction is not None:
            raise TransactionError(
                "a transaction is already active — commit or abort it first"
            )
        self.transaction = self.manager.begin(owner=self.owner)
        return self.transaction.snapshot

    def commit(self) -> Tuple[int, int]:
        """Publish the open transaction; returns ``(epoch, written)``, or
        raises the retryable
        :class:`~repro.errors.TransactionConflictError` (the transaction
        then already aborted) when first-committer-wins refuses it."""
        return self._commit(self._take())

    def abort(self) -> None:
        """Discard the open transaction's buffered writes."""
        self._take().abort()

    def _take(self) -> SessionTransaction:
        txn = self.transaction
        if txn is None:
            raise TransactionError("no transaction is active — begin one first")
        self.transaction = None
        return txn

    def _commit(self, txn: SessionTransaction) -> Tuple[int, int]:
        # Stamp and commit under one hold of the lock: a commit that
        # passes first-committer-wins wrote handles nobody committed
        # since its snapshot, so each stamp is the newest version + 1.
        with self.manager.lock:
            for handle, document in txn.writes.items():
                if document is not None:
                    document["version"] = _version_of(self.manager.get(handle)) + 1
            result = txn.commit()
        for handle, document in txn.writes.items():
            self._committed(handle, document)
        return result

    def extern(self, handle: str, dyn: Dynamic) -> Optional[int]:
        """Replicate ``dyn`` (and everything reachable) under ``handle``.

        Only dynamics may be externed — the value must travel with its
        type description (principle (2)); seal plain values with
        :func:`~repro.types.dynamic.dynamic` first.  Returns the new
        version number (``None`` inside a transaction).
        """
        with _trace.CURRENT.span("replicating.extern", handle=handle):
            return self.extern_document(handle, _serialize(dyn))

    def version_of(self, handle: str) -> Optional[int]:
        """The current version of a handle (``None`` when unbound)."""
        document = self._read(handle)
        return None if document is None else _version_of(document)

    def intern_versioned(self, handle: str) -> Versioned:
        """Intern a copy together with its version, for a later
        :meth:`extern_if_version` — the optimistic-concurrency read."""
        document = self.intern_document(handle)
        if document is None:
            raise UnknownHandleError("no value externed under %r" % (handle,))
        return Versioned(_decode(handle, document), _version_of(document))

    def extern_if_version(
        self, handle: str, dyn: Dynamic, expected_version: int
    ) -> int:
        """Extern only if the handle is still at ``expected_version``.

        A one-handle transaction of its own: it checks the version at
        its snapshot, then writes and commits, so first-committer-wins
        refuses a writer that raced it.  A stale expectation raises
        :class:`StaleHandleError` — preventing the lost update that
        unsynchronized replicating persistence allows.
        """
        document = _serialize(dyn)
        txn = self.manager.begin(owner=self.owner)
        actual = _version_of(txn.read(handle))
        if actual != expected_version:
            txn.abort()
        else:
            txn.write(handle, document)
            try:
                self._commit(txn)
                _metrics.REGISTRY.counter("replicating.externs").inc()
                return document["version"]
            except TransactionConflictError:
                actual = _version_of(self.manager.get(handle))
        _metrics.REGISTRY.counter("replicating.stale_conflicts").inc()
        raise StaleHandleError(handle, expected_version, actual)

    def intern(self, handle: str) -> Dynamic:
        """Read a fresh copy of the value stored under ``handle``.

        Returns a :class:`Dynamic` carrying the persisted type; coerce it
        to reveal the value, as in the paper's Amber fragment.  Each call
        builds an independent copy — interning twice yields two.
        """
        return self.intern_versioned(handle).value

    def stored_type_of(self, handle: str) -> Optional[Type]:
        """The persisted type under ``handle`` without copying the value."""
        document = self._read(handle)
        return None if document is None else stored_type(document)

    def drop(self, handle: str) -> None:
        """Forget a handle (tombstone in the log)."""
        if self._read(handle) is None:
            raise UnknownHandleError("no value externed under %r" % (handle,))
        self._write(handle, None)

    def handles(self) -> List[str]:
        """The currently bound handles."""
        return self.manager.handles()

    def __contains__(self, handle: object) -> bool:
        return isinstance(handle, str) and self._read(handle) is not None

    def storage_bytes(self) -> int:
        """On-disk bytes — grows with every extern (copies accumulate)."""
        store = self.manager.store
        return 0 if store is None else store.size_bytes()

    def close(self) -> None:
        """Close the namespace's backing store."""
        self.manager.close()

    def __enter__(self) -> "ReplicatingStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _serialize(dyn: Dynamic) -> dict:
    if not isinstance(dyn, Dynamic):
        raise PersistenceError(
            "extern takes a Dynamic (the value must carry its type); "
            "got %r" % (dyn,)
        )
    return serialize(dyn.value, typ=dyn.carried)


def _decode(handle: str, document: dict) -> Dynamic:
    carried = stored_type(document)
    if carried is None:
        raise PersistenceError(
            "handle %r was stored without a type description" % (handle,)
        )
    with _trace.CURRENT.span("replicating.intern", handle=handle):
        value = deserialize(document)
    return Dynamic(value, carried)
