"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated Python
errors.  Sub-hierarchies mirror the package layout: value-ordering errors,
type errors, extent errors, persistence errors, language errors, and
class-construct errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Core value-ordering errors (repro.core)
# ---------------------------------------------------------------------------


class OrderError(ReproError):
    """Base class for errors in the information ordering on values."""


class InconsistentJoinError(OrderError):
    """Raised when two values have no common upper bound.

    The paper: "we cannot always join two records together since they may
    disagree on a common field".  The offending values are available as
    ``left`` and ``right``; ``path`` locates the disagreement (a tuple of
    field labels from the outermost record down to the conflicting atoms).
    """

    def __init__(self, left, right, path=()):
        self.left = left
        self.right = right
        self.path = tuple(path)
        at = "" if not self.path else " at field path %s" % ".".join(self.path)
        super().__init__(
            "cannot join %r with %r%s: no common upper bound" % (left, right, at)
        )


class NoMeetError(OrderError):
    """Raised when two values have no greatest lower bound."""


class NotAValueError(OrderError):
    """Raised when a Python object cannot be converted to a domain value."""


class RelationError(ReproError):
    """Base class for errors on (generalized) relations."""


class SchemaMismatchError(RelationError):
    """Raised when a flat-relation operation is applied across schemas."""


class KeyViolationError(RelationError):
    """Raised when an insert would violate a key constraint."""

    def __init__(self, message, key=None, existing=None, offered=None):
        super().__init__(message)
        self.key = key
        self.existing = existing
        self.offered = offered


# ---------------------------------------------------------------------------
# Type-system errors (repro.types)
# ---------------------------------------------------------------------------


class TypeSystemError(ReproError):
    """Base class for errors raised by the type system."""


class CoercionError(TypeSystemError):
    """Raised by ``coerce`` when a Dynamic's carried type does not match.

    The paper: "the subsequent line will raise a run-time exception because
    the type associated with d is not string."
    """

    def __init__(self, carried, requested):
        self.carried = carried
        self.requested = requested
        super().__init__(
            "cannot coerce dynamic value: carries type %s, requested %s"
            % (carried, requested)
        )


class TypeCheckError(TypeSystemError):
    """Raised by the static checker when an expression is ill-typed."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = "%s (at %s)" % (message, location)
        super().__init__(message)


class UnknownTypeError(TypeSystemError):
    """Raised when a named type cannot be resolved."""


# ---------------------------------------------------------------------------
# Extent errors (repro.extents)
# ---------------------------------------------------------------------------


class ExtentError(ReproError):
    """Base class for errors on databases and extents."""


class NotInDatabaseError(ExtentError):
    """Raised when removing or updating a value absent from a database."""


# ---------------------------------------------------------------------------
# Persistence errors (repro.persistence)
# ---------------------------------------------------------------------------


class PersistenceError(ReproError):
    """Base class for persistence-layer errors."""


class UnknownHandleError(PersistenceError):
    """Raised when interning a handle that was never externed."""


class StoreCorruptError(PersistenceError):
    """Raised when the backing store fails an integrity check."""


class SerializationError(PersistenceError):
    """Raised when a value cannot be serialized or deserialized."""


class SchemaEvolutionError(PersistenceError):
    """Raised when recompiling a handle at an incompatible type.

    The paper allows rebinding a handle at ``DBType'`` when the stored type
    is a subtype of ``DBType'`` (a view) or *consistent* with it (a common
    subtype exists); anything else is an error.
    """


class TransactionError(PersistenceError):
    """Raised on misuse of commit/abort in intrinsic persistence."""


class TransactionConflictError(TransactionError):
    """Raised when first-committer-wins conflict detection aborts a commit.

    Another transaction committed an overlapping sweep between this
    transaction's snapshot and its commit attempt; the transaction has
    been aborted.  ``retryable`` is always ``True``: begin a fresh
    transaction (pinning a new snapshot) and redo the work.  ``keys``
    names what overlapped — object ids for heap transactions, extern
    handles for session transactions — and ``winner_epoch`` is the
    epoch of the commit that won.
    """

    retryable = True

    def __init__(self, message, keys=(), winner_epoch=None):
        self.keys = tuple(keys)
        self.winner_epoch = winner_epoch
        super().__init__(message)


# ---------------------------------------------------------------------------
# Derived class-construct errors (repro.classes)
# ---------------------------------------------------------------------------


class ClassConstructError(ReproError):
    """Base class for errors in the Taxis/Adaplex/Galileo/Pascal-R layers."""


# ---------------------------------------------------------------------------
# Server errors (repro.server)
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for errors from the session server and its clients."""


class ProtocolError(ServerError):
    """Raised when a wire frame violates the protocol."""


class FrameTooLargeError(ProtocolError):
    """Raised when a frame's declared length exceeds the agreed limit."""

    def __init__(self, declared, limit):
        self.declared = declared
        self.limit = limit
        super().__init__(
            "frame of %d bytes exceeds the %d byte limit" % (declared, limit)
        )


class TruncatedFrameError(ProtocolError):
    """Raised when the stream ends in the middle of a frame."""


class RemoteError(ServerError):
    """An error frame received from the server, re-raised client-side.

    ``kind`` carries the server-side exception class name (or
    ``"protocol"``/``"internal"``), so callers can distinguish a bad
    query from a broken server.
    """

    def __init__(self, message, kind=None):
        self.kind = kind
        super().__init__(message)


class SessionClosedError(ServerError):
    """Raised on use of a session the server has already closed."""


class BrokerBusyError(ServerError):
    """Raised when the broker's connection limit and accept queue are
    both full."""


# ---------------------------------------------------------------------------
# Language errors (repro.lang)
# ---------------------------------------------------------------------------


class LanguageError(ReproError):
    """Base class for errors from the DBPL interpreter."""


class LexError(LanguageError):
    """Raised on an unrecognizable input character sequence."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__("%s (line %d, column %d)" % (message, line, column))


class ParseError(LanguageError):
    """Raised when the token stream does not form a valid program."""

    def __init__(self, message, token=None):
        self.token = token
        if token is not None:
            message = "%s (near %r at line %d)" % (message, token.text, token.line)
        super().__init__(message)


class EvalError(LanguageError):
    """Raised at run time by the DBPL evaluator."""
