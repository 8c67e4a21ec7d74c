"""Model-based stateful testing of the Amber fronts over one namespace.

A hypothesis state machine drives three :class:`ReplicatingStore`
fronts over one :class:`TransactionManager` — autocommit ``extern``,
``intern``, ``drop``, the one-handle ``extern_if_version``, and each
front's own ``begin``/``commit``/``abort`` — against a serial model: the
committed (value, version) of every handle at every epoch, the handles
each epoch wrote, and what each front last round-tripped.

Invariants:

* **versions** — a fresh handle's first extern is version 1, every
  published extern adds 1 (a transaction's at its commit), and a drop
  starts the handle over; the manager's documents carry exactly the
  model's versions after every step;
* **conflicts** — a conditional extern succeeds exactly when it names
  the current version, and a front's commit conflicts exactly when an
  epoch after its snapshot wrote a handle it read or wrote;
* **audit** — an intern warns ``divergent_reintern`` exactly when the
  front last round-tripped other content under that handle: never for
  an unchanged handle, a re-extern of an equal value, or a handle the
  front's own transaction wrote.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import TransactionConflictError, UnknownHandleError
from repro.obs import events
from repro.obs.metrics import REGISTRY
from repro.persistence.mvcc import TransactionManager
from repro.persistence.replicating import ReplicatingStore, StaleHandleError
from repro.types.dynamic import dynamic

HANDLES = st.sampled_from(("a", "b", "c"))
VALUES = st.integers(min_value=0, max_value=3)
FRONTS = st.integers(min_value=0, max_value=2)


class ModelFront:
    """What the model knows of one front."""

    def __init__(self, front):
        self.front = front
        self.seen = {}  # handle -> value last round-tripped
        self.snapshot = None  # open transaction's snapshot epoch
        self.reads = set()
        self.writes = {}


class FrontMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.manager = TransactionManager()
        self.fronts = [
            ModelFront(ReplicatingStore(self.manager, owner="f%d" % index))
            for index in range(3)
        ]
        self.states = [{}]  # per epoch: handle -> (value, version)
        self.written = [frozenset()]
        self.warnings = 0
        self.counted = REGISTRY.value("replicating.divergent_reinterns")
        events.disable()  # each example starts with an empty journal
        self.journal = events.enable()

    # -- model helpers ---------------------------------------------------------

    def _publish(self, writes):
        """Commit ``{handle: value-or-None}``; returns the new versions."""
        state = dict(self.states[-1])
        versions = {}
        for handle, value in writes.items():
            if value is None:
                state.pop(handle, None)
                continue
            versions[handle] = state.get(handle, (None, 0))[1] + 1
            state[handle] = (value, versions[handle])
        self.states.append(state)
        self.written.append(frozenset(writes))
        return versions

    def _audit(self, model, handle, value):
        if handle in model.seen and model.seen[handle] != value:
            self.warnings += 1
        model.seen[handle] = value

    # -- autocommit ------------------------------------------------------------

    @rule(pick=FRONTS, handle=HANDLES, value=VALUES)
    def extern(self, pick, handle, value):
        model = self.fronts[pick]
        version = model.front.extern(handle, dynamic(value))
        if model.snapshot is not None:
            assert version is None
            model.writes[handle] = value
        else:
            assert version == self._publish({handle: value})[handle]
            model.seen[handle] = value

    @rule(pick=FRONTS, handle=HANDLES)
    def intern(self, pick, handle):
        model = self.fronts[pick]
        if handle in model.writes:
            assert model.front.intern(handle).value == model.writes[handle]
            return
        epoch = -1 if model.snapshot is None else model.snapshot
        stored = self.states[epoch].get(handle)
        if model.snapshot is not None:
            model.reads.add(handle)
        if stored is None:
            with pytest.raises(UnknownHandleError):
                model.front.intern(handle)
            return
        assert model.front.intern(handle).value == stored[0]
        self._audit(model, handle, stored[0])

    @rule(pick=FRONTS, handle=HANDLES)
    def drop(self, pick, handle):
        model = self.fronts[pick]
        if model.snapshot is not None:
            return  # drops autocommit in this model
        if handle not in self.states[-1]:
            with pytest.raises(UnknownHandleError):
                model.front.drop(handle)
            return
        model.front.drop(handle)
        self._publish({handle: None})
        model.seen.pop(handle, None)

    @rule(pick=FRONTS, handle=HANDLES, value=VALUES, lag=st.integers(0, 1))
    def extern_if_version(self, pick, handle, value, lag):
        model = self.fronts[pick]
        current = self.states[-1].get(handle, (None, 0))[1]
        expected = current - lag
        if lag:
            with pytest.raises(StaleHandleError) as excinfo:
                model.front.extern_if_version(handle, dynamic(value), expected)
            assert excinfo.value.actual == current
            return
        version = model.front.extern_if_version(handle, dynamic(value), expected)
        assert version == self._publish({handle: value})[handle]
        model.seen[handle] = value

    # -- each front's transaction ----------------------------------------------

    @rule(pick=FRONTS)
    def begin(self, pick):
        model = self.fronts[pick]
        if model.snapshot is not None:
            return
        assert model.front.begin() == len(self.states) - 1
        model.snapshot = len(self.states) - 1

    @rule(pick=FRONTS)
    def commit(self, pick):
        model = self.fronts[pick]
        if model.snapshot is None:
            return
        sweep = model.reads | set(model.writes)
        clashes = [
            epoch
            for epoch in range(model.snapshot + 1, len(self.states))
            if self.written[epoch] & sweep
        ]
        if not model.writes:
            assert model.front.commit() == (model.snapshot, 0)
        elif clashes:
            with pytest.raises(TransactionConflictError):
                model.front.commit()
        else:
            epoch = len(self.states)
            assert model.front.commit() == (epoch, len(model.writes))
            self._publish(model.writes)
            model.seen.update(model.writes)
        self._end(model)

    @rule(pick=FRONTS)
    def abort(self, pick):
        model = self.fronts[pick]
        if model.snapshot is None:
            return
        model.front.abort()
        self._end(model)

    def _end(self, model):
        assert model.front.transaction is None
        model.snapshot = None
        model.reads = set()
        model.writes = {}

    # -- invariants ------------------------------------------------------------

    @invariant()
    def stored_versions_match_the_model(self):
        for handle in ("a", "b", "c"):
            document = self.manager.get(handle)
            stored = self.states[-1].get(handle)
            if stored is None:
                assert document is None
            else:
                assert document["version"] == stored[1]

    @invariant()
    def audit_matches_the_model(self):
        counted = REGISTRY.value("replicating.divergent_reinterns")
        assert counted - self.counted == self.warnings
        warned = self.journal.events(severity="WARN", subsystem="replicating")
        assert [e.name for e in warned] == ["divergent_reintern"] * self.warnings

    @invariant()
    def no_transaction_leaks(self):
        open_fronts = sum(m.snapshot is not None for m in self.fronts)
        assert self.manager.active_transactions() == open_fronts


FrontMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
TestFrontStateful = FrontMachine.TestCase
