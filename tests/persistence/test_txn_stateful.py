"""Model-based stateful testing of the extern layer's transactions.

A hypothesis state machine drives one :class:`TransactionManager`
through interleaved autocommit ``put``/``get`` and up to four open
:class:`SessionTransaction` s (``begin``/``read``/``write``/``commit``/
``abort``) over four handles, against a serial-snapshot model: the
committed state of every epoch, and the handles each epoch wrote.

Invariants:

* **reads** — a transaction reads the model's state at its snapshot;
  its own buffered writes win;
* **conflicts** — a commit conflicts exactly when an epoch after its
  snapshot wrote a handle in its read ∪ write set, and the error names
  those handles and the first such epoch; otherwise it mints the next
  epoch;
* **get** — autocommit reads return the newest committed state;
* **chains** — after every step, every live version chain not seeded
  since the last prune belongs to a handle written after the oldest
  active snapshot and holds exactly one version at or below it, and the
  write-set history retains no epoch at or below it.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import TransactionConflictError
from repro.persistence.mvcc import TransactionManager

HANDLES = st.sampled_from(("a", "b", "c", "d"))
VALUES = st.integers(min_value=0, max_value=5)
PICKS = st.integers(min_value=0, max_value=3)
MAX_OPEN = 4


class ModelTxn:
    """What the model knows of one open transaction."""

    def __init__(self, txn):
        self.txn = txn
        self.snapshot = txn.snapshot
        self.reads = set()
        self.writes = {}


class TxnMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.manager = TransactionManager(memory={})
        self.states = [{}]  # committed state per epoch
        self.written = [frozenset()]  # handles each epoch wrote
        self.open = {}  # tid -> ModelTxn
        # Handles a transaction read from the manager since the last
        # prune: their chains may have been seeded and not yet visited.
        self.read_since_prune = set()

    # -- model helpers ---------------------------------------------------------

    def _publish(self, writes):
        state = dict(self.states[-1])
        state.update(writes)
        self.states.append(state)
        self.written.append(frozenset(writes))

    def _pick(self, pick):
        return self.open[sorted(self.open)[pick % len(self.open)]]

    def _horizon(self):
        if self.open:
            return min(model.snapshot for model in self.open.values())
        return len(self.states) - 1

    # -- autocommit ------------------------------------------------------------

    @rule(handle=HANDLES, value=VALUES)
    def put(self, handle, value):
        assert self.manager.put(handle, value) == len(self.states)
        self._publish({handle: value})
        self.read_since_prune = set()

    @rule(handle=HANDLES)
    def get(self, handle):
        assert self.manager.get(handle) == self.states[-1].get(handle)

    # -- transactions ----------------------------------------------------------

    @precondition(lambda self: len(self.open) < MAX_OPEN)
    @rule()
    def begin(self):
        txn = self.manager.begin()
        assert txn.snapshot == len(self.states) - 1
        self.open[txn.tid] = ModelTxn(txn)

    @precondition(lambda self: self.open)
    @rule(pick=PICKS, handle=HANDLES)
    def read(self, pick, handle):
        model = self._pick(pick)
        if handle in model.writes:
            expected = model.writes[handle]
        else:
            expected = self.states[model.snapshot].get(handle)
            model.reads.add(handle)
            self.read_since_prune.add(handle)
        assert model.txn.read(handle) == expected

    @precondition(lambda self: self.open)
    @rule(pick=PICKS, handle=HANDLES, value=VALUES)
    def write(self, pick, handle, value):
        model = self._pick(pick)
        model.txn.write(handle, value)
        model.writes[handle] = value

    @precondition(lambda self: self.open)
    @rule(pick=PICKS)
    def commit(self, pick):
        model = self._pick(pick)
        del self.open[model.txn.tid]
        sweep = model.reads | set(model.writes)
        clashes = [
            epoch
            for epoch in range(model.snapshot + 1, len(self.states))
            if self.written[epoch] & sweep
        ]
        if not model.writes:
            assert model.txn.commit() == (model.snapshot, 0)
        elif clashes:
            with pytest.raises(TransactionConflictError) as exc_info:
                model.txn.commit()
            winner = clashes[0]
            assert exc_info.value.winner_epoch == winner
            assert list(exc_info.value.keys) == sorted(
                self.written[winner] & sweep
            )
        else:
            epoch = len(self.states)
            assert model.txn.commit() == (epoch, len(model.writes))
            self._publish(model.writes)
        assert not model.txn.active
        self.read_since_prune = set()

    @precondition(lambda self: self.open)
    @rule(pick=PICKS)
    def abort(self, pick):
        model = self._pick(pick)
        del self.open[model.txn.tid]
        model.txn.abort()
        assert not model.txn.active
        self.read_since_prune = set()

    # -- invariants ------------------------------------------------------------

    @invariant()
    def epochs_and_transactions_agree(self):
        assert self.manager.current_epoch == len(self.states) - 1
        assert self.manager.active_transactions() == len(self.open)

    @invariant()
    def chains_are_bounded_by_the_horizon(self):
        horizon = self._horizon()
        written_after = frozenset().union(*self.written[horizon + 1:])
        chains = self.manager._chains
        assert self.manager.version_chains() == len(chains)
        for handle, chain in chains.items():
            if handle in self.read_since_prune:
                continue
            assert handle in written_after, (handle, horizon)
            visible = [epoch for epoch, __ in chain if epoch <= horizon]
            assert len(visible) == 1, (handle, chain, horizon)
        retained = [epoch for epoch, __ in self.manager._clock.history]
        assert all(epoch > horizon for epoch in retained), (retained, horizon)
        assert retained == sorted(retained)


TxnMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
TestTxnStateful = TxnMachine.TestCase
