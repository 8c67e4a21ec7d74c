"""One extern namespace: the language, the Python API and the server share
one version rule, one conflict check and one update-anomaly audit.

Every extern and intern — an interpreter's, a server session's, or a
:class:`ReplicatingStore`'s — goes through a front over a
:class:`TransactionManager`, so a handle the language externed carries
the same versions the Amber API checks, and a divergent re-intern is
reported wherever it happens.
"""

import threading

import pytest

from repro.lang.eval import Interpreter
from repro.obs import events
from repro.obs.metrics import REGISTRY
from repro.persistence.mvcc import SessionTransaction, TransactionManager
from repro.persistence.replicating import ReplicatingStore, StaleHandleError
from repro.persistence.serialize import serialize
from repro.persistence.store import LogStore
from repro.server import Client, ServerThread
from repro.types.dynamic import dynamic


@pytest.fixture
def journal():
    return events.enable()


def divergent(journal):
    return [
        event
        for event in journal.events(severity="WARN", subsystem="replicating")
        if event.name == "divergent_reintern"
    ]


class TestOneVersionRule:
    def test_each_extern_from_either_surface_adds_one(self):
        manager = TransactionManager()
        interp = Interpreter(manager)
        front = ReplicatingStore(manager)
        interp.run('extern("h", dynamic 1);')
        assert front.version_of("h") == 1
        assert front.extern("h", dynamic(2)) == 2
        interp.run('extern("h", dynamic 3);')
        assert front.version_of("h") == 3

    def test_a_transactional_extern_adds_one_at_commit(self):
        manager = TransactionManager()
        interp = Interpreter(manager)
        front = ReplicatingStore(manager)
        front.extern("h", dynamic(1))
        interp.store.begin()
        interp.run('extern("h", dynamic 2); extern("h", dynamic 3);')
        assert front.version_of("h") == 1  # nothing published yet
        interp.store.commit()
        assert front.version_of("h") == 2
        assert front.intern_versioned("h").value.value == 3

    def test_an_unversioned_document_reads_as_one(self):
        manager = TransactionManager()
        manager.put("old", serialize(7))  # written before versions
        front = ReplicatingStore(manager)
        assert front.version_of("old") == 1
        assert front.intern_versioned("old").version == 1
        assert front.extern("old", dynamic(8)) == 2

    def test_versions_persist_across_reopen(self, tmp_path):
        path = str(tmp_path / "ns.log")
        first = Interpreter(path)
        first.run('extern("h", dynamic 1); extern("h", dynamic 2);')
        first.store.close()
        with ReplicatingStore(path) as reopened:
            assert reopened.version_of("h") == 2
            assert reopened.extern("h", dynamic(3)) == 3

    def test_concurrent_externs_each_add_one(self):
        manager = TransactionManager()
        rounds = 50

        def extern_many():
            front = ReplicatingStore(manager)
            for index in range(rounds):
                front.extern("h", dynamic(index))

        threads = [threading.Thread(target=extern_many) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert ReplicatingStore(manager).version_of("h") == 2 * rounds

    def test_drop_then_extern_starts_over(self):
        front = ReplicatingStore()
        front.extern("h", dynamic(1))
        front.extern("h", dynamic(2))
        front.drop("h")
        assert front.version_of("h") is None
        assert "h" not in front
        assert front.extern("h", dynamic(3)) == 1


class TestOneConflictCheck:
    def test_stale_conditional_extern_after_a_language_extern(self):
        """The lost update two extern paths allowed: the language's
        extern moves the version the Amber API checks."""
        manager = TransactionManager()
        interp = Interpreter(manager)
        front = ReplicatingStore(manager)
        interp.run('extern("h", dynamic 1);')
        read = front.intern_versioned("h")
        interp.run('extern("h", dynamic 2);')
        with pytest.raises(StaleHandleError) as excinfo:
            front.extern_if_version("h", dynamic(10), read.version)
        assert (excinfo.value.expected, excinfo.value.actual) == (1, 2)
        assert interp.run('coerce intern("h") to Int').value == 2

    def test_conditional_extern_is_one_transaction(self):
        manager = TransactionManager()
        front = ReplicatingStore(manager)
        front.extern("h", dynamic(1))
        begun = REGISTRY.value("txn.begin")
        assert front.extern_if_version("h", dynamic(2), 1) == 2
        assert REGISTRY.value("txn.begin") == begun + 1
        assert manager.active_transactions() == 0
        with pytest.raises(StaleHandleError):
            front.extern_if_version("h", dynamic(3), 1)
        assert manager.active_transactions() == 0

    def test_conditional_extern_loses_to_a_racing_commit(self, monkeypatch):
        """A writer that commits between the conditional extern's read
        and its commit wins the race by first-committer-wins."""
        manager = TransactionManager()
        front = ReplicatingStore(manager)
        racer = ReplicatingStore(manager)
        front.extern("h", dynamic(1))
        original = SessionTransaction.read

        def read_then_race(txn, handle):
            value = original(txn, handle)
            monkeypatch.setattr(SessionTransaction, "read", original)
            racer.extern("h", dynamic(99))
            return value

        monkeypatch.setattr(SessionTransaction, "read", read_then_race)
        with pytest.raises(StaleHandleError) as excinfo:
            front.extern_if_version("h", dynamic(2), 1)
        assert (excinfo.value.expected, excinfo.value.actual) == (1, 2)
        assert front.intern("h").value == 99
        assert manager.active_transactions() == 0


class TestTheAnomalyOnTheServedPath:
    def _two_interpreters_on_one_store(self, tmp_path):
        store = LogStore(str(tmp_path / "shared.log"))
        return store, Interpreter(store), Interpreter(store)

    def test_interpreters_on_one_store_report_a_divergent_reintern(
        self, journal, tmp_path
    ):
        store, mine, theirs = self._two_interpreters_on_one_store(tmp_path)
        try:
            before = REGISTRY.value("replicating.divergent_reinterns")
            mine.run('extern("doc", dynamic 1);')
            mine.run('coerce intern("doc") to Int')
            theirs.run('extern("doc", dynamic 2);')
            assert divergent(journal) == []
            assert mine.run('coerce intern("doc") to Int').value == 2
            assert len(divergent(journal)) == 1
            assert (
                REGISTRY.value("replicating.divergent_reinterns") == before + 1
            )
            mine.run('coerce intern("doc") to Int')  # now up to date
            assert len(divergent(journal)) == 1
        finally:
            store.close()

    def test_reexterning_an_identical_value_is_not_divergent(
        self, journal, tmp_path
    ):
        store, mine, theirs = self._two_interpreters_on_one_store(tmp_path)
        try:
            mine.run('extern("doc", dynamic {N = 1});')
            theirs.run('extern("doc", dynamic {N = 1});')
            mine.run('coerce intern("doc") to {N: Int}')
            assert divergent(journal) == []
            interns = [
                e for e in journal.events(subsystem="replicating")
                if e.name == "intern"
            ]
            assert interns[-1].payload["version"] == 2
        finally:
            store.close()

    def test_server_sessions_report_a_divergent_reintern(self, journal):
        with ServerThread(limit=4) as server:
            with Client(server.host, server.port) as a, Client(
                server.host, server.port
            ) as b:
                before = REGISTRY.value("replicating.divergent_reinterns")
                a.run('extern("doc", dynamic 1);')
                b.run('coerce intern("doc") to Int')
                a.run('extern("doc", dynamic 2);')
                assert b.run('coerce intern("doc") to Int')["value"] == "2"
                warnings = divergent(journal)
                assert len(warnings) == 1
                assert warnings[0].payload["session"] == b.session_id
                assert (
                    REGISTRY.value("replicating.divergent_reinterns")
                    == before + 1
                )
                a.run('extern("doc", dynamic 2);')  # same value again
                b.run('coerce intern("doc") to Int')
                assert len(divergent(journal)) == 1
