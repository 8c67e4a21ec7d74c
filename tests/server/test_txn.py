"""Transactions over the wire: two sessions, one server, one store.

The acceptance scenarios from TRANSACTIONS.md run here against a real
:class:`ServerThread` on an ephemeral port:

* a reader pinned to its snapshot never observes a concurrent writer's
  committed (let alone uncommitted) state until it ends its own
  transaction;
* two writers with overlapping sweeps produce exactly one commit and
  one retryable :class:`~repro.errors.TransactionConflictError` —
  first committer wins;
* the REPL's ``:begin``/``:commit``/``:abort`` drive the same frames
  in connected mode, and the worker pool genuinely overlaps sessions.
"""

import threading
import time

import pytest

from repro.errors import RemoteError, TransactionConflictError
from repro.lang.repl import Repl
from repro.obs import trace
from repro.obs.metrics import REGISTRY, reset_metrics
from repro.server import Client, ServerThread
from repro.server.broker import SessionBroker, default_workers
from repro.server.session import Session


@pytest.fixture(autouse=True)
def clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


def read_counter(client, handle="counter"):
    reply = client.run('coerce intern("%s") to Int' % handle)
    return int(str(reply["value"]).split(":")[0].strip())


class TestWireTransactions:
    def test_reader_pinned_to_snapshot(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as writer, Client(
                server.host, server.port
            ) as reader:
                writer.run('extern("counter", dynamic 1);')
                reply = reader.begin()
                assert reply["action"] == "begin"
                assert "epoch" in reply
                assert read_counter(reader) == 1
                # The writer commits (autocommit) while the reader's
                # transaction is open — the reader must not see it.
                writer.run('extern("counter", dynamic 2);')
                assert read_counter(writer) == 2
                assert read_counter(reader) == 1
                # A read-only commit ends the transaction; the next
                # read runs at the latest state.
                reply = reader.commit()
                assert reply["action"] == "commit"
                assert read_counter(reader) == 2

    def test_uncommitted_writes_stay_private(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as writer, Client(
                server.host, server.port
            ) as reader:
                writer.run('extern("counter", dynamic 1);')
                writer.begin()
                writer.run('extern("counter", dynamic 99);')
                # The writer reads its own buffered write...
                assert read_counter(writer) == 99
                # ...but nobody else does until commit.
                assert read_counter(reader) == 1
                writer.commit()
                assert read_counter(reader) == 99

    def test_first_committer_wins_over_the_wire(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as a, Client(
                server.host, server.port
            ) as b:
                a.run('extern("counter", dynamic 0);')
                a.begin()
                b.begin()
                a.run('extern("counter", dynamic 10);')
                b.run('extern("counter", dynamic 20);')
                a.commit()
                with pytest.raises(TransactionConflictError) as exc_info:
                    b.commit()
                # The conflict detail survives the wire: remote retry
                # loops see the contested handles and the winning epoch.
                assert "counter" in exc_info.value.keys
                assert exc_info.value.winner_epoch is not None
                assert exc_info.value.retryable is True
                # Exactly one write survived: the first committer's.
                assert read_counter(a) == 10
                # The loser's transaction is over — a plain retry works.
                b.begin()
                b.run('extern("counter", dynamic 20);')
                b.commit()
                assert read_counter(a) == 20

    def test_disjoint_handles_both_commit(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as a, Client(
                server.host, server.port
            ) as b:
                a.begin()
                b.begin()
                a.run('extern("left", dynamic 1);')
                b.run('extern("right", dynamic 2);')
                a.commit()
                b.commit()  # no overlap, no conflict
                assert read_counter(a, "left") == 1
                assert read_counter(a, "right") == 2

    def test_abort_discards_buffered_writes(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.run('extern("counter", dynamic 5);')
                client.begin()
                client.run('extern("counter", dynamic 6);')
                reply = client.abort()
                assert reply["action"] == "abort"
                assert read_counter(client) == 5

    def test_transaction_guards(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                with pytest.raises(RemoteError, match="no transaction"):
                    client.commit()
                with pytest.raises(RemoteError, match="no transaction"):
                    client.abort()
                client.begin()
                with pytest.raises(RemoteError, match="already active"):
                    client.begin()
                client.abort()

    def test_disconnect_aborts_open_transaction(self):
        """A dropped connection must not pin its snapshot (or leak an
        active transaction) forever."""
        with ServerThread() as server:
            client = Client(server.host, server.port)
            client.begin()
            client.run('extern("x", dynamic 1);')
            client.close()
            # The server releases the session; its transaction aborts.
            txns = server.server.broker.txns
            deadline = time.time() + 5.0
            while txns.active_transactions() and time.time() < deadline:
                time.sleep(0.05)
            assert txns.active_transactions() == 0
            with Client(server.host, server.port) as other:
                with pytest.raises(RemoteError):
                    other.run('coerce intern("x") to Int')

    def test_disconnect_leaves_no_version_chains(self):
        """Chains a dropped transaction's snapshot kept alive go with it."""
        handles = ("a", "b", "c")
        with ServerThread() as server:
            txns = server.server.broker.txns
            with Client(server.host, server.port) as writer:
                for handle in handles:
                    writer.run('extern("%s", dynamic 0);' % handle)
                reader = Client(server.host, server.port)
                reader.begin()
                for handle in handles:
                    assert read_counter(reader, handle) == 0
                for handle in handles:
                    writer.run('extern("%s", dynamic 1);' % handle)
                assert txns.version_chains() == len(handles)
                reader.close()
                deadline = time.time() + 5.0
                while (
                    txns.active_transactions() or txns.version_chains()
                ) and time.time() < deadline:
                    time.sleep(0.05)
                assert txns.active_transactions() == 0
                assert txns.version_chains() == 0
                assert read_counter(writer, "b") == 1

    def test_txn_metrics_count_conflicts(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as a, Client(
                server.host, server.port
            ) as b:
                a.run('extern("counter", dynamic 0);')
                a.begin()
                b.begin()
                a.run('extern("counter", dynamic 1);')
                b.run('extern("counter", dynamic 2);')
                a.commit()
                with pytest.raises(TransactionConflictError):
                    b.commit()
        assert REGISTRY.value("txn.conflict") >= 1
        assert REGISTRY.value("txn.commit") >= 1
        assert REGISTRY.value("txn.begin") >= 2


class TestTracedTransactions:
    def test_traced_commits_leave_no_spans_behind(self, tmp_path):
        trace.enable()
        with ServerThread(store=str(tmp_path / "store.log")) as server:
            with Client(server.host, server.port) as client:
                for n in range(20):
                    client.begin()
                    client.run('extern("k", dynamic %d);' % n)
                    reply = client.commit()
        leaked = [
            root.name for root in trace.CURRENT.roots
            if root.name != "client.run"
        ]
        assert leaked == []
        assert "store.commit" in reply["trace"]

    def test_failed_verb_leaves_no_spans_behind(self):
        trace.enable()
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                with pytest.raises(RemoteError):
                    client.commit()  # no transaction open
        assert [
            root.name for root in trace.CURRENT.roots
            if root.name != "client.run"
        ] == []

    def test_untraced_verbs_carry_no_trace(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                assert "trace" not in client.begin()
                assert "trace" not in client.abort()


class TestReplTransactions:
    def test_repl_commands_local(self):
        out = []
        repl = Repl(writer=out.append)
        repl.handle(":begin")
        repl.handle('extern("x", dynamic 5);')
        repl.handle(":commit")
        assert any("transaction open" in line for line in out)
        assert any("committed epoch" in line for line in out)

    def test_repl_abort_and_guards(self):
        out = []
        repl = Repl(writer=out.append)
        repl.handle(":commit")
        assert any("no transaction is active" in line for line in out)
        repl.handle(":begin")
        repl.handle(":abort")
        assert any("transaction aborted" in line for line in out)
        repl.handle(":begin junk")
        assert "usage: :begin" in out

    def test_repl_conflict_over_the_wire(self):
        with ServerThread() as server:
            out = []
            repl = Repl(writer=out.append)
            repl.handle(":connect %s" % server.address)
            try:
                with Client(server.host, server.port) as rival:
                    repl.handle('extern("counter", dynamic 0);')
                    repl.handle(":begin")
                    rival.begin()
                    repl.handle('extern("counter", dynamic 1);')
                    rival.run('extern("counter", dynamic 2);')
                    rival.commit()  # first committer
                    repl.handle(":commit")  # loser: error text, no crash
                    assert any(
                        "error:" in line and "conflict" in line
                        for line in out
                    ), out
            finally:
                repl.handle(":quit")


class TestWorkerPool:
    def test_default_workers_bounds(self):
        assert 2 <= default_workers() <= 8

    def test_broker_validates_workers(self):
        with pytest.raises(ValueError):
            SessionBroker(workers=0)

    def test_sessions_share_one_transaction_manager(self):
        broker = SessionBroker(workers=2)
        try:
            a = broker._open_session()
            b = broker._open_session()
            assert a.interpreter.store.manager is broker.txns
            assert b.interpreter.store.manager is broker.txns
        finally:
            broker.close()

    def test_pool_overlaps_sessions(self):
        """Two slow queries on two connections overlap on the pool:
        total wall time is well under the serial sum."""

        class SlowSession(Session):
            delay = 0.3

            def run(self, source, mode="eval", **kwargs):
                time.sleep(self.delay)
                return super().run(source, mode, **kwargs)

        with ServerThread(session_factory=SlowSession, workers=4) as server:
            with Client(server.host, server.port) as a, Client(
                server.host, server.port
            ) as b:
                results = {}

                def drive(name, client):
                    start = time.perf_counter()
                    client.run("1 + 1;")
                    results[name] = time.perf_counter() - start

                threads = [
                    threading.Thread(target=drive, args=("a", a)),
                    threading.Thread(target=drive, args=("b", b)),
                ]
                begin = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                elapsed = time.perf_counter() - begin
        # Serial execution would be >= 0.6s; the pool runs them together.
        assert elapsed < 0.55, "sessions did not overlap: %.3fs" % elapsed

    def test_server_reports_worker_gauge(self):
        with ServerThread(workers=3):
            assert REGISTRY.gauges().get("server.workers") == 3.0
