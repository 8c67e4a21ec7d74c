"""The session broker: admission control over one shared store.

SNIPPETS.md's ``PersistenceBroker`` pattern — clients *connect*, then
save and query through a broker that owns the storage connection —
done natively.  The broker owns three shared things:

* the **extern namespace** every session's ``extern``/``intern`` hits:
  one :class:`~repro.persistence.mvcc.TransactionManager` over a
  :class:`~repro.persistence.store.LogStore` for a path, or in memory
  when the server runs storeless.  Each session's interpreter reaches it
  through an Amber front of its own
  (:class:`~repro.persistence.replicating.ReplicatingStore`), which
  stamps handle versions and audits divergent re-interns per session;
* the **admission state**: at most ``limit`` concurrent sessions, with
  a bounded FIFO accept queue of ``queue_limit`` waiters — one past
  that is rejected immediately (``server.connections.rejected``), so a
  stampede degrades into fast bounces instead of unbounded queueing;
* the **executor**: a pool of ``workers`` threads through which the
  server funnels every ``run``/``stat`` — off the event loop, so the
  loop stays free to accept, time out idle sessions, and answer
  handshakes while long queries run.  Sessions genuinely run
  concurrently; store consistency comes from the broker's shared
  :class:`~repro.persistence.mvcc.TransactionManager`, which gives
  every session snapshot-isolated ``extern``/``intern`` (MVCC with
  first-committer-wins commits — see TRANSACTIONS.md) and serializes
  the actual store writes.

Gauges ``server.sessions.active`` / ``server.sessions.limit`` /
``server.workers`` and the accepted/rejected counters feed the
``server.sessions`` health probe.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional

from repro.errors import BrokerBusyError, SessionClosedError
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.persistence.mvcc import TransactionManager
from repro.server.session import Session

def default_workers() -> int:
    """The default worker-pool size: enough threads that read-only
    sessions overlap (and nobody stalls behind a committing writer's
    fsync), without oversubscribing small machines."""
    return min(8, max(2, os.cpu_count() or 2))

__all__ = ["SessionBroker"]


class SessionBroker:
    """Admission control + shared-store ownership for server sessions.

    ``session_factory`` is injectable (tests swap in slow or failing
    sessions); it is called with the same keyword arguments
    :class:`~repro.server.session.Session` takes.
    """

    def __init__(
        self,
        store=None,
        limit: int = 16,
        queue_limit: int = 8,
        session_factory=None,
        requests_capacity: int = 64,
        workers: Optional[int] = None,
    ):
        if limit <= 0:
            raise ValueError("connection limit must be positive")
        if queue_limit < 0:
            raise ValueError("queue limit cannot be negative")
        if workers is not None and workers <= 0:
            raise ValueError("worker count must be positive")
        self.limit = limit
        self.queue_limit = queue_limit
        self.requests_capacity = requests_capacity
        self.workers = workers if workers is not None else default_workers()
        self._session_factory = session_factory or Session
        self._owns_store = isinstance(store, str)
        # The server's one extern namespace: snapshot isolation and
        # first-committer-wins across sessions, and one lock for all
        # store writes (the LogStore itself is not thread-safe).
        self.txns = TransactionManager(store)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._active: Dict[str, Session] = {}
        self._in_use = 0
        self._waiters: Deque[asyncio.Future] = deque()
        self._closed = False
        # A pool: read-only sessions genuinely run concurrently, and a
        # committing writer's fsync no longer stalls every reader.  The
        # threads also give the asyncio loop back its latency —
        # evaluation never blocks it.
        self.executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="dbpl-session"
        )
        _metrics.REGISTRY.gauge("server.sessions.limit").set(float(limit))
        _metrics.REGISTRY.gauge("server.sessions.active").set(0.0)
        _metrics.REGISTRY.gauge("server.workers").set(float(self.workers))

    @property
    def active(self) -> int:
        """Currently-open sessions."""
        with self._lock:
            return len(self._active)

    @property
    def queued(self) -> int:
        """Connections waiting for a slot."""
        return len(self._waiters)

    # -- admission ----------------------------------------------------------

    async def admit(self) -> Session:
        """Admit one connection: a :class:`Session` when a slot is (or
        becomes) free.

        Raises :class:`~repro.errors.BrokerBusyError` when the limit is
        reached *and* the accept queue is full, and
        :class:`~repro.errors.SessionClosedError` once the broker shut
        down (including waiters abandoned by shutdown).
        """
        if self._closed:
            raise SessionClosedError("broker is shut down")
        if self._in_use >= self.limit:
            if len(self._waiters) >= self.queue_limit:
                _metrics.REGISTRY.counter("server.connections.rejected").inc()
                if _events.CURRENT.enabled:
                    _events.publish(
                        "WARN",
                        "server",
                        "connection_rejected",
                        active=self._in_use,
                        queued=len(self._waiters),
                    )
                raise BrokerBusyError(
                    "server at connection limit (%d active, %d queued)"
                    % (self._in_use, len(self._waiters))
                )
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            _metrics.REGISTRY.counter("server.connections.queued").inc()
            await waiter  # resolved by release(), failed by close()
        else:
            self._in_use += 1
        return self._open_session()

    def _open_session(self) -> Session:
        session_id = "s%02d" % next(self._ids)
        session = self._session_factory(
            store=self.txns,
            session_id=session_id,
            broker=self,
            publish_runs=True,
            requests_capacity=self.requests_capacity,
        )
        with self._lock:
            self._active[session_id] = session
            active = len(self._active)
        _metrics.REGISTRY.counter("server.connections.accepted").inc()
        _metrics.REGISTRY.gauge("server.sessions.active").set(float(active))
        if _events.CURRENT.enabled:
            _events.publish(
                "INFO", "server", "session_open", session=session_id,
                active=active,
            )
        return session

    def release(self, session: Session) -> None:
        """Close ``session`` and hand its slot to the oldest waiter."""
        session.close()
        with self._lock:
            self._active.pop(session.session_id, None)
            active = len(self._active)
        _metrics.REGISTRY.gauge("server.sessions.active").set(float(active))
        if _events.CURRENT.enabled:
            _events.publish(
                "INFO",
                "server",
                "session_close",
                session=session.session_id,
                requests=session.requests,
                active=active,
            )
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():  # skip waiters whose connection died
                waiter.set_result(None)
                return
        self._in_use = max(0, self._in_use - 1)

    # -- introspection ------------------------------------------------------

    def sessions(self) -> List[Session]:
        """The open sessions, oldest first (a snapshot copy)."""
        with self._lock:
            return sorted(self._active.values(), key=lambda s: s.opened)

    def format_sessions(self) -> str:
        """The ``stat("sessions")`` table."""
        rows = self.sessions()
        lines = [
            "sessions: %d active / %d limit (%d queued, queue limit %d)"
            % (len(rows), self.limit, len(self._waiters), self.queue_limit)
        ]
        for session in rows:
            lines.append("  " + session.describe())
        return "\n".join(lines)

    # -- shutdown -----------------------------------------------------------

    def close(self) -> None:
        """Shut the broker down: fail waiters, close sessions, stop the
        executor, and close an owned store."""
        if self._closed:
            return
        self._closed = True
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(
                    SessionClosedError("broker is shutting down")
                )
        for session in self.sessions():
            self.release(session)
        self.executor.shutdown(wait=True)
        if self._owns_store:
            self.txns.close()
        _metrics.REGISTRY.gauge("server.sessions.active").set(0.0)

    def __repr__(self) -> str:
        return "SessionBroker(active=%d, limit=%d)" % (self.active, self.limit)
