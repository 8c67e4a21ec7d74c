"""An interactive read-eval-print loop for DBPL.

Run with ``python -m repro.lang.repl`` (optionally passing a store path
for ``extern``/``intern``).  Commands:

* ``:type <expr>``   — show the static type without evaluating;
* ``:ast <expr>``    — show the parsed syntax tree (pretty-printed);
* ``:load <path>``   — run a DBPL source file in the session;
* ``:connect host:port`` — become a thin client of a running
  ``python -m repro.server``: evaluation and every session-routed
  command below execute in the *remote* session, over the wire
  protocol; ``:disconnect`` returns to the local session;
* ``:trace on|off``  — toggle span tracing *in the session's process*
  (the server's, when connected); while on, each evaluation prints
  its span tree (parse/check/eval, nested store and relation
  operations with rows and wall time) — in connected mode the tree
  crossed the wire in the ``result`` frame;
* ``:events [n]``    — show the last ``n`` flight-recorder journal
  events (``:events on|off`` toggles the journal; ``main()`` turns it
  on for interactive sessions);
* ``:export <path>`` — write spans + journal + metrics as a Chrome
  ``chrome://tracing`` / Perfetto trace file; in connected mode the
  file *merges* this process's spans (the ``client.run`` round-trips)
  with the server's per-request span trees — pulled over ``obs``
  frames, shifted onto the local clock by the handshake's offset
  estimate — so one timeline shows both sides of every request;
* ``:profile on|off`` — toggle the execution profiler in the
  session's process; ``:profile`` alone prints the per-operator top-N
  report (the server's, when connected);
* ``:requests [n]``  — show the last ``n`` wide events: one line per
  completed request with its id, mode, wall time, estimated vs actual
  rows, columnar batches, join pairs tried/pruned, and a SLOW flag
  when the slow-query log captured it;
* ``:stats``         — dump the metrics registry (``:stats reset``
  zeroes it); ``:stats <name>`` prints the column statistics collected
  by ``:analyze <name>``; ``:stats feedback`` prints the last
  observed-vs-estimated selectivity feedback rows with the adaptive
  store's current posterior per predicate;
* ``:adaptive on|off`` — toggle adaptive selectivity estimation (the
  planner blends observed selectivities from past ``:explain`` runs
  into its estimates; ``main()`` turns it on for interactive
  sessions);
* ``:columnar on|off`` — toggle vectorized columnar execution (the
  optimizer lowers eligible flat plan subtrees onto array kernels
  behind a ``ColumnarExec`` node — ``:explain`` then shows ``CScan``/
  ``CFilter``/``CProject``/``CHashJoin`` operators with batch counts;
  ``main()`` turns it on for interactive sessions);
* ``:analyze <name>`` — collect column statistics (row/distinct counts,
  null fractions, most-common values, equi-depth histograms) for a
  session relation, feeding the cost-based optimizer;
* ``:health``        — run the built-in health probes (store replay
  integrity, heap commit lag, journal drop rate, adaptive hit rate,
  statistics staleness, server session pressure, transaction conflict
  rate) and print their ok/degraded/failing verdicts;
* ``:slow [n]``      — show the slow-query log (``:slow on|off``
  toggles it, ``:slow threshold <ms>`` sets the capture threshold);
* ``:watch <seconds>`` — enable the monitor and refresh a rates/
  latency/gauges view once a second for ``seconds`` seconds;
* ``:metrics [path]`` — dump the registry as OpenMetrics v1 text (to
  ``path`` when given, for scrapers and CI artifacts);
* ``:explain <expr>`` — compile a relational expression (a relation
  variable, ``rjoin``, ``rproject``, ``rmatch``) to a query plan,
  optimize it with whatever statistics have been collected, run it,
  and print the EXPLAIN ANALYZE tree with per-node estimate drift;
* ``:sessions``      — list the server's open sessions (connected
  mode; locally it names the single local session);
* ``:begin`` / ``:commit`` / ``:abort`` — delimit a snapshot-isolated
  transaction in the session: after ``:begin``, ``intern`` reads see
  the database as of the begin (other sessions' commits stay
  invisible) and ``extern`` writes stay private until ``:commit``,
  which publishes them atomically — unless another session committed
  an overlapping handle first, in which case the commit *aborts* with
  a retryable ``TransactionConflictError`` (first committer wins; see
  TRANSACTIONS.md).  In connected mode the three commands travel as
  the protocol-3 ``begin``/``commit``/``abort`` frames;
* ``:quit``          — leave.

Everything else is checked and evaluated in the running session, so
``let``/``fun``/``type`` declarations accumulate, as in PS-algol's
interactive tradition.

The REPL is a *thin client* of :class:`repro.server.session.Session`:
in local mode it holds a Session in-process, in connected mode a
:class:`repro.server.client.Client` with the same surface — which is
why every command above, ``:trace``/``:profile``/``:export``
included, behaves identically on both sides of the wire.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, List, Optional

from repro.core import columnar as _columnar
from repro.errors import ReproError, ServerError
from repro.lang.eval import Interpreter
from repro.obs import events as _events
from repro.obs import export as _export
from repro.obs import trace as _trace
from repro.server.client import Client, parse_address
from repro.server.session import Session
from repro.stats import adaptive as _adaptive

PROMPT = "dbpl> "
BANNER = (
    "DBPL — the database programming language of the Buneman–Atkinson\n"
    "reproduction.  :type E, :ast E, :load FILE, :connect HOST:PORT,\n"
    ":disconnect, :trace on|off, :events [n], :export FILE,\n"
    ":profile on|off, :requests [n], :stats, :analyze R, :explain E,\n"
    ":adaptive on|off, :columnar on|off, :health, :slow [n], :watch S,\n"
    ":metrics [PATH], :sessions, :begin, :commit, :abort, :quit\n"
)


class Repl:
    """A REPL session: presentation over a local or remote session.

    ``store`` is as for :class:`~repro.lang.eval.Interpreter`; ``writer``
    receives output lines (defaults to ``print``), which keeps the class
    testable without capturing stdout.
    """

    def __init__(
        self,
        store=None,
        writer: Optional[Callable[[str], None]] = None,
    ):
        self._session = Session(store=store, session_id="local")
        self._remote: Optional[Client] = None
        self._write = writer if writer is not None else print
        # Injectable so tests can drive :watch without real seconds.
        self._sleep = time.sleep
        self.done = False

    @property
    def _interp(self) -> Interpreter:
        """The local interpreter (tests and tooling reach through)."""
        return self._session.interpreter

    @property
    def connected(self) -> bool:
        """Is the REPL currently a client of a remote server?"""
        return self._remote is not None

    def _backend(self):
        """Whoever answers run/stat right now: remote client or local
        session."""
        return self._remote if self._remote is not None else self._session

    def handle(self, line: str) -> None:
        """Process one input line (a command or DBPL source)."""
        stripped = line.strip()
        if not stripped:
            return
        if stripped.startswith(":"):
            self._command(stripped)
            return
        self._evaluate(stripped)

    def _command(self, line: str) -> None:
        parts = line.split(None, 1)
        command = parts[0]
        argument = parts[1] if len(parts) > 1 else ""
        if command in (":quit", ":q"):
            if self._remote is not None:
                self._remote.close()
                self._remote = None
            self.done = True
        elif command == ":type":
            self._run_mode_command(argument, "type", "usage: :type <expression>")
        elif command == ":ast":
            self._run_mode_command(argument, "ast", "usage: :ast <source>")
        elif command == ":load":
            self._load(argument)
        elif command == ":connect":
            self._connect_command(argument)
        elif command == ":disconnect":
            self._disconnect_command(argument)
        elif command == ":trace":
            self._trace_command(argument)
        elif command == ":events":
            self._events_command(argument)
        elif command == ":export":
            self._export_command(argument)
        elif command == ":profile":
            self._profile_command(argument)
        elif command == ":requests":
            self._requests_command(argument)
        elif command == ":stats":
            self._stats_command(argument)
        elif command == ":analyze":
            self._analyze_command(argument)
        elif command == ":explain":
            self._explain_command(argument)
        elif command == ":adaptive":
            self._adaptive_command(argument)
        elif command == ":columnar":
            self._columnar_command(argument)
        elif command == ":health":
            self._health_command(argument)
        elif command == ":slow":
            self._slow_command(argument)
        elif command == ":watch":
            self._watch_command(argument)
        elif command == ":metrics":
            self._metrics_command(argument)
        elif command == ":sessions":
            self._stat(lambda b: b.stat("sessions"))
        elif command == ":begin":
            self._txn_command("begin", argument)
        elif command == ":commit":
            self._txn_command("commit", argument)
        elif command == ":abort":
            self._txn_command("abort", argument)
        else:
            self._write("unknown command %s" % command)

    # -- backend plumbing ---------------------------------------------------

    def _stat(self, request, per_line: bool = False) -> Optional[str]:
        """Run ``request(backend)``, print its text, return it (``None``
        after printing ``error: ...``).

        Reports print as one multi-line write (historical behavior);
        ``per_line`` splits instead (``:events`` prints one write per
        journal event).
        """
        try:
            reply = request(self._backend())
        except ServerError as exc:
            self._write("error: %s" % exc)
            self._check_connection()
            return None
        except ReproError as exc:
            self._write("error: %s" % exc)
            return None
        text = str(reply.get("text", ""))
        if per_line:
            for out_line in text.splitlines() or [""]:
                self._write(out_line)
        else:
            self._write(text)
        return text

    def _check_connection(self) -> None:
        """Drop a remote whose connection died, so the next command is
        local instead of a repeated failure."""
        if self._remote is not None and self._remote._closed:
            self._write("(connection lost — back to the local session)")
            self._remote = None

    # -- connect / disconnect -----------------------------------------------

    def _connect_command(self, argument: str) -> None:
        argument = argument.strip()
        if not argument:
            if self.connected:
                self._write("connected to %s" % self._remote.describe())
            else:
                self._write("usage: :connect host:port")
            return
        if self.connected:
            self._write(
                "already connected to %s — :disconnect first"
                % self._remote.describe()
            )
            return
        try:
            host, port = parse_address(argument)
        except ValueError as exc:
            self._write("error: %s" % exc)
            return
        try:
            self._remote = Client(host, port)
        except (ReproError, OSError) as exc:
            self._write("error: cannot connect to %s: %s" % (argument, exc))
            return
        self._write(
            "connected to %s — session %s on %s"
            % (argument, self._remote.session_id, self._remote.server)
        )

    def _disconnect_command(self, argument: str) -> None:
        if argument.strip():
            self._write("usage: :disconnect")
            return
        if not self.connected:
            self._write("not connected (local session)")
            return
        address = self._remote.describe()
        self._remote.close()
        self._remote = None
        self._write("disconnected from %s (local session)" % address)

    # -- observability toggles (session-routed: they flip the *session
    # process's* tracer/profiler, which is the server's when connected) -------

    def _trace_command(self, argument: str) -> None:
        argument = argument.strip().lower()
        if argument in ("on", "off"):
            text = self._stat(lambda b: b.stat("trace", action=argument))
            if text is not None and self.connected:
                # Mirror the toggle locally so the client-side round-trip
                # spans (client.run) record too — that's the client lane
                # of a merged :export.  Locally the stat already did it.
                if argument == "on":
                    _trace.enable()
                else:
                    _trace.disable()
        elif not argument:
            self._stat(lambda b: b.stat("trace", action="status"))
        else:
            self._write("usage: :trace on|off")

    def _export_command(self, argument: str) -> None:
        path = argument.strip()
        if not path:
            self._write("usage: :export <path>")
            return
        # The backend's harvested span trees (over the wire in connected
        # mode); merged with this process's spans and journal below.
        try:
            remote = self._backend().obs("spans")
        except ServerError as exc:
            self._write("error: %s" % exc)
            self._check_connection()
            return
        except ReproError as exc:
            self._write("error: %s" % exc)
            return
        offset = 0.0
        if self.connected and self._remote.clock_offset is not None:
            offset = self._remote.clock_offset
        try:
            document = _export.write_merged_trace(
                path, remote=remote, clock_offset=offset
            )
        except OSError as exc:
            self._write("error: %s" % exc)
            return
        self._write(
            "exported %s (%d trace events)"
            % (path, len(document["traceEvents"]))
        )

    def _profile_command(self, argument: str) -> None:
        argument = argument.strip().lower()
        if argument in ("on", "off"):
            self._stat(lambda b: b.stat("profile", action=argument))
        elif not argument:
            self._stat(lambda b: b.stat("profile", action="report"))
        else:
            self._write("usage: :profile on|off")

    def _requests_command(self, argument: str) -> None:
        argument = argument.strip()
        count = 10
        if argument:
            try:
                count = int(argument)
            except ValueError:
                self._write("usage: :requests [n]")
                return
        self._stat(lambda b: b.stat("requests", count=count))

    # -- session-routed commands --------------------------------------------

    def _txn_command(self, action: str, argument: str) -> None:
        """``:begin`` / ``:commit`` / ``:abort`` — transaction
        boundaries in the session (over the wire when connected).  A
        lost first-committer-wins race surfaces through ``_stat``'s
        normal error path as ``error: transaction conflict ...`` — the
        transaction is already aborted, so retrying is just ``:begin``
        again."""
        if argument.strip():
            self._write("usage: :%s" % action)
            return
        self._stat(lambda b: getattr(b, action)())

    def _events_command(self, argument: str) -> None:
        argument = argument.strip().lower()
        if argument in ("on", "off"):
            self._stat(lambda b: b.stat("events", action=argument))
            return
        try:
            count = int(argument) if argument else 20
        except ValueError:
            count = 0
        if count < 1:
            self._write("usage: :events [n] | :events on|off")
            return
        self._stat(
            lambda b: b.stat("events", action="show", count=count),
            per_line=True,
        )

    def _adaptive_command(self, argument: str) -> None:
        argument = argument.strip().lower()
        if argument in ("on", "off"):
            self._stat(lambda b: b.stat("adaptive", action=argument))
        elif not argument:
            self._stat(lambda b: b.stat("adaptive", action="status"))
        else:
            self._write("usage: :adaptive on|off")

    def _columnar_command(self, argument: str) -> None:
        argument = argument.strip().lower()
        if argument in ("on", "off"):
            self._stat(lambda b: b.stat("columnar", action=argument))
        elif not argument:
            self._stat(lambda b: b.stat("columnar", action="status"))
        else:
            self._write("usage: :columnar on|off")

    def _health_command(self, argument: str) -> None:
        if argument.strip():
            self._write("usage: :health")
            return
        self._stat(lambda b: b.stat("health"))

    def _slow_command(self, argument: str) -> None:
        argument = argument.strip().lower()
        if argument in ("on", "off"):
            self._stat(lambda b: b.stat("slow", action=argument))
            return
        if argument.startswith("threshold"):
            try:
                threshold = float(argument.split(None, 1)[1])
            except (IndexError, ValueError):
                self._write("usage: :slow threshold <ms>")
                return
            self._stat(
                lambda b: b.stat("slow", action="threshold", threshold=threshold)
            )
            return
        count = 10
        if argument:
            try:
                count = int(argument)
            except ValueError:
                self._write(
                    "usage: :slow [n] | :slow on|off | :slow threshold <ms>"
                )
                return
        self._stat(lambda b: b.stat("slow", action="report", count=count))

    def _watch_command(self, argument: str) -> None:
        argument = argument.strip()
        try:
            seconds = int(argument) if argument else 5
        except ValueError:
            self._write("usage: :watch <seconds>")
            return
        if seconds <= 0:
            self._write("usage: :watch <seconds>")
            return
        self._write("watching for %ds (Ctrl-C stops early)" % seconds)
        try:
            for __ in range(seconds):
                self._sleep(1.0)
                try:
                    reply = self._backend().stat(
                        "watch", horizon=float(seconds)
                    )
                except ReproError as exc:
                    self._write("error: %s" % exc)
                    self._check_connection()
                    return
                self._write(str(reply.get("text", "")))
        except KeyboardInterrupt:
            self._write("(watch interrupted)")

    def _metrics_command(self, argument: str) -> None:
        path = argument.strip()
        try:
            reply = self._backend().stat("metrics")
        except ReproError as exc:
            self._write("error: %s" % exc)
            self._check_connection()
            return
        text = str(reply.get("text", ""))
        if not path:
            self._write(text.rstrip("\n"))
            return
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            self._write("error: %s" % exc)
            return
        self._write("wrote %s" % path)

    def _stats_command(self, argument: str) -> None:
        self._stat(lambda b: b.stat("stats", target=argument.strip()))

    def _analyze_command(self, argument: str) -> None:
        name = argument.strip()
        if not name:
            self._write("usage: :analyze <relation>")
            return
        self._stat(lambda b: b.stat("analyze", name=name))

    def _explain_command(self, argument: str) -> None:
        source = argument.strip()
        if not source:
            self._write("usage: :explain <relational expression>")
            return
        self._stat(lambda b: b.stat("explain", source=source))

    # -- evaluation ---------------------------------------------------------

    def _run_mode_command(self, source: str, mode: str, usage: str) -> None:
        if not source:
            self._write(usage)
            return
        try:
            reply = self._backend().run(source, mode=mode)
        except ServerError as exc:
            self._write("error: %s" % exc)
            self._check_connection()
            return
        except ReproError as exc:
            self._write("error: %s" % exc)
            return
        if reply.get("value") is not None:
            self._write(str(reply["value"]))

    def _load(self, path: str) -> None:
        if not path:
            self._write("usage: :load <path>")
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            self._write("error: %s" % exc)
            return
        self._evaluate(source)

    def _evaluate(self, source: str) -> None:
        try:
            reply = self._backend().run(source)
            for out_line in reply.get("output", []):
                self._write(str(out_line))
            if reply.get("value") is not None:
                self._write(str(reply["value"]))
            # The session renders its harvested span tree into the
            # reply (crossing the wire in connected mode), so printing
            # it is backend-agnostic.
            if reply.get("trace"):
                self._write(str(reply["trace"]))
        except ServerError as exc:
            self._write("error: %s" % exc)
            self._check_connection()
        except ReproError as exc:
            self._write("error: %s" % exc)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: ``python -m repro.lang.repl [store-path]``."""
    argv = argv if argv is not None else sys.argv[1:]
    store = argv[0] if argv else None
    # Interactive sessions fly with the recorder on: anomalies (torn
    # records, transaction conflicts) land in :events even when the
    # user never asked for them in advance — so the journal must be
    # live before the store replays its log.  Divergent re-interns land
    # there too: this interpreter externs and interns through its own
    # Amber front, which audits every handle it round-trips.  Adaptive
    # estimation is on for the same reason: repeated :explain runs
    # should self-correct
    # (:adaptive off restores purely static estimates).  Columnar
    # execution is on because interactive queries should run at the
    # vectorized speed by default (:columnar off restores row-at-a-time
    # plans).
    _events.enable()
    _adaptive.enable()
    _columnar.enable()
    repl = Repl(store)
    print(BANNER)
    while not repl.done:
        try:
            line = input(PROMPT)
        except EOFError:
            print()
            break
        except KeyboardInterrupt:
            print()
            continue
        repl.handle(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
