"""Server throughput — sustained queries/second under concurrent clients.

The server tentpole (``repro.server``) multiplexes many sessions over
one shared store: the asyncio loop handles framing and admission while
a pool of worker threads runs queries (MVCC snapshot isolation keeps
the shared store consistent — ``benchmarks/bench_txn.py`` prices the
pool against the old single-worker stance).  This
harness prices that stance end to end — real TCP sockets, real frames —
at 1, 4, and 16 concurrent clients, each firing a fixed batch of
queries at its own private session and **checking every reply**:

* the computed value must be exactly right (each query encodes its
  client id and sequence number, so a cross-wired reply is caught);
* the client library already raises on a mismatched request id or an
  unparseable frame.

Any dropped or corrupted frame **fails the run** (exit 1) — the
acceptance bar is zero at 16 clients, not "low".  A final drain check
shuts the server down mid-query and requires the in-flight reply to
arrive intact.

A **tracing overhead** phase then prices distributed tracing: a
checked join batch (real planner/kernel work, not arithmetic) runs
once with tracing off and once with the server's tracer on
(``stat("trace")`` over the wire) plus the local ``client.run`` spans
recording, and the on/off ratio is printed.  In
``--quick`` mode the ratio is a gate: above 1.25× fails the run.  The
traced batch also leaves ``BENCH_server.merged.trace.json`` — the
client's spans and the server's per-request span trees merged onto one
clock-aligned Perfetto timeline.

Artifacts: ``BENCH_server.json`` (qps per concurrency level plus the
server-side request histogram), ``BENCH_server.trace.json``, and
``BENCH_server.merged.trace.json``.

Run:  python benchmarks/bench_server.py [--quick]
"""

import os
import threading
import time

try:
    from benchmarks._results import ResultsWriter, quick_requested
except ImportError:
    from _results import ResultsWriter, quick_requested

from repro.obs import export as _export
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY
from repro.server import Client, ServerThread

CONCURRENCY_LEVELS = (1, 4, 16)


class ClientWorker(threading.Thread):
    """One client: connect, fire ``queries`` checked requests, hang up."""

    def __init__(self, host, port, index, queries):
        super().__init__(name="bench-client-%d" % index)
        self.host = host
        self.port = port
        self.index = index
        self.queries = queries
        self.completed = 0
        self.errors = []

    def run(self):
        try:
            with Client(self.host, self.port) as client:
                client.run("let base = %d" % (self.index * 1000))
                for sequence in range(self.queries):
                    reply = client.run("base + %d" % sequence)
                    expected = str(self.index * 1000 + sequence)
                    if reply["value"] != expected:
                        self.errors.append(
                            "client %d query %d: expected %s, got %r"
                            % (self.index, sequence, expected, reply["value"])
                        )
                        return
                    self.completed += 1
        except Exception as exc:  # noqa: BLE001 — a failed run is the result
            self.errors.append(
                "client %d: %s: %s" % (self.index, type(exc).__name__, exc)
            )


def run_level(host, port, clients, queries):
    """``clients`` concurrent workers; returns (seconds, completed, errors)."""
    workers = [
        ClientWorker(host, port, index, queries) for index in range(clients)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    completed = sum(w.completed for w in workers)
    errors = [error for w in workers for error in w.errors]
    return elapsed, completed, errors


def drain_check(host, port):
    """Stop the server mid-query; the in-flight reply must still land."""
    import repro.server.session as _session

    class SlowSession(_session.Session):
        def run(self, source, mode="eval", **kwargs):
            time.sleep(0.3)
            return super().run(source, mode, **kwargs)

    server = ServerThread(session_factory=SlowSession).start()
    client = Client(server.host, server.port)
    result = {}

    def in_flight():
        result["reply"] = client.run("6 * 7")

    query = threading.Thread(target=in_flight)
    query.start()
    time.sleep(0.1)
    server.stop()
    query.join(timeout=10.0)
    ok = result.get("reply", {}).get("value") == "42"
    client.close()
    return ok


def tracing_overhead(host, port, queries, writer, quick, failures):
    """Price tracing end to end: the same checked batch, off then on.

    Returns the on/off wall-time ratio; leaves the merged client+server
    trace artifact behind.  Single client — one connection keeps the
    measurement serial (stable) and keeps the traced session alive so
    its harvested span trees can be pulled over ``obs`` frames.

    The measured query is a join, not arithmetic: tracing's cost is a
    fixed per-request tax (span harvest, tree render), so the honest
    ratio prices it against a query that does real planner/kernel
    work, the way production requests do.
    """
    with Client(host, port) as client:
        rows = ", ".join(
            "{Emp = %d, Dept = %d}" % (i, i % 8) for i in range(48)
        )
        depts = ", ".join(
            "{Dept = %d, City = %d}" % (d, d * 10) for d in range(8)
        )
        client.run("let temp = relation([%s])" % rows)
        client.run("let tdept = relation([%s])" % depts)
        query = "rjoin(temp, tdept)"
        expected = client.run(query)["value"]  # also warms the path

        def batch():
            started = time.perf_counter()
            for sequence in range(queries):
                reply = client.run(query)
                if reply["value"] != expected:
                    failures.append(
                        "tracing batch query %d: reply diverged"
                        % sequence
                    )
            return time.perf_counter() - started

        off_seconds = batch()
        client.stat("trace", action="on")
        _trace.enable()  # client-side round-trip spans
        on_seconds = batch()
        remote = client.obs("spans")
        offset = client.clock_offset or 0.0
        # Export before switching tracing off: disable() drops the
        # client-side spans the merged trace's client lane is made of.
        merged_path = os.path.join(
            os.getcwd(), "BENCH_server.merged.trace.json"
        )
        document = _export.write_merged_trace(
            merged_path, remote=remote, clock_offset=offset
        )
        client.stat("trace", action="off")
        _trace.disable()
        ratio = on_seconds / off_seconds if off_seconds else 1.0
        writer.record(
            "tracing_off", queries, off_seconds,
            qps=round(queries / off_seconds, 1) if off_seconds else 0.0,
        )
        writer.record(
            "tracing_on", queries, on_seconds,
            qps=round(queries / on_seconds, 1) if on_seconds else 0.0,
            overhead=round(ratio, 3),
        )
        print("\ntracing overhead (%d queries, one client)" % queries)
        print("%-10s %12s %12s %10s" % ("tracing", "seconds", "qps", "ratio"))
        print("%-10s %12.4f %12.0f %10s" % (
            "off", off_seconds,
            queries / off_seconds if off_seconds else 0.0, "-"))
        print("%-10s %12.4f %12.0f %9.2fx" % (
            "on", on_seconds,
            queries / on_seconds if on_seconds else 0.0, ratio))
        print("merged trace -> %s (%d events)"
              % (merged_path, len(document["traceEvents"])))
        if quick and ratio > 1.25:
            failures.append(
                "tracing overhead %.2fx exceeds the 1.25x quick-mode gate"
                % ratio
            )
        return ratio


def main():
    quick = quick_requested()
    writer = ResultsWriter("server", quick=quick)
    queries = 25 if quick else 200

    failures = []
    with ServerThread(limit=max(CONCURRENCY_LEVELS), queue_limit=8) as server:
        # Warm the interpreter and the executor before timing.
        with Client(server.host, server.port) as warm:
            warm.run("1 + 1")

        print("server throughput (%d queries per client, checked replies)"
              % queries)
        print("%-10s %10s %12s %10s %8s" % (
            "clients", "queries", "seconds", "qps", "errors"))
        for clients in CONCURRENCY_LEVELS:
            elapsed, completed, errors = run_level(
                server.host, server.port, clients, queries
            )
            expected = clients * queries
            qps = completed / elapsed if elapsed else 0.0
            writer.record(
                "clients_%d" % clients,
                completed,
                elapsed,
                clients=clients,
                queries_per_client=queries,
                qps=round(qps, 1),
                errors=len(errors),
            )
            print("%-10d %10d %12.4f %10.0f %8d" % (
                clients, completed, elapsed, qps, len(errors)))
            if errors:
                failures.extend(errors)
            if completed != expected:
                failures.append(
                    "%d clients: %d of %d queries completed"
                    % (clients, completed, expected)
                )

        tracing_overhead(
            server.host, server.port, queries, writer, quick, failures
        )

        histogram = REGISTRY.histogram("server.request.seconds")
        if histogram.count:
            writer.record(
                "request_latency",
                histogram.count,
                histogram.total,
                mean_ms=round(histogram.total / histogram.count * 1000.0, 3),
                max_ms=round(histogram.max * 1000.0, 3),
            )
            print("\nserver-side latency: %d requests, mean %.3fms, max %.3fms"
                  % (histogram.count,
                     histogram.total / histogram.count * 1000.0,
                     histogram.max * 1000.0))

    if drain_check("127.0.0.1", 0):
        print("drain check: in-flight query delivered through shutdown")
    else:
        failures.append("graceful drain dropped an in-flight reply")

    print("\nresults -> %s" % writer.write())
    print("trace   -> %s" % writer.trace_path)

    if failures:
        print("\nFAIL: %d dropped/corrupted frame(s):" % len(failures))
        for failure in failures:
            print("  " + failure)
        raise SystemExit(1)
    print("\nzero dropped or corrupted frames across %d concurrency levels"
          % len(CONCURRENCY_LEVELS))


if __name__ == "__main__":
    main()
