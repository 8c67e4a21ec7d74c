"""Which public functions are timed as which layer, and the metric list.

Every wrapper is installed at the name the program's own callers look
up at call time (``repro.lang.eval.parse_program``, not only
``repro.lang.parser.parse_program``), so nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextvars
import functools
import time
from concurrent.futures import ThreadPoolExecutor

# Time layers: mean self milliseconds per op.  Their sum plus
# ``unattributed_ms`` is the client-observed mean latency.
TIME_LAYERS = (
    "protocol.decode_ms",
    "protocol.encode_ms",
    "broker.queue_wait_ms",
    "broker.dispatch_ms",
    "session.overhead_ms",
    "lang.parse_ms",
    "lang.check_ms",
    "lang.eval_ms",
    "serialize.decode_ms",
    "serialize.encode_ms",
    "relation.build_ms",
    "relation.join_ms",
    "relation.match_ms",
    "mvcc.begin_ms",
    "mvcc.read_ms",
    "mvcc.put_ms",
    "mvcc.commit_ms",
    "store.batch_ms",
    "store.fsync_ms",
    "query.optimize_ms",
    "query.execute_row_ms",
    "query.execute_columnar_ms",
    "stats.analyze_ms",
    "index.build_ms",
    "index.scan_ms",
    "heap.commit_ms",
    "bom.rollup_ms",
)

# Counts and ratios (per op unless the name says otherwise).
COUNT_METRICS = (
    ("protocol.bytes_per_op", "B"),
    ("kernel.pairs_tried", "count"),
    ("kernel.pruned_frac", "ratio"),
    ("mvcc.conflicts", "count"),
    ("store.fsyncs_per_op", "count"),
    ("store.replay_s", "s"),
    ("store.log_bytes_per_op", "B"),
    ("stats.reanalyses", "count"),
    ("columnar.lowered_frac", "ratio"),
    ("columnar.batches", "count"),
    ("columnar.scan_cache_hit_frac", "ratio"),
    ("index.scans", "count"),
    ("heap.written_frac", "ratio"),
    ("heap.open_s", "s"),
)

# What the traced run says about itself.
TRACE_METRICS = (
    ("trace.latency_ms", "ms"),
    ("trace.ops_per_s", "ops/s"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.reconcile_err_ms", "ms"),
)

PER_LAYER = (
    [(name, "ms") for name in TIME_LAYERS]
    + [("unattributed_ms", "ms")]
    + list(COUNT_METRICS)
    + list(TRACE_METRICS)
)

# Registry counters the count metrics derive from.
COUNTERS = (
    "relation.join.pairs_tried",
    "relation.join.pairs_pruned",
    "txn.conflict",
    "store.syncs",
    "stats.auto_reanalyze",
    "columnar.lowered",
    "columnar.batches",
    "columnar.scan.cache_hits",
    "columnar.scan.cache_misses",
    "heap.objects_written",
    "heap.objects_unchanged",
)


class _SpanContext:
    """A context manager spanning another one's enter→exit."""

    def __init__(self, recorder, name, inner):
        self._recorder = recorder
        self._name = name
        self._inner = inner
        self._span = None

    def __enter__(self):
        self._span = self._recorder.open(self._name)
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._recorder.close(*self._span)


def _wrap_store(recorder) -> None:
    from repro.persistence.store import LogStore

    original_batch = LogStore.batch

    def batch(self):
        return _SpanContext(recorder, "store.batch_ms", original_batch(self))

    recorder.replace(LogStore, "batch", batch)
    recorder.wrap(LogStore, "sync", "store.fsync_ms")
    recorder.wrap(LogStore, "__init__", "store.replay_s")


def _wrap_language(recorder) -> None:
    from repro.core import relation as relation_mod
    from repro.lang import eval as eval_mod
    from repro.persistence import mvcc

    recorder.wrap(eval_mod, "parse_program", "lang.parse_ms")
    recorder.wrap(eval_mod, "check_program", "lang.check_ms")
    recorder.wrap(eval_mod.Interpreter, "run", "lang.eval_ms")
    recorder.wrap(eval_mod, "serialize", "serialize.encode_ms")
    recorder.wrap(eval_mod, "deserialize", "serialize.decode_ms")
    recorder.wrap(relation_mod.GeneralizedRelation, "__init__", "relation.build_ms")
    recorder.wrap(relation_mod, "join_with_fastpath", "relation.join_ms")
    recorder.wrap(relation_mod.GeneralizedRelation, "matching", "relation.match_ms")
    recorder.wrap(mvcc.TransactionManager, "begin", "mvcc.begin_ms")
    recorder.wrap(mvcc.TransactionManager, "get", "mvcc.read_ms")
    recorder.wrap(mvcc.SessionTransaction, "read", "mvcc.read_ms")
    recorder.wrap(mvcc.TransactionManager, "put", "mvcc.put_ms")
    recorder.wrap(mvcc.SessionTransaction, "write", "mvcc.put_ms")
    recorder.wrap(mvcc.SessionTransaction, "commit", "mvcc.commit_ms")


def install_server(recorder) -> None:
    """Wrap every served-request layer inside a server process.

    Request keys are ``(session id, frame id)``: the dispatch wrapper
    sets it for the worker thread; frame decode/encode run on the event
    loop and take the session from the connection's task.
    """
    from repro.server import protocol, server, session

    # The connection's session, visible to every task its handler
    # starts (frame reads run under ``asyncio.wait_for``, a child task
    # that inherits a copy of this context).
    current_session = contextvars.ContextVar("perfbench_session", default=None)

    def frame_key(message):
        sid = current_session.get()
        if sid is None or not isinstance(message, dict):
            return None
        return [sid, message.get("id")]

    recorder.wrap(
        protocol, "decode_payload", "protocol.decode_ms",
        keyer=lambda args, result: _count_bytes(
            recorder, frame_key(result), len(args[0])
        ),
    )
    recorder.wrap(
        protocol, "encode_frame", "protocol.encode_ms",
        keyer=lambda args, result: _count_bytes(
            recorder, frame_key(args[0]), len(result)
        ),
    )

    original_serve = server.DBPLServer._serve_session

    async def serve_session(self, reader, writer, connection, sess):
        current_session.set(sess.session_id)
        return await original_serve(self, reader, writer, connection, sess)

    recorder.replace(server.DBPLServer, "_serve_session", serve_session)

    original_dispatch = server.DBPLServer._dispatch

    def dispatch(self, sess, message):
        recorder.set_key([sess.session_id, message.get("id")])
        span = recorder.open("broker.dispatch_ms")
        try:
            return original_dispatch(self, sess, message)
        finally:
            recorder.close(*span)
            recorder.set_key(None)

    recorder.replace(server.DBPLServer, "_dispatch", dispatch)

    original_submit = ThreadPoolExecutor.submit

    def submit(self, fn, /, *args, **kwargs):
        submitted = time.perf_counter()
        key = None
        if isinstance(fn, functools.partial) and len(fn.args) == 2:
            sess, message = fn.args
            key = [getattr(sess, "session_id", None), message.get("id")]

        def timed(*call_args, **call_kwargs):
            if key is not None:
                recorder.add(
                    "broker.queue_wait_ms", submitted, time.perf_counter(), key
                )
            return fn(*call_args, **call_kwargs)

        return original_submit(self, timed, *args, **kwargs)

    recorder.replace(ThreadPoolExecutor, "submit", submit)

    for action in ("run", "begin", "commit", "abort"):
        recorder.wrap(session.Session, action, "session.overhead_ms")
    _wrap_language(recorder)
    _wrap_store(recorder)


def _count_bytes(recorder, key, size):
    if key is not None:
        recorder.bytes_by_key[repr(key)] = recorder.bytes_by_key.get(repr(key), 0) + size
    return key


def install_query(recorder) -> None:
    """Wrap the embedded planner's layers (engine_query)."""
    from repro.core import index, query

    recorder.wrap(query, "optimize", "query.optimize_ms")
    recorder.wrap(query.Plan, "execute", "query.execute_row_ms")
    recorder.wrap(query.ColumnarExec, "_apply", "query.execute_columnar_ms")
    recorder.wrap(query.IndexScan, "_apply", "index.scan_ms")
    recorder.wrap(index.Catalog, "analyze", "stats.analyze_ms")
    recorder.wrap(index.Catalog, "create_index", "index.build_ms")


def install_heap(recorder) -> None:
    """Wrap the intrinsic heap, its store and the bill of materials."""
    from repro.apps import bom
    from repro.persistence import intrinsic

    recorder.wrap(intrinsic.PersistentHeap, "commit", "heap.commit_ms")
    recorder.wrap(intrinsic.PersistentHeap, "__init__", "heap.open_s")
    recorder.wrap(bom, "clear_memos", "bom.rollup_ms")
    recorder.wrap(bom, "roll_up_memoized", "bom.rollup_ms")
    _wrap_store(recorder)


def counter_values(registry) -> dict:
    """The watched registry counters of this process."""
    return {name: registry.value(name) for name in COUNTERS}


def counters_from_openmetrics(text: str) -> dict:
    """The watched counters from a ``stat("metrics")`` reply."""
    from repro.obs.monitor import parse_openmetrics

    exposed = parse_openmetrics(text)["counters"]
    return {name: exposed.get(name.replace(".", "_"), 0) for name in COUNTERS}


def count_metrics(delta: dict, ops: int, spans_by_name: dict) -> dict:
    """The count/ratio metrics from counter deltas over ``ops`` ops."""

    def frac(part, whole):
        return part / whole if whole else 0.0

    tried = delta["relation.join.pairs_tried"]
    pruned = delta["relation.join.pairs_pruned"]
    hits = delta["columnar.scan.cache_hits"]
    misses = delta["columnar.scan.cache_misses"]
    written = delta["heap.objects_written"]
    unchanged = delta["heap.objects_unchanged"]
    return {
        "kernel.pairs_tried": tried / ops,
        "kernel.pruned_frac": frac(pruned, tried + pruned),
        "mvcc.conflicts": delta["txn.conflict"] / ops,
        "store.fsyncs_per_op": delta["store.syncs"] / ops,
        "stats.reanalyses": delta["stats.auto_reanalyze"] / ops,
        "columnar.lowered_frac": frac(
            delta["columnar.lowered"], spans_by_name.get("query.optimize_ms", 0)
        ),
        "columnar.batches": delta["columnar.batches"] / ops,
        "columnar.scan_cache_hit_frac": frac(hits, hits + misses),
        "index.scans": spans_by_name.get("index.scan_ms", 0) / ops,
        "heap.written_frac": frac(written, written + unchanged),
    }
