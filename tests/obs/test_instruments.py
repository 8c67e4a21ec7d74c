"""One object per instrument: the on/off contract all five share.

``trace``, ``events``, ``profile``, ``slowlog`` and ``monitor`` each keep
one process-global instrument, ``CURRENT``, built at import and switched
by the module's ``enable()``/``disable()``.  Each case below drives one
of them through the same contract: off at import; while off it records
nothing — not even a call already in flight when it was switched off —
reads empty and answers with its off text; ``enable()`` from off starts
empty with the given settings; ``enable()`` while on keeps state;
``disable()`` drops it.
"""

import contextlib
import os
import subprocess
import sys

import pytest

from repro.obs import events, monitor, profile, slowlog, trace
from repro.obs.metrics import REGISTRY
from repro.server.session import Session


def names(spans):
    return [span.name for span in spans]


class TraceCase:
    module = trace
    empty = ([], [], [], [], False)
    # An off tracer hands out one shared do-nothing span.
    off_answers = ("tracing is off", True)
    settings = ()

    def enable(self):
        return trace.enable()

    def record(self):
        with trace.CURRENT.span("probe") as span_obj:
            span_obj.annotate(rows=1)

    @contextlib.contextmanager
    def in_flight(self):
        with trace.CURRENT.span("in-flight"):
            yield

    def reads(self):
        tracer = trace.CURRENT
        return (
            names(tracer.roots),
            names(tracer.spans()),
            names(tracer.find("probe")),
            tracer.harvest_request("no-such-request"),
            tracer.last_span is not None,
        )

    def answers(self):
        tracer = trace.CURRENT
        return (
            Session().stat("trace")["text"],
            tracer.span("a") is tracer.span("b"),
        )

    def current_settings(self):
        return ()


class EventsCase:
    module = events
    empty = ([], 0, 0)
    off_answers = ("journal is off — :events on",)
    settings = (8,)

    def enable(self):
        return events.enable(capacity=8)

    def record(self):
        return events.CURRENT.publish("INFO", "test", "probe")

    @contextlib.contextmanager
    def in_flight(self):
        journal = events.CURRENT  # a call site read the journal ...
        yield
        journal.publish("INFO", "test", "in-flight")  # ... and publishes

    def reads(self):
        journal = events.CURRENT
        return (
            [(event.seq, event.name) for event in journal.events()],
            len(journal),
            journal.total,
        )

    def answers(self):
        return (Session().stat("events")["text"],)

    def current_settings(self):
        return (events.CURRENT.capacity,)


class ProfileCase:
    module = profile
    empty = ([], [])
    off_answers = ("(profiler is off — :profile on)",)
    settings = ()

    def enable(self):
        return profile.enable()

    def record(self):
        return profile.CURRENT.record("probe", 0.5, rows_out=2)

    @contextlib.contextmanager
    def in_flight(self):
        profiler = profile.CURRENT
        yield
        profiler.record("in-flight", 0.5)

    def reads(self):
        profiler = profile.CURRENT
        return (
            [(op.label, op.calls) for op in profiler.ops()],
            profiler.snapshot(),
        )

    def answers(self):
        return (profile.profile_report(),)

    def current_settings(self):
        return ()


class SlowlogCase:
    module = slowlog
    empty = ([], [], 0, 0)
    off_answers = ("(slow-query log is off — :slow on)", False, False)
    settings = (0.0, 3)

    def enable(self):
        return slowlog.enable(threshold_ms=0.0, capacity=3)

    def record(self):
        log = slowlog.CURRENT
        with log.measure("plan", "measured"):
            pass
        return log.record("plan", "probe", 0.5, request="r1")

    @contextlib.contextmanager
    def in_flight(self):
        with slowlog.CURRENT.measure("plan", "in-flight"):
            yield

    def reads(self):
        log = slowlog.CURRENT
        return (
            [(entry.seq, entry.query) for entry in log.entries()],
            [entry.query for entry in log.for_request("r1")],
            len(log),
            log.total,
        )

    def answers(self):
        log = slowlog.CURRENT
        return (
            slowlog.slowlog_report(),
            log.outermost(),
            log.would_record(1.0),
        )

    def current_settings(self):
        return (slowlog.CURRENT.threshold_ms, slowlog.CURRENT.capacity)


class MonitorCase:
    module = monitor
    empty = (0, 0, 0, 0, False, None, 0.0)
    off_answers = ("(monitor is off — :watch <seconds> enables it)",)
    settings = (3,)

    def enable(self):
        return monitor.enable(capacity=3)

    def record(self):
        REGISTRY.counter("instrument.probe").inc()
        return monitor.tick()

    @contextlib.contextmanager
    def in_flight(self):
        registry = monitor.CURRENT
        yield
        registry.tick()

    def reads(self):
        registry = monitor.CURRENT
        return (
            len(registry.windows()),
            len(registry),
            registry.ticks,
            registry.delta("instrument.probe"),
            registry.rate("instrument.probe") > 0.0,
            registry.gauge("instrument.probe"),
            registry.quantile("instrument.seconds", 0.5),
        )

    def answers(self):
        return (monitor.CURRENT.format(),)

    def current_settings(self):
        return (monitor.CURRENT.capacity,)


CASES = [TraceCase(), EventsCase(), ProfileCase(), SlowlogCase(), MonitorCase()]


def enabled_at_import(module) -> str:
    """``CURRENT.enabled`` as a fresh interpreter sees it after import."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import %s as m; print(m.CURRENT.enabled)" % module.__name__,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


@pytest.mark.parametrize(
    "case", CASES, ids=[case.module.__name__.rsplit(".", 1)[1] for case in CASES]
)
def test_one_switchable_instrument(case):
    module = case.module
    instrument = module.CURRENT
    assert enabled_at_import(module) == "False"
    assert not instrument.enabled

    # While off it records nothing (the recording call returns None),
    # reads empty, answers as off, and clearing it is harmless.
    assert case.record() is None
    assert case.reads() == case.empty
    assert case.answers() == case.off_answers
    instrument.clear()
    assert case.reads() == case.empty

    # enable() from off: the given settings on an empty instrument —
    # the same object, which is never rebound.
    assert case.enable() is instrument and module.CURRENT is instrument
    assert instrument.enabled
    assert case.reads() == case.empty
    assert case.current_settings() == case.settings
    case.record()
    recorded = case.reads()
    assert recorded != case.empty
    assert case.answers() != case.off_answers

    # enable() while on keeps state.
    assert module.enable() is instrument
    assert case.reads() == recorded

    # disable() drops state.
    module.disable()
    assert not instrument.enabled
    assert case.reads() == case.empty
    assert case.answers() == case.off_answers

    # A call in flight records while on, but nothing once switched off
    # mid-call — not even after switching back on.
    case.enable()
    with case.in_flight():
        pass
    assert case.reads() != case.empty
    module.disable()
    case.enable()
    with case.in_flight():
        module.disable()
    assert case.reads() == case.empty
    case.enable()
    assert case.reads() == case.empty

    # A second life records exactly as the first did (the journal
    # numbers from 0 again).
    case.record()
    assert case.reads() == recorded
