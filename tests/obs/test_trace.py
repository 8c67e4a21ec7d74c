"""Span nesting, timing, formatting, and the global switch."""

import pytest

from repro.obs import events, trace
from repro.obs.trace import Span, Tracer


class FakeClock:
    """A deterministic clock: each reading is one second after the last."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestSpanRecording:
    def test_single_span_times_with_injected_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work") as span_obj:
            pass
        # Enter reads the clock once (t=1), exit once more (t=2).
        assert span_obj.elapsed == 1.0
        assert tracer.roots == [span_obj]

    def test_spans_nest_into_a_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                with tracer.span("leaf"):
                    pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        # The outer span's wall time covers all inner readings.
        assert outer.elapsed > outer.children[0].elapsed

    def test_sibling_roots_stay_separate(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]
        assert all(not r.children for r in tracer.roots)

    def test_span_closes_on_exception(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert tracer.roots[0].elapsed is not None
        assert tracer._stack == []

    def test_tags_and_annotate(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("join", left=3) as span_obj:
            span_obj.annotate(rows_out=9)
        assert tracer.roots[0].tags == {"left": 3, "rows_out": 9}

    def test_walk_find_and_spans(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        assert [s.name for s in tracer.spans()] == ["a", "b", "b"]
        assert len(tracer.find("b")) == 2
        assert tracer.find("missing") == []

    def test_format_renders_indented_tree_with_tags(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", n=2):
            with tracer.span("inner"):
                pass
        text = tracer.roots[0].format()
        lines = text.splitlines()
        assert lines[0].startswith("outer [")
        assert lines[0].endswith("n=2")
        assert lines[1].startswith("  inner [")
        assert "ms]" in lines[0]

    def test_open_span_formats_as_open(self):
        span_obj = Span("pending")
        assert "[open]" in span_obj.format()

    def test_clear_drops_recorded_roots(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.roots == []
        assert tracer.spans() == []


class TestNoOpTracer:
    """The off tracer is the no-op tracer: ``trace.CURRENT`` before
    :func:`trace.enable` (or after :func:`trace.disable`)."""

    def test_disabled_flag_and_no_recording(self):
        tracer = trace.CURRENT
        assert tracer.enabled is False
        with tracer.span("anything", k=1) as span_obj:
            span_obj.annotate(more=2)
        assert tracer.spans() == []
        assert tracer.find("anything") == []
        assert list(tracer.roots) == []

    def test_span_is_the_shared_singleton(self):
        # The disabled path allocates nothing per call.
        tracer = trace.CURRENT
        assert tracer.span("a") is tracer.span("b")
        assert not isinstance(tracer.span("a"), Span)

    def test_clear_is_harmless(self):
        tracer = trace.CURRENT
        tracer.clear()
        assert tracer.enabled is False
        assert list(tracer.roots) == []


class TestGlobalSwitch:
    def test_default_is_disabled(self):
        assert not trace.CURRENT.enabled

    def test_enable_installs_recording_tracer(self):
        trace.disable()
        tracer = trace.enable()
        assert isinstance(tracer, Tracer)
        assert trace.CURRENT is tracer
        assert trace.CURRENT.enabled

    def test_enable_twice_keeps_recorded_spans(self):
        trace.disable()
        tracer = trace.enable()
        with trace.span("kept"):
            pass
        assert trace.enable() is tracer
        assert len(tracer.find("kept")) == 1

    def test_disable_restores_noop(self):
        tracer = trace.enable()
        with trace.span("dropped"):
            pass
        trace.disable()
        assert trace.CURRENT is tracer
        assert not tracer.enabled
        assert tracer.find("dropped") == []

    def test_span_open_at_disable_publishes_nothing(self):
        journal = events.enable()
        with trace.enable().span("in-flight"):
            trace.disable()
        assert journal.events(subsystem="trace") == []

    def test_module_level_span_follows_current(self):
        tracer = trace.enable()
        with trace.span("global.op", n=1):
            pass
        assert len(tracer.find("global.op")) == 1
        trace.disable()
        with trace.span("global.op"):
            pass
        # disable() dropped the first span; the second went nowhere.
        assert tracer.find("global.op") == []


class TestSpanToDict:
    def test_serializes_the_subtree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", rows=3) as outer:
            with tracer.span("inner"):
                pass
        document = outer.to_dict()
        assert document["name"] == "outer"
        assert document["seq"] == outer.seq
        assert document["started"] == 1.0
        assert document["elapsed"] == outer.elapsed
        assert document["tags"] == {"rows": 3}
        assert [c["name"] for c in document["children"]] == ["inner"]

    def test_non_scalar_tags_become_strings(self):
        span_obj = Span("s", {"shape": (3, 4)})
        assert span_obj.to_dict()["tags"]["shape"] == "(3, 4)"

    def test_open_span_has_null_elapsed(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            assert outer.to_dict()["elapsed"] is None


class TestPerThreadStacks:
    def test_threads_build_separate_roots(self):
        # A client thread's span and a worker thread's span must not
        # nest into each other even though they share one tracer (the
        # in-process ServerThread embedding).
        import threading

        tracer = Tracer()
        ready = threading.Event()
        release = threading.Event()

        def worker():
            with tracer.span("worker.op"):
                ready.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=worker)
        with tracer.span("main.op"):
            thread.start()
            ready.wait(timeout=5.0)
            release.set()
            thread.join(timeout=5.0)
        names = {root.name for root in tracer.roots}
        assert names == {"main.op", "worker.op"}
        for root in tracer.roots:
            assert root.children == []


class TestRequestContext:
    def test_default_is_none(self):
        assert trace.current_request_id() is None

    def test_set_returns_previous_for_restore(self):
        assert trace.set_request_id("r1") is None
        assert trace.current_request_id() == "r1"
        assert trace.set_request_id("r2") == "r1"
        trace.set_request_id(None)
        assert trace.current_request_id() is None

    def test_context_is_per_thread(self):
        import threading

        trace.set_request_id("outer")
        seen = {}

        def probe():
            seen["inner"] = trace.current_request_id()

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(timeout=5.0)
        trace.set_request_id(None)
        assert seen["inner"] is None
