"""The event journal: ring bounding, ordering, filtering, the global switch."""

import json
import threading

import pytest

from repro.obs import events
from repro.obs.events import Event, EventJournal
from repro.obs.metrics import REGISTRY


class TestPublish:
    def test_sequence_numbers_are_monotonic_from_zero(self):
        journal = EventJournal()
        published = [
            journal.publish("INFO", "test", "tick", i=i) for i in range(5)
        ]
        assert [e.seq for e in published] == [0, 1, 2, 3, 4]
        assert journal.total == 5

    def test_payload_and_identity_are_retained(self):
        journal = EventJournal()
        event = journal.publish("WARN", "store", "torn_record", line=42)
        assert event.severity == "WARN"
        assert event.subsystem == "store"
        assert event.name == "torn_record"
        assert event.payload == {"line": 42}

    def test_unknown_severity_is_rejected(self):
        journal = EventJournal()
        with pytest.raises(ValueError):
            journal.publish("LOUD", "test", "noise")

    def test_warn_and_error_count_into_metrics(self):
        journal = EventJournal()
        warnings = REGISTRY.counter("events.warnings").value
        errors = REGISTRY.counter("events.errors").value
        journal.publish("WARN", "test", "w")
        journal.publish("ERROR", "test", "e")
        journal.publish("INFO", "test", "i")
        assert REGISTRY.counter("events.warnings").value == warnings + 1
        assert REGISTRY.counter("events.errors").value == errors + 1

    def test_events_and_spans_share_the_monotonic_timeline(self):
        journal = EventJournal()
        first = journal.publish("INFO", "test", "a")
        second = journal.publish("INFO", "test", "b")
        assert second.mono >= first.mono


class TestRingBounding:
    def test_capacity_evicts_oldest_but_keeps_sequence(self):
        journal = EventJournal(capacity=4)
        for i in range(10):
            journal.publish("INFO", "test", "tick", i=i)
        retained = journal.events()
        assert len(retained) == 4
        assert len(journal) == 4
        # The most recent four, in publication order, original seqs.
        assert [e.seq for e in retained] == [6, 7, 8, 9]
        assert [e.payload["i"] for e in retained] == [6, 7, 8, 9]
        assert journal.total == 10

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventJournal(capacity=0)

    def test_clear_drops_events_but_not_sequence(self):
        journal = EventJournal()
        journal.publish("INFO", "test", "a")
        journal.clear()
        assert len(journal) == 0
        assert journal.publish("INFO", "test", "b").seq == 1


class TestFiltering:
    def _loaded(self):
        journal = EventJournal()
        journal.publish("DEBUG", "trace", "span")
        journal.publish("INFO", "store", "replay")
        journal.publish("WARN", "store", "torn_record")
        journal.publish("ERROR", "heap", "corrupt")
        return journal

    def test_severity_is_a_minimum(self):
        journal = self._loaded()
        names = [e.name for e in journal.events(severity="WARN")]
        assert names == ["torn_record", "corrupt"]

    def test_subsystem_filters_exactly(self):
        journal = self._loaded()
        names = [e.name for e in journal.events(subsystem="store")]
        assert names == ["replay", "torn_record"]

    def test_n_keeps_the_most_recent_after_filtering(self):
        journal = self._loaded()
        assert [e.name for e in journal.events(2)] == [
            "torn_record",
            "corrupt",
        ]
        assert [
            e.name for e in journal.events(1, subsystem="store")
        ] == ["torn_record"]

    def test_n_below_one_keeps_nothing(self):
        journal = self._loaded()
        assert journal.events(0) == []
        assert journal.events(-2) == []
        view = events.scoped(journal, session="s01")
        view.publish("INFO", "test", "first")
        view.publish("INFO", "test", "second")
        assert [e.name for e in view.events(1)] == ["second"]
        assert view.events(0) == []
        assert view.events(-1) == []


class TestConcurrency:
    def test_concurrent_publishes_lose_nothing(self):
        journal = EventJournal(capacity=100_000)
        per_thread = 2_000

        def hammer(tid):
            for i in range(per_thread):
                journal.publish("INFO", "test", "tick", tid=tid, i=i)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert journal.total == 8 * per_thread
        # Every sequence number was assigned exactly once.
        seqs = [e.seq for e in journal.events()]
        assert sorted(seqs) == list(range(8 * per_thread))


class TestSerialization:
    def test_to_dict_is_json_compatible_with_coerced_payload(self):
        journal = EventJournal()

        class Opaque:
            def __repr__(self):
                return "<opaque>"

        event = journal.publish(
            "INFO", "test", "mixed", n=1, x=1.5, ok=True, none=None,
            obj=Opaque(),
        )
        document = event.to_dict()
        assert json.loads(json.dumps(document)) == document
        assert document["payload"]["obj"] == "<opaque>"
        assert document["payload"]["n"] == 1

    def test_format_is_one_line_with_sorted_payload(self):
        event = Event(7, 0.0, 0.0, "WARN", "store", "torn_record",
                      {"line": 3, "a": 1})
        line = event.format()
        assert line.startswith("#7")
        assert "WARN" in line and "store" in line and "torn_record" in line
        assert line.index("a=1") < line.index("line=3")


class TestGlobalSwitch:
    def test_default_is_disabled(self):
        assert not events.CURRENT.enabled

    def test_noop_accepts_and_drops_everything(self):
        journal = events.CURRENT
        assert journal.publish("WARN", "x", "y", k=1) is None
        assert journal.events() == []
        assert len(journal) == 0
        journal.clear()

    def test_enable_installs_recording_journal(self):
        events.disable()
        journal = events.enable()
        assert isinstance(journal, EventJournal)
        assert events.CURRENT is journal
        assert events.publish("INFO", "test", "hello").seq == 0

    def test_enable_twice_keeps_retained_events(self):
        events.disable()
        journal = events.enable()
        journal.publish("INFO", "test", "kept")
        assert events.enable() is journal
        assert [e.name for e in journal.events()] == ["kept"]

    def test_disable_restores_the_noop_singleton(self):
        journal = events.enable()
        journal.publish("INFO", "test", "dropped")
        events.disable()
        assert events.CURRENT is journal
        assert not journal.enabled
        assert journal.events() == []

    def test_enable_disable_round_trip_leaves_no_stale_state(self):
        events.disable()
        first = events.enable()
        first.publish("INFO", "test", "old")
        events.disable()
        second = events.enable()
        # The same journal, empty after a full round trip: no leaked
        # events, and numbering starts again from 0.
        assert second is first
        assert second.events() == []
        assert second.total == 0
        assert second.publish("INFO", "test", "new").seq == 0


class TestDisabledPathCost:
    def test_guarded_call_sites_never_build_payloads_when_off(
        self, monkeypatch
    ):
        """The `if CURRENT.enabled:` guard must keep publish un-called."""
        from repro.core.flat import FlatRelation
        from repro.core.relation import join_with_fastpath

        events.disable()
        calls = []
        monkeypatch.setattr(
            events.CURRENT, "publish", lambda *a, **k: calls.append(a)
        )
        left = FlatRelation(("A", "B"), [(1, 2)]).to_generalized()
        right = FlatRelation(("B", "C"), [(2, 3)]).to_generalized()
        join_with_fastpath(left, right)
        assert calls == []
