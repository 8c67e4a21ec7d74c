"""Persistence audit trails in the event journal.

Commits chronicle their reachability sweep, extern/intern round-trips
carry versions, and a re-intern that finds the stored value changed
behind this store front's back — the paper's update anomaly — lands as
a WARN event carrying both content fingerprints.
"""

import os

import pytest

from repro.obs import events
from repro.obs.metrics import REGISTRY
from repro.persistence.allornothing import ImagePersistence
from repro.persistence.heap import PObject
from repro.persistence.intrinsic import PersistentHeap
from repro.persistence import replicating
from repro.persistence.replicating import ReplicatingStore
from repro.persistence.store import LogStore
from repro.types.dynamic import dynamic


@pytest.fixture(autouse=True)
def journal():
    """The process-global journal, switched on empty for each test."""
    return events.enable()


class TestHeapCommitAudit:
    def test_commit_event_reports_the_reachability_sweep(
        self, journal, tmp_path
    ):
        heap = PersistentHeap(str(tmp_path / "heap.log"))
        first = PObject("Node")
        second = PObject("Node")
        first["next"] = second
        heap.root("head", first)
        stats = heap.commit()
        commits = journal.events(subsystem="heap")
        assert [e.name for e in commits] == ["commit"]
        payload = commits[0].payload
        assert payload["roots"] == stats.roots_written == 1
        assert payload["reachable"] == stats.objects_reachable == 2
        assert payload["written"] == 2
        assert payload["collected"] == 0
        heap.close()

    def test_second_commit_reports_unchanged_and_collected(
        self, journal, tmp_path
    ):
        heap = PersistentHeap(str(tmp_path / "heap.log"))
        first = PObject("Node")
        second = PObject("Node")
        first["next"] = second
        heap.root("head", first)
        heap.commit()
        del first["next"]  # second becomes unreachable
        heap.commit()
        payload = journal.events(subsystem="heap")[-1].payload
        assert payload["collected"] == 1
        assert payload["written"] == 1  # first changed (lost its field)
        heap.close()


class TestReplicatingAudit:
    def test_round_trips_log_matching_versions(self, journal, tmp_path):
        store = ReplicatingStore(str(tmp_path / "r.log"))
        store.extern("doc", dynamic("payload"))
        store.intern("doc")
        externs = journal.events(subsystem="replicating")
        assert [e.name for e in externs] == ["extern", "intern"]
        assert [e.payload["version"] for e in externs] == [1, 1]
        assert store.last_fingerprint("doc") == (
            1,
            replicating._fingerprint(store.manager.get("doc")),
        )
        store.close()

    def test_divergent_reintern_is_a_warn_event(self, journal, tmp_path):
        """Acceptance criterion: a re-intern of a value changed through
        another store front emits a WARN journal event."""
        shared = LogStore(str(tmp_path / "shared.log"))
        mine = ReplicatingStore(shared)
        theirs = ReplicatingStore(shared)
        before = REGISTRY.value("replicating.divergent_reinterns")

        mine.extern("doc", dynamic("original"))
        mine.intern("doc")  # round-trip: remember v1's fingerprint
        theirs.extern("doc", dynamic("changed elsewhere"))
        mine.intern("doc")  # the update anomaly surfaces here

        warnings = journal.events(severity="WARN", subsystem="replicating")
        assert [e.name for e in warnings] == ["divergent_reintern"]
        payload = warnings[0].payload
        assert payload["handle"] == "doc"
        assert payload["remembered_version"] == 1
        assert payload["stored_version"] == 2
        assert (
            payload["remembered_fingerprint"]
            != payload["stored_fingerprint"]
        )
        assert (
            REGISTRY.value("replicating.divergent_reinterns") == before + 1
        )
        shared.close()

    def test_same_value_reexterned_keeps_the_fingerprint(
        self, journal, tmp_path
    ):
        store = ReplicatingStore(str(tmp_path / "r.log"))
        other = ReplicatingStore(store.manager)
        store.extern("doc", dynamic("stable"))
        first = store.last_fingerprint("doc")
        other.extern("doc", dynamic("stable"))
        # A new version of the identical value: same fingerprint, and
        # the next intern is NOT flagged divergent.
        store.intern("doc")
        assert journal.events(severity="WARN") == []
        assert store.last_fingerprint("doc") == (2, first[1])
        store.close()

    def test_unchanged_handle_computes_no_fingerprint(
        self, journal, tmp_path, monkeypatch
    ):
        calls = []
        original = replicating._fingerprint

        def counting(document):
            calls.append(document)
            return original(document)

        monkeypatch.setattr(replicating, "_fingerprint", counting)
        store = ReplicatingStore(str(tmp_path / "r.log"))
        other = ReplicatingStore(store.manager)
        store.extern("doc", dynamic("v1"))
        for __ in range(3):
            store.intern("doc")
        assert calls == []
        other.extern("doc", dynamic("v2"))
        store.intern("doc")  # classify the changed handle: hash both
        assert len(calls) == 2
        store.intern("doc")
        assert len(calls) == 2
        store.close()


class TestStoreAnomalyAudit:
    def test_torn_tail_replay_is_a_warn_event(self, journal, tmp_path):
        path = str(tmp_path / "store.log")
        with LogStore(path) as store:
            store.put("k", {"v": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("9999:123:{\"k\"")  # no newline: torn final record
        reopened = LogStore(path)
        names = {e.name for e in journal.events(subsystem="store")}
        assert "replay" in names
        assert "truncated_tail" in names
        warns = journal.events(severity="WARN", subsystem="store")
        assert any(e.name == "truncated_tail" for e in warns)
        reopened.close()

    def test_checksum_failure_is_a_warn_event(self, journal, tmp_path):
        path = str(tmp_path / "store.log")
        with LogStore(path) as store:
            store.put("k", {"v": 1})
            store.put("k2", {"v": 2})
        # Corrupt the second record's payload byte without touching its
        # header, then replay.
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[1] = lines[1][:-2] + ("X" if lines[1][-2] != "X" else "Y") + lines[1][-1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        reopened = LogStore(path)
        warns = journal.events(severity="WARN", subsystem="store")
        assert any(e.name == "checksum_failure" for e in warns)
        reopened.close()


class TestImageAudit:
    def test_save_and_resume_are_info_events(self, journal, tmp_path):
        image = ImagePersistence(str(tmp_path / "session.image"))
        image.save_image({"a": 1, "b": "two"})
        image.resume()
        entries = journal.events(subsystem="image")
        assert [e.name for e in entries] == ["save", "resume"]
        assert entries[0].payload["names"] == 2
        assert entries[1].payload["names"] == 2
        assert entries[0].payload["path"] == os.path.join(
            str(tmp_path), "session.image"
        )
