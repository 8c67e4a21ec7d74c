"""LogStore observability: append/replay counters and corruption probes.

All assertions are deltas against the process-global registry, so these
tests are insensitive to whatever other suites have already recorded.
"""

import pytest

from repro.obs import trace
from repro.obs.metrics import REGISTRY
from repro.persistence.store import LogStore


def counters(*names):
    return {name: REGISTRY.counter(name).value for name in names}


def test_open_write_reopen_reports_appends_bytes_and_replays(tmp_path):
    path = str(tmp_path / "cycle.log")
    before = counters(
        "store.appends",
        "store.bytes_written",
        "store.replays",
        "store.replayed_records",
        "store.checksum_checks",
    )

    with LogStore(path) as store:
        for i in range(10):
            store.put("k%d" % i, {"i": i})

    after_write = counters("store.appends", "store.bytes_written")
    assert after_write["store.appends"] == before["store.appends"] + 10
    assert after_write["store.bytes_written"] > before["store.bytes_written"]

    with LogStore(path) as reopened:
        assert len(reopened) == 10

    snap = REGISTRY.snapshot()["counters"]
    assert snap["store.appends"] > 0
    assert snap["store.bytes_written"] > 0
    assert snap["store.replays"] == before["store.replays"] + 1
    assert (
        snap["store.replayed_records"]
        == before["store.replayed_records"] + 10
    )
    # Every replayed record had its checksum verified.
    assert (
        snap["store.checksum_checks"]
        == before["store.checksum_checks"] + 10
    )


def test_corrupted_record_drives_checksum_failures(tmp_path):
    path = str(tmp_path / "corrupt.log")
    with LogStore(path) as store:
        for i in range(5):
            store.put("k%d" % i, {"i": i})

    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    # Flip one payload character of the third record, keeping the
    # length header true so only the checksum can catch it.
    length_text, crc_text, json_text = lines[2].split(":", 2)
    flipped = json_text.replace('"i":2', '"i":7')
    assert flipped != json_text and len(flipped) == len(json_text)
    lines[2] = "%s:%s:%s" % (length_text, crc_text, flipped)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    before = counters(
        "store.checksum_failures", "store.truncated_tails", "store.replays"
    )
    with LogStore(path) as reopened:
        # Replay stops at the corrupt record; the two before it survive.
        assert sorted(reopened.keys()) == ["k0", "k1"]
    after = counters(
        "store.checksum_failures", "store.truncated_tails", "store.replays"
    )
    assert after["store.checksum_failures"] == before["store.checksum_failures"] + 1
    assert after["store.truncated_tails"] == before["store.truncated_tails"] + 1
    assert after["store.replays"] == before["store.replays"] + 1
    assert REGISTRY.counter("store.checksum_failures").value > 0


def test_garbled_header_counts_as_torn_record(tmp_path):
    path = str(tmp_path / "torn.log")
    with LogStore(path) as store:
        store.put("k", {"v": 1})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not a header at all\n")

    before = REGISTRY.counter("store.torn_records").value
    with LogStore(path) as reopened:
        assert list(reopened.keys()) == ["k"]
    assert REGISTRY.counter("store.torn_records").value == before + 1


def test_batch_commit_records_latency_and_sync(tmp_path):
    path = str(tmp_path / "batch.log")
    commits_before = REGISTRY.counter("store.batch_commits").value
    latency_before = REGISTRY.histogram("store.commit.seconds").count
    syncs_before = REGISTRY.counter("store.syncs").value

    with LogStore(path) as store:
        with store.batch():
            store.put("a", {"x": 1})
            store.put("b", {"x": 2})

    assert REGISTRY.counter("store.batch_commits").value == commits_before + 1
    assert REGISTRY.histogram("store.commit.seconds").count == latency_before + 1
    assert REGISTRY.counter("store.syncs").value > syncs_before
    latest = REGISTRY.histogram("store.commit.seconds")
    assert latest.max is not None and latest.max >= 0.0


def test_compaction_counted(tmp_path):
    path = str(tmp_path / "compact.log")
    before = REGISTRY.counter("store.compactions").value
    with LogStore(path) as store:
        for __ in range(3):
            store.put("same", {"x": 1})
        store.compact()
    assert REGISTRY.counter("store.compactions").value == before + 1


def test_replay_span_recorded_when_tracing(tmp_path):
    path = str(tmp_path / "traced.log")
    with LogStore(path) as store:
        store.put("k", {"v": 1})

    tracer = trace.enable()
    with LogStore(path):
        pass
    replays = tracer.find("store.replay")
    assert len(replays) == 1
    assert replays[0].tags["records"] == 1
    assert replays[0].elapsed is not None


def test_disabled_tracer_records_no_spans(tmp_path):
    trace.disable()
    path = str(tmp_path / "quiet.log")
    with LogStore(path) as store:
        with store.batch():
            store.put("k", {"v": 1})
    assert trace.CURRENT.spans() == []
