"""Exporters: trace files, JSONL journals, and span-tree reconstruction."""

import json

import pytest

from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import eq, explain, optimize, scan
from repro.obs import events, trace
from repro.obs.events import EventJournal
from repro.obs.export import (
    BACKEND_PID,
    CLIENT_PID,
    merged_trace_events,
    read_journal,
    read_trace,
    span_tree,
    trace_events,
    write_journal,
    write_merged_trace,
    write_trace,
)
from repro.obs.trace import Tracer


def make_session():
    """A tracer + journal with known, interleaved content."""
    tracer = Tracer()
    journal = EventJournal()
    with tracer.span("outer", n=2):
        journal.publish("INFO", "test", "inside")
        with tracer.span("inner"):
            pass
    return tracer, journal


class TestTraceEvents:
    def test_spans_become_complete_events(self):
        tracer, journal = make_session()
        span_events = [
            e for e in trace_events(tracer, journal) if e["ph"] == "X"
        ]
        assert [e["name"] for e in span_events] == ["outer", "inner"]
        outer = span_events[0]
        assert outer["cat"] == "span"
        assert outer["args"] == {"n": 2}
        assert outer["dur"] >= span_events[1]["dur"]

    def test_journal_entries_become_instants_on_the_same_timeline(self):
        tracer, journal = make_session()
        merged = trace_events(tracer, journal)
        instants = [e for e in merged if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["test.inside"]
        assert instants[0]["args"]["severity"] == "INFO"
        # The instant falls inside the outer span on the shared clock.
        outer = next(e for e in merged if e["name"] == "outer")
        assert outer["ts"] <= instants[0]["ts"] <= outer["ts"] + outer["dur"]

    def test_events_are_sorted_by_timestamp(self):
        tracer, journal = make_session()
        stamps = [e["ts"] for e in trace_events(tracer, journal)]
        assert stamps == sorted(stamps)


class TestWriteTrace:
    def test_file_is_chrome_object_format(self, tmp_path):
        tracer, journal = make_session()
        path = str(tmp_path / "session.trace.json")
        assert write_trace(path, tracer, journal) == path
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert set(document) == {
            "traceEvents",
            "displayTimeUnit",
            "otherData",
        }
        for event in document["traceEvents"]:
            assert event["ph"] in ("X", "i")
            assert "ts" in event and "pid" in event and "tid" in event

    def test_other_data_carries_metrics_and_journal_totals(self, tmp_path):
        tracer, journal = make_session()
        path = str(tmp_path / "t.trace.json")
        write_trace(path, tracer, journal)
        other = read_trace(path)["otherData"]
        assert "counters" in other["metrics"]
        assert other["journal"] == {"retained": 1, "published": 1}

    def test_span_tree_round_trips_nesting(self, tmp_path):
        tracer, journal = make_session()
        path = str(tmp_path / "t.trace.json")
        write_trace(path, tracer, journal)
        forest = span_tree(read_trace(path))
        assert len(forest) == 1
        assert forest[0]["name"] == "outer"
        assert [c["name"] for c in forest[0]["children"]] == ["inner"]
        assert forest[0]["args"] == {"n": 2}


def make_remote_document(started=100.0):
    """An ``obs("spans")`` reply shaped like Session._obs_spans."""
    return {
        "session": "s01",
        "mono": started + 1.0,
        "requests": [
            {
                "request_id": "s01-c1",
                "spans": [
                    {
                        "name": "lang.run",
                        "seq": 9,
                        "started": started,
                        "elapsed": 0.004,
                        "tags": {"request_id": "s01-c1", "session": "s01"},
                        "children": [
                            {
                                "name": "lang.parse",
                                "seq": 10,
                                "started": started + 0.001,
                                "elapsed": 0.001,
                                "tags": {},
                                "children": [],
                            }
                        ],
                    }
                ],
            }
        ],
    }


class TestMergedTraceEvents:
    def test_lanes_are_labelled_processes(self):
        tracer, journal = make_session()
        merged = merged_trace_events(
            tracer, journal, remote=make_remote_document()
        )
        names = {
            e["args"]["name"]: (e["pid"], e["tid"])
            for e in merged
            if e["ph"] == "M"
        }
        assert names["client"][0] == CLIENT_PID
        assert names["server"][0] == BACKEND_PID
        assert names["session s01"] == (BACKEND_PID, 1)

    def test_remote_span_trees_flatten_onto_the_backend_lane(self):
        tracer, journal = make_session()
        merged = merged_trace_events(
            tracer, journal, remote=make_remote_document()
        )
        backend = [
            e for e in merged if e["ph"] == "X" and e["pid"] == BACKEND_PID
        ]
        assert [e["name"] for e in backend] == ["lang.run", "lang.parse"]
        assert backend[0]["args"]["request_id"] == "s01-c1"
        local = [
            e for e in merged if e["ph"] == "X" and e["pid"] == CLIENT_PID
        ]
        assert [e["name"] for e in local] == ["outer", "inner"]

    def test_clock_offset_shifts_remote_timestamps(self):
        tracer, journal = make_session()
        shifted = merged_trace_events(
            tracer, journal,
            remote=make_remote_document(started=100.0),
            clock_offset=40.0,
        )
        root = next(
            e for e in shifted
            if e.get("pid") == BACKEND_PID and e.get("name") == "lang.run"
        )
        assert root["ts"] == pytest.approx((100.0 - 40.0) * 1e6)

    def test_open_remote_span_exports_zero_duration(self):
        document = make_remote_document()
        document["requests"][0]["spans"][0]["elapsed"] = None
        merged = merged_trace_events(
            Tracer(), EventJournal(), remote=document
        )
        root = next(e for e in merged if e.get("name") == "lang.run")
        assert root["dur"] == 0.0

    def test_no_remote_document_means_client_lane_only(self):
        tracer, journal = make_session()
        merged = merged_trace_events(tracer, journal, remote=None)
        assert all(
            e["pid"] == CLIENT_PID for e in merged if e["ph"] != "M"
        )
        metadata = [e for e in merged if e["ph"] == "M"]
        assert [e["args"]["name"] for e in metadata] == ["client"]


class TestWriteMergedTrace:
    def test_returns_the_document_it_wrote(self, tmp_path):
        tracer, journal = make_session()
        path = str(tmp_path / "merged.trace.json")
        document = write_merged_trace(
            path, tracer, journal,
            remote=make_remote_document(), clock_offset=2.5,
        )
        assert document["otherData"]["clock_offset_seconds"] == 2.5
        assert read_trace(path)["traceEvents"] == document["traceEvents"]


class TestJournalRoundTrip:
    def test_write_and_read_jsonl(self, tmp_path):
        journal = EventJournal()
        journal.publish("INFO", "test", "first", n=1)
        journal.publish("WARN", "store", "second")
        path = str(tmp_path / "journal.jsonl")
        write_journal(path, journal)
        rows = read_journal(path)
        assert [r["name"] for r in rows] == ["first", "second"]
        assert rows[0]["payload"] == {"n": 1}
        assert rows[1]["severity"] == "WARN"

    def test_defaults_use_the_global_journal(self, tmp_path):
        journal = events.enable()
        journal.clear()
        journal.publish("INFO", "test", "global")
        path = str(tmp_path / "g.jsonl")
        write_journal(path)
        assert [r["name"] for r in read_journal(path)] == ["global"]


class TestExportedPlanTreeMatchesExplain:
    def test_traced_execution_exports_the_operator_tree(self, tmp_path):
        """The acceptance criterion: the trace file's span tree has the
        same operator structure as EXPLAIN for the same query."""
        catalog = Catalog(
            {
                "emp": FlatRelation(
                    ("Emp", "Dept", "Salary"),
                    [(i, i % 3, 40 + i % 5) for i in range(30)],
                ),
                "dept": FlatRelation(
                    ("Dept", "City"), [(d, "c%d" % d) for d in range(3)]
                ),
            }
        )
        plan = optimize(
            scan("emp")
            .join(scan("dept"))
            .where(eq("Salary", 42))
            .project(["Emp", "City"]),
            catalog,
        )
        tracer = trace.enable()
        journal = events.enable()
        plan.execute(catalog)
        path = str(tmp_path / "plan.trace.json")
        write_trace(path, tracer, journal)

        def shape(node):
            return (node["name"], [shape(c) for c in node["children"]])

        def plan_shape(p):
            return (
                "plan." + type(p).__name__.lower(),
                [plan_shape(c) for c in p.children()],
            )

        forest = span_tree(read_trace(path))
        plan_roots = [n for n in forest if n["name"].startswith("plan.")]
        assert len(plan_roots) == 1
        assert shape(plan_roots[0]) == plan_shape(plan)
        # And the textual EXPLAIN mentions every operator in the tree.
        rendered = explain(plan)
        flat_names = []

        def walk(node):
            flat_names.append(node["name"])
            for child in node["children"]:
                walk(child)

        walk(plan_roots[0])
        for name in flat_names:
            assert name[len("plan."):] in rendered.lower()
