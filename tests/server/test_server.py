"""The server end to end: handshake, dispatch, limits, drain, hostility.

Integration tests run a real :class:`ServerThread` on an ephemeral port
and talk to it with the blocking :class:`Client` or a raw socket (for
the deliberately malformed traffic a Client refuses to send).
"""

import socket
import struct
import threading
import time
from collections import deque

import pytest

from repro.errors import RemoteError, SessionClosedError
from repro.obs.metrics import REGISTRY, reset_metrics
from repro.server import Client, ServerThread, protocol
from repro.server.session import Session


@pytest.fixture(autouse=True)
def clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


class RawConn:
    """A hand-cranked connection for protocol-abuse tests."""

    def __init__(self, port, handshake=True):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=5.0
        )
        self.decoder = protocol.FrameDecoder()
        self.pending = deque()
        if handshake:
            reply = self.hello()
            assert reply["type"] == "hello", reply

    def hello(self, version=protocol.PROTOCOL_VERSION):
        self.send({"type": "hello", "protocol": version, "client": "raw"})
        return self.read()

    def send(self, message):
        self.sock.sendall(protocol.encode_frame(message))

    def send_raw(self, data):
        self.sock.sendall(data)

    def read(self):
        while True:
            if self.pending:
                return self.pending.popleft()
            chunk = self.sock.recv(65536)
            self.pending.extend(self.decoder.feed(chunk))
            if not self.pending and chunk == b"":
                return None

    def close(self):
        self.sock.close()


class SlowSession(Session):
    """A session whose queries dawdle — for drain and disconnect tests."""

    delay = 0.4

    def run(self, source, mode="eval", **kwargs):
        time.sleep(self.delay)
        return super().run(source, mode, **kwargs)


class TestHandshake:
    def test_grants_session_and_limits(self):
        with ServerThread(limit=3) as server:
            with Client(server.host, server.port) as client:
                assert client.session_id == "s01"
                assert client.server == "repro-server/3"
                assert client.limits["max_frame"] == protocol.MAX_FRAME

    def test_version_mismatch_rejected(self):
        with ServerThread() as server:
            conn = RawConn(server.port, handshake=False)
            reply = conn.hello(version=99)
            assert reply["type"] == "error"
            assert reply["kind"] == "version"
            assert "server speaks 3" in reply["error"]
            conn.close()

    def test_old_v1_client_still_connects(self):
        # Protocol 2 added obs frames and trace contexts, but a v1
        # client's frames are a strict subset — the server must accept
        # it and echo the *client's* version back.
        with ServerThread() as server:
            conn = RawConn(server.port, handshake=False)
            reply = conn.hello(version=1)
            assert reply["type"] == "hello"
            assert reply["protocol"] == 1
            conn.send({"type": "run", "source": "6 * 7", "id": 1})
            assert conn.read()["value"] == "42"
            conn.close()

    def test_hello_reply_carries_clock_reading(self):
        with ServerThread() as server:
            conn = RawConn(server.port, handshake=False)
            reply = conn.hello()
            clock = reply["clock"]
            assert isinstance(clock["mono"], float)
            assert isinstance(clock["wall"], float)
            conn.close()

    def test_client_estimates_clock_offset(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                # Same process, same perf_counter: the estimate must be
                # within the handshake round-trip of zero.
                assert client.clock_offset is not None
                assert abs(client.clock_offset) < 1.0

    def test_first_frame_must_be_hello(self):
        with ServerThread() as server:
            conn = RawConn(server.port, handshake=False)
            conn.send({"type": "run", "source": "1"})
            reply = conn.read()
            assert reply["type"] == "error"
            assert "expected a hello frame" in reply["error"]
            conn.close()


class TestDispatch:
    def test_run_and_stat_round_trip(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.run("let x = 6 * 7")
                assert client.run("x")["value"] == "42"
                text = client.stat("sessions")["text"]
                assert "1 active" in text

    def test_language_errors_come_back_typed(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.run("1 + true")
                assert excinfo.value.kind == "TypeCheckError"
                # The connection survives a failed request.
                assert client.run("2")["value"] == "2"

    def test_bad_run_frame_is_an_error_not_a_hangup(self):
        with ServerThread() as server:
            conn = RawConn(server.port)
            conn.send({"type": "run", "source": 42, "id": 1})
            reply = conn.read()
            assert reply["type"] == "error"
            assert reply["id"] == 1
            conn.send({"type": "run", "source": "1", "id": 2})
            assert conn.read()["type"] == "result"
            conn.close()

    def test_unknown_frame_type_keeps_connection_open(self):
        with ServerThread() as server:
            conn = RawConn(server.port)
            conn.send({"type": "hello", "protocol": 1, "id": 5})
            reply = conn.read()
            assert reply["type"] == "error"
            assert "unknown message type" in reply["error"]
            assert reply["id"] == 5
            conn.send({"type": "run", "source": "3 * 3", "id": 6})
            assert conn.read()["value"] == "9"
            conn.close()

    def test_request_metrics_recorded(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.run("1")
                client.stat("health")
        assert REGISTRY.counter("server.requests").value >= 2
        histogram = REGISTRY.histogram("server.request.seconds")
        assert histogram.count >= 2


class TestTracingOverTheWire:
    def test_client_request_id_adopted_by_server(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                reply = client.run("1 + 1")
                assert reply["request_id"] == client.last_request_id
                assert reply["request_id"].startswith(client.session_id)

    def test_v1_run_frame_without_context_gets_minted_id(self):
        with ServerThread() as server:
            conn = RawConn(server.port, handshake=False)
            conn.hello(version=1)
            conn.send({"type": "run", "source": "1", "id": 1})
            reply = conn.read()
            assert reply["request_id"]  # server minted one
            conn.close()

    def test_obs_frame_round_trip(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.stat("trace", action="on")
                client.run("2 + 3")
                reply = client.obs("spans")
                client.stat("trace", action="off")
                assert reply["type"] == "obs"
                assert reply["what"] == "spans"
                request = reply["requests"][-1]
                assert request["request_id"] == client.last_request_id
                names = [s["name"] for s in request["spans"]]
                assert "lang.run" in names

    def test_traced_reply_carries_rendered_span_tree(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.stat("trace", action="on")
                reply = client.run("6 * 7")
                client.stat("trace", action="off")
                assert "lang.run" in reply["trace"]
                assert "  lang.parse" in reply["trace"]

    def test_remote_profile_report(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.stat("profile", action="on")
                client.run(
                    'rjoin(relation([{Dept = "Sales", N = 1}]),'
                    ' relation([{Dept = "Sales", M = 2}]))'
                )
                text = client.stat("profile", action="report")["text"]
                client.stat("profile", action="off")
                assert "relation.join" in text

    def test_remote_requests_wide_events(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.run("40 + 2")
                text = client.stat("requests")["text"]
                assert client.last_request_id in text
                assert "40 + 2" in text

    def test_bad_obs_kind_is_an_error_not_a_hangup(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                with pytest.raises(RemoteError):
                    client.obs("nonsense")
                assert client.run("1")["value"] == "1"


class TestProtocolAbuse:
    def test_oversized_frame_refused_and_hung_up(self):
        with ServerThread() as server:
            conn = RawConn(server.port)
            conn.send_raw(struct.pack(">I", protocol.MAX_FRAME + 1))
            reply = conn.read()
            assert reply["type"] == "error"
            assert "exceeds" in reply["error"]
            assert conn.read() is None  # server hung up
            conn.close()

    def test_truncated_frame_leaves_server_alive(self):
        with ServerThread() as server:
            conn = RawConn(server.port)
            conn.send_raw(struct.pack(">I", 100) + b'{"type":')
            conn.close()  # vanish mid-frame
            # The server shrugs it off and keeps serving.
            with Client(server.host, server.port) as client:
                assert client.run("1 + 1")["value"] == "2"

    def test_garbage_payload_answered_with_error(self):
        with ServerThread() as server:
            conn = RawConn(server.port)
            conn.send_raw(struct.pack(">I", 4) + b"{{{{")
            reply = conn.read()
            assert reply["type"] == "error"
            assert "JSON" in reply["error"]
            conn.close()

    def test_client_disconnect_mid_query_leaves_others_working(self):
        with ServerThread(session_factory=SlowSession) as server:
            victim = RawConn(server.port)
            victim.send({"type": "run", "source": "1 + 1", "id": 1})
            victim.close()  # gone before the reply exists
            with Client(server.host, server.port) as client:
                assert client.run("20 + 1")["value"] == "21"
        assert REGISTRY.counter("server.connections.lost").value >= 0


class TestIsolationOverTheWire:
    def test_private_bindings_shared_extents(self, tmp_path):
        store = str(tmp_path / "shared.log")
        with ServerThread(store=store) as server:
            with Client(server.host, server.port) as first, Client(
                server.host, server.port
            ) as second:
                assert first.session_id != second.session_id
                first.run("let secret = 41")
                first.run('extern("vault", dynamic secret);')
                with pytest.raises(RemoteError) as excinfo:
                    second.run("secret")
                assert "unbound variable" in str(excinfo.value)
                reply = second.run('coerce intern("vault") to Int + 1')
                assert reply["value"] == "42"

    def test_memory_extents_shared_without_a_store(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as first, Client(
                server.host, server.port
            ) as second:
                first.run('extern("m", dynamic [1, 2, 3]);')
                reply = second.run(
                    'sum(coerce intern("m") to List[Int])'
                )
                assert reply["value"] == "6"


class TestFailedRunsOverTheWire:
    def test_a_failed_check_binds_nothing(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.run('let a = "s";')
                for source in ('let a = 1; a + "x"', "a * 3", "a + 1"):
                    with pytest.raises(RemoteError) as excinfo:
                        client.run(source)
                    assert excinfo.value.kind == "TypeCheckError"
                assert client.run("a")["value"] == '"s"'

    def test_a_failed_evaluation_binds_only_what_ran(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.run("let r = 1; let s = head([]);")
                assert excinfo.value.kind == "EvalError"
                with pytest.raises(RemoteError) as excinfo:
                    client.run("s")
                assert excinfo.value.kind == "TypeCheckError"
                assert client.run("r")["value"] == "1"

    def test_a_superscript_digit_is_a_lex_error(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.run("1²")
                assert excinfo.value.kind == "LexError"
                assert "unexpected character '²'" in str(excinfo.value)


class TestAdmission:
    def test_connection_limit_bounces_with_busy(self):
        with ServerThread(limit=1, queue_limit=0) as server:
            first = Client(server.host, server.port)
            with pytest.raises(RemoteError) as excinfo:
                Client(server.host, server.port)
            assert excinfo.value.kind == "busy"
            assert "connection limit" in str(excinfo.value)
            first.close()
        assert REGISTRY.counter("server.connections.rejected").value == 1

    def test_queued_connection_gets_the_freed_slot(self):
        with ServerThread(limit=1, queue_limit=1) as server:
            first = Client(server.host, server.port)
            admitted = {}

            def wait_for_slot():
                with Client(server.host, server.port) as second:
                    admitted["session"] = second.session_id
                    admitted["value"] = second.run("5 * 5")["value"]

            waiter = threading.Thread(target=wait_for_slot)
            waiter.start()
            time.sleep(0.2)  # let the waiter reach the queue
            assert not admitted  # still parked, not rejected
            first.close()
            waiter.join(timeout=5.0)
            assert admitted["value"] == "25"
        assert REGISTRY.counter("server.connections.queued").value == 1

    def test_sessions_stat_counts_peers(self):
        with ServerThread(limit=4) as server:
            with Client(server.host, server.port) as first, Client(
                server.host, server.port
            ) as second:
                text = first.stat("sessions")["text"]
                assert "2 active / 4 limit" in text
                assert second.session_id in text


class TestIdleTimeout:
    def test_idle_session_gets_bye(self):
        with ServerThread(idle_timeout=0.2) as server:
            conn = RawConn(server.port)
            reply = conn.read()  # blocks until the server times us out
            assert reply == {"type": "bye", "reason": "idle"}
            conn.close()
        assert REGISTRY.counter("server.sessions.idle_closed").value == 1


class TestGracefulDrain:
    def test_in_flight_query_finishes_before_shutdown(self):
        server = ServerThread(session_factory=SlowSession).start()
        client = Client(server.host, server.port)
        finished = {}

        def slow_query():
            finished["reply"] = client.run("6 * 7")

        query = threading.Thread(target=slow_query)
        query.start()
        time.sleep(0.1)  # the run frame is in flight
        server.stop()  # drain: must deliver the result, then bye
        query.join(timeout=5.0)
        assert finished["reply"]["value"] == "42"
        # The connection was then closed by the shutdown bye.
        with pytest.raises(SessionClosedError, match="bye"):
            client.run("1")
        assert REGISTRY.counter("server.shutdown.drained").value >= 1

    def test_idle_connections_get_shutdown_bye(self):
        server = ServerThread().start()
        conn = RawConn(server.port)
        server.stop()
        assert conn.read() == {"type": "bye", "reason": "shutdown"}
        conn.close()

    def test_new_connections_refused_while_draining(self):
        server = ServerThread().start()
        server.stop()
        with pytest.raises((ConnectionError, OSError)):
            Client(server.host, server.port)


class TestHealthOverTheWire:
    def test_bad_slow_threshold_is_a_typed_error(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.stat("slow", action="threshold", threshold=5)
                for bad in ("abc", "nan", "inf", -1):
                    with pytest.raises(RemoteError) as info:
                        client.stat(
                            "slow", action="threshold", threshold=bad
                        )
                    assert info.value.kind == "EvalError"
                # The log stayed on with its old threshold.
                reply = client.stat("slow", action="on")["text"]
                assert reply == "slow-query log on (threshold 5.0ms)"

    def test_health_stat_includes_session_probe(self):
        with ServerThread(limit=2) as server:
            with Client(server.host, server.port) as client:
                text = client.stat("health")["text"]
                assert "server.sessions" in text
                assert "1 of 2 session(s) active" in text

    def test_metrics_stat_parses_as_openmetrics(self):
        from repro.obs.monitor import parse_openmetrics

        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.run("1")
                parsed = parse_openmetrics(client.stat("metrics")["text"])
                assert parsed["eof"]
                assert any(
                    name.startswith("server_requests")
                    for name in parsed["counters"]
                )

    def test_slow_row_is_the_requests_row(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.stat("slow", action="threshold", threshold=0)
                for mode in ("eval", "type", "ast"):
                    client.run("40 + 2", mode=mode)
                (event,) = client.obs("requests", count=1)["requests"]
                slow = client.stat("slow", count=1)["text"].splitlines()
                requests = client.stat("requests", count=1)["text"]
                client.stat("slow", action="off")
        assert event["request_id"] == client.last_request_id
        assert (event["mode"], event["slow"]) == ("ast", True)
        # One record: the same id and the same elapsed_ms in both rings.
        assert slow[-1] == requests.splitlines()[-1]
        assert slow[-1].startswith(event["request_id"])
        assert "%.3f" % event["elapsed_ms"] in slow[-1]


# Every stat and obs argument that sizes a table or slice, by kind.
COUNT_ARGUMENTS = [
    ("stat", "slow", "count"),
    ("stat", "events", "count"),
    ("stat", "profile", "top"),
    ("stat", "requests", "count"),
    ("obs", "spans", "count"),
    ("obs", "profile", "top"),
    ("obs", "journal", "count"),
    ("obs", "requests", "count"),
]


class TestMalformedCountsOverTheWire:
    @pytest.mark.parametrize(
        "frame, kind, argument",
        COUNT_ARGUMENTS,
        ids=["%s-%s" % (frame, kind) for frame, kind, __ in COUNT_ARGUMENTS],
    )
    def test_malformed_count_is_a_client_error(self, frame, kind, argument):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                request = getattr(client, frame)
                for bad in ("abc", None, [3]):
                    with pytest.raises(RemoteError) as info:
                        request(kind, **{argument: bad})
                    assert info.value.kind == "EvalError"
                    assert str(info.value).startswith(
                        "%s must be a whole number" % argument
                    )
                assert request(kind, **{argument: "2"})["type"] == frame
                assert client.run("1")["value"] == "1"

    @pytest.mark.parametrize(
        "bad", ["abc", "NaN", float("nan"), "inf", 10 ** 400, 0, -1.5, None]
    )
    def test_malformed_watch_horizon_is_a_client_error(self, bad):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                with pytest.raises(RemoteError) as info:
                    client.stat("watch", horizon=bad)
                assert info.value.kind == "EvalError"
                assert str(info.value).startswith(
                    "horizon must be a finite number of seconds above 0"
                )
                reply = client.stat("watch", horizon="2")
                assert reply["text"].startswith("monitor: ")
                assert client.run("1")["value"] == "1"
