"""The event-loop HTTP transport under hostile and keep-alive clients.

``repro.serve`` and ``repro.obs.start_metrics_endpoint`` frame HTTP
themselves (``repro.obs.transport``). Pinned here, over raw sockets
where a well-behaved client library would refuse to send the request:

* every framing error answers 400 with an ``ErrorResponse`` and closes
  the connection, and the server keeps answering ``/healthz``;
* a request that stalls is dropped after the read timeout;
* an unexpected exception answers 500, is counted, and is survived;
* HTTP/1.1 keep-alive serves several requests on one connection, while
  ``Connection: close`` and HTTP/1.0 close after one;
* a fuzz of ``/evaluate`` bodies only ever answers 200, 400 or 422;
* one ``serve.<route>`` span per POST, plus the ``serve.parse`` and
  ``serve.encode`` stage timings.
"""

import http.client
import io
import json
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import start_metrics_endpoint, transport
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeClient, start_server

BASE = {"n_transistors": 1e7, "feature_um": 0.18, "sd": 300.0,
        "n_wafers": 5_000.0, "yield_fraction": 0.4, "cost_per_cm2": 8.0}
EVALUATE = json.dumps({"scenario": BASE}).encode()


@pytest.fixture(scope="module")
def server():
    with start_server(registry=MetricsRegistry()) as handle:
        yield handle


def _raw(port: int, data: bytes, timeout: float = 10.0):
    """Send ``data`` on a fresh socket; return (response, closed after)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(data)
        reply = http.client.HTTPResponse(sock)
        reply.begin()
        body = reply.read()
        try:
            closed = sock.recv(1) == b""
        except socket.timeout:
            closed = False
        return reply, body, closed


class _Replay(io.BytesIO):
    """Received bytes, replayed to one ``HTTPResponse`` after another.

    Each response reads through ``makefile`` and closes it when done;
    sharing one buffer that ignores the close keeps the bytes of the
    next response.
    """

    def makefile(self, mode):
        return self

    def close(self) -> None:
        pass


def _exchange(port: int, data: bytes) -> list:
    """Send ``data`` (ending in a ``Connection: close`` request) on one
    socket; return ``(status, body)`` per response, in order."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        received = b"".join(iter(lambda: sock.recv(65536), b""))
    replay = _Replay(received)
    replies = []
    while replay.tell() < len(received):
        reply = http.client.HTTPResponse(replay)
        reply.begin()
        replies.append((reply.status, reply.read()))
    return replies


def _healthy(handle) -> bool:
    return ServeClient(handle.url).healthz()["status"] == "ok"


def _post_head(length: str) -> bytes:
    return (f"POST /evaluate HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n").encode()


class TestFramingErrors:
    @pytest.mark.parametrize("raw, code, words", [
        (_post_head("abc") + b"{}", "DomainError", "Content-Length"),
        (_post_head("-1"), "DomainError", "Content-Length"),
        (b"POST /evaluate HTTP/1.1\r\nContent-Length: 2\r\n"
         b"Content-Length: 3\r\n\r\n{}", "DomainError", "repeated"),
        (b"GARBAGE\r\n\r\n", "DomainError", "request line"),
        (b"GET /healthz HTTP/2.0\r\n\r\n", "DomainError", "version"),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", "DomainError",
         "header line"),
        (b"POST /evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
         "DomainError", "Transfer-Encoding"),
        (b"GET /healthz HTTP/1.1\r\nX: " + b"a" * (transport.MAX_HEADER_BYTES
                                                 + 1) + b"\r\n\r\n",
         "DomainError", "header block"),
        (_post_head(str(transport.MAX_BODY_BYTES + 1)), "ExecutionError",
         "too large"),
    ])
    def test_answers_400_and_closes(self, server, raw, code, words):
        reply, body, closed = _raw(server.port, raw)
        assert reply.status == 400
        error = json.loads(body)
        assert error["code"] == code
        assert words in error["message"]
        assert closed
        assert _healthy(server)

    def test_non_utf8_body_is_400_and_keeps_the_connection(self, server):
        (status, body), (next_status, next_body) = _exchange(
            server.port, _post_head("2") + b"\xff\xfe"
            + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        error = json.loads(body)
        assert status == 400
        assert error["code"] == "DomainError"
        assert "UTF-8" in error["message"]
        assert next_status == 200
        assert json.loads(next_body)["status"] == "ok"

    def test_metrics_endpoint_answers_framing_errors_too(self):
        with start_metrics_endpoint() as endpoint:
            reply, body, closed = _raw(endpoint.port, b"GARBAGE\r\n\r\n")
            assert reply.status == 400
            assert body.startswith(b"DomainError: malformed request line")
            assert closed
            reply, _, _ = _raw(endpoint.port,
                               b"GET /healthz HTTP/1.0\r\n\r\n")
            assert reply.status == 200


class TestReadTimeout:
    @pytest.mark.parametrize("raw", [
        _post_head("10") + b"{}",           # body shorter than its length
        b"POST /evaluate HTTP/1.1\r\nHost",  # headers never finish
        b"",                                 # connects, never sends
    ])
    def test_stalled_request_is_closed(self, monkeypatch, raw):
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.3)
        with start_server() as handle:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=10) as sock:
                sock.sendall(raw)
                began = time.monotonic()
                assert sock.recv(1024) == b""
                assert time.monotonic() - began < 5.0
            assert _healthy(handle)

    def test_idle_keep_alive_connection_is_closed(self, monkeypatch):
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.3)
        with start_server() as handle:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                reply = http.client.HTTPResponse(sock)
                reply.begin()
                reply.read()
                assert reply.status == 200
                assert sock.recv(1) == b""


class TestUnexpectedError:
    def test_500_is_answered_counted_and_survived(self, monkeypatch):
        def broken(request):
            raise RuntimeError("boom")

        obs.reset()
        with obs.enabled(), start_server() as handle:
            monkeypatch.setattr(handle.service, "sweep", broken)
            body = json.dumps({"scenario": BASE}).encode()
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=10)
            conn.request("POST", "/sweep", body)
            reply = conn.getresponse()
            error = json.loads(reply.read())
            assert reply.status == 500
            assert error == {"code": "RuntimeError", "message": "boom",
                             "diagnostics": [], "retry_after_s": None}
            # Same connection, still served.
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
            assert _healthy(handle)
        counters = {key: c.value
                    for key, c in obs.get_registry().counters.items()}
        assert counters[
            'serve_requests_total{route="sweep",status="500"}'] == 1


class TestKeepAlive:
    def test_two_requests_on_one_connection(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        conn.request("POST", "/evaluate", EVALUATE)
        first = conn.getresponse()
        first_body = first.read()
        sock = conn.sock
        conn.request("POST", "/evaluate", EVALUATE)
        second = conn.getresponse()
        assert conn.sock is sock  # no reconnect in between
        assert (first.status, second.status) == (200, 200)
        assert second.read() == first_body
        assert not second.will_close
        conn.close()

    def test_pipelined_requests_answer_in_order(self, server):
        replies = _exchange(
            server.port,
            b"POST /evaluate HTTP/1.1\r\nContent-Length: "
            + str(len(EVALUATE)).encode() + b"\r\n\r\n" + EVALUATE
            + b"GET /nope HTTP/1.1\r\n\r\n"
            + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert [status for status, _ in replies] == [200, 404, 200]

    def test_connection_close_is_honoured(self, server):
        reply, body, closed = _raw(
            server.port,
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert reply.status == 200
        assert reply.getheader("Connection") == "close"
        assert closed

    def test_http_1_0_closes(self, server):
        reply, body, closed = _raw(server.port,
                                   b"GET /healthz HTTP/1.0\r\n\r\n")
        assert reply.status == 200
        assert json.loads(body)["status"] == "ok"
        assert closed


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)
FIELDS = ["n_transistors", "feature_um", "sd", "n_wafers", "yield_fraction",
          "cost_per_cm2", "label"]
NUMBERS = st.floats() | st.integers() | st.sampled_from(
    [0, -1, 1e-300, 1e300, 10 ** 400, 0.05, 1.0])
SCENARIOS = st.fixed_dictionaries(
    {"n_transistors": NUMBERS, "feature_um": NUMBERS},
    optional={name: NUMBERS | JSON for name in FIELDS[2:]})
BODIES = st.one_of(
    JSON,
    st.fixed_dictionaries({"scenario": SCENARIOS | JSON},
                          optional={"policy": st.sampled_from(
                              ["raise", "mask", "collect", "RAISE", "x"])}),
    st.fixed_dictionaries({"scenarios": st.lists(SCENARIOS | JSON,
                                                 max_size=3)},
                          optional={"policy": st.sampled_from(
                              ["raise", "mask", "collect"])}),
)


class TestFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(BODIES)
    def test_evaluate_answers_only_200_400_or_422(self, server, body):
        raw = json.dumps(body).encode()
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/evaluate", raw)
            reply = conn.getresponse()
            payload = json.loads(reply.read())
        finally:
            conn.close()
        assert reply.status in (200, 400, 422), payload
        if reply.status != 200:
            assert set(payload) == {"code", "message", "diagnostics",
                                    "retry_after_s"}


class TestStages:
    def test_one_span_per_post_and_stage_timings(self):
        obs.reset()
        with obs.enabled(), start_server() as handle:
            client = ServeClient(handle.url)
            client.evaluate(BASE)
            client.evaluate(BASE)
            client.evaluate_many([BASE], policy="mask")
            client.sweep(BASE, values=[150.0, 300.0])
            metrics = client.metrics()
        names = [sp.name for sp in obs.get_tracer().spans
                 if sp.name.startswith("serve.")]
        assert sorted(names) == ["serve.evaluate"] * 3 + ["serve.sweep"]
        registry = obs.get_registry()
        assert registry.sketch("serve.parse").count == 4
        assert registry.sketch("serve.encode").count == 4
        for stage in ("parse", "encode"):
            assert f'span="serve.{stage}"' in metrics
