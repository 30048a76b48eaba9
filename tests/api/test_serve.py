"""The ``repro serve`` HTTP endpoint: warm sessions over the wire."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.api.serve import _Handler, make_server
from repro.core.conventions import SQL_CONVENTIONS

QUERY = "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 15]}"


@pytest.fixture
def server():
    db = repro.Database()
    db.create("R", ("A", "B"), [(1, 10), (2, 20), (3, 30)])
    session = Session(db, SQL_CONVENTIONS, options=EvalOptions(backend="sqlite"))
    srv = make_server(session)  # port 0: ephemeral
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as resp:
        return resp.status, json.load(resp)


def _post(server, body):
    request = urllib.request.Request(
        server.url + "/query",
        json.dumps(body).encode("utf-8"),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, resp.read(), dict(resp.headers)


class TestHealthz:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["relations"] == ["R"]
        assert body["backend"] == "sqlite"

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404
        assert json.load(excinfo.value)["error_type"] == "NotFound"


class TestQuery:
    def test_repeated_posts_return_identical_bodies_and_record_warmth(
        self, server
    ):
        status1, body1, headers1 = _post(server, {"query": QUERY})
        status2, body2, headers2 = _post(server, {"query": QUERY})
        assert status1 == status2 == 200
        assert body1 == body2  # timing rides headers, not the body
        payload = json.loads(body1)
        assert payload["kind"] == "relation"
        assert payload["columns"] == ["A"]
        assert payload["rows"] == [[2], [3]]
        assert payload["fallback"] == []
        # Warm-path accounting: the second request hits the prepared LRU
        # and its timing is recorded in the response headers.
        assert headers1["X-Arc-Warm"] == "0"
        assert headers2["X-Arc-Warm"] == "1"
        assert int(headers1["X-Arc-Elapsed-Us"]) > 0
        assert int(headers2["X-Arc-Elapsed-Us"]) > 0

    def test_truth_result(self, server):
        status, body, _ = _post(server, {"query": "∃r ∈ R[r.B > 15]"})
        assert status == 200
        assert json.loads(body) == {"fallback": [], "kind": "truth", "truth": "TRUE"}

    def test_sql_frontend_and_backend_override(self, server):
        status, body, _ = _post(
            server,
            {
                "query": "select R.A from R where R.B > 15",
                "frontend": "sql",
                "backend": "reference",
            },
        )
        assert status == 200
        assert json.loads(body)["rows"] == [[2], [3]]

    def test_null_maps_to_json_null(self, server):
        server.session.database["R"].add((4, repro.NULL))
        status, body, _ = _post(server, {"query": "{Q(A, B) | ∃r ∈ R[Q.A = r.A ∧ Q.B = r.B]}"})
        assert status == 200
        assert [4, None] in json.loads(body)["rows"]

    def test_fallback_reasons_surface_in_the_body(self, server):
        # NULL literal under a top-level quantifier: sqlite refuses, the
        # planner answers, and the body says why.
        status, body, _ = _post(server, {"query": "∃r ∈ R[r.B > null]"})
        assert status == 200
        payload = json.loads(body)
        assert payload["kind"] == "truth"
        assert payload["fallback"], payload

    def test_requests_counted_in_stats(self, server):
        _post(server, {"query": QUERY})
        status, stats = _get(server, "/stats")
        assert status == 200
        assert stats["requests"] >= 1
        assert "plans_compiled" in stats
        # The decorrelation counters (E27) ride the same stats payload.
        for counter in (
            "band_index_builds",
            "domain_join_compensations",
            "tribucket_probes",
        ):
            assert counter in stats

    def test_theta_lateral_counters_visible_in_stats(self, server):
        theta = (
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ R, γ ∅"
            "[s.A < r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        # Route to the planner: on sqlite the shape runs as a correlated
        # scalar subquery and never touches the band index.
        status, body, _ = _post(server, {"query": theta, "backend": "planner"})
        assert status == 200, body
        _, stats = _get(server, "/stats")
        assert stats["band_index_builds"] == 1
        assert stats["lateral_reevals"] == 0


class TestErrors:
    def _post_error(self, server, body, *, raw=None):
        data = raw if raw is not None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            server.url + "/query", data, {"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        return excinfo.value.code, json.load(excinfo.value)

    def test_malformed_json_is_400(self, server):
        code, body = self._post_error(server, None, raw=b"{not json")
        assert code == 400
        assert "JSON" in body["error"]
        assert body["error_type"] == "BadRequest"

    def test_missing_query_is_400(self, server):
        code, body = self._post_error(server, {"frontend": "arc"})
        assert code == 400
        assert body["error_type"] == "BadRequest"

    def test_unknown_frontend_is_400(self, server):
        code, body = self._post_error(server, {"query": QUERY, "frontend": "cobol"})
        assert code == 400
        assert "frontend" in body["error"]
        assert body["error_type"] == "BadRequest"

    def test_parse_error_is_400(self, server):
        code, body = self._post_error(server, {"query": "{broken"})
        assert code == 400
        assert "error" in body

    def test_non_string_backend_is_400(self, server):
        code, body = self._post_error(server, {"query": QUERY, "backend": 1})
        assert code == 400
        assert body == {
            "error": "backend must be a string",
            "error_type": "BadRequest",
        }

    def test_unknown_backend_is_400(self, server):
        code, body = self._post_error(
            server, {"query": QUERY, "backend": "duckdb"}
        )
        assert code == 400
        assert "unknown backend" in body["error"]

    def test_post_to_unknown_path_is_404(self, server):
        request = urllib.request.Request(
            server.url + "/other", b"{}", {"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404
        assert json.load(excinfo.value)["error_type"] == "NotFound"

    def test_error_responses_drain_the_body_on_keepalive(self, server):
        """An errored POST must still consume its request body; otherwise
        the next request on the same HTTP/1.1 connection reads garbage."""
        import http.client

        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = json.dumps({"query": QUERY}).encode("utf-8")
            conn.request("POST", "/other", body)  # 404 with an unread body
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            # Same connection: must parse cleanly and answer the query.
            conn.request("POST", "/query", body)
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["rows"] == [[2], [3]]
        finally:
            conn.close()

    def test_failed_first_run_does_not_mark_the_query_warm(self, server):
        # fallback=False + set-semantics would be one route; simpler: an
        # unknown backend errors before any run, so a later good request
        # for the same query is still cold.
        bad = {"query": "∃r ∈ R[r.A = 1]", "backend": "duckdb"}
        with pytest.raises(urllib.error.HTTPError):
            _post(server, bad)
        _, _, headers = _post(server, {"query": "∃r ∈ R[r.A = 1]"})
        assert headers["X-Arc-Warm"] == "0"


def _connection(server):
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=10)


def _round_trip(conn, method, path, body=None):
    """One request on *conn*: ``(seconds, response, body bytes)``."""
    start = time.perf_counter()
    conn.request(method, path, body)
    response = conn.getresponse()
    payload = response.read()
    return time.perf_counter() - start, response, payload


class TestKeepAlive:
    """Every response leaves in one write, so a keep-alive round trip costs
    the work, not a delayed ACK (~40 ms) waiting on a second segment."""

    def test_keepalive_round_trips_are_fast(self, server):
        body = json.dumps({"query": QUERY}).encode("utf-8")
        conn = _connection(server)
        try:
            for _ in range(5):
                _round_trip(conn, "POST", "/query", body)
            times = []
            for _ in range(20):
                seconds, response, payload = _round_trip(
                    conn, "POST", "/query", body
                )
                assert response.status == 200
                assert json.loads(payload)["rows"] == [[2], [3]]
                times.append(seconds)
            assert statistics.median(times) < 0.010, times
            # The stall hits every request, so the best of three shows it
            # while riding out a one-off scheduling hiccup.
            for method, path, data, status in (
                ("POST", "/nope", body, 404), ("GET", "/metrics", None, 200)
            ):
                times = []
                for _ in range(3):
                    seconds, response, _ = _round_trip(conn, method, path, data)
                    assert response.status == status
                    times.append(seconds)
                assert min(times) < 0.010, (path, times)
        finally:
            conn.close()

    def test_every_response_is_one_write(self, server, monkeypatch):
        writes = []

        class CountingWriter:
            def __init__(self, raw):
                self._raw = raw

            def write(self, data):
                writes.append(bytes(data))  # before the peer can see it
                return self._raw.write(data)

            def __getattr__(self, name):
                return getattr(self._raw, name)

        setup = _Handler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(_Handler, "setup", counting_setup)
        query = json.dumps({"query": QUERY}).encode("utf-8")
        requests = [
            ("POST", "/query", query, 200),
            ("POST", "/query", b"{not json", 400),
            ("POST", "/nope", query, 404),
            ("GET", "/healthz", None, 200),
            ("GET", "/stats", None, 200),
            ("GET", "/metrics", None, 200),
            ("PUT", "/query", None, 501),  # the stdlib's send_error
        ]
        conn = _connection(server)
        try:
            for method, path, body, status in requests:
                before = len(writes)
                _, response, payload = _round_trip(conn, method, path, body)
                assert response.status == status, (method, path)
                assert len(writes) == before + 1, (method, path, writes[before:])
                assert writes[-1].startswith(b"HTTP/1.1 %d " % status)
                assert writes[-1].endswith(b"\r\n\r\n" + payload)
        finally:
            conn.close()

    def test_get_with_a_body_keeps_the_connection_in_sync(self, server):
        """A GET's body is drained, not parsed as the next request line."""
        query = json.dumps({"query": QUERY}).encode("utf-8")
        conn = _connection(server)
        try:
            _, response, payload = _round_trip(
                conn, "GET", "/healthz", b'{"x": 1}'
            )
            assert response.status == 200, payload
            _, response, payload = _round_trip(conn, "POST", "/query", query)
            assert response.status == 200, payload
            assert json.loads(payload)["rows"] == [[2], [3]]
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "length, status", [("12x", 400), ("-1", 400), (str(2 << 20), 413)]
    )
    def test_get_with_an_undrainable_body_is_refused_and_closed(
        self, server, length, status
    ):
        conn = _connection(server)
        try:
            conn.putrequest("GET", "/healthz")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            payload = response.read()
        finally:
            conn.close()
        assert response.status == status, payload
        assert response.getheader("Connection") == "close"
        assert "error" in json.loads(payload)


class TestStdlibErrors:
    """Refusals raised inside the stdlib keep the JSON error contract."""

    def test_unsupported_method_is_json_501_without_a_stale_query_id(
        self, server
    ):
        conn = _connection(server)
        try:
            body = json.dumps({"query": QUERY}).encode("utf-8")
            _, response, _ = _round_trip(conn, "POST", "/query", body)
            assert response.getheader("X-Arc-Query-Id")
            _, response, payload = _round_trip(conn, "PUT", "/query", body)
        finally:
            conn.close()
        assert response.status == 501
        assert response.getheader("Content-Type").startswith(
            "application/json"
        )
        assert response.getheader("Connection") == "close"
        assert response.getheader("X-Arc-Query-Id") is None
        answer = json.loads(payload)
        assert answer["error_type"] == "NotImplemented"
        assert "PUT" in answer["error"]

    def test_oversized_uri_is_json_414(self, server):
        conn = _connection(server)
        try:
            _, response, payload = _round_trip(conn, "GET", "/" + "a" * 66000)
        finally:
            conn.close()
        assert response.status == 414
        assert response.getheader("Connection") == "close"
        assert json.loads(payload)["error_type"] == "RequestURITooLong"

    def _raw_reply(self, server, request):
        """Send *request* bytes on a fresh socket; read until the server
        closes it."""
        with socket.create_connection(
            server.server_address[:2], timeout=10
        ) as sock:
            sock.sendall(request)
            return sock.makefile("rb").read()

    def test_garbage_request_line_is_a_bare_json_400(self, server):
        # The stdlib cannot tell the version of a malformed request line,
        # so it answers in HTTP/0.9 framing: the body with no head.
        reply = self._raw_reply(server, b"garbage\r\n")
        assert json.loads(reply)["error_type"] == "BadRequest"

    def test_head_is_501_with_no_body(self, server):
        reply = self._raw_reply(server, b"HEAD /healthz HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 501 ")
        assert reply.endswith(b"\r\n\r\n")  # Content-Length, but no body
