"""The ``repro serve`` HTTP endpoint: warm sessions over the wire."""

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.api.serve import make_server
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
