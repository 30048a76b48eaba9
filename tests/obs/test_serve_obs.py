"""The serving observability surface: query ids, /metrics, request logs."""

import contextlib
import io
import json
import re
import threading
import urllib.request

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.api.serve import configure_request_logging, make_server
from repro.core.conventions import SQL_CONVENTIONS

QUERY = "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 15]}"


def _make(options=EvalOptions(backend="planner"), **serve_kwargs):
    db = repro.Database()
    db.create("R", ("A", "B"), [(1, 10), (2, 20), (3, 30)])
    session = Session(db, SQL_CONVENTIONS, options=options)
    return make_server(session, **serve_kwargs)


@pytest.fixture
def server():
    with _serving(_make()) as srv:
        yield srv


@contextlib.contextmanager
def _serving(srv):
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


@pytest.fixture
def logged_server():
    """A --log-json server whose log lines land in an in-memory buffer."""
    srv = _make(log_json=True)
    buffer = io.StringIO()
    configure_request_logging(stream=buffer)
    try:
        with _serving(srv):
            yield srv, buffer
    finally:
        configure_request_logging()  # drop the buffer handler


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as resp:
        return resp.status, resp.read().decode("utf-8"), dict(resp.headers)


def _post(server, body):
    request = urllib.request.Request(
        server.url + "/query",
        json.dumps(body).encode("utf-8"),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, resp.read(), dict(resp.headers)


class TestQueryIds:
    def test_every_post_carries_a_fresh_query_id(self, server):
        _, _, headers1 = _post(server, {"query": QUERY})
        _, _, headers2 = _post(server, {"query": QUERY})
        id1 = headers1["X-Arc-Query-Id"]
        id2 = headers2["X-Arc-Query-Id"]
        assert re.fullmatch(r"[0-9a-f]{16}", id1)
        assert re.fullmatch(r"[0-9a-f]{16}", id2)
        assert id1 != id2

    def test_error_responses_carry_the_query_id_too(self, server):
        request = urllib.request.Request(
            server.url + "/query", b"{not json",
            {"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert re.fullmatch(
            r"[0-9a-f]{16}", excinfo.value.headers["X-Arc-Query-Id"]
        )

    def test_response_bodies_stay_byte_identical(self, server):
        """The id rides headers only — repeat POSTs stay cacheable."""
        _, body1, _ = _post(server, {"query": QUERY})
        _, body2, _ = _post(server, {"query": QUERY})
        assert body1 == body2


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[0-9.+\-eE]+|\+Inf|NaN)$"
)


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_text(self, server):
        _post(server, {"query": QUERY})
        _post(server, {"query": QUERY})
        status, text, headers = _get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        assert headers["Cache-Control"] == "no-store"
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            assert _SAMPLE.match(line), f"unparseable sample line: {line!r}"

    def test_phase_histograms_and_request_counters_export(self, server):
        _post(server, {"query": QUERY})
        _post(server, {"query": QUERY})
        _, text, _ = _get(server, "/metrics")
        assert '# TYPE arc_phase_seconds histogram' in text
        assert 'arc_phase_seconds_bucket{le="+Inf",phase="query"} 2' in text
        assert 'arc_phase_seconds_count{phase="query"} 2' in text
        assert 'arc_backend_seconds_count{backend="planner"} 2' in text
        assert 'arc_prepared_lru_total{result="hit"} 1' in text
        assert 'arc_prepared_lru_total{result="miss"} 1' in text
        assert 'arc_stats_total{counter="rows_enumerated"}' in text
        assert re.search(r"^arc_requests_total \d+$", text, re.MULTILINE)
        assert re.search(r"^arc_uptime_seconds \d", text, re.MULTILINE)

    def test_session_without_a_backend_feeds_the_backend_histogram(self):
        # EvalOptions() resolves to the planner and dispatches like any
        # named backend, so its queries reach arc_backend_seconds too.
        with _serving(_make(options=EvalOptions())) as srv:
            _post(srv, {"query": QUERY})
            _post(srv, {"query": QUERY})
            _, text, _ = _get(srv, "/metrics")
        assert 'arc_backend_seconds_count{backend="planner"} 2' in text

    def test_histogram_buckets_are_monotone(self, server):
        _post(server, {"query": QUERY})
        _, text, _ = _get(server, "/metrics")
        series = {}
        for line in text.splitlines():
            match = _SAMPLE.match(line)
            if match and match["name"].endswith("_bucket"):
                key = (match["name"], re.sub(r'le="[^"]*",?', "", match["labels"]))
                series.setdefault(key, []).append(float(match["value"]))
        assert series
        for counts in series.values():
            assert counts == sorted(counts)


class TestStatsEndpoint:
    def test_stats_carries_uptime_requests_and_latency(self, server):
        _post(server, {"query": QUERY})
        status, text, headers = _get(server, "/stats")
        assert status == 200
        assert headers["Cache-Control"] == "no-store"
        stats = json.loads(text)
        assert stats["requests_total"] >= 1
        assert stats["uptime_s"] >= 0
        assert "query" in stats["latency"]["arc_phase_seconds"]
        phase = stats["latency"]["arc_phase_seconds"]["query"]
        assert phase["count"] >= 1 and phase["p50_ms"] is not None


class TestRequestLogging:
    def test_json_lines_one_per_request_with_status_and_elapsed(
        self, logged_server
    ):
        server, buffer = logged_server
        _, _, headers = _post(server, {"query": QUERY})
        _get(server, "/stats")
        lines = [l for l in buffer.getvalue().splitlines() if l]
        assert len(lines) == 2
        post, get = (json.loads(line) for line in lines)
        assert post["method"] == "POST" and post["path"] == "/query"
        assert post["status"] == 200
        assert post["elapsed_ms"] > 0
        assert post["query_id"] == headers["X-Arc-Query-Id"]
        assert get["method"] == "GET" and get["path"] == "/stats"
        assert get["query_id"] is None  # GETs run no query

    def test_text_mode_logs_one_line_per_request(self):
        srv = _make(log_requests=True)
        buffer = io.StringIO()
        configure_request_logging(stream=buffer)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            _post(srv, {"query": QUERY})
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)
            configure_request_logging()
        (line,) = [l for l in buffer.getvalue().splitlines() if l]
        assert re.fullmatch(
            r"POST /query 200 \d+\.\d{3}ms qid=[0-9a-f]{16}", line
        )

    def test_quiet_default_emits_no_log_lines(self, server):
        buffer = io.StringIO()
        configure_request_logging(stream=buffer)
        try:
            _post(server, {"query": QUERY})
        finally:
            configure_request_logging()
        assert buffer.getvalue() == ""
