"""HTTP-level tests of the concurrent server: coalescing, scaling out,
admission control, multi-catalog serving, drain, and the pool surfaces.

These drive the real ``QueryServer`` over real sockets with real
threads — the properties pinned here (exactly-one execution under
coalescing, ≥2 workers under concurrent load, typed 429, a queued request
completing during shutdown) are the acceptance criteria of the
concurrent-serving subsystem.
"""

import http.client
import json
import threading
import time

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.api.serve import QueryServer
from repro.backends.exec import reset_breakers, sqlite_exec
from repro.core.conventions import SET_CONVENTIONS

SIMPLE = "{Q(x) | ∃p ∈ P[Q.x = p.x]}"
#: Diverging recursion — only a deadline stops it (keeps a worker busy
#: for exactly its ``timeout_ms``).
RUNAWAY = "{T(x) | ∃p ∈ P[T.x = p.x] ∨ ∃t ∈ T[T.x = t.x + 1]}"


@pytest.fixture(autouse=True)
def clean_state():
    reset_breakers()
    sqlite_exec.clear_catalog_cache()
    yield
    reset_breakers()


def _db(rows=((1,),)):
    db = repro.Database()
    db.create("P", ("x",), list(rows))
    return db


def _serve(**kwargs):
    session = Session(_db(), SET_CONVENTIONS, options=EvalOptions())
    server = QueryServer(("127.0.0.1", 0), session, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _post(server, body, timeout=30):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST", "/query", json.dumps(body).encode(),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read(), dict(response.headers)
    finally:
        conn.close()


def _get(server, path):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _occupy_worker(server):
    """Block the (single) worker on an Event; returns (event, future)."""
    release = threading.Event()
    future = server.pool.submit(lambda worker: release.wait(30))
    deadline = time.monotonic() + 5
    while server.pool.busy < 1 and time.monotonic() < deadline:
        time.sleep(0.002)
    assert server.pool.busy == 1
    return release, future


def _wait_until(predicate, timeout=5):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestCoalescing:
    def test_n_inflight_identical_posts_execute_once(self):
        """Six concurrent identical POSTs → one execution, six
        byte-identical bodies, five X-Arc-Coalesced responses."""
        server, thread = _serve(workers=1, queue_depth=8)
        try:
            release, blocker = _occupy_worker(server)
            results = []
            lock = threading.Lock()

            def fire():
                result = _post(server, {"query": SIMPLE})
                with lock:
                    results.append(result)

            posters = [threading.Thread(target=fire) for _ in range(6)]
            for poster in posters:
                poster.start()
            # All six must be in flight (1 leader + 5 followers) before
            # the worker frees up — that is what makes them coalesce.
            assert _wait_until(
                lambda: server.coalescer.coalesced_total >= 5
            ), server.coalescer
            release.set()
            blocker.wait(10)
            for poster in posters:
                poster.join(timeout=10)
            assert len(results) == 6
            statuses = [status for status, _, _ in results]
            assert statuses == [200] * 6
            bodies = {body for _, body, _ in results}
            assert len(bodies) == 1  # byte-identical fan-out
            coalesced = [
                headers.get("X-Arc-Coalesced") for _, _, headers in results
            ]
            assert coalesced.count("1") == 5
            # Exactly one backend execution happened.
            assert server.queries_executed == 1
            assert server.coalescer.coalesced_total == 5
            # Each response still carries its own query id.
            ids = {headers["X-Arc-Query-Id"] for _, _, headers in results}
            assert len(ids) == 6
        finally:
            _stop(server, thread)

    def test_sequential_identical_posts_do_not_coalesce(self):
        server, thread = _serve(workers=1)
        try:
            first = _post(server, {"query": SIMPLE})
            second = _post(server, {"query": SIMPLE})
            assert first[0] == second[0] == 200
            assert first[1] == second[1]
            assert "X-Arc-Coalesced" not in first[2]
            assert "X-Arc-Coalesced" not in second[2]
            assert server.queries_executed == 2
            assert server.coalescer.coalesced_total == 0
        finally:
            _stop(server, thread)

    def test_different_budgets_never_share_an_execution(self):
        """The coalesce key includes the budget: a request with its own
        timeout must not receive another budget's answer."""
        server, thread = _serve(workers=2, queue_depth=8)
        try:
            results = []
            lock = threading.Lock()

            def fire(body):
                result = _post(server, body)
                with lock:
                    results.append(result)

            posters = [
                threading.Thread(
                    target=fire, args=({"query": RUNAWAY, "timeout_ms": 200},)
                ),
                threading.Thread(
                    target=fire, args=({"query": RUNAWAY, "timeout_ms": 400},)
                ),
            ]
            for poster in posters:
                poster.start()
            for poster in posters:
                poster.join(timeout=15)
            assert [status for status, _, _ in results] == [408, 408]
            assert server.coalescer.coalesced_total == 0
        finally:
            _stop(server, thread)


class TestWorkerScaling:
    def test_distinct_concurrent_posts_exercise_multiple_workers(self):
        server, thread = _serve(workers=3, queue_depth=16)
        try:
            results = []
            lock = threading.Lock()

            def fire(index):
                # Distinct query texts (padding) defeat coalescing and the
                # prepared LRU; the deadline keeps each worker busy long
                # enough that the pool must fan out.
                body = {
                    "query": RUNAWAY + " " * index,
                    "timeout_ms": 200,
                }
                result = _post(server, body)
                with lock:
                    results.append(result)

            posters = [
                threading.Thread(target=fire, args=(index,))
                for index in range(6)
            ]
            for poster in posters:
                poster.start()
            for poster in posters:
                poster.join(timeout=30)
            assert len(results) == 6
            assert all(status == 408 for status, _, _ in results)
            workers = {headers["X-Arc-Worker"] for _, _, headers in results}
            assert len(workers) >= 2, f"all jobs ran on worker(s) {workers}"
        finally:
            _stop(server, thread)


class TestAdmissionControl:
    def test_full_queue_returns_typed_429_with_retry_after(self):
        server, thread = _serve(workers=1, queue_depth=1)
        try:
            release, blocker = _occupy_worker(server)
            queued_result = {}

            def queued_post():
                queued_result["response"] = _post(server, {"query": SIMPLE})

            poster = threading.Thread(target=queued_post)
            poster.start()
            assert _wait_until(lambda: server.pool.depth() == 1)
            # Worker busy + queue full: the next distinct request bounces.
            status, body, headers = _post(
                server, {"query": SIMPLE + " "}, timeout=10
            )
            assert status == 429
            refusal = json.loads(body)
            assert refusal["error_type"] == "AdmissionError"
            assert "queue is full" in refusal["error"]
            assert headers["Retry-After"] == "1"
            # The refused request executed nothing; the queued one still
            # completes once the worker frees up.
            release.set()
            blocker.wait(10)
            poster.join(timeout=10)
            assert queued_result["response"][0] == 200
            assert server.queries_executed == 1
        finally:
            _stop(server, thread)


class TestMultiCatalog:
    def test_catalog_field_selects_the_named_catalog(self):
        session = Session(_db([(1,)]), SET_CONVENTIONS, options=EvalOptions())
        server = QueryServer(
            ("127.0.0.1", 0), session, workers=2, catalogs={"alt": _db([(5,), (6,)])}
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body, _ = _post(server, {"query": SIMPLE})
            assert status == 200 and json.loads(body)["rows"] == [[1]]
            status, body, _ = _post(
                server, {"query": SIMPLE, "catalog": "alt"}
            )
            assert status == 200 and json.loads(body)["rows"] == [[5], [6]]
            # Explicitly naming the default catalog coalesces with omitting
            # it: byte-identical and served warm by the same session.
            status, body, _ = _post(
                server, {"query": SIMPLE, "catalog": "default"}
            )
            assert status == 200 and json.loads(body)["rows"] == [[1]]
        finally:
            _stop(server, thread)

    def test_unknown_catalog_is_a_400(self):
        server, thread = _serve(workers=1)
        try:
            status, body, _ = _post(
                server, {"query": SIMPLE, "catalog": "nope"}
            )
            assert status == 400
            payload = json.loads(body)
            assert "unknown catalog" in payload["error"]
            assert payload["error_type"] == "BadRequest"
        finally:
            _stop(server, thread)

    def test_healthz_lists_catalogs(self):
        session = Session(_db(), SET_CONVENTIONS, options=EvalOptions())
        server = QueryServer(("127.0.0.1", 0), session, catalogs={"alt": _db([(9,)])})
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _get(server, "/healthz")
            assert status == 200
            assert json.loads(body)["catalogs"] == ["alt", "default"]
        finally:
            _stop(server, thread)


class TestDrain:
    def test_queued_request_completes_during_shutdown(self):
        """Drain = stop accepting, finish queued + in-flight, then close:
        a request sitting in the queue when SIGTERM-style drain begins
        still gets its 200."""
        server, thread = _serve(workers=1, queue_depth=8)
        release, blocker = _occupy_worker(server)
        queued_result = {}

        def queued_post():
            queued_result["response"] = _post(server, {"query": SIMPLE})

        poster = threading.Thread(target=queued_post)
        poster.start()
        assert _wait_until(lambda: server.pool.depth() == 1)
        drainer = threading.Thread(target=server.drain)
        drainer.start()
        assert _wait_until(lambda: server.pool.draining)
        # The worker is still busy and a request is still queued — now let
        # the drain race them to completion.
        release.set()
        blocker.wait(10)
        poster.join(timeout=10)
        drainer.join(timeout=10)
        assert not drainer.is_alive()
        status, body, _ = queued_result["response"]
        assert status == 200
        assert json.loads(body)["rows"] == [[1]]
        # serve_forever exited; close the socket for good.
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestPoolSurfaces:
    def test_stats_and_healthz_grow_pool_fields(self):
        server, thread = _serve(workers=2, queue_depth=4)
        try:
            _post(server, {"query": SIMPLE})
            status, body = _get(server, "/stats")
            assert status == 200
            stats = json.loads(body)
            pool = stats["pool"]
            assert pool["workers"] == 2
            assert pool["queue_capacity"] == 4
            assert pool["busy"] == 0
            assert pool["queue_depth"] == 0
            assert pool["coalesced_total"] == 0
            assert pool["queries_executed"] == 1
            assert sum(row["handled"] for row in pool["per_worker"]) >= 1
            status, body = _get(server, "/healthz")
            health = json.loads(body)
            assert health["workers"] == 2
            assert health["busy"] == 0
            assert health["queue_depth"] == 0
            assert health["coalesced_total"] == 0
            assert health["queue_saturated"] is False
        finally:
            _stop(server, thread)

    def test_healthz_degrades_when_the_queue_saturates(self):
        server, thread = _serve(workers=1, queue_depth=1)
        try:
            release, blocker = _occupy_worker(server)
            poster = threading.Thread(
                target=lambda: _post(server, {"query": SIMPLE})
            )
            poster.start()
            assert _wait_until(lambda: server.pool.depth() == 1)
            status, body = _get(server, "/healthz")
            assert status == 503
            health = json.loads(body)
            assert health["status"] == "degraded"
            assert health["queue_saturated"] is True
            assert health["degraded_backends"] == []  # no breaker is open
            release.set()
            blocker.wait(10)
            poster.join(timeout=10)
            assert _wait_until(
                lambda: _get(server, "/healthz")[0] == 200, timeout=5
            )
        finally:
            _stop(server, thread)

    def test_metrics_export_pool_gauges_and_worker_histograms(self):
        server, thread = _serve(workers=2, queue_depth=4)
        try:
            release, blocker = _occupy_worker(server)
            _post(server, {"query": SIMPLE})
            release.set()
            blocker.wait(10)
            status, body = _get(server, "/metrics")
            assert status == 200
            text = body.decode()
            assert "arc_pool_workers 2" in text
            assert "arc_pool_queue_capacity 4" in text
            assert "arc_pool_queue_depth 0" in text
            assert "arc_coalesced_total 0" in text
            assert "arc_worker_seconds_bucket" in text
            assert 'arc_worker_requests_total{worker="' in text
        finally:
            _stop(server, thread)

    def test_aggregated_stats_sum_across_worker_sessions(self):
        """Counters in /stats are summed over every worker's sessions, so
        multi-worker serving loses no observability."""
        server, thread = _serve(workers=2, queue_depth=8)
        try:
            results = []
            lock = threading.Lock()

            def fire(index):
                result = _post(
                    server,
                    {"query": RUNAWAY + " " * index, "timeout_ms": 150},
                )
                with lock:
                    results.append(result)

            posters = [
                threading.Thread(target=fire, args=(index,))
                for index in range(4)
            ]
            for poster in posters:
                poster.start()
            for poster in posters:
                poster.join(timeout=30)
            assert all(status == 408 for status, _, _ in results)
            stats = json.loads(_get(server, "/stats")[1])
            # Every timeout was recorded by *some* worker session; the
            # aggregate sees all of them.
            assert stats["timeouts"] == 4
        finally:
            _stop(server, thread)
