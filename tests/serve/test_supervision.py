"""Self-healing pool acceptance tests: supervision, quarantine, hard cap.

The scenarios pinned here:

* a worker killed mid-job (``pool.worker`` failpoint) is respawned, the
  caller gets a typed 500 (``WorkerCrash``), ``workers_respawned``
  appears in ``/stats`` and ``arc_worker_respawns_total`` in
  ``/metrics``, and subsequent requests are answered;
* a request fingerprint that kills workers twice is quarantined: the
  third attempt answers a typed **422** (``PoisonQuery``) with
  ``Retry-After`` while unrelated queries keep succeeding;
* an unbounded recursive query with **no client deadline** answers 408
  within 2× the hard wall cap, on all three backends, because the cap is
  the run's Deadline;
* a coalescing leader that dies before publishing still resolves its
  followers with a typed 500 (publish-or-fail);
* execution counters survive a crash: the dead worker's totals move to
  the retired ledger, so ``/stats`` aggregates never go backwards.

CI's chaos matrix also runs this module under ``REPRO_FAILPOINTS``
(including ``pool.worker=...`` specs); every test arms its own
failpoints deterministically and restores the environment's arming on
exit, and one env-invariant test exercises whatever the matrix armed.
"""

import http.client
import json
import threading
import time

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.api.serve import make_server
from repro.backends.exec import reset_breakers, sqlite_exec
from repro.core.conventions import SET_CONVENTIONS, SQL_CONVENTIONS
from repro.errors import PoisonQuery, WorkerCrash
from repro.serve import Quarantine, SessionFactory, WorkerPool, poison_fingerprint
from repro.util import failpoints

SIMPLE = "{Q(x) | ∃p ∈ P[Q.x = p.x]}"
#: Diverging recursion — nothing but a deadline stops it.
RUNAWAY = "{T(x) | ∃p ∈ P[T.x = p.x] ∨ ∃t ∈ T[T.x = t.x + 1]}"


@pytest.fixture(autouse=True)
def clean_state():
    failpoints.reset()
    reset_breakers()
    sqlite_exec.clear_catalog_cache()
    yield
    failpoints.reset()
    reset_breakers()
    # Restore whatever REPRO_FAILPOINTS armed: the CI chaos matrix runs
    # this module with the variable set, and later modules (and the env
    # assertion in tests/api/test_chaos_env.py) expect it armed.
    failpoints.load_env()


def _db(rows=((1,),)):
    db = repro.Database()
    db.create("P", ("x",), list(rows))
    return db


def _serve(conventions=SET_CONVENTIONS, options=None, **kwargs):
    session = Session(_db(), conventions, options=options or EvalOptions())
    server = make_server(session, **kwargs)
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


def _wait_until(predicate, timeout=5):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


def _metric_value(server, name):
    """Scrape one unlabelled sample from ``GET /metrics``."""
    status, body = _get(server, "/metrics")
    assert status == 200
    for line in body.decode().splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    raise AssertionError(f"{name} not found in /metrics output")


# ---------------------------------------------------------------------------
# Quarantine unit behavior
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_threshold_then_blocked_then_ttl_release(self):
        now = [0.0]
        q = Quarantine(threshold=2, ttl_s=10.0, clock=lambda: now[0])
        assert q.note_kill("fp") is False
        assert q.blocked("fp") is None  # one kill is noise, not poison
        assert q.note_kill("fp") is True  # second kill quarantines
        assert q.blocked("fp") == pytest.approx(10.0)
        now[0] = 9.0
        assert q.blocked("fp") == pytest.approx(1.0)
        now[0] = 10.5
        assert q.blocked("fp") is None  # lazy release at expiry
        assert q.released_total == 1
        # Clean slate: the released fingerprint must re-offend twice.
        assert q.note_kill("fp") is False
        assert q.blocked("fp") is None

    def test_note_kill_does_not_requarantine_while_blocked(self):
        q = Quarantine(threshold=1, ttl_s=60.0, clock=lambda: 0.0)
        assert q.note_kill("fp") is True
        assert q.note_kill("fp") is False  # already blocked: not a new event
        assert q.quarantined_total == 1

    def test_snapshot_shape(self):
        now = [0.0]
        q = Quarantine(threshold=1, ttl_s=30.0, clock=lambda: now[0])
        q.note_kill("aa")
        snap = q.snapshot()
        assert snap["size"] == 1
        assert snap["threshold"] == 1
        assert snap["quarantined_total"] == 1
        assert snap["entries"][0]["fingerprint"] == "aa"
        assert snap["entries"][0]["remaining_s"] == pytest.approx(30.0)
        now[0] = 31.0
        assert q.snapshot()["size"] == 0  # snapshot releases the expired

    def test_fingerprint_excludes_budget_fields(self):
        a = poison_fingerprint("default", SIMPLE, "arc", None)
        b = poison_fingerprint("default", SIMPLE, "arc", None)
        c = poison_fingerprint("default", SIMPLE, "arc", "sqlite")
        assert a == b
        assert a != c


# ---------------------------------------------------------------------------
# Pool-level supervision
# ---------------------------------------------------------------------------


def _factory():
    return SessionFactory({"default": _db()}, SET_CONVENTIONS)


class TestPoolSupervision:
    def test_crashed_worker_is_respawned_and_caller_gets_typed_error(self):
        pool = WorkerPool(_factory(), workers=2, queue_depth=8)
        try:
            failpoints.activate("pool.worker", "boom*1")
            future = pool.submit(lambda worker: 1)
            with pytest.raises(WorkerCrash) as excinfo:
                future.wait(10)
            assert isinstance(excinfo.value.__cause__, RuntimeError)
            assert _wait_until(lambda: pool.workers_respawned == 1)
            # Full capacity survives: both workers still execute.
            futures = [pool.submit(lambda worker: worker.index) for _ in range(4)]
            assert all(f.wait(10) in (0, 1) for f in futures)
            snap = pool.snapshot()
            assert snap["workers_respawned"] == 1
            # The crashed job never counted as completed.
            assert snap["jobs_completed"] == 4
        finally:
            pool.drain()

    def test_two_kills_quarantine_the_fingerprint(self):
        pool = WorkerPool(_factory(), workers=1, queue_depth=8)
        try:
            failpoints.activate("pool.worker", "boom*2")
            for _ in range(2):
                with pytest.raises(WorkerCrash):
                    pool.submit(lambda worker: 1, fingerprint="fp").wait(10)
                assert _wait_until(
                    lambda: not pool.queue.qsize() and pool.busy == 0
                )
            with pytest.raises(PoisonQuery) as excinfo:
                pool.submit(lambda worker: 1, fingerprint="fp")
            assert excinfo.value.retry_after_s >= 1
            # Unrelated fingerprints are admitted and succeed.
            assert pool.submit(lambda worker: "ok", fingerprint="other").wait(10) == "ok"
            assert len(pool.quarantine) == 1
        finally:
            pool.drain()

    def test_retired_stats_survive_the_crash(self):
        pool = WorkerPool(_factory(), workers=1, queue_depth=8)
        try:
            def run_query(worker):
                session = worker.session_for(None)
                session.prepare(SIMPLE).run()
                return dict(session.stats.as_dict())

            live = pool.submit(run_query).wait(10)
            assert any(v > 0 for v in live.values())
            failpoints.activate("pool.worker", "boom*1")
            with pytest.raises(WorkerCrash):
                pool.submit(lambda worker: 1).wait(10)
            retired, _cache = pool.retired_stats()
            for name, value in live.items():
                assert retired.get(name, 0) >= value
        finally:
            pool.drain()

    def test_drain_completes_after_a_mid_drain_crash(self):
        pool = WorkerPool(_factory(), workers=1, queue_depth=8)
        failpoints.activate("pool.worker", "boom*1")
        with pytest.raises(WorkerCrash):
            pool.submit(lambda worker: 1).wait(10)
        assert _wait_until(lambda: pool.workers_respawned == 1)
        pool.drain()  # must join the replacement thread, not the dead one
        assert pool.draining


class TestShedding:
    def test_request_whose_budget_the_queue_would_eat_is_shed(self):
        pool = WorkerPool(_factory(), workers=1, queue_depth=8)
        try:
            release = threading.Event()
            blocker = pool.submit(lambda worker: release.wait(30))
            assert _wait_until(lambda: pool.busy == 1)
            filler = pool.submit(lambda worker: None)  # queued behind it
            pool.service_ewma_s = 10.0  # white box: 1 queued job -> 10 s wait
            from repro.serve import AdmissionError

            with pytest.raises(AdmissionError) as excinfo:
                pool.submit(lambda worker: None, timeout_ms=100)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s == 10
            assert pool.shed_total == 1
            # Deadline-less requests are not shed without a threshold.
            accepted = pool.submit(lambda worker: "ran")
            release.set()
            blocker.wait(10)
            filler.wait(10)
            assert accepted.wait(10) == "ran"
        finally:
            pool.drain()

    def test_shed_threshold_applies_to_deadline_less_requests(self):
        pool = WorkerPool(
            _factory(), workers=1, queue_depth=8, shed_threshold_ms=500,
        )
        try:
            release = threading.Event()
            blocker = pool.submit(lambda worker: release.wait(30))
            assert _wait_until(lambda: pool.busy == 1)
            filler = pool.submit(lambda worker: None)
            pool.service_ewma_s = 10.0
            from repro.serve import AdmissionError

            with pytest.raises(AdmissionError):
                pool.submit(lambda worker: None)  # no deadline, still shed
            assert pool.shed_total == 1
            release.set()
            blocker.wait(10)
            filler.wait(10)
        finally:
            pool.drain()

    def test_empty_queue_is_never_shed(self):
        pool = WorkerPool(_factory(), workers=1, queue_depth=8)
        try:
            pool.service_ewma_s = 100.0
            assert pool.submit(lambda worker: "ok", timeout_ms=1).wait(10) == "ok"
            assert pool.shed_total == 0
        finally:
            pool.drain()


# ---------------------------------------------------------------------------
# HTTP-level self-healing
# ---------------------------------------------------------------------------


class TestHTTPSelfHealing:
    def test_worker_death_respawn_and_metrics(self):
        """The headline scenario: one injected worker death, a typed 500,
        ``workers_respawned == 1`` in /stats, the respawn counter scraped
        from /metrics, and the server answering afterwards."""
        server, thread = _serve(workers=2, queue_depth=8)
        try:
            assert _metric_value(server, "arc_worker_respawns_total") == 0
            failpoints.activate("pool.worker", "boom*1")
            status, body, _ = _post(server, {"query": SIMPLE})
            assert status == 500
            payload = json.loads(body)
            assert payload["error_type"] == "WorkerCrash"
            assert _wait_until(
                lambda: server.pool.workers_respawned == 1
            )
            status, body = _get(server, "/stats")
            stats = json.loads(body)
            assert stats["pool"]["workers_respawned"] == 1
            assert stats["pool"]["workers"] == 2
            assert _metric_value(server, "arc_worker_respawns_total") == 1
            # The respawned pool still answers (and at full capacity).
            status, body, _ = _post(server, {"query": SIMPLE})
            assert status == 200
        finally:
            _stop(server, thread)

    def test_poison_query_answers_422_while_others_succeed(self):
        server, thread = _serve(workers=1, queue_depth=8)
        try:
            failpoints.activate("pool.worker", "boom*2")
            for _ in range(2):
                status, body, _ = _post(server, {"query": RUNAWAY, "timeout_ms": 5000})
                assert status == 500
                assert json.loads(body)["error_type"] == "WorkerCrash"
                assert _wait_until(lambda: server.pool.busy == 0)
            status, body, headers = _post(
                server, {"query": RUNAWAY, "timeout_ms": 5000}
            )
            assert status == 422
            payload = json.loads(body)
            assert payload["error_type"] == "PoisonQuery"
            assert int(headers["Retry-After"]) >= 1
            # A different query is unaffected by the quarantine.
            status, _, _ = _post(server, {"query": SIMPLE})
            assert status == 200
            status, body = _get(server, "/stats")
            quarantine = json.loads(body)["quarantine"]
            assert quarantine["size"] == 1
            assert quarantine["quarantined_total"] == 1
            assert quarantine["entries"][0]["remaining_s"] > 0
            assert _metric_value(server, "arc_quarantined_total") == 1
            assert _metric_value(server, "arc_quarantine_size") == 1
        finally:
            _stop(server, thread)

    def test_leader_death_resolves_the_flight_with_a_typed_500(self):
        """Publish-or-fail: a leader dying between submitting its job and
        collecting the outcome (the ``pool.leader`` failpoint) still
        publishes — a typed 500, not an abandoned flight that would stall
        any follower for the full job-wait backstop."""
        server, thread = _serve(workers=1, queue_depth=8)
        try:
            failpoints.activate("pool.leader", "boom*1")
            status, body, _ = _post(server, {"query": SIMPLE})
            assert status == 500
            assert json.loads(body)["error_type"] == "RuntimeError"
            # The flight resolved and left the in-flight map: the next
            # identical request starts fresh and succeeds.
            assert server.coalescer.inflight == 0
            status, _, _ = _post(server, {"query": SIMPLE})
            assert status == 200
        finally:
            _stop(server, thread)

    def test_worker_crash_fans_typed_500_to_followers(self):
        server, thread = _serve(workers=1, queue_depth=8)
        try:
            release = threading.Event()
            blocker = server.pool.submit(lambda worker: release.wait(30))
            assert _wait_until(lambda: server.pool.busy == 1)
            failpoints.activate("pool.worker", "boom*1")
            results = []
            lock = threading.Lock()

            def fire():
                result = _post(server, {"query": SIMPLE})
                with lock:
                    results.append(result)

            posters = [threading.Thread(target=fire) for _ in range(3)]
            for poster in posters:
                poster.start()
            assert _wait_until(lambda: server.coalescer.coalesced_total >= 2)
            release.set()
            blocker.wait(10)
            for poster in posters:
                poster.join(timeout=15)
            assert [status for status, _, _ in results] == [500] * 3
            assert {
                json.loads(body)["error_type"] for _, body, _ in results
            } == {"WorkerCrash"}
        finally:
            _stop(server, thread)

    def test_aggregate_stats_survive_a_respawn(self):
        server, thread = _serve(workers=1, queue_depth=8)
        try:
            status, _, _ = _post(server, {"query": SIMPLE})
            assert status == 200
            before, *_cache = server.aggregate_stats()
            assert any(v > 0 for v in before.values())
            failpoints.activate("pool.worker", "boom*1")
            status, _, _ = _post(server, {"query": SIMPLE})
            assert status == 500
            assert _wait_until(lambda: server.pool.workers_respawned == 1)
            after, *_cache = server.aggregate_stats()
            for name, value in before.items():
                assert after.get(name, 0) >= value, name
        finally:
            _stop(server, thread)


class TestHardCapHTTP:
    @pytest.mark.parametrize("backend", ["reference", "planner", "sqlite"])
    def test_runaway_query_without_deadline_is_interrupted(self, backend):
        """No client budget at all — the hard wall cap still frees the
        worker, on every backend."""
        hard_ms = 1000
        server, thread = _serve(
            conventions=SQL_CONVENTIONS, workers=1, queue_depth=8,
            hard_timeout_ms=hard_ms,
        )
        try:
            started = time.perf_counter()
            status, body, _ = _post(
                server, {"query": RUNAWAY, "backend": backend}, timeout=60
            )
            elapsed = time.perf_counter() - started
            assert status == 408
            payload = json.loads(body)
            assert payload["error_type"] == "QueryTimeout"
            assert f"{hard_ms} ms" in payload["error"]
            assert elapsed < 2 * hard_ms / 1000.0
            # The worker survived the interruption.
            status, _, _ = _post(server, {"query": SIMPLE})
            assert status == 200
            status, body = _get(server, "/stats")
            assert json.loads(body)["timeouts"] >= 1
        finally:
            _stop(server, thread)

    def test_explicit_cap_below_the_request_deadline_wins(self):
        hard_ms = 400
        server, thread = _serve(
            conventions=SQL_CONVENTIONS, workers=1, hard_timeout_ms=hard_ms,
        )
        try:
            started = time.perf_counter()
            status, body, _ = _post(
                server, {"query": RUNAWAY, "timeout_ms": 30_000}, timeout=60
            )
            elapsed = time.perf_counter() - started
            assert status == 408
            assert f"{hard_ms} ms" in json.loads(body)["error"]
            assert elapsed < 2 * hard_ms / 1000.0
        finally:
            _stop(server, thread)

    def test_request_deadline_applies_without_an_explicit_cap(self):
        soft_ms = 400
        server, thread = _serve(conventions=SQL_CONVENTIONS, workers=1)
        try:
            started = time.perf_counter()
            status, body, _ = _post(
                server, {"query": RUNAWAY, "timeout_ms": soft_ms}, timeout=60
            )
            elapsed = time.perf_counter() - started
            assert status == 408
            assert f"{soft_ms} ms" in json.loads(body)["error"]
            assert elapsed < 2 * soft_ms / 1000.0
        finally:
            _stop(server, thread)


class TestChaosEnv:
    def test_serving_survives_whatever_the_environment_armed(self):
        """The chaos-matrix entry: re-arm ``REPRO_FAILPOINTS`` and serve.

        Whatever the environment injects (including ``pool.worker``
        kill specs), every response is a typed status — 200, 500, 422, or
        408 — and once any counted spec exhausts, the server answers 200
        again.  Distinct queries per request keep the poison quarantine
        out of the way of counted worker-kill specs.
        """
        failpoints.load_env()
        armed = dict(failpoints.active())
        server, thread = _serve(workers=2, queue_depth=8)
        try:
            statuses = []
            for i in range(6):
                query = f"{{Q(x) | ∃p ∈ P[Q.x = p.x + {i}]}}"
                status, body, _ = _post(server, {"query": query, "timeout_ms": 10000})
                statuses.append(status)
                assert status in (200, 400, 408, 422, 500), body
                _wait_until(lambda: server.pool.busy == 0)
            assert statuses[-1] == 200, (armed, statuses)
            if any(site == "pool.worker" for site in armed):
                assert server.pool.workers_respawned >= 1
        finally:
            _stop(server, thread)
