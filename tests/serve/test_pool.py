"""Unit tests for the worker-pool subsystem (no HTTP involved).

Covers the pieces ``repro serve`` composes: futures, the coalescer's
single-leader guarantee, session factories and per-worker SQLite
connections, the per-worker session LRU, and the pool's admission / drain
state machine.
"""

import threading
import time

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.backends.exec import sqlite_exec
from repro.core.conventions import SQL_CONVENTIONS
from repro.serve import (
    DEFAULT_SESSION_LIMIT,
    AdmissionError,
    Coalescer,
    SessionFactory,
    WorkerPool,
)
from repro.serve.pool import Future

QUERY = "{Q(x) | ∃p ∈ P[Q.x = p.x]}"


def _db(rows=((1,),)):
    db = repro.Database()
    db.create("P", ("x",), list(rows))
    return db


def _factory(catalogs=None, **options):
    catalogs = catalogs if catalogs is not None else {"default": _db()}
    return SessionFactory(
        catalogs, SQL_CONVENTIONS, options=EvalOptions(**options)
    )


@pytest.fixture(autouse=True)
def clean_cache():
    sqlite_exec.clear_catalog_cache()
    yield
    sqlite_exec.clear_catalog_cache()


class TestFuture:
    def test_result_roundtrip(self):
        future = Future()
        future.set_result(42)
        assert future.wait(1) == 42
        assert future.done()

    def test_error_reraises(self):
        future = Future()
        future.set_error(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            future.wait(1)

    def test_timeout(self):
        with pytest.raises(TimeoutError):
            Future().wait(0.01)

    def test_first_answer_wins(self):
        # A worker that dies after answering its job reports the crash to
        # a future already set: the answer stands and the latch holds.
        future = Future()
        future.set_result(42)
        future.set_error(RuntimeError("late crash"))
        assert future.wait(1) == 42
        assert future.wait(1) == 42


class TestCoalescer:
    def test_first_join_leads_followers_coalesce(self):
        coalescer = Coalescer()
        entry, leader = coalescer.join("k")
        assert leader
        same, follower_leads = coalescer.join("k")
        assert same is entry and not follower_leads
        assert coalescer.coalesced_total == 1
        coalescer.publish("k", "answer")
        assert entry.wait(1) == "answer"
        # The key left the map before followers woke: a new join leads.
        _, leads_again = coalescer.join("k")
        assert leads_again

    def test_exactly_one_leader_under_contention(self):
        coalescer = Coalescer()
        barrier = threading.Barrier(16)
        outcomes = []
        leaders = []
        lock = threading.Lock()

        def contend():
            barrier.wait()
            entry, leader = coalescer.join("hot")
            if leader:
                with lock:
                    leaders.append(threading.current_thread().name)
                time.sleep(0.01)  # let followers pile up on the entry
                coalescer.publish("hot", b"the-bytes")
                result = entry.outcome
            else:
                result = entry.wait(5)
            with lock:
                outcomes.append(result)

        threads = [threading.Thread(target=contend) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(leaders) == 1
        assert outcomes == [b"the-bytes"] * 16
        assert coalescer.coalesced_total == 15
        assert coalescer.inflight == 0


class TestSessionFactory:
    def test_builds_private_sessions(self):
        factory = _factory(backend="sqlite")
        first, second = factory.build(), factory.build()
        assert first is not second
        first.close()
        second.close()
        # Two workers serving the same catalog execute on two connections.
        pool = WorkerPool(factory, workers=2)
        try:
            barrier = threading.Barrier(2)

            def job(worker):
                barrier.wait(10)  # both workers hold a job at once
                session = worker.session_for()
                session.prepare(QUERY).run()
                conn, loaded = sqlite_exec.connect_catalog(session.database)
                return worker.index, id(conn), session.catalog_loads, loaded

            futures = [pool.submit(job), pool.submit(job)]
            got = [future.wait(10) for future in futures]
        finally:
            pool.drain()
        assert {index for index, _, _, _ in got} == {0, 1}
        assert got[0][1] != got[1][1]
        # Each worker loaded its own copy, then hit it.
        assert [(loads, loaded) for _, _, loads, loaded in got] == [(1, False)] * 2

    def test_unknown_catalog_raises(self):
        factory = _factory()
        with pytest.raises(LookupError, match="unknown catalog"):
            factory.build("nope")

    def test_missing_default_rejected(self):
        with pytest.raises(LookupError, match="default"):
            SessionFactory({"other": _db()}, SQL_CONVENTIONS)

    def test_from_session_shares_catalog_and_options(self):
        db = _db()
        session = Session(
            db, SQL_CONVENTIONS, options=EvalOptions(backend="sqlite")
        )
        factory = SessionFactory.from_session(
            session, catalogs={"alt": _db([(7,)])}
        )
        assert factory.catalogs["default"] is db
        assert factory.options is session.options
        assert factory.names() == ["alt", "default"]
        built = factory.build("alt")
        assert built.prepare(QUERY).run().sorted_rows()[0]["x"] == 7
        built.close()


class TestSessionClose:
    def test_private_reuse_counts_hits(self):
        session = Session(
            _db(), SQL_CONVENTIONS, options=EvalOptions(backend="sqlite"),
        )
        prepared = session.prepare(QUERY)
        prepared.run()
        prepared.run()
        assert session.catalog_loads == 1
        assert session.catalog_hits == 1
        session.close()
        # The connection is the thread's, not the session's: a new session
        # over an equal catalog on this thread starts warm.
        again = Session(
            _db(), SQL_CONVENTIONS, options=EvalOptions(backend="sqlite"),
        )
        again.prepare(QUERY).run()
        assert (again.catalog_loads, again.catalog_hits) == (0, 1)


class TestWorkerPool:
    def test_jobs_execute_and_complete(self):
        pool = WorkerPool(_factory(backend="sqlite"), workers=2)
        try:
            futures = [
                pool.submit(
                    lambda worker: worker.session_for()
                    .prepare(QUERY).run().sorted_rows()
                )
                for _ in range(8)
            ]
            for future in futures:
                rows = future.wait(10)
                assert [row["x"] for row in rows] == [1]
            assert pool.snapshot()["jobs_completed"] == 8
        finally:
            pool.drain()

    def test_full_queue_answers_429(self):
        pool = WorkerPool(_factory(), workers=1, queue_depth=1)
        try:
            release = threading.Event()
            blocker = pool.submit(lambda worker: release.wait(10))
            # Wait for the worker to pick the blocker up, then fill the
            # queue's single slot.
            deadline = time.monotonic() + 5
            while pool.busy < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            queued = pool.submit(lambda worker: "queued")
            with pytest.raises(AdmissionError) as info:
                pool.submit(lambda worker: "refused")
            assert info.value.status == 429
            assert info.value.retriable
            release.set()
            assert blocker.wait(10) is True
            assert queued.wait(10) == "queued"
        finally:
            pool.drain()

    def test_drain_finishes_queued_jobs_then_refuses(self):
        pool = WorkerPool(_factory(), workers=1, queue_depth=8)
        release = threading.Event()
        blocker = pool.submit(lambda worker: release.wait(10))
        queued = pool.submit(lambda worker: "finished")
        drainer = threading.Thread(target=pool.drain)
        deadline = time.monotonic() + 5
        while pool.busy < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        drainer.start()
        deadline = time.monotonic() + 5
        while not pool.draining and time.monotonic() < deadline:
            time.sleep(0.005)
        # Draining: new work is refused as 503 (not retriable) ...
        with pytest.raises(AdmissionError) as info:
            pool.submit(lambda worker: "late")
        assert info.value.status == 503
        assert not info.value.retriable
        # ... but already-admitted work completes before workers stop.
        release.set()
        drainer.join(timeout=10)
        assert not drainer.is_alive()
        assert blocker.wait(1) is True
        assert queued.wait(1) == "finished"
        pool.drain()  # idempotent

    def test_worker_error_propagates_to_future(self):
        pool = WorkerPool(_factory(), workers=1)
        try:
            def explode(worker):
                raise RuntimeError("job failed")

            future = pool.submit(explode)
            with pytest.raises(RuntimeError, match="job failed"):
                future.wait(10)
            # The worker survives its job's exception.
            assert pool.submit(lambda worker: "alive").wait(10) == "alive"
        finally:
            pool.drain()

    def test_session_lru_evicts_and_closes_connections(self):
        # One catalog more than a worker keeps warm Sessions for.
        names = ["default", "beta", "gamma", "delta", "epsilon"]
        assert len(names) == DEFAULT_SESSION_LIMIT + 1
        catalogs = {name: _db([(i,)]) for i, name in enumerate(names, 1)}
        pool = WorkerPool(_factory(catalogs, backend="sqlite"), workers=1)
        try:
            def run_on(catalog):
                def job(worker):
                    session = worker.session_for(catalog)
                    loads = session.catalog_loads
                    rows = session.prepare(QUERY).run().sorted_rows()
                    return session, session.catalog_loads - loads, rows

                return pool.submit(job).wait(10)

            session_a, loads_a, rows_a = run_on("default")
            for name in names[1:]:
                run_on(name)  # the last one evicts "default"
            assert [row["x"] for row in rows_a] == [1]
            assert loads_a == 1
            assert pool.snapshot()["sessions_evicted"] == 1
            assert not session_a._prepared  # the evicted Session was closed
            # Re-requesting the evicted catalog rebuilds the Session, which
            # answers on the worker thread's still-cached connection.
            session_again, loads_again, rows_again = run_on("default")
            assert session_again is not session_a
            assert [row["x"] for row in rows_again] == [1]
            assert loads_again == 0
            assert pool.snapshot()["sessions_evicted"] == 2
        finally:
            pool.drain()

    def test_adopted_session_serves_worker_zero(self):
        db = _db()
        session = Session(db, SQL_CONVENTIONS, options=EvalOptions())
        pool = WorkerPool(
            SessionFactory.from_session(session), workers=1, adopt=session
        )
        try:
            got = pool.submit(lambda worker: worker.session_for()).wait(10)
            assert got is session
        finally:
            pool.drain()

    def test_submit_supervision_kwargs_default_to_the_old_behavior(self):
        """``timeout_ms`` / ``fingerprint`` are both optional; a bare
        ``submit(fn)`` is a plain bounded-queue submit — no quarantine
        check, no shedding."""
        pool = WorkerPool(_factory(), workers=1, queue_depth=4)
        try:
            assert pool.submit(lambda worker: "plain").wait(10) == "plain"
            assert pool.shed_total == 0
            assert len(pool.quarantine) == 0
        finally:
            pool.drain()

    def test_service_ewma_tracks_completed_jobs(self):
        pool = WorkerPool(_factory(), workers=1, queue_depth=4)
        try:
            assert pool.service_ewma_s == 0.0
            pool.submit(lambda worker: time.sleep(0.01)).wait(10)
            assert pool.service_ewma_s > 0.0
            assert pool.snapshot()["service_ewma_ms"] > 0.0
        finally:
            pool.drain()


class TestCoalescerErrorOutcomes:
    def test_error_outcome_fans_out_to_followers_verbatim(self):
        """The coalescer stores outcomes opaquely — a leader publishing a
        typed *error* resolves followers with that same error object, the
        contract the serving layer's publish-or-fail backstop relies on."""
        coalescer = Coalescer()
        entry, leader = coalescer.join("key")
        assert leader
        follower_entry, follower_leader = coalescer.join("key")
        assert not follower_leader
        sentinel_error = {"status": 500, "error_type": "WorkerCrash"}
        coalescer.publish("key", sentinel_error)
        assert follower_entry.wait(1) is sentinel_error
        assert coalescer.inflight == 0
