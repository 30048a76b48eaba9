"""Concurrent hammer tests for state the worker pool shares.

The thread-safety audit for concurrent serving: every shared structure —
metrics counters/histograms, registry get-or-create, circuit breakers —
is hit from many threads at once and must come out exact (no lost
increments) and uncorrupted.  SQLite connections are the opposite case:
they are *not* shared, each thread loads and keeps its own, and the tests
below pin that ownership (and the per-run deadline it protects).  Relation warm
caches (``index_on``, ``derived_put``) need no lock: they publish fully
built values through single atomic dict stores, and concurrent readers
see either nothing (rebuild) or the complete value — that CAS-safe path
is documented in ``data/relation.py`` and exercised end-to-end by the
HTTP concurrency tests.
"""

import sqlite3
import sys
import threading
import time

import pytest

import repro
from repro.backends.exec import breaker_for, reset_breakers, sqlite_exec
from repro.backends.exec.registry import CircuitBreaker
from repro.obs import MetricsRegistry
from repro.serve import WorkerPool
from repro.serve.pool import SessionFactory
from repro.core.conventions import SQL_CONVENTIONS

THREADS = 8
ROUNDS = 5000


def _hammer(worker, threads=THREADS):
    barrier = threading.Barrier(threads)

    def wrapped(index):
        barrier.wait()
        worker(index)

    pool = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestMetricsUnderContention:
    def test_counter_loses_no_increments(self):
        counter = MetricsRegistry().counter("hits")
        _hammer(lambda index: [counter.inc() for _ in range(ROUNDS)])
        assert counter.value() == THREADS * ROUNDS

    def test_labelled_counter_is_exact_per_label(self):
        counter = MetricsRegistry().counter("hits", labels=("who",))
        _hammer(
            lambda index: [
                counter.inc(who=str(index % 2)) for _ in range(ROUNDS)
            ]
        )
        total = counter.value(who="0") + counter.value(who="1")
        assert total == THREADS * ROUNDS

    def test_histogram_count_and_sum_are_exact(self):
        histogram = MetricsRegistry().histogram("lat")
        _hammer(lambda index: [histogram.observe(0.001) for _ in range(ROUNDS)])
        assert histogram.count() == THREADS * ROUNDS
        assert histogram.sum() == pytest.approx(THREADS * ROUNDS * 0.001)
        # Every observation landed in exactly one bucket.
        ((_, cumulative, _, total),) = list(histogram.samples())
        assert cumulative[-1] == total == THREADS * ROUNDS

    def test_registry_get_or_create_race_yields_one_metric(self):
        registry = MetricsRegistry()
        metrics = []
        lock = threading.Lock()

        def register_and_count(index):
            counter = registry.counter("shared")
            with lock:
                metrics.append(counter)
            for _ in range(1000):
                counter.inc()

        _hammer(register_and_count)
        assert len({id(metric) for metric in metrics}) == 1
        assert registry.get("shared").value() == THREADS * 1000

    def test_scrape_during_writes_never_sees_torn_state(self):
        histogram = MetricsRegistry().histogram("lat")
        stop = threading.Event()
        torn = []

        def scrape():
            while not stop.is_set():
                for _, cumulative, _, total in histogram.samples():
                    # Cumulative bucket counts must always sum to count.
                    if cumulative[-1] != total:
                        torn.append((cumulative[-1], total))

        reader = threading.Thread(target=scrape)
        reader.start()
        _hammer(lambda index: [histogram.observe(0.01) for _ in range(ROUNDS)])
        stop.set()
        reader.join(timeout=10)
        assert torn == []


class TestBreakerUnderContention:
    def test_failure_counts_are_exact_below_threshold(self):
        breaker = CircuitBreaker("b", threshold=10**9)
        _hammer(lambda index: [breaker.record_failure() for _ in range(ROUNDS)])
        assert breaker.failures == THREADS * ROUNDS
        assert breaker.trips == 0
        assert breaker.state == "closed"

    def test_exactly_one_trip_at_the_threshold(self):
        breaker = CircuitBreaker("b", threshold=THREADS * ROUNDS)
        tripped = []
        lock = threading.Lock()

        def fail(index):
            for _ in range(ROUNDS):
                if breaker.record_failure():
                    with lock:
                        tripped.append(index)

        _hammer(fail)
        assert len(tripped) == 1
        assert breaker.trips == 1
        assert breaker.state == "open"

    def test_mixed_transitions_stay_in_valid_states(self):
        breaker = CircuitBreaker("b", threshold=3, cooldown_s=0.0)

        def churn(index):
            for round_no in range(500):
                if (index + round_no) % 3 == 0:
                    breaker.record_success()
                else:
                    breaker.record_failure()
                assert breaker.state in {"closed", "open", "half-open"}
                breaker.allow()

        _hammer(churn)
        assert breaker.state in {"closed", "open", "half-open"}

    def test_breaker_for_race_yields_one_instance(self):
        reset_breakers()
        try:
            seen = []
            lock = threading.Lock()

            def fetch(index):
                breaker = breaker_for("sqlite")
                with lock:
                    seen.append(breaker)

            _hammer(fetch)
            assert len({id(breaker) for breaker in seen}) == 1
        finally:
            reset_breakers()


class TestSqliteConnectionOwnership:
    def _db(self):
        db = repro.Database()
        db.create("P", ("x",), [(1,), (2,)])
        return db

    def test_concurrent_connects_get_one_connection_per_thread(self):
        db = self._db()
        conns = []
        lock = threading.Lock()

        def connect(index):
            conn, loaded = sqlite_exec.connect_catalog(db)
            count = conn.execute("select count(*) from P").fetchone()
            with lock:
                conns.append((conn, loaded, count))
            sqlite_exec.clear_catalog_cache()

        _hammer(connect)
        # Every thread loaded (and queried) a handle of its own.
        assert len({id(conn) for conn, _, _ in conns}) == THREADS
        assert all(loaded and count == (2,) for _, loaded, count in conns)

    def test_second_connect_on_a_thread_is_a_warm_hit(self):
        sqlite_exec.clear_catalog_cache()
        db = self._db()
        first, loaded_first = sqlite_exec.connect_catalog(db)
        second, loaded_second = sqlite_exec.connect_catalog(self._db())
        assert loaded_first and not loaded_second
        assert second is first
        sqlite_exec.clear_catalog_cache()

    def test_cached_connection_refuses_other_threads(self):
        sqlite_exec.clear_catalog_cache()
        conn, _ = sqlite_exec.connect_catalog(self._db())
        errors = []

        def borrow():
            try:
                conn.execute("select count(*) from P")
            except sqlite3.ProgrammingError as exc:
                errors.append(exc)

        thread = threading.Thread(target=borrow, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(errors) == 1
        # The owning thread still uses it.
        assert conn.execute("select count(*) from P").fetchone() == (2,)
        sqlite_exec.clear_catalog_cache()


_BUDGET_MS = 300
#: A recursive runaway, bounded so that on a build where another thread
#: strips its deadline it still ends in seconds with bounded memory.
_RUNAWAY = (
    "{T(x) | ∃p ∈ P[T.x = p.x] ∨ ∃t ∈ T[T.x = t.x + 1 ∧ t.x < 1500000]}"
)
_QUICK = "{Q(x) | ∃p ∈ P[Q.x = p.x]}"


def _cross_thread_outcome():
    """Thread A runs the runaway on SQLite with a 300 ms budget while
    thread B loops a quick query on a second Session over an equal catalog.

    Returns a JSON-able summary of both threads.  Run in a subprocess by
    the test below: two threads driving one shared connection can deadlock
    the interpreter (one thread holds the GIL waiting for SQLite's mutex,
    the other holds the mutex waiting for the GIL in its progress
    handler), which no in-process timeout could escape.
    """
    from repro.api import EvalOptions, Session

    def catalog():
        db = repro.Database()
        db.create("P", ("x",), [(7919,)])  # rows no other test loads
        return db

    options = EvalOptions(backend="sqlite")
    runaway = Session(catalog(), SQL_CONVENTIONS, options=options).prepare(
        _RUNAWAY
    )
    quick = Session(catalog(), SQL_CONVENTIONS, options=options).prepare(_QUICK)
    start = threading.Barrier(2)
    a_done = threading.Event()
    outcome = {"a_error": None, "b_error": None, "fallbacks": [], "answers": []}

    def thread_a():
        start.wait()
        began = time.monotonic()
        try:
            runaway.run(timeout_ms=_BUDGET_MS)
        except Exception as exc:
            outcome["a_error"] = type(exc).__name__
        outcome["a_elapsed_ms"] = (time.monotonic() - began) * 1000
        a_done.set()

    def thread_b():
        start.wait()
        stop_at = time.monotonic() + 10
        try:
            while time.monotonic() < stop_at and (
                not a_done.is_set() or len(outcome["answers"]) < 20
            ):
                info = quick.run_info(timeout_ms=5000)
                outcome["fallbacks"].append(info["fallback_reasons"])
                outcome["answers"].append(
                    [row["x"] for row in info["result"]]
                )
        except Exception as exc:
            outcome["b_error"] = repr(exc)

    threads = [
        threading.Thread(target=target, daemon=True)
        for target in (thread_a, thread_b)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=15)
    outcome["alive"] = [thread.is_alive() for thread in threads]
    return outcome


class TestCrossThreadDeadline:
    """A run's deadline lives on its own thread's connection: another
    thread's runs over an equal catalog can neither clear it nor be
    interrupted by it."""

    def test_runaway_deadline_holds_beside_a_busy_thread(self):
        import json
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import json; from tests.serve.test_thread_safety import "
            "_cross_thread_outcome; print(json.dumps(_cross_thread_outcome()))"
        )
        try:
            result = subprocess.run(
                [sys.executable, "-c", code],
                cwd=root,
                env={**os.environ, "PYTHONPATH": os.pathsep.join([src, root])},
                capture_output=True,
                timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("two threads over equal catalogs deadlocked")
        assert result.returncode == 0, result.stderr.decode()
        outcome = json.loads(result.stdout.decode().splitlines()[-1])
        assert outcome["alive"] == [False, False], outcome
        assert outcome["a_error"] == "QueryTimeout", outcome
        assert outcome["a_elapsed_ms"] < 2 * _BUDGET_MS + 500, outcome
        assert outcome["b_error"] is None, outcome
        assert outcome["answers"], outcome
        assert outcome["fallbacks"] == [[]] * len(outcome["answers"]), outcome
        assert all(answer == [7919] for answer in outcome["answers"]), outcome


class TestFailpointsUnderContention:
    def test_counted_spec_fires_exactly_n_times_across_threads(self):
        """``kind*N`` decrements under the module lock: THREADS workers
        hammering one armed site consume exactly N firings between them —
        a lost decrement would fire more, a double decrement fewer."""
        from repro.util import failpoints

        failpoints.reset()
        try:
            budget = 100
            failpoints.activate("pool.leader", f"boom*{budget}")
            fired = []
            lock = threading.Lock()

            def slam(index):
                count = 0
                for _ in range(ROUNDS // 10):
                    try:
                        failpoints.hit("pool.leader")
                    except RuntimeError:
                        count += 1
                with lock:
                    fired.append(count)

            _hammer(slam)
            assert sum(fired) == budget
            assert failpoints.active()["pool.leader"] == "boom*0"
            assert failpoints.hits["pool.leader"] == THREADS * (ROUNDS // 10)
        finally:
            failpoints.reset()
            failpoints.load_env()


class TestPoolAdmissionUnderContention:
    def test_no_future_is_lost_under_submit_storms(self):
        from repro.api import EvalOptions

        db = repro.Database()
        db.create("P", ("x",), [(1,)])
        factory = SessionFactory(
            {"default": db}, SQL_CONVENTIONS, options=EvalOptions()
        )
        pool = WorkerPool(factory, workers=4, queue_depth=16)
        accepted = []
        refused = []
        depths = []
        lock = threading.Lock()

        def job(answer):
            time.sleep(0.0005)
            return answer

        def storm(index):
            for round_ in range(50):
                answer = (index, round_)
                try:
                    future = pool.submit(lambda worker, a=answer: job(a))
                except Exception as exc:
                    with lock:
                        refused.append(exc)
                else:
                    with lock:
                        accepted.append((future, answer))
                depths.append(pool.depth())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _hammer(storm)
            # Each future answers its own job, exactly once.
            for future, answer in accepted:
                assert future.wait(30) == answer
        finally:
            sys.setswitchinterval(interval)
        assert len(accepted) + len(refused) == THREADS * 50
        assert pool.snapshot()["jobs_completed"] == len(accepted)
        assert all(exc.status == 429 for exc in refused)
        # The queue is unbounded itself; admission holds it to its depth.
        assert max(depths) <= 16
        pool.drain()
