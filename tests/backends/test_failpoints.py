"""Fault injection, retries, and the circuit breaker.

The chaos invariant these tests pin: **every injected fault yields either a
clean planner fallback — differentially equal to the reference oracle — or
a typed error; never a hang, never a wrong answer.**
"""

import sqlite3
import warnings

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.backends.exec import (
    BackendFallbackWarning,
    breaker_for,
    breaker_states,
    reset_breakers,
)
from repro.backends.exec import registry as registry_mod
from repro.backends.exec.registry import BackendUnsupported, CircuitBreaker
from repro.core.conventions import SQL_CONVENTIONS
from repro.errors import ArcError
from repro.util import failpoints
from repro.util.failpoints import FailpointError

QUERY = "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 15]}"


@pytest.fixture(autouse=True)
def clean_state():
    """Disarm failpoints, drop breakers, and cold-start the catalog cache.

    The cold start matters: ``catalog.load`` only fires on an actual load,
    and the fingerprint cache would otherwise serve a warm connection from
    an earlier test with the same rows.  Teardown re-loads
    ``REPRO_FAILPOINTS`` so an env-driven chaos run (the CI matrix) keeps
    its arming for the modules that expect it.
    """
    from repro.backends.exec import sqlite_exec

    failpoints.reset()
    reset_breakers()
    sqlite_exec.clear_catalog_cache()
    yield
    failpoints.reset()
    reset_breakers()
    failpoints.load_env()


def _db(rows=((1, 10), (2, 20), (3, 30))):
    db = repro.Database()
    db.create("R", ("A", "B"), list(rows))
    return db


def _sqlite_session(db=None):
    return Session(
        db if db is not None else _db(),
        SQL_CONVENTIONS,
        options=EvalOptions(backend="sqlite"),
    )


def _oracle_rows(db):
    session = Session(db, SQL_CONVENTIONS, options=EvalOptions(backend="reference"))
    return session.prepare(QUERY).run().sorted_rows()


class TestSpecParsing:
    def test_plain_kind(self):
        assert failpoints.parse_spec("locked") == ("locked", None, None)

    def test_count_and_message(self):
        assert failpoints.parse_spec("error*3:backend down") == (
            "error", 3, "backend down",
        )

    @pytest.mark.parametrize("bad", ["nope", "locked*x", "locked*0", "locked*-1"])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(FailpointError):
            failpoints.parse_spec(bad)

    def test_unknown_site_raises(self):
        with pytest.raises(FailpointError, match="unknown failpoint site"):
            failpoints.activate("sqlite.nope", "locked")

    def test_configure_round_trips_through_active(self):
        failpoints.configure("sqlite.execute=locked*2,catalog.load=unsupported")
        assert failpoints.active() == {
            "sqlite.execute": "locked*2",
            "catalog.load": "unsupported",
        }

    def test_configure_empty_disarms_everything(self):
        failpoints.activate("sql.render", "boom")
        failpoints.configure("")
        assert failpoints.active() == {}

    def test_load_env_reads_the_variable(self):
        failpoints.load_env({"REPRO_FAILPOINTS": "sql.render=unsupported"})
        assert failpoints.active() == {"sql.render": "unsupported"}


class TestHitSemantics:
    def test_unarmed_site_is_free(self):
        assert failpoints.hit("sqlite.execute") is None
        assert failpoints.hits["sqlite.execute"] == 0

    def test_count_limited_spec_exhausts(self):
        failpoints.activate("sqlite.execute", "locked*2")
        for _ in range(2):
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                failpoints.hit("sqlite.execute")
        failpoints.hit("sqlite.execute")  # third hit passes
        assert failpoints.hits["sqlite.execute"] == 3
        assert failpoints.active()["sqlite.execute"] == "locked*0"

    def test_kinds_raise_their_exception(self):
        failpoints.activate("sqlite.connect", "unsupported:no catalog")
        with pytest.raises(BackendUnsupported, match="no catalog"):
            failpoints.hit("sqlite.connect")
        failpoints.activate("sqlite.connect", "boom")
        with pytest.raises(RuntimeError):
            failpoints.hit("sqlite.connect")


#: The sites on the in-process backend execution path.  The ``pool.*``
#: sites live in the serving layer — arming them cannot (and must not)
#: perturb a direct Session run; their chaos coverage lives in
#: ``tests/serve/test_supervision.py``.
BACKEND_SITES = tuple(
    site for site in failpoints.SITES if not site.startswith("pool.")
)


class TestChaosDifferential:
    """Armed fault at every site × typed kind → fallback equals the oracle."""

    @pytest.mark.parametrize("site", BACKEND_SITES)
    @pytest.mark.parametrize("kind", ["locked", "error", "unsupported"])
    def test_fault_falls_back_to_a_correct_answer(self, site, kind):
        db = _db()
        expected = _oracle_rows(db)
        failpoints.reset()  # the oracle run must be fault-free too
        reset_breakers()
        failpoints.activate(site, kind)
        session = _sqlite_session(db)
        info = session.prepare(QUERY).run_info()
        assert info["result"].sorted_rows() == expected
        assert info["fallback_reasons"], (
            f"fault at {site} should have produced a fallback reason"
        )

    @pytest.mark.parametrize("site", ["sqlite.connect", "catalog.load"])
    @pytest.mark.parametrize("kind", ["error", "unsupported"])
    def test_failed_connect_caches_no_connection(self, site, kind):
        """A connect or load fault leaves the thread's cache empty, so the
        next fault-free run loads a complete catalog and runs natively."""
        from repro.backends.exec import sqlite_exec

        db = _db()
        failpoints.activate(site, kind)
        session = _sqlite_session(db)
        assert session.prepare(QUERY).run_info()["fallback_reasons"]
        assert not sqlite_exec._thread.connections
        failpoints.reset()
        reset_breakers()
        info = session.prepare(QUERY).run_info()
        assert info["fallback_reasons"] == []
        assert info["result"].sorted_rows() == _oracle_rows(db)
        assert session.catalog_loads == 1

    def test_boom_is_the_untyped_path_and_counts_a_failure(self):
        failpoints.activate("sqlite.execute", "boom")
        session = _sqlite_session()
        with pytest.raises(RuntimeError):
            session.prepare(QUERY).run()
        assert breaker_for("sqlite").failures == 1


class TestRetries:
    def test_locked_twice_retries_then_succeeds(self):
        failpoints.activate("sqlite.execute", "locked*2")
        db = _db(((1, 10), (2, 20), (3, 30), (4, 40)))
        session = _sqlite_session(db)
        result = session.prepare(QUERY).run()
        assert [row["A"] for row in result.sorted_rows()] == [2, 3, 4]
        assert session.stats.retries == 2
        # All attempts went to the sqlite engine: no fallback happened.
        assert breaker_for("sqlite").failures == 0

    def test_persistent_lock_exhausts_retries_and_falls_back(self):
        failpoints.activate("sqlite.execute", "locked")
        db = _db()
        session = _sqlite_session(db)
        info = session.prepare(QUERY).run_info()
        assert info["result"].sorted_rows() == _oracle_rows(_db())
        assert any("locked" in r for r in info["fallback_reasons"])
        assert session.stats.retries == 2  # attempts 2 and 3 were retries

    def test_non_transient_error_is_not_retried(self):
        failpoints.activate("sqlite.execute", "error:disk I/O error")
        session = _sqlite_session()
        info = session.prepare(QUERY).run_info()
        assert session.stats.retries == 0
        assert any("disk I/O error" in r for r in info["fallback_reasons"])


class TestCircuitBreakerUnit:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            "x", threshold=3, cooldown_s=10.0, clock=lambda: clock[0]
        )
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # the trip
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker("x", threshold=2, clock=lambda: 0.0)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False  # count restarted
        assert breaker.state == "closed"

    def test_cooldown_half_opens_then_success_closes(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            "x", threshold=1, cooldown_s=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 5.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # the single trial run
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens_for_another_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            "x", threshold=1, cooldown_s=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        assert breaker.record_failure() is True  # re-trip
        assert breaker.trips == 2
        clock[0] = 9.0  # cooldown restarted at t=5
        assert not breaker.allow()
        clock[0] = 10.0
        assert breaker.allow()


class TestCircuitBreakerDispatch:
    def _install_breaker(self, clock, threshold=2):
        breaker = CircuitBreaker(
            "sqlite", threshold=threshold, cooldown_s=30.0,
            clock=lambda: clock[0],
        )
        registry_mod._BREAKERS["sqlite"] = breaker
        return breaker

    def test_runtime_failures_open_the_breaker_and_skip_the_probe(self):
        clock = [0.0]
        breaker = self._install_breaker(clock)
        failpoints.activate("sqlite.execute", "error")
        db = _db()
        session = _sqlite_session(db)
        prepared = session.prepare(QUERY)
        expected = _oracle_rows(_db())

        info = prepared.run_info()
        assert info["result"].sorted_rows() == expected
        info = prepared.run_info()
        assert info["result"].sorted_rows() == expected
        assert breaker.state == "open"
        assert session.stats.breaker_trips == 1

        # Breaker open: dispatch goes straight to the fallback with the
        # breaker named as the reason — the injected fault never fires.
        hits_before = failpoints.hits["sqlite.execute"]
        info = prepared.run_info()
        assert info["result"].sorted_rows() == expected
        assert any("circuit breaker" in r for r in info["fallback_reasons"])
        assert failpoints.hits["sqlite.execute"] == hits_before

    def test_half_open_trial_success_closes_and_clears_degradation(self):
        clock = [0.0]
        breaker = self._install_breaker(clock, threshold=1)
        failpoints.activate("sqlite.execute", "error*1")
        session = _sqlite_session()
        prepared = session.prepare(QUERY)
        with pytest.warns(BackendFallbackWarning, match="injected"):
            prepared.run()  # fault → fallback → breaker opens
        assert breaker.state == "open"
        clock[0] = 30.0  # cooldown elapsed → half-open trial
        info = prepared.run_info()
        assert info["fallback_reasons"] == []  # the sqlite engine answered
        assert breaker.state == "closed"
        assert breaker_states()["sqlite"]["state"] == "closed"

    def test_static_probe_refusals_do_not_count(self):
        # Set semantics is a *static* refusal: steady-state fallback, not
        # a backend health problem.
        db = _db()
        session = Session(
            db, repro.SET_CONVENTIONS, options=EvalOptions(backend="sqlite")
        )
        with pytest.warns(BackendFallbackWarning, match="set semantics"):
            for _ in range(registry_mod.BREAKER_THRESHOLD + 1):
                session.prepare(QUERY).run()
        assert breaker_for("sqlite").failures == 0
        assert breaker_for("sqlite").state == "closed"

    def test_planner_backend_carries_no_breaker(self):
        Session(_db(), SQL_CONVENTIONS).prepare(QUERY).run()
        assert "planner" not in breaker_states()


class TestReasonsChannel:
    def test_reasons_sink_suppresses_the_warning(self):
        failpoints.activate("sql.render", "unsupported:injected refusal")
        prepared = _sqlite_session().prepare(QUERY)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            info = prepared.run_info()
        assert [row["A"] for row in info["result"].sorted_rows()] == [2, 3]
        assert any("injected refusal" in r for r in info["fallback_reasons"])
        assert not [w for w in caught if isinstance(w.message, BackendFallbackWarning)]

    def test_without_a_sink_the_warning_still_fires(self):
        failpoints.activate("sql.render", "unsupported")
        prepared = _sqlite_session().prepare(QUERY)
        with pytest.warns(BackendFallbackWarning):
            prepared.run()
