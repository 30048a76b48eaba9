"""Session/Prepared warm-state reuse, counter-pinned.

The tentpole claim of the Session API: a second ``Prepared.run()`` rides
entirely on warm state — zero plan compilations, zero decorrelation-index
builds, zero SQLite catalog reloads — and mutating a relation invalidates
exactly the caches that depend on it.
"""

import warnings

import pytest

from repro.api import EvalOptions, Prepared, Session
from repro.backends.exec import BackendFallbackWarning
from repro.backends.exec import sqlite_exec
from repro.core.conventions import SET_CONVENTIONS, SQL_CONVENTIONS
from repro.core.parser import parse
from repro.data import Database
from repro.engine import evaluate
from repro.errors import OptionsError
from repro.workloads import sweeps

JOIN = "{Q(A) | ∃r ∈ R, s ∈ S[Q.A = r.A ∧ r.B = s.B]}"
GROUPED = "{Q(A, sm) | ∃r ∈ R, γ r.A[Q.A = r.A ∧ Q.sm = sum(r.B)]}"


@pytest.fixture
def db():
    database = Database()
    database.create("R", ("A", "B"), [(i, i % 7) for i in range(40)])
    database.create("S", ("B", "C"), [(i % 7, i) for i in range(21)])
    return database


def _correlated_db(n=120):
    domain = max(4, n // 4)
    database = Database()
    database.create("R", ("K0", "misc"), [(i % domain, i) for i in range(n)])
    database.create(
        "S", ("K0", "G", "B"), [(i % domain, i % 3, i % 50) for i in range(n)]
    )
    return database


class TestPrepare:
    def test_prepare_text_is_cached(self, db):
        session = Session(db)
        first = session.prepare(JOIN)
        assert session.prepare(JOIN) is first
        assert session.prepare(JOIN, "arc") is first

    def test_prepare_node_adopts(self, db):
        session = Session(db)
        node = parse(JOIN)
        prepared = session.prepare(node)
        assert isinstance(prepared, Prepared)
        assert prepared.node is node

    def test_prepare_other_frontends(self, db):
        session = Session(db, SQL_CONVENTIONS)
        prepared = session.prepare("select R.A from R where R.B = 1", "sql")
        result = prepared.run()
        assert set(result.schema) == {"A"}

    def test_session_requires_eval_options(self, db):
        with pytest.raises(OptionsError, match="EvalOptions"):
            Session(db, options={"backend": "sqlite"})

    def test_results_match_one_shot_evaluate(self, db):
        session = Session(db, SQL_CONVENTIONS)
        for query in (JOIN, GROUPED):
            prepared = session.prepare(query)
            expected = evaluate(
                parse(query), db, SQL_CONVENTIONS, options=EvalOptions()
            )
            assert prepared.run() == expected
            assert prepared.run(backend="reference") == expected
            assert prepared.run(backend="sqlite") == expected


class TestWarmStateReuse:
    def test_second_run_compiles_no_plans(self, db):
        session = Session(db, SQL_CONVENTIONS)
        prepared = session.prepare(JOIN)
        first = prepared.run()
        compiled_after_first = session.stats.plans_compiled
        assert compiled_after_first > 0
        second = prepared.run()
        assert second == first
        assert session.stats.plans_compiled == compiled_after_first
        assert session.stats.plan_cache_hits > 0

    def test_second_run_builds_no_decorr_index(self):
        session = Session(_correlated_db(), SQL_CONVENTIONS)
        prepared = session.prepare(sweeps.correlated_aggregate_query(agg="sum"))
        first = prepared.run()
        assert not first.is_empty()
        assert session.stats.decorr_index_builds == 1
        assert session.stats.lateral_reevals == 0
        assert prepared.run() == first
        assert session.stats.decorr_index_builds == 1  # reused, not rebuilt

    def test_second_run_reloads_no_catalog(self, db):
        sqlite_exec.clear_catalog_cache()
        session = Session(
            db, SQL_CONVENTIONS, options=EvalOptions(backend="sqlite")
        )
        prepared = session.prepare(JOIN)
        first = prepared.run()
        assert session.catalog_loads == 1
        assert prepared.run() == first
        assert session.catalog_loads == 1
        assert session.catalog_hits == 1
        # The connection stays warm in this thread's cache.
        _, loaded = sqlite_exec.connect_catalog(db)
        assert not loaded

    def test_second_run_skips_the_capability_probe(self, db):
        session = Session(
            db, SQL_CONVENTIONS, options=EvalOptions(backend="sqlite")
        )
        prepared = session.prepare(JOIN)
        prepared.run()
        assert session.probe_hits == 0
        prepared.run()
        assert session.probe_hits == 1

    def test_mutation_invalidates_exactly_the_affected_caches(self):
        database = _correlated_db()
        session = Session(database, SQL_CONVENTIONS)
        prepared = session.prepare(sweeps.correlated_aggregate_query(agg="sum"))
        prepared.run()
        prepared.run()
        assert session.stats.decorr_index_builds == 1
        compiled_before = session.stats.plans_compiled

        # Mutating an inner relation drops the FIO index (it is cached on
        # that relation) but leaves the compiled scope plans intact: the
        # catalog classification of every binding is unchanged.
        database["S"].add((0, 0, 49))
        rerun = prepared.run()
        assert session.stats.decorr_index_builds == 2
        assert session.stats.plans_compiled == compiled_before
        assert rerun == evaluate(
            prepared.node, database, SQL_CONVENTIONS,
            options=EvalOptions(decorrelate=False),
        )

    def test_mutation_reloads_the_sqlite_catalog(self, db):
        sqlite_exec.clear_catalog_cache()
        session = Session(
            db, SQL_CONVENTIONS, options=EvalOptions(backend="sqlite")
        )
        prepared = session.prepare(JOIN)
        prepared.run()
        prepared.run()
        assert session.catalog_loads == 1
        probe_hits_before = session.probe_hits
        db["R"].add((100, 1))
        result = prepared.run()
        assert session.catalog_loads == 2  # fingerprint changed: one reload
        assert session.probe_hits == probe_hits_before  # verdict re-probed
        assert any(row["A"] == 100 for row in result)

    def test_stats_accumulate_across_runs_and_queries(self, db):
        session = Session(db, SQL_CONVENTIONS)
        session.prepare(JOIN).run()
        probes_after_join = session.stats.index_probes
        assert probes_after_join > 0
        session.prepare(GROUPED).run()
        assert session.stats.index_probes >= probes_after_join


class TestBackendDispatch:
    def test_fallback_warning_passes_through(self, db):
        # Set conventions are not offloadable: the sqlite run falls back.
        session = Session(
            db, SET_CONVENTIONS, options=EvalOptions(backend="sqlite")
        )
        prepared = session.prepare(JOIN)
        with pytest.warns(BackendFallbackWarning, match="set semantics"):
            result = prepared.run()
        assert result == evaluate(parse(JOIN), db, options=EvalOptions())

    @pytest.mark.parametrize("entry", ["prepared_run", "session_evaluate", "evaluate"])
    def test_fallback_warning_points_at_the_caller(self, db, entry):
        session = Session(
            db, SET_CONVENTIONS, options=EvalOptions(backend="sqlite")
        )
        with pytest.warns(BackendFallbackWarning) as record:
            if entry == "prepared_run":
                session.prepare(JOIN).run()
            elif entry == "session_evaluate":
                session.evaluate(JOIN)
            else:
                evaluate(parse(JOIN), db, options=EvalOptions(backend="sqlite"))
        assert record[0].filename == __file__

    def test_fallback_false_raises(self, db):
        """The refusal ``fallback=False`` used to raise is reported in
        ``fallback_reasons``, the one fallback verdict."""
        session = Session(
            db, SET_CONVENTIONS, options=EvalOptions(backend="sqlite")
        )
        info = session.prepare(JOIN).run_info()
        assert any("set semantics" in r for r in info["fallback_reasons"])

    def test_per_run_override_leaves_session_options_alone(self, db):
        session = Session(db, SQL_CONVENTIONS)
        prepared = session.prepare(JOIN)
        baseline = prepared.run()
        assert prepared.run(backend="sqlite") == baseline
        assert session.options.backend == "planner"

    def test_db_file_round_trip(self, db, tmp_path):
        path = str(tmp_path / "catalog.db")
        session = Session(
            db, SQL_CONVENTIONS, options=EvalOptions(db_file=path)
        )
        result = session.prepare(JOIN).run()
        assert (tmp_path / "catalog.db").exists()
        # A second session against the persisted file starts warm.
        second = Session(db, SQL_CONVENTIONS, options=EvalOptions(db_file=path))
        assert second.prepare(JOIN).run() == result
        assert second.catalog_loads == 0

    def test_prepared_lru_evicts(self, db):
        from repro.api import session as session_module

        session = Session(db)
        first = session.prepare(JOIN)
        for i in range(session_module._PREPARED_LIMIT):
            session.prepare("{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B = %d]}" % i)
        assert session.prepare(JOIN) is not first

    def test_context_manager_closes(self, db):
        with Session(db) as session:
            session.prepare(JOIN)
            assert len(session._prepared) == 1
        assert len(session._prepared) == 0
