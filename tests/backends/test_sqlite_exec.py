"""Unit tests for the SQLite offload engine and the backend registry."""

import sqlite3
import warnings

import pytest

from repro.api import EvalOptions, Session
from repro.backends.exec import (
    BackendFallbackWarning,
    BackendUnsupported,
    available_backends,
    catalog_fingerprint,
    clear_catalog_cache,
    connect_catalog,
    get_backend,
)
from repro.backends.exec import sqlite_exec
from repro.core.conventions import (
    SET_CONVENTIONS,
    SOUFFLE_CONVENTIONS,
    SQL_CONVENTIONS,
)
from repro.core.parser import parse
from repro.data import Database, NULL, Relation, Truth, csvio
from repro.engine import evaluate
from repro.errors import EvaluationError

ORACLE = EvalOptions(backend="reference")
SQLITE = EvalOptions(backend="sqlite")

IDENTITY = "{Q(A, B) | ∃r ∈ R[Q.A = r.A ∧ Q.B = r.B]}"
ANCESTOR = (
    "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
    "∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}"
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_catalog_cache()
    yield
    clear_catalog_cache()


def _mixed_db():
    db = Database()
    db.create(
        "R",
        ("A", "B"),
        [(1, 1.5), (1, 1.5), ("x", NULL), (NULL, "y")],  # bag duplicate + NULLs
    )
    return db


class TestValueMapping:
    def test_round_trip_preserves_types_nulls_and_multiplicity(self):
        db = _mixed_db()
        result = evaluate(parse(IDENTITY), db, SQL_CONVENTIONS, options=SQLITE)
        assert result == evaluate(parse(IDENTITY), db, SQL_CONVENTIONS, options=ORACLE)
        assert result.multiplicity({"A": 1, "B": 1.5}) == 2
        assert any(r["B"] is NULL for r in result.iter_distinct())

    def test_nan_values_are_rejected_not_silently_nulled(self):
        db = Database()
        db.create("R", ("A", "B"), [(float("nan"), 1)])
        with pytest.raises(BackendUnsupported, match="NaN"):
            connect_catalog(db)

    def test_unsupported_value_type_is_rejected(self):
        db = Database()
        db.create("R", ("A",), [((1, 2),)])  # a tuple-valued cell
        with pytest.raises(BackendUnsupported, match="value"):
            connect_catalog(db)

    def test_case_colliding_relation_names_are_rejected(self):
        db = Database()
        db.create("R", ("A",), [(1,)])
        db.create("r", ("A",), [(2,)])
        with pytest.raises(BackendUnsupported, match="collide"):
            connect_catalog(db)

    def test_meta_table_name_is_reserved(self, tmp_path):
        db = Database()
        db.create("__arc_catalog__", ("A",), [(1,)])
        with pytest.raises(BackendUnsupported, match="reserved"):
            connect_catalog(db, db_file=str(tmp_path / "c.db"))
        # Through dispatch, the collision falls back instead of crashing.
        query = parse("{Q(A) | ∃r ∈ __arc_catalog__[Q.A = r.A]}")
        with pytest.warns(BackendFallbackWarning):
            result = evaluate(
                query,
                db,
                SQL_CONVENTIONS,
                options=EvalOptions(db_file=str(tmp_path / "c.db")),
            )
        assert result == evaluate(query, db, SQL_CONVENTIONS, options=ORACLE)


class TestCatalogCache:
    def test_warm_cache_reuses_the_loaded_connection(self):
        db = _mixed_db()
        first, loaded = connect_catalog(db)
        assert loaded
        # An equal catalog (same fingerprint) on the same thread is a hit.
        second, loaded = connect_catalog(_mixed_db())
        assert second is first and not loaded
        # Sessions and one-shot evaluate() on this thread run on it too.
        query = parse(IDENTITY)
        session = Session(db, SQL_CONVENTIONS, options=SQLITE)
        session.prepare(query).run()
        assert (session.catalog_loads, session.catalog_hits) == (0, 1)
        evaluate(query, db, SQL_CONVENTIONS, options=SQLITE)
        assert connect_catalog(db) == (first, False)

    def test_equal_catalogs_share_a_fingerprint(self):
        assert catalog_fingerprint(_mixed_db()) == catalog_fingerprint(_mixed_db())

    def test_mutation_changes_the_fingerprint(self):
        db = _mixed_db()
        before = catalog_fingerprint(db)
        db["R"].add((7, 7))
        assert catalog_fingerprint(db) != before

    def test_cache_is_bounded(self):
        conns = []
        for i in range(sqlite_exec._CACHE_LIMIT + 3):
            db = Database()
            db.create("R", ("A",), [(i,)])
            conns.append(connect_catalog(db)[0])
        cached = sqlite_exec._thread.connections
        assert list(cached.values()) == conns[-sqlite_exec._CACHE_LIMIT:]
        # The evicted connections were closed.
        for conn in conns[: -sqlite_exec._CACHE_LIMIT]:
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("select 1")


class TestDbFilePersistence:
    def test_file_catalog_reloads_only_on_fingerprint_change(self, tmp_path):
        path = str(tmp_path / "catalog.db")
        db = _mixed_db()
        query = parse(IDENTITY)
        on_disk = EvalOptions(db_file=path)
        session = Session(db, SQL_CONVENTIONS, options=on_disk)
        first = session.prepare(query).run()
        assert session.catalog_loads == 1
        # Second call (fresh connection, same file): warm start, no reload.
        second = session.prepare(query).run()
        assert (session.catalog_loads, session.catalog_hits) == (1, 1)
        assert first == second
        conn, loaded = connect_catalog(db, db_file=path)
        conn.close()
        assert not loaded
        # The tables really are on disk.
        conn = sqlite3.connect(path)
        assert conn.execute("select count(*) from R").fetchone()[0] == 4
        conn.close()
        # Mutation invalidates the stored fingerprint and reloads.
        db["R"].add((8, 8))
        session.prepare(query).run()
        assert session.catalog_loads == 2


class TestCapabilities:
    def probe(self, text, db, conventions=SQL_CONVENTIONS):
        return get_backend("sqlite").capabilities(parse(text), conventions, db)

    def test_sql_conventions_fully_supported(self):
        db = Database()
        db.create("R", ("A", "B"), [(1, 2)])
        assert self.probe(IDENTITY, db) == []

    def test_non_sql_conventions_reported(self):
        db = Database()
        db.create("R", ("A", "B"), [(1, 2)])
        assert any("set" in p for p in self.probe(IDENTITY, db, SET_CONVENTIONS))
        problems = self.probe(IDENTITY, db, SOUFFLE_CONVENTIONS)
        assert any("two-valued" in p for p in problems)
        assert any("empty-aggregate" in p for p in problems)

    def test_externals_reported(self):
        db = Database()
        db.create("R", ("A", "B"), [(1, 2)])
        problems = self.probe(
            "{Q(A) | ∃r ∈ R, f ∈ Minus[Q.A = r.A ∧ f.left = r.A ∧ "
            "f.right = r.B ∧ f.out = 0]}",
            db,
        )
        assert any("Minus" in p for p in problems)

    def _rs_db(self):
        db = Database()
        db.create("R", ("A", "B"), [(1, 2)])
        db.create("S", ("A", "B"), [(1, 2)])
        return db

    def test_decorrelatable_laterals_are_supported(self):
        # γ∅ aggregate scopes (any correlation) inline as scalar subqueries;
        # equality-correlated grouped scopes decorrelate to group-by joins;
        # non-grouped correlated scopes unnest — none needs LATERAL.
        db = self._rs_db()
        assert (
            self.probe(
                "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
                "[s.A < r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}",
                db,
            )
            == []
        )
        assert (
            self.probe(
                "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm, g) | ∃s ∈ S, γ s.A"
                "[s.A = r.A ∧ X.sm = sum(s.B) ∧ X.g = s.A]}"
                "[Q.A = r.A ∧ Q.sm = x.sm]}",
                db,
            )
            == []
        )
        assert (
            self.probe(
                "{Q(A, B) | ∃r ∈ R, z ∈ {Z(B) | ∃s ∈ S[Z.B = s.B ∧ "
                "s.A < r.A]}[Q.A = r.A ∧ Q.B = z.B]}",
                db,
            )
            == []
        )

    def test_theta_band_derived_table_runs_natively(self):
        # A non-grouped θ lateral that resists unnesting (its inner binding
        # is itself a collection) renders as an uncorrelated derived table
        # joined through the projected band key with the inequality — no
        # LATERAL, executed natively.
        db = self._rs_db()
        query = parse(
            "{Q(A, B) | ∃r ∈ R, z ∈ {Z(B) | ∃u ∈ {U(B) | ∃s ∈ S"
            "[U.B = s.B]}[Z.B = u.B ∧ u.B < r.A]}[Q.A = r.A ∧ Q.B = z.B]}"
        )
        assert get_backend("sqlite").capabilities(query, SQL_CONVENTIONS, db) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            result = evaluate(query, db, SQL_CONVENTIONS, options=SQLITE)
        assert result == evaluate(query, db, SQL_CONVENTIONS, options=ORACLE)

    def test_non_equality_grouped_lateral_reported_specifically(self):
        # γ-keys + non-equality correlation: no group-by rewrite, no scalar
        # shape — the message must name the binding and the refusal, and
        # the refusal names the *predicate* (a band-eligible operator on a
        # named column), so the caller can tell it apart from truly unsafe
        # correlation shapes.
        problems = self.probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ s.A"
            "[s.A < r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}",
            self._rs_db(),
        )
        assert any(
            "'x'" in p and "LATERAL" in p and "non-equality" in p
            and "< on s.A" in p
            for p in problems
        )

    def test_not_equal_lateral_names_the_unsafe_predicate(self):
        # <> is not band-indexable at all: the message names the operator
        # so band-eligible refusals (shape) and unsafe ones (operator) are
        # distinguishable.
        problems = self.probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm, g) | ∃s ∈ S, γ s.A"
            "[s.A <> r.A ∧ X.sm = sum(s.B) ∧ X.g = s.A]}"
            "[Q.A = r.A ∧ Q.sm = x.sm]}",
            self._rs_db(),
        )
        assert any(
            "'x'" in p and "<> on s.A" in p and "θ-band-indexable" in p
            for p in problems
        )

    def test_gamma_empty_having_lateral_reported_specifically(self):
        # γ∅ with an aggregate comparison filters the single group away, so
        # it is not a scalar (exactly-one-row) shape; the count bug forbids
        # the group-by rewrite even for the equality correlation.
        problems = self.probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[s.A = r.A ∧ X.sm = sum(s.B) ∧ count(s.B) > 1]}"
            "[Q.A = r.A ∧ Q.sm = x.sm]}",
            self._rs_db(),
        )
        assert any(
            "'x'" in p and "count bug" in p and "aggregate comparison" in p
            for p in problems
        )

    def test_nested_correlated_lateral_reported_specifically(self):
        problems = self.probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm, g) | ∃s ∈ S, "
            "w ∈ {W(c) | ∃s2 ∈ S, γ ∅[s2.A = r.A ∧ W.c = count(s2.B)]}, γ s.A"
            "[s.A = r.A ∧ X.sm = sum(s.B) ∧ X.g = s.A ∧ w.c >= 0]}"
            "[Q.A = r.A ∧ Q.sm = x.sm]}",
            self._rs_db(),
        )
        assert any("'x'" in p and "nested" in p for p in problems)

    def test_chained_scalar_laterals_run_natively(self):
        # A γ∅ scalar binding referencing an earlier γ∅ scalar binding
        # renders the reference as a *nested* scalar subquery (the earlier
        # alias was eliminated from FROM), so the chain stays native.
        db = Database()
        db.create("R", ("K", "misc"), [(1, 0), (2, 1), (3, 2)])
        db.create("S", ("K", "B"), [(1, 5), (1, 7), (2, 11)])
        db.create("T", ("K", "B"), [(1, 3), (1, 9), (2, 4)])
        query = parse(
            "{Q(k, d) | ∃r ∈ R, "
            "x ∈ {X(v) | ∃s ∈ S, γ ∅[s.K = r.K ∧ X.v = sum(s.B)]}, "
            "y ∈ {Y(d) | ∃t ∈ T, γ ∅[t.K = r.K ∧ t.B < x.v ∧ "
            "Y.d = count(t.B)]}[Q.k = r.K ∧ Q.d = y.d]}"
        )
        assert get_backend("sqlite").capabilities(query, SQL_CONVENTIONS, db) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            result = evaluate(query, db, SQL_CONVENTIONS, options=SQLITE)
        assert result == evaluate(query, db, SQL_CONVENTIONS, options=ORACLE)

    def test_join_annotated_scalar_binding_reported_specifically(self):
        # The renderer never scalar-inlines a binding that is an operand of
        # a join annotation, so the probe must report it (not promise
        # native execution and silently fall back at run time).
        db = self._rs_db()
        query = parse(
            "{Q(A, v) | ∃r ∈ R, x ∈ {X(v) | ∃s ∈ S, γ ∅"
            "[s.A = r.A ∧ X.v = sum(s.B)]}, left(r, x)"
            "[Q.A = r.A ∧ Q.v = x.v]}"
        )
        problems = get_backend("sqlite").capabilities(query, SQL_CONVENTIONS, db)
        assert any("'x'" in p and "join annotation" in p for p in problems)
        with pytest.warns(BackendFallbackWarning, match="join annotation"):
            result = evaluate(query, db, SQL_CONVENTIONS, options=SQLITE)
        assert result == evaluate(query, db, SQL_CONVENTIONS, options=ORACLE)

    def test_probe_honors_the_decorrelate_escape_hatch(self):
        # capabilities(decorrelate=False) must match run(decorrelate=False):
        # a decorrelatable lateral is reported (with the hatch as reason)
        # instead of promised native and then crashing on the LATERAL SQL.
        db = self._rs_db()
        query = parse(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm, g) | ∃s ∈ S, γ s.A"
            "[s.A = r.A ∧ X.sm = sum(s.B) ∧ X.g = s.A]}"
            "[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        engine = get_backend("sqlite")
        assert engine.capabilities(query, SQL_CONVENTIONS, db) == []
        problems = engine.capabilities(
            query, SQL_CONVENTIONS, db, decorrelate=False
        )
        assert any("decorrelation disabled" in p for p in problems)
        session = Session(
            db, SQL_CONVENTIONS,
            options=EvalOptions(backend="sqlite", decorrelate=False),
        )
        info = session.prepare(query).run_info()
        assert any(
            "decorrelation disabled" in r for r in info["fallback_reasons"]
        )
        assert info["result"] == evaluate(
            query, db, SQL_CONVENTIONS, options=ORACLE
        )

    def test_fallback_warning_carries_the_specific_reasons(self):
        db = self._rs_db()
        query = parse(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ s.A"
            "[s.A < r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        with pytest.warns(BackendFallbackWarning, match="non-equality") as record:
            result = evaluate(query, db, SQL_CONVENTIONS, options=SQLITE)
        assert result == evaluate(query, db, SQL_CONVENTIONS, options=ORACLE)
        fallback = [
            w.message
            for w in record
            if isinstance(w.message, BackendFallbackWarning)
        ][0]
        assert any("'x'" in reason for reason in fallback.reasons)

    def test_division_reported(self):
        db = Database()
        db.create("R", ("A", "B"), [(1, 2)])
        problems = self.probe("{Q(A) | ∃r ∈ R[Q.A = r.A / r.B]}", db)
        assert any("division" in p for p in problems)

    def test_negation_over_nulls_reported(self):
        db = Database()
        db.create("R", ("A",), [(1,)])
        db.create("S", ("A",), [(NULL,)])
        problems = self.probe(
            "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ ¬(∃s ∈ S[s.A = r.A])]}", db
        )
        assert any("UNKNOWN" in p for p in problems)
        # Null-free data: the same query is offloadable.
        db2 = Database()
        db2.create("R", ("A",), [(1,)])
        db2.create("S", ("A",), [(2,)])
        assert (
            self.probe("{Q(A) | ∃r ∈ R[Q.A = r.A ∧ ¬(∃s ∈ S[s.A = r.A])]}", db2)
            == []
        )


class TestQuotedLiterals:
    """A string literal holding a quote renders as SQL's ``''`` escape, so
    the query runs on SQLite instead of falling back."""

    @pytest.mark.parametrize(
        "frontend, text",
        [
            ("arc", "{Q(id) | ∃c ∈ C[Q.id = c.id ∧ c.name = \"O'Brien\"]}"),
            ("sql", "select c.id from C c where c.name = 'O''Brien'"),
        ],
    )
    def test_runs_natively_and_matches_the_oracle(self, frontend, text):
        db = Database()
        db.create("C", ("id", "name"), [(1, "O'Brien"), (2, "OBrien"), (3, "O''Brien")])
        prepared = Session(db, SQL_CONVENTIONS).prepare(text, frontend)
        assert sqlite_exec.SqliteBackend().capabilities(
            prepared.node, SQL_CONVENTIONS, db
        ) == []
        info = prepared.run_info(backend="sqlite")
        assert info["fallback_reasons"] == []
        assert info["result"] == prepared.run(backend="reference")
        assert sorted(row["id"] for row in info["result"]) == [1]


class TestDispatch:
    def test_unknown_backend_raises(self):
        with pytest.raises(EvaluationError, match="unknown backend"):
            get_backend("duckdb")

    def test_available_backends(self):
        assert {"reference", "planner", "sqlite"} <= set(available_backends())

    def test_fallback_disabled_raises(self):
        """The refusal ``fallback=False`` used to raise is reported in
        ``fallback_reasons``, the one fallback verdict."""
        db = Database()
        db.create("R", ("A", "B"), [(1, 2)])
        info = Session(db, SET_CONVENTIONS, options=SQLITE).prepare(
            IDENTITY
        ).run_info()
        assert any("set semantics" in r for r in info["fallback_reasons"])

    def test_fallback_warns_and_matches_planner(self):
        db = Database()
        db.create("R", ("A", "B"), [(1, 2), (1, 2)])
        with pytest.warns(BackendFallbackWarning):
            result = evaluate(parse(IDENTITY), db, SET_CONVENTIONS, options=SQLITE)
        assert result == evaluate(parse(IDENTITY), db, SET_CONVENTIONS)

    def test_runtime_rejection_falls_back(self):
        """Recursion SQLite rejects (nonlinear) still answers correctly
        through the fallback."""
        db = Database()
        db.create("P", ("s", "t"), [("a", "b"), ("b", "c")])
        nonlinear = parse(
            "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
            "∃a1 ∈ A, a2 ∈ A[A.s = a1.s ∧ a1.t = a2.s ∧ A.t = a2.t]}"
        )
        with pytest.warns(BackendFallbackWarning, match="recursive"):
            result = evaluate(nonlinear, db, SQL_CONVENTIONS, options=SQLITE)
        assert result == evaluate(nonlinear, db, SQL_CONVENTIONS, options=ORACLE)

    def test_sentence_returns_truth(self):
        db = Database()
        db.create("R", ("A",), [(1,)])
        db.create("S", ("A",), [(1,)])
        with warnings.catch_warnings():
            # Any fallback would fail the test.
            warnings.simplefilter("error", BackendFallbackWarning)
            result = evaluate(
                parse("∃r ∈ R[∃s ∈ S[s.A = r.A]]"),
                db,
                SQL_CONVENTIONS,
                options=SQLITE,
            )
        assert result is Truth.TRUE


class TestCli:
    def _write_csv(self, tmp_path, name, schema, rows):
        rel = Relation(name, schema, rows)
        path = tmp_path / f"{name.lower()}.csv"
        csvio.write_csv(rel, str(path))
        return f"{path}:{name}"

    def test_eval_backend_sqlite_from_csv(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_csv(tmp_path, "R", ("A", "B"), [(1, 10), (2, 20)])
        code = main(
            [
                "eval",
                "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 15]}",
                "--db",
                spec,
                "--conventions",
                "sql",
                "--backend",
                "sqlite",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2" in out and "1" not in out.splitlines()[-1]

    def test_eval_recursive_program_on_sqlite_from_csv(self, tmp_path, capsys):
        """Acceptance: a WITH RECURSIVE program end-to-end from CSV."""
        from repro.cli import main

        spec = self._write_csv(
            tmp_path, "P", ("s", "t"), [("a", "b"), ("b", "c"), ("c", "d")]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            code = main(
                [
                    "eval",
                    ANCESTOR,
                    "--db",
                    spec,
                    "--conventions",
                    "sql",
                    "--backend",
                    "sqlite",
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "a" in out and "d" in out
        assert out.count("\n") >= 6  # six closure pairs

    def test_eval_db_file_implies_sqlite(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_csv(tmp_path, "R", ("A", "B"), [(1, 10)])
        path = str(tmp_path / "catalog.db")
        code = main(
            [
                "eval",
                "{Q(A) | ∃r ∈ R[Q.A = r.A]}",
                "--db",
                spec,
                "--conventions",
                "sql",
                "--db-file",
                path,
            ]
        )
        assert code == 0
        conn = sqlite3.connect(path)
        assert conn.execute("select count(*) from R").fetchone()[0] == 1
        conn.close()

    def test_parser_exposes_backend_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["eval", "{Q(A) | ∃r ∈ R[Q.A = r.A]}", "--backend", "sqlite"]
        )
        assert args.backend == "sqlite"

    def test_conflicting_engine_flags_are_rejected(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_csv(tmp_path, "R", ("A", "B"), [(1, 10)])
        query = "{Q(A) | ∃r ∈ R[Q.A = r.A]}"
        # --db-file with a non-sqlite backend would be silently ignored.
        assert (
            main(
                [
                    "eval",
                    query,
                    "--db",
                    spec,
                    "--backend",
                    "planner",
                    "--db-file",
                    str(tmp_path / "c.db"),
                ]
            )
            == 2
        )
        assert "--db-file" in capsys.readouterr().err
