"""ARC -> SQL rendering: shape checks plus execution round-trips."""

import pytest

from repro.backends.sql_render import to_sql
from repro.core.conventions import SQL_CONVENTIONS
from repro.core.parser import parse
from repro.data import Database
from repro.engine import evaluate
from repro.errors import RewriteError
from repro.frontends.sql import to_arc


def roundtrip_equal(arc_text, db, conventions=SQL_CONVENTIONS):
    """Evaluate an ARC query and its SQL rendering; compare results."""
    arc = parse(arc_text)
    sql = to_sql(arc)
    back = to_arc(sql, database=db)
    direct = evaluate(arc, db, conventions)
    via_sql = evaluate(back, db, conventions)
    assert direct == via_sql, sql
    return sql


@pytest.fixture
def db():
    database = Database()
    database.create("R", ("A", "B"), [(1, 10), (1, 20), (2, 5)])
    database.create("S", ("A", "B"), [(0, 7), (1, 3)])
    database.create("R2", ("id", "q"), [(9, 0), (1, 1)])
    database.create("S2", ("id", "d"), [(1, "x")])
    return database


class TestShapes:
    def test_projection(self):
        sql = to_sql(parse("{Q(A) | ∃r ∈ R[Q.A = r.A]}"))
        assert sql.splitlines()[0] == "select r.A as A"

    def test_group_by(self):
        sql = to_sql(parse("{Q(A, sm) | ∃r ∈ R, γ r.A[Q.A = r.A ∧ Q.sm = sum(r.B)]}"))
        assert "group by r.A" in sql
        assert "sum(r.B) as sm" in sql

    def test_distinct_for_dedup_grouping(self):
        sql = to_sql(parse("{Q(A) | ∃r ∈ R, γ r.A[Q.A = r.A]}"))
        assert sql.startswith("select distinct")

    def test_not_exists(self):
        sql = to_sql(parse("{Q(A) | ∃r ∈ R[Q.A = r.A ∧ ¬(∃s ∈ S[s.A = r.A])]}"))
        assert "not exists" in sql

    def test_scalar_subquery_for_boolean_gamma(self):
        sql = to_sql(
            parse(
                "{Q(id) | ∃r ∈ R2[Q.id = r.id ∧ "
                "∃s ∈ S2, γ ∅[r.id = s.id ∧ r.q = count(s.d)]]}"
            )
        )
        assert "r.q = (" in sql and "select count(s.d)" in sql

    def test_correlated_gamma_empty_renders_scalar_subquery(self):
        # A correlated γ∅ aggregate-only scope is the paper's Fig. 13a
        # shape: one row per outer row, rendered as a correlated scalar
        # subquery instead of a LATERAL derived table (so engines without
        # LATERAL execute it).
        sql = to_sql(
            parse(
                "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
                "[s.A < r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
            )
        )
        assert "lateral" not in sql
        assert "(\n   select sum(s.B)" in sql

    def test_lateral(self):
        # A correlated scope that is neither γ∅-scalar nor decorrelated by
        # the renderer (grouping keys) still needs the lateral keyword.
        sql = to_sql(
            parse(
                "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ s.A"
                "[s.A < r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
            )
        )
        assert "lateral (" in sql

    def test_uncorrelated_derived_table_has_no_lateral(self):
        # No reference to an outer binding: a plain derived table, which
        # engines without LATERAL (e.g. SQLite) can execute.
        sql = to_sql(
            parse(
                "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
                "[X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
            )
        )
        assert "lateral" not in sql
        assert ") x" in sql

    def test_shadowed_inner_variable_does_not_hide_correlation(self):
        # The sub-subquery rebinds r; the outer-referencing `s.A < r.A` in
        # the middle (grouped, so not scalar-renderable) scope is still
        # correlated, so lateral must survive (a scope-insensitive
        # free-variable analysis would drop it).
        sql = to_sql(
            parse(
                "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, "
                "y ∈ {Y(c) | ∃r ∈ R2, γ ∅[Y.c = count(r.A)]}, γ s.A"
                "[s.A < r.A ∧ X.sm = sum(s.B) ∧ y.c >= 0]}"
                "[Q.A = r.A ∧ Q.sm = x.sm]}"
            )
        )
        assert "lateral (" in sql
        from repro.core.scopes import free_variables

        inner = parse(
            "{X(sm) | ∃s ∈ S, y ∈ {Y(c) | ∃r ∈ R2, γ ∅[Y.c = count(r.A)]}, "
            "γ ∅[s.A = r.A ∧ X.sm = sum(s.B)]}"
        )
        assert free_variables(inner) == {"r"}

    def test_left_join_with_literal_leaf(self):
        sql = to_sql(
            parse(
                "{Q(m, n) | ∃r ∈ R3, s ∈ S3, left(r, inner(11, s))"
                "[Q.m = r.m ∧ Q.n = s.n ∧ r.y = s.y ∧ r.h = 11]}"
            )
        )
        assert "left join" in sql
        assert "r.h = 11" in sql  # re-materialized as ON conjunct

    def test_union_all(self):
        sql = to_sql(parse("{Q(v) | ∃r ∈ R[Q.v = r.A] ∨ ∃s ∈ S[Q.v = s.A]}"))
        assert "union all" in sql

    def test_sentence(self):
        sql = to_sql(parse("∃r ∈ R[∃s ∈ S, γ ∅[r.id = s.id ∧ r.q = count(s.d)]]"))
        assert sql.startswith("select exists (")

    def test_negated_sentence_is_not_exists(self):
        # ¬∃ must render as `select not exists (...)` directly: wrapping the
        # negation in a further EXISTS would always be true, because the
        # inner boolean select always yields its one row.
        sql = to_sql(parse("¬∃r ∈ R[∃s ∈ S, γ ∅[r.id = s.id ∧ r.q > count(s.d)]]"))
        assert sql.startswith("select not exists (")
        assert "exists (select not" not in sql

    def test_recursive_program_with_recursive(self):
        program = parse(
            "A := {A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
            "∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]} ; main A"
        )
        sql = to_sql(program)
        assert sql.startswith("with recursive A(s, t) as (")
        # Recursive disjuncts iterate a *set-based* fixpoint (Section 2.9):
        # UNION, not UNION ALL, so the SQL terminates on cyclic data.
        assert "union all" not in sql
        assert "\nunion\n" in sql

    def test_nonrecursive_program_plain_with(self):
        program = parse("V := {V(A) | ∃r ∈ R[V.A = r.A]} ; main V")
        sql = to_sql(program)
        assert sql.startswith("with V(A) as (")

    def test_aggregate_comparison_becomes_having(self):
        sql = to_sql(
            parse("{Q(A) | ∃r ∈ R, γ r.A[Q.A = r.A ∧ sum(r.B) > 10]}")
        )
        assert "having sum(r.B) > 10" in sql

    def test_count_distinct(self):
        sql = to_sql(parse("{Q(c) | ∃r ∈ R, γ ∅[Q.c = countdistinct(r.A)]}"))
        assert "count(distinct r.A)" in sql

    def test_unassigned_head_raises(self):
        with pytest.raises(RewriteError):
            to_sql(parse("{Q(A, B) | ∃r ∈ R[Q.A = r.A]}"))


class TestExecutionRoundTrips:
    def test_join(self, db):
        roundtrip_equal("{Q(A) | ∃r ∈ R, s ∈ S[Q.A = r.A ∧ r.B > s.B]}", db)

    def test_grouped(self, db):
        roundtrip_equal(
            "{Q(A, sm) | ∃r ∈ R, γ r.A[Q.A = r.A ∧ Q.sm = sum(r.B)]}", db
        )

    def test_lateral_foi(self, db):
        roundtrip_equal(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[s.A < r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}",
            db,
        )

    def test_antijoin(self, db):
        roundtrip_equal("{Q(A) | ∃r ∈ R[Q.A = r.A ∧ ¬(∃s ∈ S[s.A = r.A])]}", db)

    def test_count_bug_v1(self, db):
        roundtrip_equal(
            "{Q(id) | ∃r ∈ R2[Q.id = r.id ∧ "
            "∃s ∈ S2, γ ∅[r.id = s.id ∧ r.q = count(s.d)]]}",
            db,
        )

    def test_union(self, db):
        roundtrip_equal("{Q(v) | ∃r ∈ R[Q.v = r.A] ∨ ∃s ∈ S[Q.v = s.A]}", db)

    def test_is_null(self, db):
        from repro.data import NULL

        db.create("N", ("A",), [(1,), (NULL,)])
        roundtrip_equal("{Q(K) | ∃x ∈ N[Q.K = 1 ∧ x.A is null]}", db)

    def test_string_literal_with_a_quote(self, db):
        from repro.frontends.sql import parse_sql

        db.create("C", ("name",), [("O'Brien",), ("OBrien",)])
        sql = roundtrip_equal(
            "{Q(n) | ∃c ∈ C[Q.n = c.name ∧ c.name = \"O'Brien\"]}", db
        )
        assert "'O''Brien'" in sql
        assert parse_sql(sql) == parse_sql(to_sql(to_arc(sql, database=db)))

    def test_outer_join(self):
        database = Database()
        database.create("R3", ("m", "y", "h"), [(1, 100, 11), (2, 200, 12)])
        database.create("S3", ("y", "n"), [(100, "x"), (200, "w")])
        roundtrip_equal(
            "{Q(m, n) | ∃r ∈ R3, s ∈ S3, left(r, inner(11, s))"
            "[Q.m = r.m ∧ Q.n = s.n ∧ r.y = s.y ∧ r.h = 11]}",
            database,
        )
