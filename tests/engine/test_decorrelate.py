"""Decorrelation safety: the probe's accept/refuse matrix, pinned.

The rewrite accepts pure-equality correlations (hash-index probes, with an
UNKNOWN-aware tri-bucket build when keys may be NULL under 3VL) and single
θ correlations (`<`/`<=`/`>`/`>=` band indexes: prefix-aggregate arrays
for γ∅ scopes, sorted slices for non-grouped ones); every other shape must
fall back to the per-row strategy.  These tests drive the probe
(`decorrelate.probe_binding`) directly — asserting the decision *and* its
reason — check that refused shapes still evaluate correctly
(differentially) via the fallback, and exercise the band index's data
edges (NaN/NULL keys under both conventions, empty inners, mutation,
mixed-kind build fallbacks).
"""

import pytest

from repro.api import EvalOptions
from repro.backends.sql_render import rewrite_for_sql
from repro.core import builder as b
from repro.core import nodes as n
from repro.core.conventions import (
    SET_CONVENTIONS,
    SOUFFLE_CONVENTIONS,
    SQL_CONVENTIONS,
)
from repro.core.parser import parse
from repro.data import Database, NULL
from repro.engine import Evaluator, decorrelate, evaluate
from repro.workloads import paper_examples, sweeps

ORACLE = EvalOptions(backend="reference")


def _db(*, null_key=False):
    db = Database()
    db.create("R", ("A", "B"), [(1, 10), (2, 20), (3, 30)])
    s_rows = [(1, 5), (1, 7), (2, 11)]
    if null_key:
        s_rows.append((NULL, 13))
    db.create("S", ("A", "B"), s_rows)
    return db


def _lateral_binding(query_text):
    """The first nested-collection binding of the parsed query's body."""
    node = parse(query_text)
    for binding in node.body.bindings:
        if isinstance(binding.source, n.Collection):
            return node, binding
    raise AssertionError("query has no lateral binding")


def probe(query_text, db=None, conventions=SQL_CONVENTIONS, **kwargs):
    node, binding = _lateral_binding(query_text)
    evaluator = Evaluator(db if db is not None else _db(), conventions, **kwargs)
    spec, reason = decorrelate.probe_binding(evaluator, binding)
    if spec is None:
        # Refused shapes must still evaluate correctly via the per-row path.
        database = evaluator.database
        assert evaluate(node, database, conventions) == evaluate(
            node, database, conventions, options=ORACLE
        )
    return spec, reason


EQ_LATERAL = (
    "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
    "[s.A = r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
)


class TestProbeAccepts:
    def test_equality_gamma_empty(self):
        spec, reason = probe(EQ_LATERAL)
        assert reason is None
        assert spec.empty_group
        assert spec.key_attrs == ("_ck0",)
        assert spec.rewritten.head.attrs == ("sm", "_ck0")

    def test_equality_grouped_keys(self):
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm, g) | ∃s ∈ S, γ s.B"
            "[s.A = r.A ∧ X.sm = sum(s.B) ∧ X.g = s.B]}"
            "[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert reason is None
        assert not spec.empty_group and spec.grouped

    def test_uncorrelated_lateral_materializes_once(self):
        # No correlation keys: the inner scope is still materialized once
        # instead of per outer row.
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert reason is None
        assert spec.key_attrs == ()

    def test_null_keys_accepted_under_two_valued_logic(self):
        # 2VL treats NULL as an ordinary value; the hash probe agrees.
        spec, reason = probe(
            EQ_LATERAL, _db(null_key=True), SOUFFLE_CONVENTIONS
        )
        assert reason is None

    def test_null_keys_accepted_under_3vl_via_tribucket(self):
        # The UNKNOWN-aware (tri-bucket) index accepts NULL-able keys under
        # three-valued logic: NULL-keyed inner rows are TRUE for no probe
        # and land in the UNKNOWN bucket instead of refusing the rewrite.
        spec, reason = probe(EQ_LATERAL, _db(null_key=True), SQL_CONVENTIONS)
        assert reason is None
        spec, reason = probe(EQ_LATERAL, _db(null_key=True), SET_CONVENTIONS)
        assert reason is None

    def test_unprovable_key_expression_accepted_under_3vl(self):
        # s.A + 0 may evaluate to NULL; tri-bucket indexing handles that at
        # build time, so provability is no longer required.
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[s.A + 0 = r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert reason is None

    def test_theta_gamma_empty_becomes_a_band_spec(self):
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[s.A < r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert reason is None
        assert spec.strategy == "band"
        assert spec.band_op == "<"
        assert spec.empty_group
        assert spec.band_aggs == (("sm", "sum", spec.band_aggs[0][2]),)

    def test_theta_orientation_normalizes_the_operator(self):
        # r.A > s.A  ≡  s.A < r.A: the outer-on-the-left form flips.
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[r.A > s.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert reason is None
        assert spec.strategy == "band" and spec.band_op == "<"

    def test_theta_non_grouped_becomes_a_band_spec(self):
        spec, reason = probe(
            "{Q(A, B) | ∃r ∈ R, z ∈ {Z(B) | ∃s ∈ S[Z.B = s.B ∧ "
            "s.A >= r.A]}[Q.A = r.A ∧ Q.B = z.B]}"
        )
        assert reason is None
        assert spec.strategy == "band" and spec.band_op == ">="
        assert spec.band_attr is not None
        assert spec.rewritten.head.attrs[-1] == spec.band_attr

    def test_theta_with_equality_keys_buckets_then_bands(self):
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[s.A = r.A ∧ s.B <= r.B ∧ X.sm = count(s.B)]}"
            "[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert reason is None
        assert spec.strategy == "band" and spec.band_op == "<="
        assert len(spec.outer_exprs) == 1  # one equality key, one band


class TestProbeRefuses:
    def test_not_equal_correlation_names_the_predicate(self):
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[s.A <> r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert spec is None
        assert "non-equality" in reason and "<> on s.A" in reason

    def test_two_theta_predicates_refuse(self):
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[s.A < r.A ∧ s.B < r.B ∧ X.sm = sum(s.B)]}"
            "[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert spec is None
        assert "two non-equality predicates" in reason
        assert "< on s.A" in reason and "< on s.B" in reason

    def test_theta_under_grouping_keys_refuses_naming_the_predicate(self):
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm, g) | ∃s ∈ S, γ s.B"
            "[s.A < r.A ∧ X.sm = sum(s.B) ∧ X.g = s.B]}"
            "[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert spec is None
        assert "non-equality" in reason and "< on s.A" in reason
        assert "grouping keys" in reason

    def test_theta_gamma_empty_with_having_refuses(self):
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[s.A < r.A ∧ X.sm = sum(s.B) ∧ count(s.B) > 1]}"
            "[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert spec is None
        assert "< on s.A" in reason and "aggregate comparisons" in reason

    def test_theta_gamma_empty_distinct_aggregate_refuses(self):
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[s.A < r.A ∧ X.sm = sumdistinct(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert spec is None
        assert "< on s.A" in reason and "sumdistinct" in reason

    def test_nested_correlated_lateral(self):
        spec, reason = probe(
            "{Q(A, B) | ∃r ∈ R, x ∈ {X(B) | ∃s ∈ S, "
            "w ∈ {W(c) | ∃s2 ∈ S[W.c = s2.B ∧ s2.A = r.A]}"
            "[X.B = s.B ∧ s.B = w.c]}[Q.A = r.A ∧ Q.B = x.B]}"
        )
        assert spec is None
        assert "nested lateral" in reason

    def test_correlated_head_assignment(self):
        spec, reason = probe(
            "{Q(A, v) | ∃r ∈ R, x ∈ {X(v) | ∃s ∈ S, γ ∅"
            "[X.v = sum(s.B) + r.A]}[Q.A = r.A ∧ Q.v = x.v]}"
        )
        assert spec is None
        assert "head assignment" in reason

    def test_outer_only_predicate(self):
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[r.A > 1 ∧ s.A = r.A ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert spec is None
        assert "outer-only" in reason

    def test_mixed_operand_equality(self):
        spec, reason = probe(
            "{Q(A, sm) | ∃r ∈ R, x ∈ {X(sm) | ∃s ∈ S, γ ∅"
            "[s.A = r.A + s.B ∧ X.sm = sum(s.B)]}[Q.A = r.A ∧ Q.sm = x.sm]}"
        )
        assert spec is None
        assert "mixes" in reason

    def test_correlation_under_nested_scope(self):
        spec, reason = probe(
            "{Q(A, B) | ∃r ∈ R, x ∈ {X(B) | ∃s ∈ S[X.B = s.B ∧ "
            "∃s2 ∈ S[s2.A = r.A]]}[Q.A = r.A ∧ Q.B = x.B]}"
        )
        assert spec is None
        assert "nested scope" in reason

    def test_disjunctive_inner_body(self):
        spec, reason = probe(
            "{Q(A, B) | ∃r ∈ R, x ∈ {X(B) | ∃s ∈ S[X.B = s.B ∧ s.A = r.A] ∨ "
            "∃s ∈ S[X.B = s.A ∧ s.A = r.A]}[Q.A = r.A ∧ Q.B = x.B]}"
        )
        assert spec is None
        assert "disjunction" in reason

    def test_grouping_key_correlation(self):
        spec, reason = probe(
            "{Q(A, c) | ∃r ∈ R, x ∈ {X(c) | ∃s ∈ S, γ r.A"
            "[s.A = r.A ∧ X.c = count(s.B)]}[Q.A = r.A ∧ Q.c = x.c]}"
        )
        assert spec is None
        assert "grouping key" in reason

    def test_external_inner_relation(self):
        db = Database()
        db.create("R", ("A", "B"), [(1, 10)])
        node, binding = _lateral_binding(
            "{Q(A, v) | ∃r ∈ R, x ∈ {X(v) | ∃f ∈ Minus, γ ∅"
            "[f.left = r.A ∧ f.right = 1 ∧ X.v = sum(f.out)]}"
            "[Q.A = r.A ∧ Q.v = x.v]}"
        )
        spec, reason = decorrelate.probe_binding(Evaluator(db, SQL_CONVENTIONS), binding)
        assert spec is None
        assert "no stored extension" in reason

    def test_escape_hatch_disables_the_pass(self):
        spec, reason = probe(EQ_LATERAL, _db(), SQL_CONVENTIONS, decorrelate=False)
        assert spec is None
        assert "disabled" in reason

    def test_stored_binding_is_not_probed(self):
        node = parse("{Q(A) | ∃r ∈ R[Q.A = r.A]}")
        spec, reason = decorrelate.probe_binding(
            Evaluator(_db(), SQL_CONVENTIONS), node.body.bindings[0]
        )
        assert spec is None
        assert "stored relation" in reason


class TestNullKeyMutationStaysDecorrelated:
    def test_adding_a_null_key_rebuilds_a_tribucket_index(self):
        """Adding a NULL to the key column used to flip the plan back to
        per-row; the tri-bucket index keeps the scope decorrelated — the
        mutation drops the cached index, the rebuild segregates the new
        UNKNOWN candidate, and probes start counting ``tribucket_probes``
        — while the answer still matches the per-row oracle."""
        db = _db()
        query = parse(EQ_LATERAL)
        first = Evaluator(db, SQL_CONVENTIONS)
        first.evaluate(query)
        assert first.stats.laterals_decorrelated == 1
        assert first.stats.tribucket_probes == 0  # no NULL keys yet

        db["S"].add((NULL, 99))
        second = Evaluator(db, SQL_CONVENTIONS)
        result = second.evaluate(query)
        assert second.stats.lateral_reevals == 0  # still decorrelated
        assert second.stats.decorr_index_builds == 1  # mutation → rebuild
        assert second.stats.tribucket_probes == len(db["R"])
        assert result == Evaluator(db, SQL_CONVENTIONS, planner=False).evaluate(query)


class TestSqlRewrite:
    def test_rewrite_preserves_semantics(self):
        """The SQL-level AST rewrite is itself evaluatable: rewritten ≡
        original on the planner under bag conventions."""
        for query in [
            sweeps.correlated_aggregate_query(agg="sum", grouped=True),
            sweeps.correlated_aggregate_query(agg="count", grouped=True, arity=2),
            parse(
                "{Q(A, B) | ∃r ∈ R, z ∈ {Z(B) | ∃s ∈ S[Z.B = s.B ∧ "
                "s.A < r.A]}[Q.A = r.A ∧ Q.B = z.B]}"
            ),
        ]:
            arity = 2 if "K1" in repr(query) else 1
            if "K0" in repr(query):
                db = sweeps.correlated_sweep_database(15, 20, arity=arity, seed=4)
            else:
                db = _db()
            rewritten, leftovers = rewrite_for_sql(query)
            assert leftovers == ()
            assert evaluate(rewritten, db, SQL_CONVENTIONS) == evaluate(
                query, db, SQL_CONVENTIONS, options=ORACLE
            )

    def test_unnest_moves_filters_and_substitutes_references(self):
        correlated = parse(
            "{Q(A, B) | ∃r ∈ R, z ∈ {Z(B) | ∃s ∈ S[Z.B = s.B ∧ "
            "s.A < r.A ∧ s.B > 0]}[Q.A = r.A ∧ Q.B = z.B ∧ r.B >= z.B]}"
        )
        db = _db()
        rewritten, leftovers = rewrite_for_sql(correlated)
        assert leftovers == ()
        assert evaluate(rewritten, db, SQL_CONVENTIONS) == evaluate(
            correlated, db, SQL_CONVENTIONS, options=ORACLE
        )
        # No lateral binding survives in the rewritten scope.
        for sub in rewritten.walk():
            if isinstance(sub, n.Binding):
                assert isinstance(sub.source, n.RelationRef)

    def test_unnest_renames_colliding_inner_variables(self):
        # The inner variable `a` collides with the outer binding `a`;
        # unnesting must rename it, not capture it.
        correlated = parse(
            "{Q(A, v) | ∃a ∈ R, c ∈ R, z ∈ {Z(v) | ∃a ∈ S"
            "[Z.v = a.B ∧ a.A < c.A]}[Q.A = a.A ∧ Q.v = z.v]}"
        )
        db = _db()
        rewritten, leftovers = rewrite_for_sql(correlated)
        assert leftovers == ()
        spliced = [
            sub.var
            for sub in rewritten.walk()
            if isinstance(sub, n.Binding) and isinstance(sub.source, n.RelationRef)
        ]
        assert len(spliced) == len(set(spliced)) == 3  # a, c, and a renamed a
        assert evaluate(rewritten, db, SQL_CONVENTIONS) == evaluate(
            correlated, db, SQL_CONVENTIONS, options=ORACLE
        )

    def test_gamma_empty_stays_for_the_scalar_device(self):
        rewritten, leftovers = rewrite_for_sql(parse(EQ_LATERAL))
        assert leftovers == ()
        laterals = [
            sub
            for sub in rewritten.walk()
            if isinstance(sub, n.Binding) and isinstance(sub.source, n.Collection)
        ]
        assert laterals  # untouched: the renderer inlines it as a scalar


# -- θ-band index edge cases ----------------------------------------------------


THETA_GAMMA = (
    "{{Q(A, sm) | ∃r ∈ R, x ∈ {{X(sm) | ∃s ∈ S, γ ∅"
    "[s.A {op} r.A ∧ X.sm = {agg}(s.B)]}}[Q.A = r.A ∧ Q.sm = x.sm]}}"
)

THETA_ROWS = (
    "{{Q(A, B) | ∃r ∈ R, z ∈ {{Z(B) | ∃s ∈ S[Z.B = s.B ∧ "
    "s.A {op} r.A]}}[Q.A = r.A ∧ Q.B = z.B]}}"
)


class TestBandIndexEdges:
    def _check(self, db, query, conventions=SQL_CONVENTIONS):
        """Band path ≡ per-row oracle; returns the band path's stats."""
        evaluator = Evaluator(db, conventions)
        result = evaluator.evaluate(query)
        oracle = Evaluator(db, conventions, decorrelate=False)
        assert result == oracle.evaluate(query)
        return evaluator.stats

    def test_every_operator_and_aggregate_matches_the_oracle(self):
        db = _db()
        for op in ("<", "<=", ">", ">="):
            for agg in ("sum", "count", "avg", "min", "max"):
                stats = self._check(db, parse(THETA_GAMMA.format(op=op, agg=agg)))
                assert stats.lateral_reevals == 0, (op, agg)
            stats = self._check(db, parse(THETA_ROWS.format(op=op)))
            assert stats.lateral_reevals == 0, op

    def test_nan_band_keys_on_both_sides(self):
        # Under 3VL NaN satisfies no ordering predicate: inner NaNs drop
        # out of the band at build time, outer NaNs probe an empty slice
        # (γ∅ still emits its one row).
        nan = float("nan")
        db = Database()
        db.create("R", ("A", "B"), [(1.0, 10), (nan, 20), (3.0, 30)])
        db.create("S", ("A", "B"), [(0.5, 5), (nan, 7), (2.0, 11)])
        for op in ("<", ">="):
            stats = self._check(
                db, parse(THETA_GAMMA.format(op=op, agg="count")), SQL_CONVENTIONS
            )
            assert stats.band_index_builds == 1
            assert stats.lateral_reevals == 0

    def test_nan_band_values_under_2vl_fall_back_per_row(self):
        # 2VL's total-order extension ranks NaN *above* NULL (compare keys
        # (1, NaN) vs (0, 0)), so a NULL outer probe with >/>= selects NaN
        # rows — a sorted band cannot carry that, and the build must fall
        # back to the per-row oracle instead of silently dropping them.
        nan = float("nan")
        db = Database()
        db.create("R", ("A", "B"), [(NULL, 10), (1.0, 20)])
        db.create("S", ("A", "B"), [(nan, 7), (0.5, 5)])
        for op in ("<", "<=", ">", ">="):
            for template in (
                THETA_GAMMA.format(op=op, agg="count"),
                THETA_ROWS.format(op=op),
            ):
                stats = self._check(db, parse(template), SOUFFLE_CONVENTIONS)
                assert stats.band_index_builds == 0
                assert stats.lateral_reevals == len(db["R"])

    def test_null_band_values_3vl_skips_2vl_falls_back(self):
        db = Database()
        db.create("R", ("A", "B"), [(1, 10), (2, 20)])
        db.create("S", ("A", "B"), [(0, 5), (NULL, 7), (1, 11)])
        query = parse(THETA_GAMMA.format(op="<", agg="sum"))
        # 3VL: a NULL band value is UNKNOWN for every probe — excluded at
        # build time, and the index counts as tri-bucket.
        stats = self._check(db, query, SQL_CONVENTIONS)
        assert stats.band_index_builds == 1
        assert stats.tribucket_probes == len(db["R"])
        # 2VL orders NULL before everything: the sorted band cannot carry
        # that exactly, so the build aborts and the per-row oracle runs.
        stats = self._check(db, query, SOUFFLE_CONVENTIONS)
        assert stats.band_index_builds == 0
        assert stats.lateral_reevals == len(db["R"])

    def test_null_probe_value_under_2vl_orders_before_everything(self):
        # Outer NULL probes: under 2VL NULL sorts first, so `s.A > r.A`
        # selects the whole band and `s.A < r.A` selects nothing.
        db = Database()
        db.create("R", ("A", "B"), [(NULL, 10), (1, 20)])
        db.create("S", ("A", "B"), [(0, 5), (2, 7)])
        for op in ("<", "<=", ">", ">="):
            stats = self._check(
                db,
                parse(THETA_GAMMA.format(op=op, agg="count")),
                SOUFFLE_CONVENTIONS,
            )
            assert stats.band_index_builds == 1
            assert stats.lateral_reevals == 0

    def test_empty_inner_relation_still_band_indexes(self):
        db = Database()
        db.create("R", ("A", "B"), [(1, 10), (2, 20)])
        db.create("S", ("A", "B"), [])
        for op in ("<", ">"):
            for template in (THETA_GAMMA.format(op=op, agg="sum"), THETA_ROWS.format(op=op)):
                stats = self._check(db, parse(template))
                assert stats.band_index_builds == 1
                assert stats.lateral_reevals == 0

    def test_mixed_kind_band_values_fall_back_per_row(self):
        # int and str band values have no total order consistent with the
        # comparison semantics (both directions compare FALSE), so the
        # build refuses and the per-row oracle runs — once per catalog
        # state, cached as unsupported.
        db = Database()
        db.create("R", ("A", "B"), [(1, 10), (2, 20)])
        db.create("S", ("A", "B"), [(0, 5), ("x", 7)])
        stats = self._check(db, parse(THETA_GAMMA.format(op="<", agg="count")))
        assert stats.band_index_builds == 0
        assert stats.lateral_reevals == len(db["R"])

    def test_mutation_invalidates_a_cached_band_index_mid_session(self):
        db = _db()
        query = parse(THETA_GAMMA.format(op="<", agg="sum"))
        evaluator = Evaluator(db, SQL_CONVENTIONS)
        first = evaluator.evaluate(query)
        assert evaluator.stats.band_index_builds == 1

        # A second evaluation (same warm caches) probes the shared index.
        evaluator.evaluate(query)
        assert evaluator.stats.band_index_builds == 1

        db["S"].add((0, 100))  # mutation drops the shared band index
        changed = evaluator.evaluate(query)
        assert evaluator.stats.band_index_builds == 2
        assert changed != first
        assert changed == Evaluator(db, SQL_CONVENTIONS, planner=False).evaluate(query)

    def test_unreachable_null_group_build_failure_falls_back(self):
        # The eq-strategy build aggregates *every* group of the rewritten
        # collection — including the NULL-keyed group, which no 3VL probe
        # can ever reach.  If that unreachable group's aggregate raises
        # (heterogeneous sum), the build must fall back to the per-row
        # oracle instead of surfacing an error the oracle never produces.
        db = Database()
        db.create("R", ("K0", "misc"), [(1, 0), (2, 1)])
        db.create("S", ("K0", "B"), [(1, 10), (2, 20), (NULL, "oops")])
        query = sweeps.correlated_aggregate_query(agg="sum")
        evaluator = Evaluator(db, SQL_CONVENTIONS)
        result = evaluator.evaluate(query)
        assert evaluator.stats.decorr_index_builds == 0  # build refused
        assert evaluator.stats.lateral_reevals == len(db["R"])
        oracle = Evaluator(db, SQL_CONVENTIONS, decorrelate=False)
        assert result == oracle.evaluate(query)

    def test_band_indexes_are_shared_across_evaluators(self):
        db = _db()
        query = parse(THETA_GAMMA.format(op="<", agg="sum"))
        first = Evaluator(db, SQL_CONVENTIONS)
        first.evaluate(query)
        assert first.stats.band_index_builds == 1
        second = Evaluator(db, SQL_CONVENTIONS)
        second.evaluate(query)
        assert second.stats.band_index_builds == 0  # reused, not rebuilt


class TestBandSqlRewrite:
    def test_non_grouped_band_joins_through_the_inequality(self):
        # A non-grouped θ shape unnest refuses (the inner binding is itself
        # a collection): the band FIO rewrite renders it as an uncorrelated
        # derived table joined through the projected band key.
        correlated = parse(
            "{Q(A, B) | ∃r ∈ R, z ∈ {Z(B) | ∃u ∈ {U(B) | ∃s ∈ S"
            "[U.B = s.B]}[Z.B = u.B ∧ u.B < r.A]}[Q.A = r.A ∧ Q.B = z.B]}"
        )
        db = _db()
        rewritten, leftovers = rewrite_for_sql(correlated)
        assert leftovers == ()
        # The derived table is uncorrelated (no lateral keyword needed).
        for sub in rewritten.walk():
            if isinstance(sub, n.Binding) and isinstance(sub.source, n.Collection):
                from repro.core.scopes import free_variables

                assert not free_variables(sub.source)
        assert evaluate(rewritten, db, SQL_CONVENTIONS) == evaluate(
            correlated, db, SQL_CONVENTIONS, options=ORACLE
        )


# -- boolean scopes: the exists index ------------------------------------------


def _boolean_scopes(node):
    """Every quantifier reached through a ``¬`` (outermost first)."""
    return [
        sub.child
        for sub in node.walk()
        if isinstance(sub, n.Not) and isinstance(sub.child, n.Quantifier)
    ]


def probe_exists(
    query_text, db=None, conventions=SQL_CONVENTIONS, which=0, **kwargs
):
    """Decide negated scope number *which* of *query_text*; refused shapes
    must still agree with the oracle through the per-row path."""
    node = parse(query_text)
    evaluator = Evaluator(db if db is not None else _db(), conventions, **kwargs)
    evaluator.evaluate(node)  # registers abstract definitions, if any
    spec, reason = decorrelate.plan_for(evaluator, _boolean_scopes(node)[which])
    database = evaluator.database
    assert evaluate(node, database, conventions) == evaluate(
        node, database, conventions, options=ORACLE
    )
    return spec, reason


NOT_EXISTS = "{Q(A) | ∃r ∈ R[¬∃s ∈ S[s.A = r.A ∧ s.B > 6] ∧ Q.A = r.A]}"


class TestExistsAccepts:
    def test_equality_correlation_with_a_local_filter(self):
        spec, reason = probe_exists(NOT_EXISTS)
        assert reason is None
        assert spec.strategy == "exists"
        assert [f"{e.var}.{e.attr}" for e in spec.outer_exprs] == ["r.A"]
        assert spec.relation_names == ("S",)

    def test_innermost_scope_of_the_double_negation(self, likes_db):
        node = paper_examples.arc("eq22")
        spec, reason = decorrelate.plan_for(
            Evaluator(likes_db), _boolean_scopes(node)[-1]
        )
        assert reason is None and spec.strategy == "exists"
        assert len(spec.outer_exprs) == 2

    def test_grouped_boolean_scope(self):
        """busy_customers.sql: ``∃o2 ∈ Orders, γ ∅[o2.cid = c.cid ∧ 2 <=
        count(o2.day)]`` runs on one index holding, per key, the OR of the
        HAVING truth over its groups — under γ∅ and γ keys alike."""
        from repro.frontends import load_query

        db = Database()
        db.create("Customer", ("cid",), [(1,), (2,), (3,)])
        db.create("Orders", ("cid", "day"), [(1, 1), (1, 2), (2, 1)])
        texts = (
            (
                "sql",
                "select c.cid from Customer c where (select count(o2.day) "
                "from Orders o2 where o2.cid = c.cid) >= 2",
            ),
            (
                "arc",
                "{Q(cid) | ∃c ∈ Customer[∃o ∈ Orders, γ o.day[o.cid = c.cid "
                "∧ count(o.day) >= 1] ∧ Q.cid = c.cid]}",
            ),
        )
        for frontend, text in texts:
            node = load_query(text, frontend)
            grouped = [
                sub
                for sub in node.walk()
                if isinstance(sub, n.Quantifier) and sub.grouping is not None
            ]
            spec, reason = decorrelate.plan_for(Evaluator(db), grouped[0])
            assert reason is None
            assert spec.strategy == "exists"
            assert [f"{e.var}.{e.attr}" for e in spec.outer_exprs] == ["c.cid"]
            assert evaluate(node, db, SQL_CONVENTIONS) == evaluate(
                node, db, SQL_CONVENTIONS, options=ORACLE
            )


class TestExistsRefuses:
    def test_theta_correlation(self):
        spec, reason = probe_exists(
            "{Q(A) | ∃r ∈ R[¬∃s ∈ S[s.A < r.A] ∧ Q.A = r.A]}"
        )
        assert spec is None
        assert "non-equality" in reason and "< on s.A" in reason
        assert "equality keys only" in reason

    def test_not_equal_correlation(self):
        spec, reason = probe_exists(
            "{Q(A) | ∃r ∈ R[¬∃s ∈ S[s.A <> r.A] ∧ Q.A = r.A]}"
        )
        assert spec is None
        assert "<> on s.A" in reason

    def test_outer_variable_inside_a_nested_scope(self, likes_db):
        """eq22's double negation: ``l1`` reaches into ``∃l4`` from ``∃l3``."""
        node = paper_examples.arc("eq22")
        l3_scope = _boolean_scopes(node)[1]
        assert l3_scope.bindings[0].var == "l3"
        spec, reason = decorrelate.plan_for(Evaluator(likes_db), l3_scope)
        assert spec is None
        assert "nested scope" in reason
        assert evaluate(node, likes_db) == evaluate(node, likes_db, options=ORACLE)

    def test_external_inner_relation(self):
        spec, reason = probe_exists(
            "{Q(A) | ∃r ∈ R[¬∃f ∈ Minus[f.left = r.A ∧ f.right = 1 ∧ "
            "f.out = 0] ∧ Q.A = r.A]}"
        )
        assert spec is None
        assert "'Minus' has no stored extension" in reason

    def test_abstract_inner_relation(self, likes_db):
        spec, reason = probe_exists(
            "Sub := {Sub(l, r) | ¬(∃l3 ∈ L[l3.d = Sub.l ∧ "
            "¬(∃l4 ∈ L[l4.b = l3.b ∧ l4.d = Sub.r])])} ;\n"
            "{Q(d) | ∃l1 ∈ L[Q.d = l1.d ∧ "
            "¬(∃s1 ∈ Sub[s1.l = l1.d ∧ s1.r = 'bob'])]}",
            likes_db,
            SET_CONVENTIONS,
            which=-1,
        )
        assert spec is None
        assert "'Sub' has no stored extension" in reason

    def test_grouped_scope_with_an_outer_variable_in_having(self):
        spec, reason = probe_exists(
            "{Q(A) | ∃r ∈ R[¬∃s ∈ S, γ ∅[s.A = r.A ∧ sum(s.B) > r.B] "
            "∧ Q.A = r.A]}"
        )
        assert spec is None
        assert "correlation predicate contains an aggregate" in reason

    def test_grouped_scope_with_theta_correlation(self):
        spec, reason = probe_exists(
            "{Q(A) | ∃r ∈ R[¬∃s ∈ S, γ ∅[s.A < r.A ∧ count(s.B) >= 2] "
            "∧ Q.A = r.A]}"
        )
        assert spec is None
        assert "< on s.A" in reason and "equality keys only" in reason

    def test_grouped_scope_with_an_outer_grouping_key(self):
        spec, reason = probe_exists(
            "{Q(A) | ∃r ∈ R[¬∃s ∈ S, γ r.B[s.A = r.A ∧ count(s.B) >= 2] "
            "∧ Q.A = r.A]}"
        )
        assert spec is None
        assert "grouping key references outer variables" in reason

    def test_escape_hatch_and_reference_backend_never_index(self):
        spec, reason = probe_exists(NOT_EXISTS, decorrelate=False)
        assert spec is None and "disabled" in reason
        for kwargs in ({"decorrelate": False}, {"planner": False}):
            evaluator = Evaluator(_db(), SQL_CONVENTIONS, **kwargs)
            evaluator.evaluate(parse(NOT_EXISTS))
            assert evaluator.stats.decorr_index_builds == 0
            assert evaluator.stats.index_probes == 0
