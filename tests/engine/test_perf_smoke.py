"""Perf-regression smoke tests: complexity bounds without timers.

The execution layer exposes instrumentation counters
(:class:`repro.engine.planner.ExecutionStats`), so these tests assert the
*shape* of the work done — an indexed equi-join of N rows must enumerate
O(N) rows, not the O(N²) cross product — which is robust under slow CI
machines where wall-clock assertions flake.
"""

import pytest

from repro.core.parser import parse
from repro.data import Database, generators
from repro.engine import Evaluator
from repro.workloads import sweeps


N = 400

JOIN = "{Q(A) | ∃r ∈ R, s ∈ S[Q.A = r.A ∧ r.B = s.B]}"


def _join_db(n=N):
    db = Database()
    db.create("R", ("A", "B"), [(i, i) for i in range(n)])
    db.create("S", ("B", "C"), [(i, i % 7) for i in range(n)])
    return db


def test_indexed_two_way_join_does_linear_work():
    db = _join_db()
    evaluator = Evaluator(db)
    result = evaluator.evaluate(parse(JOIN))
    assert len(result) == N
    stats = evaluator.stats
    # One scan of R (N rows) plus one probe per R row, each hitting a
    # single-row bucket: well under any quadratic blowup (N² = 160000).
    assert stats.rows_enumerated <= 6 * N, stats.as_dict()
    assert stats.index_probes <= N + 5, stats.as_dict()


def test_reference_strategy_does_quadratic_work():
    """The escape hatch really is the nested-loop strategy (sanity check)."""
    n = 60
    db = _join_db(n)
    evaluator = Evaluator(db, planner=False)
    with_planner = Evaluator(db).evaluate(parse(JOIN))
    assert evaluator.evaluate(parse(JOIN)) == with_planner
    # The reference path never touches the planner counters.
    assert evaluator.stats.index_probes == 0


def test_plan_cache_hits_on_reevaluation():
    db = sweeps.size_sweep_database(30, seed=4)
    query = sweeps.lateral_query()
    # decorrelate=False keeps the per-row FOI strategy (the θ-correlated
    # inner scope would otherwise band-decorrelate and evaluate once).
    evaluator = Evaluator(db, decorrelate=False)
    evaluator.evaluate(query)
    # The correlated inner scope re-evaluates per outer row; after the
    # first row its plan must come from the cache.
    assert evaluator.stats.plan_cache_hits > 0
    assert evaluator.stats.plans_compiled <= 4


def test_grouped_fast_path_engages():
    db = sweeps.size_sweep_database(100, seed=1)
    query = sweeps.grouped_aggregate_query()
    evaluator = Evaluator(db)
    result = evaluator.evaluate(query)
    assert not result.is_empty()
    assert evaluator.stats.grouped_fast_paths >= 1


def test_index_reuse_across_evaluations():
    """Indexes live on the relation, so a second evaluator reuses them."""
    db = _join_db()
    first = Evaluator(db)
    first.evaluate(parse(JOIN))
    assert db["S"]._indexes  # index materialized on the stored relation
    second = Evaluator(db)
    second.evaluate(parse(JOIN))
    assert second.stats.index_probes <= N + 5


def test_seminaive_probes_delta_into_maintained_full_index():
    """Delta-aware fixpoint growth: the full relation's hash index must be
    built once and *maintained* across semi-naive rounds (extend_new), not
    invalidated and rebuilt every round by per-row add().

    Nonlinear transitive closure probes the full relation from the delta
    side each round, so a rebuild-per-round regression shows up directly in
    the relation's index_builds counter.
    """
    db = generators.parent_edges(40, seed=7)
    nonlinear = (
        "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
        "∃a1 ∈ A, a2 ∈ A[A.s = a1.s ∧ a1.t = a2.s ∧ A.t = a2.t]}"
    )
    evaluator = Evaluator(db)
    result = evaluator.evaluate(parse(nonlinear))
    assert len(result) >= 39
    full = evaluator.defined["A"]
    assert full._indexes, "the delta variant should probe the full relation"
    assert full.index_builds <= 2, full.index_builds
    assert evaluator.stats.index_probes > 0


def test_extend_new_maintains_existing_indexes():
    rel = Database().create("R", ("A", "B"), [(1, 10), (2, 20)])
    index = rel.index_on(("A",))
    assert rel.index_builds == 1
    rel.extend_new([(3, 30)])
    assert rel.index_on(("A",)) is index  # no invalidation
    assert rel.index_builds == 1
    assert index[(3,)] == [(rel._coerce((3, 30)), 1)]
    assert rel.multiplicity((3, 30)) == 1
    # A duplicate row takes the safe add() path (indexes invalidate).
    rel.extend_new([(3, 30)])
    assert rel.multiplicity((3, 30)) == 2
    assert rel.index_on(("A",)) is not index


def test_extend_new_accumulates_intra_batch_duplicates():
    db = Database()
    rel = db.create("R", ("A", "B"), [(1, 10)])
    rel.index_on(("A",))
    rel.extend_new([(2, 20), (2, 20)])
    assert rel.multiplicity((2, 20)) == 2
    # Index and stored multiplicities must agree after the safe path.
    bucket = rel.index_on(("A",))[(2,)]
    assert sum(mult for _, mult in bucket) == 2
    with pytest.raises(ValueError):
        rel.extend_new([(9, 9)], multiplicity=-1)
    rel.extend_new([(9, 9)], multiplicity=0)
    assert (9, 9) not in rel


# -- FOI → FIO decorrelation ---------------------------------------------------


def _correlated_db(n=300):
    """Outer keys all present in the inner relation (no probe misses)."""
    domain = max(4, n // 4)
    db = Database()
    db.create("R", ("K0", "misc"), [(i % domain, i) for i in range(n)])
    db.create("S", ("K0", "G", "B"), [(i % domain, i % 3, i % 50) for i in range(n)])
    return db


def test_decorrelated_lateral_evaluates_inner_scope_once():
    """The tentpole claim, counter-shaped: with decorrelation the correlated
    inner collection is materialized exactly once as a grouped index, and
    never re-evaluated per outer row (``lateral_reevals == 0``)."""
    from repro.core.conventions import SQL_CONVENTIONS

    db = _correlated_db()
    query = sweeps.correlated_aggregate_query(agg="sum")
    evaluator = Evaluator(db, SQL_CONVENTIONS)
    result = evaluator.evaluate(query)
    assert not result.is_empty()
    stats = evaluator.stats
    assert stats.laterals_decorrelated >= 1, stats.as_dict()
    assert stats.decorr_index_builds == 1, stats.as_dict()
    assert stats.lateral_reevals == 0, stats.as_dict()
    assert stats.lateral_probe_misses == 0, stats.as_dict()

    per_row = Evaluator(db, SQL_CONVENTIONS, decorrelate=False)
    assert per_row.evaluate(query) == result
    # The escape hatch really is the per-row FOI strategy.
    assert per_row.stats.lateral_reevals == len(db["R"])
    assert per_row.stats.decorr_index_builds == 0


def test_decorrelated_index_is_built_once_and_shared():
    """The FIO index lives on the inner relations (grouped-index reuse): a
    second evaluation probes the cached index, and mutating an inner
    relation drops it."""
    from repro.core.conventions import SQL_CONVENTIONS

    db = _correlated_db(100)
    query = sweeps.correlated_aggregate_query(agg="sum")
    first = Evaluator(db, SQL_CONVENTIONS)
    first.evaluate(query)
    assert first.stats.decorr_index_builds == 1

    second = Evaluator(db, SQL_CONVENTIONS)
    result = second.evaluate(query)
    assert second.stats.decorr_index_builds == 0  # reused across evaluators
    assert second.stats.lateral_reevals == 0

    db["S"].add((0, 0, 99))
    third = Evaluator(db, SQL_CONVENTIONS)
    changed = third.evaluate(query)
    assert third.stats.decorr_index_builds == 1  # mutation dropped the cache
    assert changed != result
    assert changed == Evaluator(db, SQL_CONVENTIONS, planner=False).evaluate(query)


def test_gamma_empty_probe_misses_are_compensated_not_reevaluated():
    """All-miss γ∅: one compensation per outer row, no full re-evaluations."""
    from repro.core.conventions import SQL_CONVENTIONS

    db = sweeps.correlated_sweep_database(12, 40, seed=6, miss_rate=1.0)
    query = sweeps.correlated_aggregate_query(agg="count")
    evaluator = Evaluator(db, SQL_CONVENTIONS)
    result = evaluator.evaluate(query)
    assert len(result) == len(db["R"])  # γ∅ emits a row per outer row
    assert evaluator.stats.lateral_probe_misses == len(db["R"])
    assert evaluator.stats.lateral_reevals == 0
    assert evaluator.stats.decorr_index_builds == 1


def test_cli_exposes_no_planner_flag():
    from repro.cli import build_parser

    args = build_parser().parse_args(["eval", "{Q(A) | ∃r ∈ R[Q.A = r.A]}", "--no-planner"])
    assert args.no_planner is True


def test_cli_exposes_no_decorrelate_flag():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["eval", "{Q(A) | ∃r ∈ R[Q.A = r.A]}", "--no-decorrelate"]
    )
    assert args.no_decorrelate is True


# -- θ-band indexes and batched γ∅ compensation --------------------------------


def test_band_decorrelated_theta_lateral_builds_one_index():
    """The E27 tentpole, counter-shaped: a θ-correlated γ∅ lateral builds
    exactly one band index and never re-evaluates the inner scope per
    outer row (``lateral_reevals == 0``)."""
    from repro.core.conventions import SQL_CONVENTIONS

    db = sweeps.theta_sweep_database(300, 300, band_domain=300, seed=1)
    query = sweeps.theta_aggregate_query(op="<", agg="sum")
    evaluator = Evaluator(db, SQL_CONVENTIONS)
    result = evaluator.evaluate(query)
    assert len(result) == len(db["R"])  # γ∅ emits one row per outer row
    stats = evaluator.stats
    assert stats.laterals_decorrelated >= 1, stats.as_dict()
    assert stats.band_index_builds == 1, stats.as_dict()
    assert stats.lateral_reevals == 0, stats.as_dict()
    assert stats.index_probes >= len(db["R"]), stats.as_dict()

    per_row = Evaluator(db, SQL_CONVENTIONS, decorrelate=False)
    assert per_row.evaluate(query) == result
    assert per_row.stats.lateral_reevals == len(db["R"])
    assert per_row.stats.band_index_builds == 0


def test_band_index_is_cached_and_mutation_invalidates():
    from repro.core.conventions import SQL_CONVENTIONS

    db = sweeps.theta_sweep_database(60, 60, seed=2)
    query = sweeps.theta_aggregate_query(op=">=", agg="count")
    first = Evaluator(db, SQL_CONVENTIONS)
    first.evaluate(query)
    assert first.stats.band_index_builds == 1

    second = Evaluator(db, SQL_CONVENTIONS)
    result = second.evaluate(query)
    assert second.stats.band_index_builds == 0  # reused across evaluators

    db["S"].add((0, 99))
    third = Evaluator(db, SQL_CONVENTIONS)
    changed = third.evaluate(query)
    assert third.stats.band_index_builds == 1  # mutation dropped the cache
    assert changed == Evaluator(db, SQL_CONVENTIONS, planner=False).evaluate(query)
    assert changed != result


def test_gamma_empty_misses_are_domain_join_batched():
    """All-miss γ∅: the empty-group frame is synthesized exactly once (the
    domain-join compensation) instead of once per missing outer key, and
    the per-frame path is never taken."""
    from repro.core.conventions import SQL_CONVENTIONS

    db = sweeps.correlated_sweep_database(40, 60, seed=6, miss_rate=1.0)
    query = sweeps.correlated_aggregate_query(agg="count")
    evaluator = Evaluator(db, SQL_CONVENTIONS)
    result = evaluator.evaluate(query)
    assert len(result) == len(db["R"])  # γ∅ emits a row per outer row
    stats = evaluator.stats
    assert stats.lateral_probe_misses == len(db["R"])
    assert stats.domain_join_compensations == 1, stats.as_dict()
    assert stats.lateral_reevals == 0
    assert stats.decorr_index_builds == 1


def test_tribucket_probes_count_on_nullable_keys():
    """NULL-able correlation keys under 3VL decorrelate (no refusal): the
    index is UNKNOWN-aware and every probe against it is counted."""
    from repro.core.conventions import SQL_CONVENTIONS

    db = sweeps.correlated_sweep_database(30, 50, seed=8, null_rate=0.3)
    query = sweeps.correlated_aggregate_query(agg="sum")
    evaluator = Evaluator(db, SQL_CONVENTIONS)
    result = evaluator.evaluate(query)
    stats = evaluator.stats
    assert stats.lateral_reevals == 0, stats.as_dict()
    assert stats.tribucket_probes == len(db["R"]), stats.as_dict()
    assert result == Evaluator(db, SQL_CONVENTIONS, planner=False).evaluate(query)


def test_correlated_not_exists_probes_once_per_outer_row():
    """A correlated ``¬∃`` over N outer × M inner rows builds one exists
    index (one enumeration of the inner scope) and probes it N times,
    instead of rescanning the M inner rows for each of the N outer rows."""
    from repro.core.conventions import SQL_CONVENTIONS

    n_outer, m_inner = 300, 200
    db = Database()
    db.create("R", ("A", "B"), [(i, i % 7) for i in range(n_outer)])
    db.create("S", ("A", "C"), [(2 * i, i % 3) for i in range(m_inner)])
    query = parse("{Q(A) | ∃r ∈ R[¬∃s ∈ S[s.A = r.A ∧ s.C > 0] ∧ Q.A = r.A]}")
    first = Evaluator(db, SQL_CONVENTIONS)
    result = first.evaluate(query)
    assert first.stats.decorr_index_builds == 1, first.stats.as_dict()
    assert first.stats.index_probes == n_outer, first.stats.as_dict()
    assert result == Evaluator(db, SQL_CONVENTIONS, planner=False).evaluate(query)

    second = Evaluator(db, SQL_CONVENTIONS)
    assert second.evaluate(query) == result
    assert second.stats.decorr_index_builds == 0  # cached on S
    assert second.stats.index_probes == n_outer

    db["S"].add((1, 1))
    third = Evaluator(db, SQL_CONVENTIONS)
    changed = third.evaluate(query)
    assert third.stats.decorr_index_builds == 1  # the mutation dropped it
    assert len(changed) == len(result) - 1
    assert changed == Evaluator(db, SQL_CONVENTIONS, planner=False).evaluate(query)
