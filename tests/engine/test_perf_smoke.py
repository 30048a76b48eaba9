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


@pytest.mark.parametrize(
    "query",
    [
        sweeps.correlated_aggregate_query(agg="sum"),
        parse("{Q(k) | ∃r ∈ R[¬∃s ∈ S[s.K0 = r.K0 ∧ s.B > 0] ∧ Q.k = r.K0]}"),
    ],
    ids=["lateral", "boolean"],
)
def test_tribucket_probes_count_on_nullable_keys(query):
    """NULL-able correlation keys under 3VL decorrelate (no refusal): the
    index is UNKNOWN-aware and every probe against it is counted — a
    lateral's and a boolean scope's alike."""
    from repro.core.conventions import SQL_CONVENTIONS

    db = sweeps.correlated_sweep_database(30, 50, seed=8, null_rate=0.3)
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


def test_grouped_boolean_scope_probes_once_per_outer_row(monkeypatch):
    """busy_customers' grouped ``∃`` (``count(...) >= 2`` per customer)
    over N outer rows builds one index and probes it N times: the per-row
    ``_truth_grouped`` never runs on the planner, and runs N times under
    ``decorrelate=False``.  A mutation of the inner relation rebuilds."""
    from repro.core.conventions import SQL_CONVENTIONS
    from repro.frontends import load_query

    calls = {"per_row": 0}
    per_row = Evaluator._truth_grouped

    def counting(self, *args):
        calls["per_row"] += 1
        return per_row(self, *args)

    monkeypatch.setattr(Evaluator, "_truth_grouped", counting)
    n_outer = 300
    db = Database()
    db.create("Customer", ("cid",), [(i,) for i in range(n_outer)])
    db.create(
        "Orders",
        ("cid", "day"),
        [(i, day) for i in range(n_outer) for day in range(i % 4)],
    )
    query = load_query(
        "select c.cid from Customer c where (select count(o.day) "
        "from Orders o where o.cid = c.cid) >= 2",
        "sql",
    )
    first = Evaluator(db, SQL_CONVENTIONS)
    result = first.evaluate(query)
    assert len(result) == n_outer // 2
    assert first.stats.decorr_index_builds == 1, first.stats.as_dict()
    # One probe per outer row, plus the build's one grouped partition.
    assert first.stats.index_probes == n_outer + 1, first.stats.as_dict()
    assert calls["per_row"] == 0

    per_row_run = Evaluator(db, SQL_CONVENTIONS, decorrelate=False)
    assert per_row_run.evaluate(query) == result
    assert per_row_run.stats.decorr_index_builds == 0
    assert calls["per_row"] == n_outer

    db["Orders"].add((1, 9))
    calls["per_row"] = 0
    third = Evaluator(db, SQL_CONVENTIONS)
    changed = third.evaluate(query)
    assert third.stats.decorr_index_builds == 1  # the mutation dropped it
    assert calls["per_row"] == 0
    assert len(changed) == len(result) + 1
    assert changed == Evaluator(db, SQL_CONVENTIONS, planner=False).evaluate(query)


def _count_walks(monkeypatch):
    """Count child expansions: every AST walk (``walk`` and ``facts``
    alike) expands each node it visits through ``children``."""
    from repro.core import nodes as n

    counts = {"children": 0}
    for cls in (n.Node, n.Program):
        original = cls.children

        def counting(self, _original=original):
            counts["children"] += 1
            return _original(self)

        monkeypatch.setattr(cls, "children", counting)
    return counts


def test_sqlite_probe_analyses_its_prepared_root_once(monkeypatch):
    """A cold probe of a never-seen text computes ``facts`` for the root it
    checks exactly once; a second probe of the same node walks nothing."""
    from repro.backends.exec import sqlite_exec
    from repro.core import nodes as n
    from repro.core.conventions import SQL_CONVENTIONS
    from repro.data import NULL

    db = Database()
    db.create("R", ("A", "B"), [(1, 2), (2, NULL)])
    db.create("S", ("A",), [(1,)])
    node = parse(
        "{Q(A, m) | ∃r ∈ R, γ r.A[Q.A = r.A ∧ Q.m = max(r.B) ∧ "
        "¬(∃s ∈ S[s.A = r.A])]}"
    )
    computed = []
    original = n.facts

    def spying(sub):
        if sub not in n._FACTS:
            computed.append(sub)
        return original(sub)

    monkeypatch.setattr(n, "facts", spying)
    backend = sqlite_exec.SqliteBackend()
    first = backend.capabilities(node, SQL_CONVENTIONS, db)
    root, _ = sqlite_exec.compile_sql(node, db)
    assert [sub for sub in computed if sub is root] == [root]

    counts = _count_walks(monkeypatch)
    computed.clear()
    assert backend.capabilities(node, SQL_CONVENTIONS, db) == first
    assert counts["children"] == 0 and computed == []


@pytest.mark.parametrize("planner", [True, False])
def test_grouped_aggregates_walk_once_per_scope_not_per_group(monkeypatch, planner):
    """The scope plan carries its aggregate nodes, so evaluating a grouped
    scope walks the same amount for 5 groups as for 200."""
    text = (
        "{Q(A, sm) | ∃r ∈ R, s ∈ S, γ r.A[Q.A = r.A ∧ r.B = s.B ∧ "
        "Q.sm = sum(s.C) ∧ count(s.C) > 0]}"
    )
    counts = _count_walks(monkeypatch)
    walks = []
    for groups in (5, 200):
        db = Database()
        db.create("R", ("A", "B"), [(i, i % 3) for i in range(groups)])
        db.create("S", ("B", "C"), [(b, b + 1) for b in range(3)])
        before = counts["children"]
        result = Evaluator(db, planner=planner).evaluate(parse(text))
        walks.append(counts["children"] - before)
        assert len(result) == groups
    assert walks[0] == walks[1], walks


def test_serving_a_sqlite_answer_builds_no_tuple(monkeypatch):
    """A multi-row SQLite answer goes cursor -> value rows -> canonical
    sort -> response body without a :class:`Tuple` per row; the tuples are
    built only when a caller reads the rows by name."""
    from repro.api import Session
    from repro.api.serve import _result_body
    from repro.core.conventions import SQL_CONVENTIONS
    from repro.data import NULL, Tuple

    db = Database()
    db.create("R", ("A", "B"), [(i % 50, NULL if i % 7 == 0 else i) for i in range(200)])
    db.create("S", ("A",), [(1,), (1,), (2,)])
    prepared = Session(db, SQL_CONVENTIONS).prepare(
        "{Q(A, B) | ∃r ∈ R[Q.A = r.A ∧ Q.B = r.B]}"
    )
    bag = Session(db, SQL_CONVENTIONS).prepare("{Q(A) | ∃s ∈ S[Q.A = s.A]}")
    built = []
    adopt, init = Tuple._adopt.__func__, Tuple.__init__

    def counting_adopt(cls, values):
        built.append(values)
        return adopt(cls, values)

    def counting_init(self, values):
        built.append(values)
        init(self, values)

    monkeypatch.setattr(Tuple, "_adopt", classmethod(counting_adopt))
    monkeypatch.setattr(Tuple, "__init__", counting_init)
    for query, rows in ((prepared, 200), (prepared, 200), (bag, 3)):
        info = query.run_info(backend="sqlite")
        body = _result_body(info["result"], info["fallback_reasons"])
        assert body["fallback"] == [] and body["row_count"] == len(body["rows"]) == rows
    assert body["rows"] == [[1], [1], [2]]
    assert built == []
    info["result"].counter()
    assert len(built) == 2
