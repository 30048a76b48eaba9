"""E25 — FOI → FIO decorrelation: correlated-lateral sweep.

Three engines over the equality-correlated lateral family
(:func:`repro.workloads.sweeps.correlated_aggregate_query` and the
eq10-shaped join variant :func:`correlated_join_aggregate_query`):

* **decorrelated** — the planner with the FOI → FIO pass (the default):
  the inner scope is materialized once as a grouped hash index and probed
  per outer row;
* **per-row** — the planner with ``decorrelate=False``: the inner scope is
  re-evaluated under every outer environment (the paper's literal FOI
  strategy, kept as the oracle);
* **sqlite warm** — the SQLite backend, which now runs these natively
  (group-by derived tables / correlated scalar subqueries instead of
  LATERAL).

Representative numbers from the machine this pass was built on
(CPython 3.11, SQL conventions, min over rounds):

=============================================  ============  =========  ===========
case                                           decorrelated  per-row    sqlite warm
=============================================  ============  =========  ===========
γ∅ sum,  n=200 (single-relation inner)           ~1.3 ms      ~4.0 ms     ~2.8 ms
γ∅ sum,  n=800 (single-relation inner)           ~5.9 ms     ~16.8 ms    ~34.0 ms
γ-keys sum, n=800 (single-relation inner)        ~8.0 ms     ~24.7 ms     ~5.5 ms
join inner (eq10 shape), n=200                   ~1.1 ms     ~48.6 ms     ~5.8 ms
join inner (eq10 shape), n=800                   ~4.2 ms    ~204.2 ms    ~44.1 ms
=============================================  ============  =========  ===========

The anti-join cases (correlated ``¬∃``, the NOT EXISTS / NOT IN shape of
Section 2.10) run on the exists index: the inner scope is enumerated once
into a per-key Kleene truth and each outer row is one probe, against the
per-row strategy's rescan of the whole inner scope per outer row.  Measured
on a 2-CPU container (CPython 3.11, SQL conventions, fresh AST per run so
every run pays its build):

=============================================  ============  =========
case                                           exists index  per-row
=============================================  ============  =========
¬∃ single-relation inner, n=800                  ~8.7 ms      ~1.7 s
¬∃ join-shaped inner (S ⋈ T), n=800              ~11.5 ms      ~2.6 s
=============================================  ============  =========

The single-relation inner is the per-row strategy's best case (its
re-evaluation is itself an O(bucket) index probe after PR 1), and
decorrelation still wins ~3×.  The join-shaped inner is the honest FOI
cost model — the inner join re-runs per outer row — and decorrelation wins
~40-50×, which is what closes the acceptance claim (≥ 5×).  SQLite executes
the γ∅ shapes as correlated scalar subqueries (no indexes on the loaded
catalog, hence the n=800 cost) and the γ-keys shapes as group-by joins.
"""

import os
import random
import time

import pytest

from repro.api import EvalOptions
from repro.core.conventions import SQL_CONVENTIONS
from repro.core.parser import parse
from repro.data import Database
from repro.engine import evaluate
from repro.workloads import sweeps

SQLITE = EvalOptions(backend="sqlite")
NO_DECORRELATE = EvalOptions(decorrelate=False)


def _decorrelated(query, db):
    return evaluate(query, db, SQL_CONVENTIONS)


def _per_row(query, db):
    return evaluate(query, db, SQL_CONVENTIONS, options=NO_DECORRELATE)


def _sqlite(query, db):
    return evaluate(query, db, SQL_CONVENTIONS, options=SQLITE)


def _single_db(n):
    return sweeps.correlated_sweep_database(
        n, n, domain=max(4, n // 4), seed=2, miss_rate=0.1
    )


# -- γ∅ single-relation inner (the per-row strategy's best case) ---------------


@pytest.mark.parametrize("n_rows", [200, 800])
def test_gamma_empty_decorrelated(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum")
    result = benchmark(_decorrelated, query, db)
    assert result == _per_row(query, db)


@pytest.mark.parametrize("n_rows", [200, 800])
def test_gamma_empty_per_row(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum")
    benchmark(_per_row, query, db)


@pytest.mark.parametrize("n_rows", [200, 800])
def test_gamma_empty_sqlite_warm(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum")
    _sqlite(query, db)  # prime the catalog cache
    result = benchmark(_sqlite, query, db)
    assert result == _per_row(query, db)


# -- γ-keys inner ---------------------------------------------------------------


@pytest.mark.parametrize("n_rows", [800])
def test_grouped_keys_decorrelated(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum", grouped=True)
    result = benchmark(_decorrelated, query, db)
    assert result == _per_row(query, db)


@pytest.mark.parametrize("n_rows", [800])
def test_grouped_keys_per_row(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum", grouped=True)
    benchmark(_per_row, query, db)


@pytest.mark.parametrize("n_rows", [800])
def test_grouped_keys_sqlite_warm(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum", grouped=True)
    _sqlite(query, db)
    result = benchmark(_sqlite, query, db)
    assert result == _per_row(query, db)


# -- eq10-shaped join inner (the headline sweep) --------------------------------


@pytest.mark.parametrize("n_rows", [200, 800])
def test_join_inner_decorrelated(benchmark, n_rows):
    db = sweeps.correlated_join_database(n_rows, seed=1)
    query = sweeps.correlated_join_aggregate_query()
    result = benchmark(_decorrelated, query, db)
    assert result == _per_row(query, db)


@pytest.mark.parametrize("n_rows", [200])
def test_join_inner_per_row(benchmark, n_rows):
    db = sweeps.correlated_join_database(n_rows, seed=1)
    query = sweeps.correlated_join_aggregate_query()
    benchmark(_per_row, query, db)


@pytest.mark.parametrize("n_rows", [200, 800])
def test_join_inner_sqlite_warm(benchmark, n_rows):
    db = sweeps.correlated_join_database(n_rows, seed=1)
    query = sweeps.correlated_join_aggregate_query()
    _sqlite(query, db)
    result = benchmark(_sqlite, query, db)
    assert result == _per_row(query, db)


def test_decorrelation_beats_per_row_by_5x_on_the_join_sweep():
    """Acceptance claim: on the E25 eq10-shaped sweep the decorrelated
    planner path is ≥ 5× faster than per-row lateral evaluation.

    A wall-clock ordering with a wide margin (measured ~25-30×); skipped on
    shared CI runners, where scheduling noise makes timing assertions flake
    (the repo's perf-regression tests are counter-based for the same
    reason — see ``tests/engine/test_perf_smoke.py`` for the ==0 reeval
    assertions that guard the same property structurally).
    """
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")
    db = sweeps.correlated_join_database(800, seed=1)
    query = sweeps.correlated_join_aggregate_query()
    assert _decorrelated(query, db) == _per_row(query, db)

    def best_of(fn, rounds=5):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn(query, db)
            times.append(time.perf_counter() - start)
        return min(times)

    decorrelated_time = best_of(_decorrelated)
    per_row_time = best_of(_per_row, rounds=3)
    assert per_row_time > 5 * decorrelated_time, (
        f"decorrelated {decorrelated_time * 1e3:.2f} ms vs "
        f"per-row {per_row_time * 1e3:.2f} ms"
    )


# -- correlated ¬∃ (anti-join) on the exists index -------------------------------

ANTI_SINGLE = (
    "{Q(k, m) | ∃r ∈ R[¬∃s ∈ S[s.K0 = r.K0 ∧ s.B > 40] "
    "∧ Q.k = r.K0 ∧ Q.m = r.misc]}"
)
ANTI_JOIN = (
    "{Q(k, m) | ∃r ∈ R[¬∃s ∈ S, t ∈ T[s.K0 = r.K0 ∧ s.G = t.G ∧ t.B > 10] "
    "∧ Q.k = r.K0 ∧ Q.m = r.misc]}"
)


def _anti_join_db(n, seed=1):
    """R(K0, misc) with *n* outer rows; the inner join S(K0, G) ⋈ T(G, B)
    has n/8 × 8 combinations, so the per-row strategy stays measurable."""
    rng = random.Random(seed)
    domain = max(4, n // 4)
    db = Database()
    db.create("R", ("K0", "misc"), [(i % domain, i) for i in range(n)])
    db.create(
        "S",
        ("K0", "G"),
        [(rng.randrange(domain), rng.randrange(8)) for _ in range(n // 8)],
    )
    db.create("T", ("G", "B"), [(i % 8, rng.randrange(50)) for i in range(8)])
    return db


ANTI_CASES = {
    "single": (ANTI_SINGLE, _single_db),
    "join": (ANTI_JOIN, _anti_join_db),
}


@pytest.mark.parametrize("case", sorted(ANTI_CASES))
def test_anti_join_exists_index(benchmark, case):
    text, make_db = ANTI_CASES[case]
    db = make_db(800)
    # A fresh AST per round: every round pays the index build.
    result = benchmark(lambda: _decorrelated(parse(text), db))
    assert result == _per_row(parse(text), db)


@pytest.mark.parametrize("case", sorted(ANTI_CASES))
def test_anti_join_exists_index_beats_per_row_by_5x(case):
    """Acceptance claim: on a correlated ``¬∃`` (single-relation and
    join-shaped inner scope, n=800) the exists index is ≥ 5× faster than
    the per-row rescan (measured ~200× and ~230×)."""
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")
    text, make_db = ANTI_CASES[case]
    db = make_db(800)
    assert _decorrelated(parse(text), db) == _per_row(parse(text), db)

    def best_of(fn, rounds):
        times = []
        for _ in range(rounds):
            node = parse(text)
            start = time.perf_counter()
            fn(node, db)
            times.append(time.perf_counter() - start)
        return min(times)

    indexed_time = best_of(_decorrelated, 5)
    per_row_time = best_of(_per_row, 2)
    assert per_row_time > 5 * indexed_time, (
        f"exists index {indexed_time * 1e3:.2f} ms vs "
        f"per-row {per_row_time * 1e3:.2f} ms"
    )
