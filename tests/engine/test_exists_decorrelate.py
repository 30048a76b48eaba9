"""Differential tests for boolean-scope indexes: ∃ / ¬∃ / NOT IN and
grouped ∃ (HAVING) with NULL and NaN.

A boolean quantifier scope correlated through ``inner = outer`` equalities
runs on the planner as one probe of a materialized truth index per outer
row (:class:`repro.engine.decorrelate.KeyIndex`).  The probe must return
exactly the fold the per-row strategy computes — the Kleene OR of the
local truth, including the UNKNOWN a NULL (3VL) key contributes and the
FALSE a NaN key contributes, or for a grouped scope the OR of the HAVING
truth over the key's groups, with the empty γ∅ group on a miss (the count
bug) — so every family here asserts reference ≡ planner ≡
``decorrelate=False`` under set/bag × 3VL/2VL conventions.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import EvalOptions
from repro.core.conventions import (
    Conventions,
    NullComparison,
    SET_CONVENTIONS,
    SOUFFLE_CONVENTIONS,
    SQL_CONVENTIONS,
    Semantics,
)
from repro.data import Database, NULL
from repro.engine import Evaluator, decorrelate, evaluate
from repro.errors import ArcError
from repro.frontends import load_query
from repro.workloads.scenarios import get_scenario

ORACLE = EvalOptions(backend="reference")
NO_DECORRELATE = EvalOptions(decorrelate=False)

NAN = float("nan")

CONVENTIONS = {
    "set-3vl": SET_CONVENTIONS,
    "bag-3vl": SQL_CONVENTIONS,
    "set-2vl": SOUFFLE_CONVENTIONS,
    "bag-2vl": Conventions(
        semantics=Semantics.BAG, null_comparison=NullComparison.TWO_VALUED
    ),
}

#: (frontend, text) over R(A, B, C), S(A, B, C), T(B, D).
SHAPES = {
    "arc-not-exists-1key": (
        "arc",
        "{Q(A, B) | ∃r ∈ R[¬∃s ∈ S[s.A = r.A] ∧ Q.A = r.A ∧ Q.B = r.B]}",
    ),
    "arc-not-exists-2key-local": (
        "arc",
        "{Q(A, B) | ∃r ∈ R[¬∃s ∈ S[s.A = r.A ∧ s.B = r.B ∧ s.C > 0] "
        "∧ Q.A = r.A ∧ Q.B = r.B]}",
    ),
    "arc-not-exists-expr-key": (
        "arc",
        "{Q(A) | ∃r ∈ R[¬∃s ∈ S[s.A + 1 = r.A ∧ s.C = 1] ∧ Q.A = r.A]}",
    ),
    "arc-not-exists-join-inner": (
        "arc",
        "{Q(A, B) | ∃r ∈ R[¬∃s ∈ S, t ∈ T[s.B = t.B ∧ s.A = r.A ∧ "
        "t.D = r.B] ∧ Q.A = r.A ∧ Q.B = r.B]}",
    ),
    "arc-exists-under-or": (
        "arc",
        "{Q(A, C) | ∃r ∈ R[(∃s ∈ S[s.A = r.A ∧ s.C = 1] ∨ r.C = 2) "
        "∧ Q.A = r.A ∧ Q.C = r.C]}",
    ),
    "arc-exists-under-not-and": (
        "arc",
        "{Q(A, C) | ∃r ∈ R[¬(∃s ∈ S[s.B = r.B ∧ s.A = r.A] ∧ r.C = 1) "
        "∧ Q.A = r.A ∧ Q.C = r.C]}",
    ),
    "arc-uncorrelated-not-exists": (
        "arc",
        "{Q(A) | ∃r ∈ R[(¬∃s ∈ S[s.C = 2] ∨ r.C = 1) ∧ Q.A = r.A]}",
    ),
    "arc-sentence": ("arc", "∃r ∈ R[¬∃s ∈ S[s.A = r.A ∧ s.B = r.B]]"),
    "sql-not-in": (
        "sql",
        "select r.A from R r where r.A not in "
        "(select s.A from S s where s.C = 1)",
    ),
    "sql-not-exists-2key": (
        "sql",
        "select r.A, r.B from R r where not exists "
        "(select 1 from S s where s.A = r.A and s.B = r.B)",
    ),
    "trc-not-exists": (
        "trc",
        "{r.A, r.B | r in R and not exists s "
        "[s in S and s.A = r.A and s.C = 1]}",
    ),
    "datalog-negated-pred": (
        "datalog",
        "P(a, b) :- S(a, b, c), c = 1.\nQ(a, b) :- R(a, b, c), !P(a, b).",
    ),
}

#: Grouped boolean scopes (∃ a group satisfying HAVING), same schema.
GROUPED_SHAPES = {
    "sql-busy-customers": (
        "sql",
        "select r.A, (select count(s.B) from S s where s.A = r.A) ct "
        "from R r where (select count(s2.B) from S s2 where s2.A = r.A) >= 2",
    ),
    # Compiles to a γ∅ lateral plus a filter: no boolean scope at all.
    "datalog-busy-customers": (
        "datalog",
        "Q(a, ct) :- R(a, b, c), ct = count y : {S(a, y, z)}, ct >= 2.",
    ),
    # The count bug: a key with no inner row still has its empty group.
    "sql-count-bug": (
        "sql",
        "select r.A, r.B from R r where (select count(s.C) from S s "
        "where s.A = r.A and s.B = r.B) < 2",
    ),
    "arc-gamma-keys-having": (
        "arc",
        "{Q(A) | ∃r ∈ R[∃s ∈ S, γ s.B[s.A = r.A ∧ count(s.C) >= 2] "
        "∧ Q.A = r.A]}",
    ),
    "arc-not-gamma-empty": (
        "arc",
        "{Q(A, C) | ∃r ∈ R[¬∃s ∈ S, γ ∅[s.A = r.A ∧ sum(s.C) > 1] "
        "∧ Q.A = r.A ∧ Q.C = r.C]}",
    ),
}

ALL_SHAPES = {**SHAPES, **GROUPED_SHAPES}

VALUES = [0, 1, 2, NULL, NAN]


def _database(r_rows, s_rows, t_rows=((1, 1), (2, NULL), (NAN, 0))):
    db = Database()
    db.create("R", ("A", "B", "C"), r_rows)
    db.create("S", ("A", "B", "C"), s_rows)
    db.create("T", ("B", "D"), t_rows)
    return db


def _random_rows(rng, count, arity=3):
    return [tuple(rng.choice(VALUES) for _ in range(arity)) for _ in range(count)]


def assert_exists_agrees(node, db, conventions):
    """reference ≡ planner (exists index) ≡ planner with decorrelate=False."""
    try:
        reference = evaluate(node, db, conventions, options=ORACLE)
    except ArcError as exc:
        with pytest.raises(type(exc)):
            evaluate(node, db, conventions)
        with pytest.raises(type(exc)):
            evaluate(node, db, conventions, options=NO_DECORRELATE)
        return None
    assert evaluate(node, db, conventions) == reference
    assert evaluate(node, db, conventions, options=NO_DECORRELATE) == reference
    return reference


@pytest.mark.parametrize("conv_name", sorted(CONVENTIONS))
@pytest.mark.parametrize("shape", sorted(ALL_SHAPES))
def test_seeded_negation_family_agrees(shape, conv_name):
    frontend, text = ALL_SHAPES[shape]
    conventions = CONVENTIONS[conv_name]
    rng = random.Random(f"{shape}:{conv_name}")
    for _ in range(12):
        db = _database(
            _random_rows(rng, rng.randint(0, 9)), _random_rows(rng, rng.randint(0, 9))
        )
        assert_exists_agrees(load_query(text, frontend, database=db), db, conventions)


@pytest.mark.parametrize("conv_name", sorted(CONVENTIONS))
def test_partial_null_two_attribute_keys(conv_name):
    """Inner ``(NULL, 5)`` against outer ``(x, 5)`` and ``(x, 6)``: under
    3VL the first is UNKNOWN (row dropped by NOT EXISTS) and the second
    FALSE (row kept); under 2VL ``NULL = x`` is FALSE, so both survive."""
    conventions = CONVENTIONS[conv_name]
    db = _database([(7, 5, 0), (7, 6, 0), (NULL, 6, 0), (NAN, 5, 0)], [(NULL, 5, 1)])
    frontend, text = SHAPES["sql-not-exists-2key"]
    reference = assert_exists_agrees(load_query(text, frontend), db, conventions)
    kept = sorted(
        (row["A"], row["B"]) for row in reference.iter_distinct() if row["A"] == 7
    )
    if conventions.three_valued:
        assert kept == [(7, 6)]
    else:
        assert kept == [(7, 5), (7, 6)]


def test_not_in_with_a_null_inner_value_is_vacuously_empty():
    """The Fig. 11 pitfall: one NULL in the NOT IN list empties the answer
    under SQL's 3VL — for matching and non-matching outer rows alike."""
    db = _database([(1, 0, 0), (2, 0, 0), (NULL, 0, 0)], [(1, 0, 1), (NULL, 0, 1)])
    frontend, text = SHAPES["sql-not-in"]
    node = load_query(text, frontend)
    assert len(assert_exists_agrees(node, db, SQL_CONVENTIONS)) == 0
    two_valued = assert_exists_agrees(node, db, CONVENTIONS["bag-2vl"])
    assert sorted(row["A"] for row in two_valued) == [2]


def test_nan_keys_equal_nothing():
    """NaN keys (inner or outer) never satisfy ``=``: a NaN outer row
    survives NOT EXISTS and a NaN inner row excludes nothing."""
    db = _database([(NAN, 1, 0), (1, 1, 0), (2, 1, 0)], [(NAN, 1, 1), (1, 1, 1)])
    frontend, text = SHAPES["arc-not-exists-1key"]
    for conventions in CONVENTIONS.values():
        reference = assert_exists_agrees(load_query(text, frontend), db, conventions)
        survivors = [row["A"] for row in reference.iter_distinct()]
        assert 2 in survivors and 1 not in survivors
        assert any(value != value for value in survivors)


def test_the_index_engages_on_every_accepted_shape():
    """The differential above would pass trivially if every shape ran per
    row; each accepted shape builds exactly one exists index per run."""
    rng = random.Random(7)
    db = _database(_random_rows(rng, 8) + [(1, 1, 1)], _random_rows(rng, 8))
    for shape, (frontend, text) in SHAPES.items():
        evaluator = Evaluator(db, SQL_CONVENTIONS)
        evaluator.evaluate(load_query(text, frontend, database=db))
        assert evaluator.stats.decorr_index_builds == 1, shape


@pytest.mark.parametrize(
    "shape", sorted(GROUPED_SHAPES.keys() - {"datalog-busy-customers"})
)
def test_grouped_scope_builds_one_index_and_never_runs_per_row(shape, monkeypatch):
    """The differential above would pass trivially if every grouped scope
    ran per row: each builds exactly one boolean-scope index, and the
    per-row ``_truth_grouped`` never runs on the planner."""
    calls = []
    build = decorrelate.CorrelationSpec._build_exists
    per_row = Evaluator._truth_grouped
    monkeypatch.setattr(
        decorrelate.CorrelationSpec,
        "_build_exists",
        lambda self, ev: calls.append("build") or build(self, ev),
    )
    monkeypatch.setattr(
        Evaluator,
        "_truth_grouped",
        lambda self, *args: calls.append("per row") or per_row(self, *args),
    )
    rng = random.Random(11)
    db = _database(_random_rows(rng, 8) + [(1, 1, 1)], _random_rows(rng, 10))
    frontend, text = GROUPED_SHAPES[shape]
    Evaluator(db, SQL_CONVENTIONS).evaluate(load_query(text, frontend, database=db))
    assert calls == ["build"]


@pytest.mark.parametrize("shape", ["arc-not-exists-1key", "sql-count-bug"])
def test_one_evaluator_sees_a_mutation_between_runs(shape):
    """An evaluator reuses a boolean scope's index across outer rows; a
    mutation of the inner relation between two of its runs must reach the
    second run, which rebuilds the index."""
    frontend, text = ALL_SHAPES[shape]
    db = _database([(1, 1, 0), (2, 1, 0), (3, 1, 0)], [(1, 1, 1)])
    node = load_query(text, frontend, database=db)
    evaluator = Evaluator(db, SQL_CONVENTIONS)
    first = evaluator.evaluate(node)
    db["S"].add((2, 1, 1))
    db["S"].add((2, 1, 2))
    second = evaluator.evaluate(node)
    assert second != first
    assert second == evaluate(node, db, SQL_CONVENTIONS, options=ORACLE)
    assert evaluator.stats.decorr_index_builds == 2


_VALUE = st.sampled_from(VALUES)
_ROWS = st.lists(st.tuples(_VALUE, _VALUE, _VALUE), max_size=7)


@settings(max_examples=60, deadline=None)
@given(
    r_rows=_ROWS,
    s_rows=_ROWS,
    shape=st.sampled_from(sorted(ALL_SHAPES)),
    conv_name=st.sampled_from(sorted(CONVENTIONS)),
)
def test_negation_family_agrees_on_generated_data(r_rows, s_rows, shape, conv_name):
    frontend, text = ALL_SHAPES[shape]
    db = _database(r_rows, s_rows)
    node = load_query(text, frontend, database=db)
    assert_exists_agrees(node, db, CONVENTIONS[conv_name])


# -- the corpus negation cells that fall back from SQLite ----------------------

CORPUS_CELLS = [
    ("retail", "price_not_in_toys", "sql"),
    ("retail", "price_not_in_toys", "trc"),
    ("eventlog", "silent_machines", "sql"),
    ("eventlog", "silent_machines", "trc"),
    ("eventlog", "silent_machines", "datalog"),
]


@pytest.mark.parametrize("scenario_name, query_name, frontend", CORPUS_CELLS)
def test_corpus_negation_cells_agree_and_use_the_index(
    scenario_name, query_name, frontend
):
    scenario = get_scenario(scenario_name)
    query = next(q for q in scenario.queries() if q.name == query_name)
    for seed in (0, 1, 2):
        db = scenario.catalog(size="small", seed=seed)
        node = load_query(query.texts[frontend], frontend, database=db)
        evaluator = Evaluator(db, SQL_CONVENTIONS)
        evaluator.evaluate(node)
        assert evaluator.stats.decorr_index_builds == 1
        for conventions in CONVENTIONS.values():
            assert_exists_agrees(node, db, conventions)
