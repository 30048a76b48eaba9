"""The recursive fragment of ``sql_render``, executed for real.

Until the SQLite backend existed, every ``WITH RECURSIVE`` rendering was
untestable: the SQL frontend cannot parse recursion back, so round-trip
tests skipped it.  These tests close the gap — each recursive program is
rendered, executed on SQLite, and asserted equal to the engine's fixpoint
(the semantic oracle), under SQL conventions.

The recursive CTE uses set-based UNION (matching the fixpoint's Section 2.9
set semantics), so it terminates on cyclic inputs and collapses multiple
derivation paths exactly like the engine does.
"""

import warnings

import pytest

from repro.api import EvalOptions
from repro.backends.exec import BackendFallbackWarning
from repro.backends.sql_render import to_sql
from repro.core.conventions import SQL_CONVENTIONS
from repro.core.parser import parse
from repro.data import Database, generators
from repro.engine import evaluate
from repro.engine.fixpoint import transitive_closure_reference

ORACLE = EvalOptions(backend="reference")
SQLITE = EvalOptions(backend="sqlite")

LINEAR_TC = (
    "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
    "∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}"
)

RIGHT_LINEAR_TC = (
    "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
    "∃a ∈ A, p ∈ P[A.s = a.s ∧ a.t = p.s ∧ A.t = p.t]}"
)

SAME_GENERATION = (
    "SG := {SG(x, y) | ∃p1 ∈ P, p2 ∈ P[SG.x = p1.t ∧ SG.y = p2.t ∧ "
    "p1.s = p2.s] ∨ "
    "∃p1 ∈ P, p2 ∈ P, sg ∈ SG[SG.x = p1.t ∧ SG.y = p2.t ∧ "
    "p1.s = sg.x ∧ p2.s = sg.y]} ; main SG"
)

TC_THEN_AGGREGATE = (
    "A := {A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
    "∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]} ;\n"
    "D := {D(s, c) | ∃a ∈ A, γ a.s[D.s = a.s ∧ D.c = count(a.t)]} ; main D"
)


def run_native(node, db):
    """Evaluate on SQLite, failing the test on any planner fallback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", BackendFallbackWarning)
        return evaluate(node, db, SQL_CONVENTIONS, options=SQLITE)


def _edges(pairs):
    db = Database()
    db.create("P", ("s", "t"), pairs)
    return db


CHAIN = _edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
DIAMOND = _edges([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")])
CYCLE = _edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])


@pytest.mark.parametrize("text", [LINEAR_TC, RIGHT_LINEAR_TC], ids=["left", "right"])
@pytest.mark.parametrize(
    "db", [CHAIN, DIAMOND, CYCLE], ids=["chain", "diamond", "cycle"]
)
def test_transitive_closure_matches_fixpoint(text, db):
    node = parse(text)
    # A self-recursive collection renders as WITH RECURSIVE via the backend's
    # program wrap; the fixpoint engine is the oracle.
    result = run_native(node, db)
    oracle = evaluate(node, db, SQL_CONVENTIONS, options=ORACLE)
    assert result == oracle
    expected = transitive_closure_reference(
        (row["s"], row["t"]) for row in db["P"].iter_distinct()
    )
    assert {(row["s"], row["t"]) for row in result.iter_distinct()} == expected


def test_rendering_is_with_recursive_union():
    from repro.backends.exec.sqlite_exec import _prepare

    prepared = _prepare(parse(LINEAR_TC), CHAIN)
    sql = to_sql(prepared)
    assert sql.startswith("with recursive")
    assert "\nunion\n" in sql and "union all" not in sql


def test_multiple_derivation_paths_collapse_like_the_fixpoint():
    """The diamond yields (a, d) twice under UNION ALL; the set-based UNION
    must report it once, exactly as the fixpoint does — under *bag*
    conventions, where the difference would be observable."""
    node = parse(LINEAR_TC)
    result = run_native(node, DIAMOND)
    assert result.multiplicity({"s": "a", "t": "d"}) == 1


def test_cyclic_input_terminates_natively():
    result = run_native(parse(LINEAR_TC), CYCLE)
    assert result.multiplicity({"s": "a", "t": "a"}) == 1


def test_random_dags_match_fixpoint():
    for seed in range(3):
        db = generators.parent_edges(25, seed=seed, extra_edges=8)
        node = parse(LINEAR_TC)
        assert run_native(node, db) == evaluate(
            node, db, SQL_CONVENTIONS, options=ORACLE
        )


def test_same_generation_program():
    db = _edges([("r", "a"), ("r", "b"), ("a", "c"), ("b", "d")])
    node = parse(SAME_GENERATION)
    assert run_native(node, db) == evaluate(node, db, SQL_CONVENTIONS, options=ORACLE)


def test_recursive_cte_feeding_a_downstream_aggregate():
    """A recursive CTE plus a non-recursive aggregating CTE in one WITH."""
    node = parse(TC_THEN_AGGREGATE)
    sql = to_sql(node)
    assert sql.startswith("with recursive")
    assert "group by" in sql
    result = run_native(node, DIAMOND)
    assert result == evaluate(node, DIAMOND, SQL_CONVENTIONS, options=ORACLE)


def test_nonlinear_recursion_falls_back_but_agrees():
    nonlinear = parse(
        "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
        "∃a1 ∈ A, a2 ∈ A[A.s = a1.s ∧ a1.t = a2.s ∧ A.t = a2.t]}"
    )
    with pytest.warns(BackendFallbackWarning):
        result = evaluate(nonlinear, CHAIN, SQL_CONVENTIONS, options=SQLITE)
    assert result == evaluate(nonlinear, CHAIN, SQL_CONVENTIONS, options=ORACLE)
