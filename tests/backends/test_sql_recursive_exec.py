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
    from repro.backends.exec.sqlite_exec import compile_sql

    _, sql = compile_sql(parse(LINEAR_TC), CHAIN)
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


# -- recursion SQLite's WITH RECURSIVE cannot run -------------------------------

RECURSIVE_SHAPES = {
    "no base branch": (
        "{A(s, t) | ∃a ∈ A, p ∈ P[A.s = a.s ∧ a.t = p.s ∧ A.t = p.t]}"
    ),
    "nonlinear recursion": (
        "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
        "∃a1 ∈ A, a2 ∈ A[A.s = a1.s ∧ a1.t = a2.s ∧ A.t = a2.t]}"
    ),
    "mutual recursion": (
        "A := {A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
        "∃b ∈ B, p ∈ P[A.s = b.s ∧ b.t = p.s ∧ A.t = p.t]} ;\n"
        "B := {B(s, t) | ∃a ∈ A[B.s = a.s ∧ B.t = a.t]} ; main A"
    ),
}


@pytest.mark.parametrize("shape", sorted(RECURSIVE_SHAPES))
def test_recursion_sqlite_rejects_is_refused_at_probe_time(shape):
    """Each shape falls back at the probe, not in ``execute``: five runs
    agree with the planner, name the shape, and leave SQLite's circuit
    breaker without a failure (five runtime refusals would open it)."""
    from repro.api import Session
    from repro.backends.exec import breaker_states, probe_capabilities, reset_breakers

    reset_breakers()
    try:
        session = Session(CHAIN, SQL_CONVENTIONS, options=SQLITE)
        planner = evaluate(
            parse(RECURSIVE_SHAPES[shape]), CHAIN, SQL_CONVENTIONS,
            options=EvalOptions(backend="planner"),
        )
        for _ in range(5):
            prepared = session.prepare(parse(RECURSIVE_SHAPES[shape]))
            info = prepared.run_info()
            assert info["result"] == planner
            assert any(shape in reason for reason in info["fallback_reasons"])
            probed = probe_capabilities(
                prepared.node, CHAIN, SQL_CONVENTIONS, ["sqlite"]
            )["sqlite"]
            assert list(probed) == info["fallback_reasons"]
        assert breaker_states()["sqlite"]["failures"] == 0
    finally:
        reset_breakers()


def test_recursive_branch_before_its_base_runs_natively():
    """A recursive CTE runs its base selects first; the rendering puts
    them there whatever the disjunct order (UNION is order-free)."""
    node = parse(
        "{A(s, t) | ∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t] ∨ "
        "∃p ∈ P[A.s = p.s ∧ A.t = p.t]}"
    )
    assert run_native(node, CYCLE) == evaluate(
        node, CYCLE, SQL_CONVENTIONS, options=ORACLE
    )


def _double():
    """A session's own external relation: Double(x, y) with y = 2x."""
    from repro.engine.externals import ExternalRelation, standard_registry

    registry = standard_registry()
    registry.add(ExternalRelation(
        "Double", ("x", "y"),
        {frozenset({"x"}): lambda known: [{"x": known["x"], "y": 2 * known["x"]}]},
    ))
    return registry


EXTERNAL_HEADS = {
    # The paper's Minus, in the standard registry.
    "Minus": (
        None,
        "{Minus(left, right, out) | ∃r ∈ R[Minus.left = r.A ∧ "
        "Minus.right = r.B ∧ Minus.out = r.A] ∨ ∃m ∈ Minus, r ∈ R["
        "m.left = r.A ∧ m.right = r.B ∧ Minus.left = m.left ∧ "
        "Minus.right = m.right ∧ Minus.out = m.out]}",
        [(5, 2, 3), (5, 2, 5), (9, 4, 5), (9, 4, 9)],
    ),
    "Double": (
        _double,
        "{Double(x, y) | ∃r ∈ R[Double.x = r.A ∧ Double.y = r.A] ∨ "
        "∃d ∈ Double, r ∈ R[d.x = r.A ∧ Double.x = d.x ∧ Double.y = d.y]}",
        [(5, 5), (5, 10), (9, 9), (9, 18)],
    ),
}


@pytest.mark.parametrize("head", sorted(EXTERNAL_HEADS))
def test_a_head_named_by_an_external_relation_is_not_recursion(head):
    """Section 2.13: the head names an external relation, so the second
    branch reads its access patterns, not the collection being defined.
    Every engine reads it so, with the session's registry; SQLite, which
    stores no external, falls back instead of running ``WITH RECURSIVE``."""
    from repro.api import Session

    registry, text, expected = EXTERNAL_HEADS[head]
    externals = registry() if registry is not None else None
    db = Database()
    db.create("R", ("A", "B"), [(5, 2), (9, 4)])
    infos = {
        backend: Session(
            db, SQL_CONVENTIONS, externals=externals,
            options=EvalOptions(backend=backend),
        ).prepare(text).run_info()
        for backend in ("reference", "planner", "sqlite")
    }
    assert sorted(infos["reference"]["result"].sorted_values()) == expected
    assert infos["planner"]["result"] == infos["reference"]["result"]
    assert infos["sqlite"]["result"] == infos["reference"]["result"]
    assert infos["sqlite"]["fallback_reasons"] == [] or any(
        head in reason for reason in infos["sqlite"]["fallback_reasons"]
    )


def test_a_run_keeps_the_registry_its_probe_compiled_with():
    """Without ``Minus`` in the session's registry the collection is
    recursion, and SQLite runs it.  Sessions that share the node and
    alternate decorrelation recompile at run time, with the probe's
    registry, not the standard one (which would read a ``Minus`` table)."""
    from repro.api import Session
    from repro.backends.exec import breaker_states, reset_breakers
    from repro.engine.externals import ExternalRegistry

    reset_breakers()
    try:
        db = Database()
        db.create("R", ("A", "B"), [(5, 2), (9, 4)])
        node = parse(EXTERNAL_HEADS["Minus"][1])
        sessions = [
            Session(db, SQL_CONVENTIONS, externals=ExternalRegistry(),
                    options=EvalOptions(backend="sqlite", decorrelate=flag))
            for flag in (True, False)
        ]
        for session in sessions * 2:
            info = session.prepare(node).run_info()
            assert sorted(info["result"].sorted_values()) == [(5, 2, 5), (9, 4, 9)]
            assert info["fallback_reasons"] == []
        assert breaker_states()["sqlite"]["failures"] == 0
    finally:
        reset_breakers()
