"""Recursion: least-fixed-point programs checked against networkx."""

import networkx as nx
import pytest

from repro.core.parser import parse
from repro.data import Database, generators
from repro.engine import Evaluator, evaluate
from repro.engine.fixpoint import transitive_closure_reference
from repro.errors import ValidationError

from ..conftest import rows_as_tuples

ANCESTOR = (
    "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
    "∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}"
)


class TestAncestor:
    def test_chain(self, ancestor_db):
        result = evaluate(parse(ANCESTOR), ancestor_db)
        pairs = {(row["s"], row["t"]) for row in result}
        edges = {(row["s"], row["t"]) for row in ancestor_db["P"]}
        assert pairs == transitive_closure_reference(edges)

    def test_matches_networkx(self):
        db = generators.parent_edges(40, seed=11, extra_edges=15)
        result = evaluate(parse(ANCESTOR), db)
        graph = nx.DiGraph((row["s"], row["t"]) for row in db["P"])
        closure = nx.transitive_closure(graph)
        assert {(row["s"], row["t"]) for row in result} == set(closure.edges())

    def test_empty_edges(self):
        db = Database()
        db.create("P", ("s", "t"), [])
        assert evaluate(parse(ANCESTOR), db).is_empty()

    def test_cycle_terminates(self):
        db = Database()
        db.create("P", ("s", "t"), [("a", "b"), ("b", "a")])
        result = evaluate(parse(ANCESTOR), db)
        pairs = {(row["s"], row["t"]) for row in result}
        assert pairs == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_standalone_self_reference(self, ancestor_db):
        """A self-referential collection (no Program wrapper) is detected
        and solved by fixpoint automatically."""
        collection = parse(ANCESTOR)
        result = evaluate(collection, ancestor_db)
        assert not result.is_empty()


class TestPrograms:
    def test_view_chain(self, rs_db):
        program = parse(
            "V := {V(A) | ∃r ∈ R[V.A = r.A]} ;\n"
            "W := {W(A) | ∃v ∈ V[W.A = v.A ∧ v.A > 1]} ; main W"
        )
        assert rows_as_tuples(evaluate(program, rs_db)) == [(2,), (3,)]

    def test_main_collection_uses_definitions(self, rs_db):
        program = parse(
            "V := {V(A) | ∃r ∈ R[V.A = r.A]} ;\n{Q(A) | ∃v ∈ V[Q.A = v.A]}"
        )
        assert len(evaluate(program, rs_db)) == 3

    def test_mutual_recursion(self):
        """even/odd distance reachability via mutually recursive defs."""
        db = Database()
        db.create("E", ("s", "t"), [("a", "b"), ("b", "c"), ("c", "d")])
        program = parse(
            "Even := {Even(x) | ∃e ∈ E[Even.x = e.s ∧ e.s = 'a'] ∨ "
            "∃e ∈ E, o ∈ Odd[o.x = e.s ∧ Even.x = e.t]} ;\n"
            "Odd := {Odd(x) | ∃e ∈ E, v ∈ Even[v.x = e.s ∧ Odd.x = e.t]} ; main Odd"
        )
        result = evaluate(program, db)
        assert {row["x"] for row in result} == {"b", "d"}

    def test_stratified_negation(self):
        db = Database()
        db.create("P", ("s", "t"), [("a", "b"), ("b", "c")])
        program = parse(
            "A := {A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
            "∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]} ;\n"
            "NotReach := {NotReach(s, t) | ∃p1 ∈ P, p2 ∈ P[NotReach.s = p1.s ∧ "
            "NotReach.t = p2.t ∧ ¬(∃a ∈ A[a.s = p1.s ∧ a.t = p2.t])]} ; main NotReach"
        )
        result = evaluate(program, db)
        pairs = {(row["s"], row["t"]) for row in result}
        assert ("b", "b") in pairs  # b cannot reach b
        assert ("a", "c") not in pairs  # a reaches c

    def test_unstratified_rejected(self):
        db = Database()
        db.create("P", ("s", "t"), [("a", "b")])
        program = parse(
            "B := {B(x) | ∃p ∈ P[B.x = p.s ∧ ¬(∃b ∈ B[b.x = p.t])]} ; main B"
        )
        with pytest.raises(ValidationError, match="stratification"):
            evaluate(program, db)

    def test_abstract_definition_not_materialized(self, likes_db):
        program = parse(
            "Sub := {Sub(l, r) | ¬(∃l3 ∈ L[l3.d = Sub.l ∧ "
            "¬(∃l4 ∈ L[l4.b = l3.b ∧ l4.d = Sub.r])])} ;\n"
            "{Q(d) | ∃l1 ∈ L[Q.d = l1.d ∧ ¬(∃l2 ∈ L, s1 ∈ Sub, s2 ∈ Sub"
            "[l2.d <> l1.d ∧ s1.l = l1.d ∧ s1.r = l2.d ∧ "
            "s2.l = l2.d ∧ s2.r = l1.d])]}"
        )
        evaluator = Evaluator(likes_db)
        result = evaluator.evaluate(program)
        assert "Sub" in evaluator.abstract
        assert "Sub" not in evaluator.defined
        assert rows_as_tuples(result) == [("bob",)]

    def test_main_abstract_cannot_materialize(self, likes_db):
        from repro.errors import EvaluationError

        program = parse(
            "Sub := {Sub(l, r) | ¬(∃l3 ∈ L[l3.d = Sub.l ∧ "
            "¬(∃l4 ∈ L[l4.b = l3.b ∧ l4.d = Sub.r])])} ; main Sub"
        )
        with pytest.raises(EvaluationError):
            evaluate(program, likes_db)


class TestReference:
    def test_transitive_closure_reference(self):
        closure = transitive_closure_reference([("a", "b"), ("b", "c")])
        assert closure == {("a", "b"), ("b", "c"), ("a", "c")}


class TestSeminaive:
    """Naive and semi-naive strategies must compute identical fixpoints."""

    def _solve(self, db, program_text, main, *, seminaive):
        from repro.core import nodes as n
        from repro.core.parser import parse
        from repro.engine.fixpoint import materialize_program

        parsed = parse(program_text)
        if not isinstance(parsed, n.Program):
            parsed = n.Program({main: parsed}, main)
        evaluator = Evaluator(db)
        materialize_program(parsed, evaluator, seminaive=seminaive)
        return evaluator.defined[main]

    def test_ancestor_agreement(self):
        db = generators.parent_edges(35, seed=19, extra_edges=12)
        naive = self._solve(db, ANCESTOR, "A", seminaive=False)
        seminaive = self._solve(db, ANCESTOR, "A", seminaive=True)
        assert naive.set_equal(seminaive)

    def test_cycle_agreement(self):
        db = Database()
        db.create("P", ("s", "t"), [("a", "b"), ("b", "c"), ("c", "a")])
        naive = self._solve(db, ANCESTOR, "A", seminaive=False)
        seminaive = self._solve(db, ANCESTOR, "A", seminaive=True)
        assert naive.set_equal(seminaive)
        assert len(seminaive.distinct()) == 9  # full 3x3 closure

    def test_empty_agreement(self):
        db = Database()
        db.create("P", ("s", "t"), [])
        assert self._solve(db, ANCESTOR, "A", seminaive=True).is_empty()

    def test_mutual_recursion_agreement(self):
        db = Database()
        db.create("E", ("s", "t"), [("a", "b"), ("b", "c"), ("c", "d")])
        text = (
            "Even := {Even(x) | ∃e ∈ E[Even.x = e.s ∧ e.s = 'a'] ∨ "
            "∃e ∈ E, o ∈ Odd[o.x = e.s ∧ Even.x = e.t]} ;\n"
            "Odd := {Odd(x) | ∃e ∈ E, v ∈ Even[v.x = e.s ∧ Odd.x = e.t]} ; main Odd"
        )
        naive = self._solve(db, text, "Odd", seminaive=False)
        seminaive = self._solve(db, text, "Odd", seminaive=True)
        assert naive.set_equal(seminaive)

    @pytest.mark.parametrize(
        "text, main, expected",
        [
            (
                "T := {T(a) | ∃r ∈ R[(∃p ∈ T[p.a + 1 = r.a] ∨ r.a = 0) ∧ T.a = r.a]}"
                " ; main T",
                "T",
                [0, 1, 2, 3, 4, 5],
            ),
            (
                "Ev := {Ev(a) | ∃r ∈ R[(∃p ∈ Od[p.a + 1 = r.a] ∨ r.a = 0)"
                " ∧ Ev.a = r.a]} ;\n"
                "Od := {Od(a) | ∃r ∈ R, p ∈ Ev[p.a + 1 = r.a ∧ Od.a = r.a]} ; main Od",
                "Od",
                [1, 3, 5],
            ),
        ],
        ids=["self", "mutual"],
    )
    def test_recursion_under_or_derives_from_no_facts(self, text, main, expected):
        """A recursive mention inside ``∨`` still derives rows while the
        recursive relations are empty (the ``r.a = 0`` branch), so the first
        round must run the whole definition, not just its recursion-free
        disjuncts."""
        from repro.api import EvalOptions

        db = Database()
        db.create("R", ("a",), [(i,) for i in range(6)])
        naive = self._solve(db, text, main, seminaive=False)
        assert sorted(row["a"] for row in naive) == expected
        assert self._solve(db, text, main, seminaive=True).set_equal(naive)
        for backend in ("planner", "reference"):
            result = evaluate(parse(text), db, options=EvalOptions(backend=backend))
            assert result.set_equal(naive), backend

    def test_delta_relations_cleaned_up(self, ancestor_db):
        from repro.core import nodes as n
        from repro.core.parser import parse
        from repro.engine.fixpoint import materialize_program

        program = n.Program({"A": parse(ANCESTOR)}, "A")
        evaluator = Evaluator(ancestor_db)
        materialize_program(program, evaluator, seminaive=True)
        assert "ΔA" not in evaluator.defined


class TestAnalysisCache:
    def test_two_runs_of_one_prepared_program_analyse_it_once(self, monkeypatch):
        """Stratification, abstract-name detection and the SCC order depend
        on the AST alone: one link and one dependency graph serve the first
        run, and the second run of a prepared program reuses them."""
        from repro.api import Session
        from repro.core import validator
        from repro.engine import fixpoint

        calls = {"link": 0, "dependency_graph": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(validator, "link")
        counting(fixpoint, "dependency_graph")
        db = Database()
        db.create("Event", ("e", "m"), [(1, 1), (2, 1)])
        db.create("Machine", ("m",), [(1,), (2,)])
        prepared = Session(db).prepare(
            "Active(m) :- Event(e, m).\nQ(m) :- Machine(m), !Active(m).",
            "datalog",
        )
        first = prepared.run()
        after_first = dict(calls)
        assert after_first == {"link": 1, "dependency_graph": 1}
        assert prepared.run() == first
        assert calls == after_first
        assert rows_as_tuples(first) == [(2,)]
