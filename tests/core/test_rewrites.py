"""Tests for pattern-level rewrites and their applicability conditions."""

import pytest

from repro.core import rewrites
from repro.core.conventions import (
    Conventions,
    NullComparison,
    SET_CONVENTIONS,
    Semantics,
)
from repro.core import nodes as n
from repro.core.parser import parse
from repro.core.scopes import free_variables
from repro.core.validator import validate
from repro.data import Database
from repro.engine import evaluate
from repro.errors import RewriteError
from repro.frontends import load_query
from repro.workloads import instances

BAG = Conventions(semantics=Semantics.BAG)
TWO_VL = SET_CONVENTIONS.with_(null_comparison=NullComparison.TWO_VALUED)


class TestUnnest:
    def test_unnest_merges_scopes(self):
        nested = parse("{Q(A) | ∃r ∈ R[∃s ∈ S[Q.A = r.A ∧ r.B = s.B]]}")
        flat = rewrites.unnest(nested)
        assert len(flat.body.bindings) == 2

    def test_equivalent_under_set(self, rs_db):
        nested = parse("{Q(A) | ∃r ∈ R[∃s ∈ S[Q.A = r.A ∧ r.B = s.B]]}")
        flat = rewrites.unnest(nested)
        assert evaluate(nested, rs_db).set_equal(evaluate(flat, rs_db))

    def test_refused_under_bag(self):
        nested = parse("{Q(A) | ∃r ∈ R[∃s ∈ S[Q.A = r.A ∧ r.B = s.B]]}")
        with pytest.raises(RewriteError):
            rewrites.unnest(nested, BAG)

    def test_bag_difference_is_real(self):
        """The refusal is justified: multiplicities actually differ."""
        db = Database()
        db.create("R", ("A", "B"), [(1, 5)])
        db.create("S", ("B",), [(5,), (5,)])
        nested = parse("{Q(A) | ∃r ∈ R[∃s ∈ S[Q.A = r.A ∧ r.B = s.B]]}")
        flat = parse("{Q(A) | ∃r ∈ R, s ∈ S[Q.A = r.A ∧ r.B = s.B]}")
        assert len(evaluate(nested, db, BAG)) == 1
        assert len(evaluate(flat, db, BAG)) == 2

    def test_grouping_scope_not_merged(self):
        query = parse(
            "{Q(id) | ∃r ∈ R[Q.id = r.id ∧ ∃s ∈ S, γ ∅"
            "[r.id = s.id ∧ r.q = count(s.d)]]}"
        )
        result = rewrites.unnest(query)
        # γ∅ scope must survive: it is not a plain existential.
        assert "γ" in __import__("repro.backends.comprehension", fromlist=["render"]).render(result)

    def test_reused_alias_is_renamed_not_captured(self):
        """SQL may reuse an alias in a subquery; unnesting must not bind it
        twice in one scope (which would read `a.B` off the outer row)."""
        db = Database()
        db.create("R", ("A", "B"), [(1, 1), (2, 2)])
        db.create("S", ("A", "B"), [(1, 1)])
        nested = load_query(
            "select a.A from R a where exists (select * from S a where a.B = 1)",
            "sql",
        )
        flat = rewrites.unnest(nested)
        assert len(flat.body.bindings) == 2
        assert validate(flat).errors() == []
        assert evaluate(flat, db).set_equal(evaluate(nested, db))

    def test_capturable_rename_stays_nested(self):
        """Renaming `a` inside a scope that nests a further (here negated,
        so never merged) scope could be captured: that quantifier stays."""
        db = Database()
        db.create("R", ("A", "B"), [(1, 1), (2, 2)])
        db.create("S", ("A", "B"), [(5, 9)])
        db.create("T", ("B",), [(1,), (2,)])
        nested = parse(
            "{Q(A) | ∃a ∈ R[Q.A = a.A ∧ ∃a ∈ S[¬(∃t ∈ T[t.B = a.B])]]}"
        )
        flat = rewrites.unnest(nested)
        assert [b.var for b in flat.body.bindings] == ["a"]
        assert evaluate(flat, db).set_equal(evaluate(nested, db))


class TestNestExistential:
    def test_roundtrip_with_unnest(self, rs_db):
        flat = parse("{Q(A) | ∃r ∈ R, s ∈ S[Q.A = r.A ∧ r.B = s.B]}")
        nested = rewrites.nest_existential(flat, ["s"])
        assert evaluate(flat, rs_db).set_equal(evaluate(nested, rs_db))
        back = rewrites.unnest(nested)
        assert len(back.body.bindings) == 2

    def test_unknown_variable(self):
        flat = parse("{Q(A) | ∃r ∈ R[Q.A = r.A]}")
        with pytest.raises(RewriteError):
            rewrites.nest_existential(flat, ["zz"])


class TestNotInRewrite:
    def test_adds_null_checks(self):
        query = parse("{Q(A) | ∃r ∈ R[Q.A = r.A ∧ ¬(∃s ∈ S[s.A = r.A])]}")
        rewritten = rewrites.not_in_to_not_exists(query)
        from repro.backends.comprehension import render

        text = render(rewritten)
        assert "is null" in text

    def test_2vl_equivalence_with_nulls(self):
        db = instances.not_in_instance(with_null=True)
        query = parse("{Q(A) | ∃r ∈ R[Q.A = r.A ∧ ¬(∃s ∈ S[s.A = r.A])]}")
        rewritten = rewrites.not_in_to_not_exists(query)
        assert evaluate(query, db, SET_CONVENTIONS).set_equal(
            evaluate(rewritten, db, TWO_VL)
        )

    def test_2vl_equivalence_without_nulls(self):
        db = instances.not_in_instance(with_null=False)
        query = parse("{Q(A) | ∃r ∈ R[Q.A = r.A ∧ ¬(∃s ∈ S[s.A = r.A])]}")
        rewritten = rewrites.not_in_to_not_exists(query)
        assert evaluate(query, db, SET_CONVENTIONS).set_equal(
            evaluate(rewritten, db, TWO_VL)
        )


class TestDistinctAsGrouping:
    def test_adds_grouping(self):
        query = parse("{Q(A, B) | ∃r ∈ R[Q.A = r.A ∧ Q.B = r.B]}")
        rewritten = rewrites.distinct_as_grouping(query)
        assert rewritten.body.grouping is not None
        assert len(rewritten.body.grouping.keys) == 2

    def test_dedupes_under_bag(self):
        db = Database()
        db.create("R", ("A", "B"), [(1, 2), (1, 2), (3, 4)])
        query = parse("{Q(A, B) | ∃r ∈ R[Q.A = r.A ∧ Q.B = r.B]}")
        rewritten = rewrites.distinct_as_grouping(query)
        assert len(evaluate(query, db, BAG)) == 3
        assert len(evaluate(rewritten, db, BAG)) == 2

    def test_requires_plain_assignments(self):
        query = parse("{Q(sm) | ∃r ∈ R, γ ∅[Q.sm = sum(r.B)]}")
        # Already grouped: returned unchanged.
        assert rewrites.distinct_as_grouping(query) is query


class TestCountBugRewrites:
    def test_naive_rewrite_exhibits_bug(self, count_bug_db):
        v1 = parse(
            "{Q(id) | ∃r ∈ R[Q.id = r.id ∧ "
            "∃s ∈ S, γ ∅[r.id = s.id ∧ r.q = count(s.d)]]}"
        )
        v2 = rewrites.decorrelate_scalar_naive(v1)
        assert [t["id"] for t in evaluate(v1, count_bug_db)] == [9]
        assert evaluate(v2, count_bug_db).is_empty()

    def test_correct_rewrite_preserves(self, count_bug_db):
        v1 = parse(
            "{Q(id) | ∃r ∈ R[Q.id = r.id ∧ "
            "∃s ∈ S, γ ∅[r.id = s.id ∧ r.q = count(s.d)]]}"
        )
        v3 = rewrites.decorrelate_scalar(v1)
        assert evaluate(v1, count_bug_db).set_equal(evaluate(v3, count_bug_db))

    def test_all_versions_agree_on_populated_instance(self):
        db = instances.count_bug_populated()
        v1 = parse(
            "{Q(id) | ∃r ∈ R[Q.id = r.id ∧ "
            "∃s ∈ S, γ ∅[r.id = s.id ∧ r.q = count(s.d)]]}"
        )
        v2 = rewrites.decorrelate_scalar_naive(v1)
        v3 = rewrites.decorrelate_scalar(v1)
        r1, r3 = evaluate(v1, db), evaluate(v3, db)
        assert r1.set_equal(r3)
        # v2 may differ exactly on ids with empty S-groups and q = 0.
        r2 = evaluate(v2, db)
        missing = set(r1.iter_distinct()) - set(r2.iter_distinct())
        for tup in missing:
            matching = [s for s in db["S"] if s["id"] == tup["id"]]
            assert not matching

    def test_shape_mismatch_raises(self):
        plain = parse("{Q(A) | ∃r ∈ R[Q.A = r.A]}")
        with pytest.raises(RewriteError):
            rewrites.decorrelate_scalar(plain)


#: R(id, q) / S(id, d) on which reading ``r.q < count(s.d)`` the wrong way
#: round changes the answer from {1} to {2}.
ORDER_RS = {
    "R": (("id", "q"), [(1, 0), (2, 5)]),
    "S": (("id", "d"), [(1, 1), (1, 2), (2, 3)]),
}


def _db(tables):
    db = Database()
    for name, (attrs, rows) in tables.items():
        db.create(name, attrs, rows)
    return db


class TestScalarDecorrelationConditions:
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize("aggregate_left", [False, True])
    def test_order_comparison_keeps_its_orientation(self, op, aggregate_left):
        test = f"count(s.d) {op} r.q" if aggregate_left else f"r.q {op} count(s.d)"
        v1 = parse(
            "{Q(id) | ∃r ∈ R[Q.id = r.id ∧ "
            f"∃s ∈ S, γ ∅[r.id = s.id ∧ {test}]]}}"
        )
        v3 = rewrites.decorrelate_scalar(v1)
        # Outer keys are distinct in both instances: eq. (29) left-joins a
        # copy of R, which is only exact when the correlated key is a key.
        for db in (instances.count_bug_populated(), _db(ORDER_RS)):
            assert evaluate(v3, db).set_equal(evaluate(v1, db))

    def test_fresh_names_avoid_names_the_query_uses(self):
        v1 = parse(
            "{Q(id) | ∃r ∈ R, r2 ∈ R, x ∈ R, x_ ∈ R[Q.id = r.id ∧ "
            "r2.id = r.id ∧ x.id = r.id ∧ x_.id = r.id ∧ "
            "∃s ∈ S, γ ∅[r.id = s.id ∧ r.q = count(s.d)]]}"
        )
        for rewrite in (rewrites.decorrelate_scalar, rewrites.decorrelate_scalar_naive):
            assert validate(rewrite(v1)).errors() == []
        db = instances.count_bug_populated()
        assert evaluate(rewrites.decorrelate_scalar(v1), db).set_equal(
            evaluate(v1, db)
        )

    def test_every_equality_key_becomes_a_key_column(self):
        db = _db(
            {
                "R": (("id", "k", "q"), [(1, 1, 2), (1, 2, 0), (2, 1, 1), (3, 3, 0)]),
                "S": (("id", "k", "d"), [(1, 1, 5), (1, 1, 6), (1, 2, 7), (2, 1, 8)]),
            }
        )
        v1 = parse(
            "{Q(id, k) | ∃r ∈ R[Q.id = r.id ∧ Q.k = r.k ∧ ∃s ∈ S, γ ∅"
            "[r.id = s.id ∧ s.k = r.k ∧ r.q = count(s.d)]]}"
        )
        v3 = rewrites.decorrelate_scalar(v1)
        derived = [
            b.source for b in v3.body.bindings if isinstance(b.source, n.Collection)
        ]
        assert len(derived) == 1 and not free_variables(derived[0])
        assert evaluate(v3, db).set_equal(evaluate(v1, db))

    @pytest.mark.parametrize(
        "text",
        [
            # θ correlation next to the equality key
            "{Q(id) | ∃r ∈ R[Q.id = r.id ∧ "
            "∃s ∈ S, γ ∅[r.id = s.id ∧ s.d < r.q ∧ r.q = count(s.d)]]}",
            # keys from two outer relations
            "{Q(id) | ∃r ∈ R, t ∈ R[Q.id = r.id ∧ "
            "∃s ∈ S, γ ∅[r.id = s.id ∧ t.q = s.d ∧ r.q = count(s.d)]]}",
        ],
        ids=["theta", "two-outer-relations"],
    )
    @pytest.mark.parametrize(
        "rewrite", [rewrites.decorrelate_scalar, rewrites.decorrelate_scalar_naive]
    )
    def test_unsupported_correlation_raises(self, text, rewrite):
        with pytest.raises(RewriteError):
            rewrite(parse(text))


class TestInlineAbstract:
    def test_inline_equivalence(self, likes_db):
        program = parse(
            "Sub := {Sub(l, r) | ¬(∃l3 ∈ L[l3.d = Sub.l ∧ "
            "¬(∃l4 ∈ L[l4.b = l3.b ∧ l4.d = Sub.r])])} ;\n"
            "{Q(d) | ∃l1 ∈ L[Q.d = l1.d ∧ ¬(∃l2 ∈ L, s1 ∈ Sub, s2 ∈ Sub"
            "[l2.d <> l1.d ∧ s1.l = l1.d ∧ s1.r = l2.d ∧ "
            "s2.l = l2.d ∧ s2.r = l1.d])]}"
        )
        inlined = rewrites.inline_abstract(program)
        assert not inlined.definitions  # Sub is gone
        assert evaluate(program, likes_db).set_equal(evaluate(inlined, likes_db))

    def test_inline_matches_monolithic_pattern(self, likes_db):
        from repro.analysis import same_pattern

        program = parse(
            "Sub := {Sub(l, r) | ¬(∃l3 ∈ L[l3.d = Sub.l ∧ "
            "¬(∃l4 ∈ L[l4.b = l3.b ∧ l4.d = Sub.r])])} ;\n"
            "{Q(d) | ∃l1 ∈ L[Q.d = l1.d ∧ ¬(∃l2 ∈ L, s1 ∈ Sub, s2 ∈ Sub"
            "[l2.d <> l1.d ∧ s1.l = l1.d ∧ s1.r = l2.d ∧ "
            "s2.l = l2.d ∧ s2.r = l1.d])]}"
        )
        inlined = rewrites.inline_abstract(program).resolve_main()
        monolithic = parse(
            "{Q(d) | ∃l1 ∈ L[Q.d = l1.d ∧ "
            "¬(∃l2 ∈ L[l2.d <> l1.d ∧ "
            "¬(∃l3 ∈ L[l3.d = l2.d ∧ ¬(∃l4 ∈ L[l4.b = l3.b ∧ l4.d = l1.d])]) ∧ "
            "¬(∃l5 ∈ L[l5.d = l1.d ∧ ¬(∃l6 ∈ L[l6.d = l2.d ∧ l6.b = l5.b])])])]}"
        )
        assert evaluate(inlined, likes_db).set_equal(evaluate(monolithic, likes_db))

    def test_no_abstract_definitions_is_identity(self):
        program = parse("V := {V(A) | ∃r ∈ R[V.A = r.A]} ; main V")
        assert rewrites.inline_abstract(program) is program

    def test_underdetermined_attributes_raise(self):
        program = parse(
            "Sub := {Sub(l, r) | ¬(∃l3 ∈ L[l3.d = Sub.l ∧ "
            "¬(∃l4 ∈ L[l4.b = l3.b ∧ l4.d = Sub.r])])} ;\n"
            "{Q(d) | ∃l1 ∈ L, s1 ∈ Sub[Q.d = l1.d ∧ s1.l = l1.d]}"
        )
        with pytest.raises(RewriteError):
            rewrites.inline_abstract(program)
