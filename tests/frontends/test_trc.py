"""TRC frontend: the Section 2.1 normalization steps."""

import pytest

from repro.analysis import same_pattern
from repro.core import nodes as n
from repro.core.parser import parse
from repro.core.validator import validate
from repro.engine import evaluate
from repro.errors import ParseError
from repro.frontends import trc

from ..conftest import rows_as_tuples


class TestNormalization:
    def test_textbook_example(self, rs_db):
        """The paper's running normalization: textbook TRC -> strict ARC."""
        loose = "{r.A | r ∈ R ∧ ∃s[r.B = s.B ∧ s.C = 0 ∧ s ∈ S]}"
        arc = trc.to_arc(loose)
        assert validate(arc, database=rs_db).ok
        assert rows_as_tuples(evaluate(arc, rs_db)) == [(1,), (3,)]

    def test_intermediate_form_equivalent(self, rs_db):
        step1 = trc.to_arc("{r.A | r ∈ R ∧ ∃s ∈ S[r.B = s.B ∧ s.C = 0]}")
        step0 = trc.to_arc("{r.A | r ∈ R ∧ ∃s[r.B = s.B ∧ s.C = 0 ∧ s ∈ S]}")
        assert same_pattern(step0, step1)

    def test_head_assignments_added(self):
        arc = trc.to_arc("{r.A | r ∈ R}")
        assignment = n.conjuncts(arc.body.body)[0]
        assert isinstance(assignment.left, n.Attr)
        assert assignment.left.var == "Q"

    def test_strict_form_matches_eq1(self, rs_db):
        arc = trc.to_arc("{r.A | r ∈ R ∧ ∃s ∈ S[r.B = s.B ∧ s.C = 0]}")
        eq1 = parse("{Q(A) | ∃r ∈ R, s ∈ S[Q.A = r.A ∧ r.B = s.B ∧ s.C = 0]}")
        assert evaluate(arc, rs_db).set_equal(evaluate(eq1, rs_db))

    def test_multiple_head_attrs(self, rs_db):
        arc = trc.to_arc("{r.A, s.C | r ∈ R ∧ s ∈ S ∧ r.B = s.B}")
        assert arc.head.attrs == ("A", "C")
        assert rows_as_tuples(evaluate(arc, rs_db)) == [(1, 0), (2, 5), (3, 0)]

    def test_duplicate_head_names_disambiguated(self):
        arc = trc.to_arc("{r.A, s.A | r ∈ R ∧ s ∈ S ∧ r.A = s.A}")
        assert len(set(arc.head.attrs)) == 2

    def test_computed_head_expr(self, rs_db):
        arc = trc.to_arc("{r.A + 1 | r ∈ R}")
        assert arc.head.attrs == ("col1",)
        assert rows_as_tuples(evaluate(arc, rs_db)) == [(2,), (3,), (4,)]

    def test_negation(self, rs_db):
        arc = trc.to_arc("{r.A | r ∈ R ∧ ¬∃s ∈ S[r.B = s.B ∧ s.C = 0]}")
        assert rows_as_tuples(evaluate(arc, rs_db)) == [(2,)]

    def test_ascii_spelling(self, rs_db):
        arc = trc.to_arc(
            "{r.A | r in R and exists s[r.B = s.B and s.C = 0 and s in S]}"
        )
        assert rows_as_tuples(evaluate(arc, rs_db)) == [(1,), (3,)]

    def test_custom_head_name(self):
        arc = trc.to_arc("{r.A | r ∈ R}", head_name="Out")
        assert arc.head.name == "Out"


class TestArcGrammar:
    """TRC reads formulas and expressions with ARC's own grammar."""

    @pytest.mark.parametrize(
        "condition",
        [
            "r.B IS NULL",
            "r.B IS NOT NULL",
            "(r.A + 1) * 2 > r.B",
            "(r.B > 1 ∨ (r.B < 0 ∨ r.A = 2))",
            "-r.B < -3",
            "-(r.A - r.B) >= 0",
        ],
        ids=["is-null", "is-not-null", "paren-arith", "nested-or", "unary-minus",
             "negated-paren"],
    )
    def test_condition_reads_as_in_arc(self, condition):
        arc = trc.to_arc(f"{{r.A | r ∈ R ∧ {condition}}}")
        strict = parse(f"{{Q(A) | ∃r ∈ R[Q.A = r.A ∧ {condition}]}}")
        assert n.structurally_equal(arc, strict)

    @pytest.mark.parametrize(
        "text,message,column",
        [
            ("{r.A | r ∈ R ∧ r.B >}", "expected expression, got '}'", 21),
            ("{r.A | r ∈ R ∧ r.B IS 3}", "expected 'null', got '3'", 23),
            ("{r.A | r ∈ 3}", "expected relation name, got '3'", 12),
        ],
    )
    def test_parse_error_carries_position(self, text, message, column):
        with pytest.raises(ParseError) as info:
            trc.to_arc(text)
        assert info.value.message == message
        assert (info.value.line, info.value.column) == (1, column)


class TestSafety:
    def test_unbound_quantifier_rejected(self):
        with pytest.raises(ParseError, match="unsafe|membership"):
            trc.to_arc("{r.A | r ∈ R ∧ ∃s[r.B = s.B]}")

    def test_membership_under_disjunction_rejected(self):
        with pytest.raises(ParseError):
            trc.to_arc("{r.A | r ∈ R ∧ ∃s[(s ∈ S ∨ r.B = 1) ∧ r.B = s.B]}")
