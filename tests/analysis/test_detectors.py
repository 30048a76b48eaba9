"""Pattern-vocabulary detectors over the paper's example queries."""

from repro.analysis import detect_patterns
from repro.core.parser import parse
from repro.workloads import paper_examples


class TestAggregationPatterns:
    def test_fio(self):
        patterns = detect_patterns(paper_examples.arc("eq3"))
        assert "fio-aggregation" in patterns
        assert "foi-aggregation" not in patterns

    def test_foi(self):
        patterns = detect_patterns(paper_examples.arc("eq7"))
        assert "foi-aggregation" in patterns
        assert "lateral" in patterns
        assert "correlated-lateral" in patterns

    def test_having_wrapper_is_fio_plus_lateral(self):
        patterns = detect_patterns(paper_examples.arc("eq8"))
        assert "fio-aggregation" in patterns
        assert "lateral" in patterns
        # The inner collection is uncorrelated: it exports dept itself.
        assert "correlated-lateral" not in patterns

    def test_nested_scope_inside_an_uncorrelated_group_is_fio(self):
        # The inner ∃t binds t itself: the γ scope references nothing outside.
        patterns = detect_patterns(parse(
            "{Q(A, m) | ∃r ∈ R, x ∈ {X(m) | ∃s ∈ S, γ ∅[X.m = sum(s.B) ∧ "
            "∃t ∈ T[t.A = s.A]]}[Q.A = r.A ∧ Q.m = x.m]}"
        ))
        assert "fio-aggregation" in patterns
        assert "foi-aggregation" not in patterns
        assert "correlated-lateral" not in patterns

    def test_aggregate_test(self):
        patterns = detect_patterns(paper_examples.arc("eq27"))
        assert "aggregate-test" in patterns


class TestJoinPatterns:
    def test_semijoin(self):
        query = parse("{Q(A) | ∃r ∈ R[Q.A = r.A ∧ ∃s ∈ S[r.B = s.B]]}")
        assert "semijoin" in detect_patterns(query)

    def test_antijoin(self):
        query = parse("{Q(A) | ∃r ∈ R[Q.A = r.A ∧ ¬(∃s ∈ S[r.B = s.B])]}")
        assert "antijoin" in detect_patterns(query)

    def test_division_unique_set(self):
        patterns = detect_patterns(paper_examples.arc("eq22"))
        assert "division" in patterns
        assert "antijoin" in patterns

    def test_outer_join(self):
        patterns = detect_patterns(paper_examples.arc("eq18"))
        assert "outer-join" in patterns

    def test_plain_join_has_no_special_patterns(self):
        patterns = detect_patterns(paper_examples.arc("eq1"))
        assert not patterns & {"semijoin", "antijoin", "division", "outer-join"}


class TestStructuralPatterns:
    def test_recursion(self):
        assert "recursion" in detect_patterns(paper_examples.arc("eq16"))
        assert "disjunction" in detect_patterns(paper_examples.arc("eq16"))

    def test_correlated_lateral_eq2(self):
        patterns = detect_patterns(paper_examples.arc("eq2"))
        assert "correlated-lateral" in patterns

    def test_program_patterns_union(self):
        program = parse(paper_examples.ARC["eq23_24"])
        patterns = detect_patterns(program)
        assert "antijoin" in patterns

    def test_sentence(self):
        patterns = detect_patterns(paper_examples.arc("eq13"))
        assert "aggregate-test" in patterns


class TestVocabularyClaims:
    def test_souffle_aggregation_is_foi(self):
        """'It lets us point at a query in Soufflé and say FOI aggregation.'"""
        from repro.data import Database
        from repro.frontends import datalog

        db = Database()
        db.create("R", ("a", "b"))
        db.create("S", ("a", "b"))
        program = datalog.to_arc(
            "Q(ak, sm) :- R(ak, _), sm = sum b : {S(a, b), a < ak}.", database=db
        )
        assert "foi-aggregation" in detect_patterns(program)

    def test_sql_group_by_is_fio(self):
        from repro.data import Database
        from repro.frontends.sql import to_arc

        db = Database()
        db.create("R", ("A", "B"))
        arc = to_arc("select R.A, sum(R.B) sm from R group by R.A", database=db)
        assert "fio-aggregation" in detect_patterns(arc)
