"""The generic scope analyses in ``repro.core.scopes``.

These moved out of ``backends/sql_render.py`` (ROADMAP decorrelation
follow-on (e)): the engine's decorrelation pass needs them, and the engine
must not depend on a rendering backend.
"""

import subprocess
import sys

from repro.core.parser import parse
from repro.core.scopes import (
    free_variables,
    scalar_subquery_shape,
    shadows_binding,
    split_scope,
)


def _inner_binding(text):
    """The (scope, first-nested-collection-binding) of a parsed collection."""
    coll = parse(text)
    scope = coll.body
    for binding in scope.bindings:
        if type(binding.source).__name__ == "Collection":
            return scope, binding
    raise AssertionError("no nested collection binding")


class TestFreeVariables:
    def test_correlated_inner_collection(self):
        _, binding = _inner_binding(
            "{Q(A, sm) | ∃r ∈ R, t ∈ {T(s) | ∃s ∈ S, γ ∅["
            "T.s = sum(s.B) ∧ s.A = r.A]}[Q.A = r.A ∧ Q.sm = t.s]}"
        )
        assert free_variables(binding.source) == {"r"}

    def test_uncorrelated_inner_collection(self):
        _, binding = _inner_binding(
            "{Q(A, s) | ∃r ∈ R, t ∈ {T(s) | ∃s ∈ S, γ ∅[T.s = sum(s.B)]}"
            "[Q.A = r.A ∧ Q.s = t.s]}"
        )
        assert free_variables(binding.source) == set()

    def test_whole_collection_is_closed(self):
        coll = parse("{Q(A) | ∃r ∈ R[Q.A = r.A]}")
        assert free_variables(coll) == set()


class TestSplitScope:
    def test_four_way_classification(self):
        coll = parse(
            "{Q(A, sm) | ∃r ∈ R, γ r.A["
            "Q.A = r.A ∧ Q.sm = sum(r.B) ∧ r.B > 1 ∧ count(*) > 2]}"
        )
        assignments, agg_assignments, agg_comparisons, row_formulas = split_scope(
            coll.head, coll.body
        )
        assert [attr for attr, _ in assignments] == ["A"]
        assert [attr for attr, _ in agg_assignments] == ["sm"]
        assert len(agg_comparisons) == 1
        assert len(row_formulas) == 1


class TestScalarSubqueryShape:
    def test_aggregate_only_gamma_empty_scope_qualifies(self):
        _, binding = _inner_binding(
            "{Q(A, sm) | ∃r ∈ R, t ∈ {T(s) | ∃s ∈ S, γ ∅["
            "T.s = sum(s.B) ∧ s.A = r.A]}[Q.A = r.A ∧ Q.sm = t.s]}"
        )
        assert scalar_subquery_shape(binding.source) is None

    def test_grouped_scope_is_rejected(self):
        _, binding = _inner_binding(
            "{Q(A, sm) | ∃r ∈ R, t ∈ {T(K, s) | ∃s ∈ S, γ s.A["
            "T.K = s.A ∧ T.s = sum(s.B)]}[Q.A = t.K ∧ Q.sm = t.s]}"
        )
        assert "γ∅" in scalar_subquery_shape(binding.source)


class TestShadowsBinding:
    def test_no_shadowing(self):
        scope, binding = _inner_binding(
            "{Q(A, sm) | ∃r ∈ R, t ∈ {T(s) | ∃s ∈ S, γ ∅["
            "T.s = sum(s.B) ∧ s.A = r.A]}[Q.A = r.A ∧ Q.sm = t.s]}"
        )
        assert not shadows_binding(scope, binding)


def test_engine_import_does_not_pull_in_the_renderer():
    """The decorrelation pass uses core.scopes directly now; importing the
    engine must not import the SQL rendering backend (follow-on (e))."""
    import os

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys; import repro.engine.decorrelate; "
        "sys.exit(1 if 'repro.backends.sql_render' in sys.modules else 0)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
    )
    assert result.returncode == 0, result.stderr.decode()
