"""EvalOptions validation and the options-only ``evaluate`` entry point."""

import warnings
from dataclasses import fields

import pytest

from repro.api import EvalOptions
from repro.core.conventions import SQL_CONVENTIONS
from repro.core.parser import parse
from repro.data import Database
from repro.engine import evaluate
from repro.errors import ArcError, OptionsError


@pytest.fixture
def db():
    database = Database()
    database.create("R", ("A", "B"), [(1, 10), (2, 20), (3, 30)])
    return database


QUERY = "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 15]}"


class TestValidation:
    def test_defaults(self):
        options = EvalOptions()
        assert options.decorrelate
        assert options.backend == "planner" and options.db_file is None

    def test_backend_is_the_only_engine_selector(self):
        assert [field.name for field in fields(EvalOptions)] == [
            "decorrelate", "backend", "db_file", "timeout_ms", "max_rows",
        ]
        with pytest.raises(TypeError, match="planner"):
            EvalOptions(planner=False)

    def test_db_file_implies_sqlite(self, tmp_path):
        options = EvalOptions(db_file=str(tmp_path / "cat.db"))
        assert options.backend == "sqlite"

    def test_db_file_with_other_backend_raises(self, tmp_path):
        with pytest.raises(OptionsError, match="silently ignore"):
            EvalOptions(backend="reference", db_file=str(tmp_path / "cat.db"))

    def test_options_error_is_an_arc_error(self, tmp_path):
        with pytest.raises(ArcError):
            EvalOptions(backend="planner", db_file=str(tmp_path / "cat.db"))

    def test_with_backend_drops_db_file_for_other_engines(self, tmp_path):
        options = EvalOptions(db_file=str(tmp_path / "cat.db"))
        assert options.with_backend("reference").db_file is None
        assert options.with_backend("sqlite") is options

    def test_with_backend_none_is_identity(self):
        options = EvalOptions(backend="sqlite")
        assert options.with_backend(None) is options


class TestOldPathFix:
    """The old kwarg pile silently ignored ``planner=False`` when a backend
    was also selected; ``backend`` is now the one engine selector, and the
    one-shot entry point takes options only."""

    def test_evaluate_rejects_options_plus_legacy_kwargs(self, db):
        with pytest.raises(TypeError, match="planner"):
            evaluate(
                parse(QUERY), db, SQL_CONVENTIONS,
                planner=False, options=EvalOptions(),
            )

    def test_evaluate_with_options_object(self, db):
        result = evaluate(
            parse(QUERY), db, SQL_CONVENTIONS,
            options=EvalOptions(backend="sqlite"),
        )
        assert sorted(row["A"] for row in result) == [2, 3]


class TestDeprecationShims:
    """The legacy-kwarg shims are gone; the one-shot path warns nothing."""

    def test_plain_evaluate_does_not_warn(self, db):
        node = parse(QUERY)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            evaluate(node, db)
