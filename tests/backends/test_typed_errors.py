"""Typed query errors: the same answer on every backend, and no breaker trip.

A query over values it cannot compute with (a string under arithmetic,
``sum`` or ``min``) is the caller's error: every backend answers it with
one :class:`EvaluationError` (``repro serve``: a 400), SQLite included —
it refuses such data instead of reading the string as a number — and the
error leaves the backend's circuit breaker closed.
"""

import http.client
import json
import threading
import warnings

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.api.serve import QueryServer
from repro.backends.exec import (
    BackendFallbackWarning,
    breaker_for,
    reset_breakers,
    sqlite_exec,
)
from repro.core.conventions import SQL_CONVENTIONS
from repro.core.parser import parse
from repro.engine import evaluate
from repro.errors import EvaluationError

BACKENDS = ("reference", "planner", "sqlite")


@pytest.fixture(autouse=True)
def clean_breakers():
    reset_breakers()
    yield
    reset_breakers()


def _db(rows):
    db = repro.Database()
    db.create("R", ("A", "B"), rows)
    return db


def _run(text, db, backend):
    return evaluate(
        parse(text), db, SQL_CONVENTIONS, options=EvalOptions(backend=backend)
    )


def _error(text, db, backend):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BackendFallbackWarning)
        with pytest.raises(EvaluationError) as raised:
            _run(text, db, backend)
    return str(raised.value)


MIXED = [(1, 2), (1, "x"), (2, 5)]

TYPED_ERRORS = [
    ("{Q(a) | ∃r ∈ R[Q.a = r.B + 1]}", "arithmetic + over a non-numeric value: 'x'"),
    ("{Q(a) | ∃r ∈ R[Q.a = r.B * 10]}", "arithmetic * over a non-numeric value: 'x'"),
    (
        "{Q(A, m) | ∃r ∈ R, γ r.A[Q.A = r.A ∧ Q.m = min(r.B)]}",
        "aggregate min over values that do not compare: 2 and 'x'",
    ),
    (
        "{Q(A, m) | ∃r ∈ R, γ r.A[Q.A = r.A ∧ Q.m = max(r.B)]}",
        "aggregate max over values that do not compare: 2 and 'x'",
    ),
    (
        "{Q(A, s) | ∃r ∈ R, γ r.A[Q.A = r.A ∧ Q.s = sum(r.B)]}",
        "aggregate sum over a non-numeric value: 'x'",
    ),
    (
        "{Q(A, s) | ∃r ∈ R, γ r.A[Q.A = r.A ∧ Q.s = avg(r.B)]}",
        "aggregate avg over a non-numeric value: 'x'",
    ),
]


@pytest.mark.parametrize("text,message", TYPED_ERRORS)
def test_mixed_types_raise_one_typed_error_on_every_backend(text, message):
    db = _db(MIXED)
    assert [_error(text, db, backend) for backend in BACKENDS] == [message] * 3


@pytest.mark.parametrize("text", [text for text, _ in TYPED_ERRORS])
def test_sqlite_refuses_text_it_would_read_as_a_number(text):
    reasons = sqlite_exec.SqliteBackend().capabilities(
        parse(text), SQL_CONVENTIONS, _db(MIXED)
    )
    assert any("column R.B" in reason for reason in reasons), reasons


def test_text_beside_the_aggregated_column_still_runs_natively():
    """Only the columns an aggregate or arithmetic can read count."""
    db = repro.Database()
    db.create("R", ("A", "B", "name"), [(1, 2, "x"), (1, 3, "y"), (2, 5, "z")])
    text = "{Q(A, s, m) | ∃r ∈ R, γ r.A[Q.A = r.A ∧ Q.s = sum(r.B) ∧ Q.m = min(r.name)]}"
    assert sqlite_exec.SqliteBackend().capabilities(
        parse(text), SQL_CONVENTIONS, db
    ) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error", BackendFallbackWarning)
        assert _run(text, db, "sqlite") == _run(text, db, "reference")


def test_text_reaching_a_sum_through_a_derived_table_is_refused():
    text = (
        "{Q(s) | ∃g ∈ {G(v) | ∃r ∈ R[G.v = r.B]}, γ ∅[Q.s = sum(g.v)]}"
    )
    db = _db(MIXED)
    reasons = sqlite_exec.SqliteBackend().capabilities(parse(text), SQL_CONVENTIONS, db)
    assert any("column R.B" in reason for reason in reasons), reasons
    assert _error(text, db, "sqlite") == _error(text, db, "reference")


ORDERINGS = [
    "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 1]}",
    "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ ¬(r.B > 1)]}",
    "{Q(A) | ∃g ∈ {G(a, v) | ∃r ∈ R[G.a = r.A ∧ G.v = r.B]}[Q.A = g.a ∧ 1 >= g.v]}",
]


@pytest.mark.parametrize("text", ORDERINGS)
def test_ordering_text_against_a_number_agrees_with_the_oracle(text):
    """SQLite orders text after every number; the engine answers FALSE to
    ``'x' > 1``, so SQLite refuses and the planner answers."""
    db = _db([(1, 2), (2, "x"), (3, 5)])
    reasons = sqlite_exec.SqliteBackend().capabilities(parse(text), SQL_CONVENTIONS, db)
    assert any("compares text (column R.B) with a number" in r for r in reasons), reasons
    with pytest.warns(BackendFallbackWarning):
        sqlite = _run(text, db, "sqlite")
    assert sqlite == _run(text, db, "reference") == _run(text, db, "planner")


def test_ordering_text_against_text_still_runs_natively():
    db = repro.Database()
    db.create("R", ("A", "name"), [(1, "ab"), (2, "b"), (3, "é")])
    text = "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.name > 'b']}"
    assert sqlite_exec.SqliteBackend().capabilities(
        parse(text), SQL_CONVENTIONS, db
    ) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error", BackendFallbackWarning)
        sqlite = _run(text, db, "sqlite")
    assert sqlite == _run(text, db, "reference")
    assert [row["A"] for row in sqlite.sorted_rows()] == [3]


def test_aggregate_head_assignment_duplicating_a_plain_one_agrees():
    """SQL's select item holds one expression, so SQLite refuses the shape
    instead of dropping the plain assignment."""
    text = "{Q(a) | ∃r ∈ R, γ r.A[Q.a = r.A ∧ Q.a = sum(r.B)]}"
    db = _db([(1, 1), (2, 5), (2, 6)])
    reasons = sqlite_exec.SqliteBackend().capabilities(parse(text), SQL_CONVENTIONS, db)
    assert any("more than one assignment" in reason for reason in reasons), reasons
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BackendFallbackWarning)
        sqlite = _run(text, db, "sqlite")
    assert sqlite == _run(text, db, "reference")
    assert [row["a"] for row in sqlite.sorted_rows()] == [1]


def test_typed_query_errors_leave_the_breaker_closed():
    """More bad queries in a row than the breaker's threshold: the next
    good one still runs on the requested backend."""
    db = _db(MIXED)
    breaker = breaker_for("reference")
    for _ in range(breaker.threshold + 1):
        _error("{Q(a) | ∃r ∈ R[Q.a = r.B + 1]}", db, "reference")
    assert (breaker.state, breaker.failures) == ("closed", 0)
    session = Session(db, SQL_CONVENTIONS, options=EvalOptions(backend="reference"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", BackendFallbackWarning)
        info = session.prepare("{Q(A) | ∃r ∈ R[Q.A = r.A]}").run_info()
    assert info["fallback_reasons"] == []
    assert sorted(row["A"] for row in info["result"]) == [1, 1, 2]


def test_served_typed_error_answers_400():
    server = QueryServer(("127.0.0.1", 0), Session(_db(MIXED), SQL_CONVENTIONS))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    answers = []
    try:
        host, port = server.server_address[:2]
        for text, message in TYPED_ERRORS:
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request(
                "POST", "/query", json.dumps({"query": text}),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            answers.append((response.status, json.loads(response.read())))
            conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert answers == [
        (400, {"error": message, "error_type": "EvaluationError"})
        for _, message in TYPED_ERRORS
    ]
