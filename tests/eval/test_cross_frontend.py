"""Cross-frontend equivalence: one question, four surface languages.

Every corpus query that carries more than one frontend text must evaluate
to the same answer under the reference oracle — positionally, since the
frontends disagree on column names by design.  This pins frontend drift
the per-language differential suites never exercised: a datalog translator
regression shows up here as retail/datalog diverging from retail/sql on
the *same* question.
"""

import pytest

from repro.backends.comprehension import render
from repro.core import nodes as n
from repro.core.conventions import SQL_CONVENTIONS
from repro.core.parser import parse
from repro.api import EvalOptions, Session
from repro.frontends import load_query
from repro.eval.harness import CONVENTIONS, normalize_result
from repro.workloads.scenarios import SCENARIOS

CASES = [
    pytest.param(scenario, query, id=f"{scenario.name}-{query.name}")
    for scenario in SCENARIOS.values()
    for query in scenario.queries()
]

MULTI_FRONTEND_CASES = [
    case for case in CASES if len(case.values[1].texts) > 1
]

TEXTS = [
    pytest.param(
        scenario, frontend, text, id=f"{scenario.name}-{query.name}-{frontend}"
    )
    for scenario in SCENARIOS.values()
    for query in scenario.queries()
    for frontend, text in sorted(query.texts.items())
]


@pytest.fixture(scope="module")
def catalogs():
    return {name: sc.catalog("small", 0) for name, sc in SCENARIOS.items()}


@pytest.mark.parametrize("scenario,query", MULTI_FRONTEND_CASES)
def test_frontends_agree_under_reference_oracle(scenario, query, catalogs):
    database = catalogs[scenario.name]
    session = Session(
        database,
        CONVENTIONS[query.conventions],
        options=EvalOptions(backend="reference"),
    )
    normalized = {
        frontend: normalize_result(
            session.prepare(text, frontend=frontend).run(),
            compare=query.compare,
        )
        for frontend, text in query.texts.items()
    }
    baseline_frontend = query.frontends[0]
    baseline = normalized[baseline_frontend]
    for frontend, form in normalized.items():
        assert form == baseline, (
            f"{scenario.name}/{query.name}: {frontend} disagrees with "
            f"{baseline_frontend}"
        )


@pytest.mark.parametrize("scenario,query", CASES)
def test_every_text_parses_and_answers(scenario, query, catalogs):
    database = catalogs[scenario.name]
    session = Session(
        database,
        CONVENTIONS[query.conventions],
        options=EvalOptions(backend="reference"),
    )
    for frontend, text in query.texts.items():
        result = session.prepare(text, frontend=frontend).run()
        kind, _payload = normalize_result(result, compare=query.compare)
        assert kind == "rows", (scenario.name, query.name, frontend)


def test_corpus_exercises_all_four_frontends_per_scenario():
    for name, scenario in SCENARIOS.items():
        covered = {
            frontend
            for query in scenario.queries()
            for frontend in query.frontends
        }
        assert covered == {"datalog", "rel", "sql", "trc"}, name


def test_datalog_filters_on_aggregate_targets():
    """The literal-ordering fix: a comparison may reference an aggregate
    target regardless of where it appears in the rule body."""
    from repro.data import Database
    from repro.frontends import load_query
    from repro.engine import evaluate

    db = Database()
    db.create("E", ("eid", "grp"), [(1, "a"), (2, "a"), (3, "b")])
    node = load_query(
        "Q(g, ct) :- E(e, g), ct = count e2 : {E(e2, g)}, ct >= 2.",
        "datalog",
        db,
    )
    result = evaluate(node, db, SQL_CONVENTIONS)
    rows = sorted(tuple(row[a] for a in result.schema) for row in result)
    assert rows == [("a", 2), ("a", 2)]


@pytest.mark.parametrize("scenario,frontend,text", TEXTS)
def test_every_text_translates_to_arc_that_renders_and_reparses(
    scenario, frontend, text, catalogs
):
    """Each frontend's translation is ordinary ARC: its comprehension
    rendering parses back to the same tree."""
    node = load_query(text, frontend, database=catalogs[scenario.name])
    assert n.structurally_equal(parse(render(node)), node), render(node)
