"""Execution-based differential evaluation over the scenario corpus.

Spider-style NL2SQL evaluation learned the hard way that string-matching
predicted SQL against gold SQL mismeasures both directions; the robust
protocol *executes* both and compares answers.  This harness applies that
protocol to the whole system: every (scenario, query, frontend, backend)
cell runs through the Session API, and the cell's verdict is the executed
result differenced against the reference oracle **for the same frontend's
AST** — so a failing cell localizes to the backend, while the separate
cross-frontend comparison (same query, different surface texts, oracle
only) localizes frontend drift.

Verdict vocabulary per cell:

* ``ok`` — the backend's answer equals the oracle's (bag-exact, via
  :meth:`Relation.__eq__`), or both raised the same typed error;
* ``typed_error`` — the run raised an :class:`~repro.errors.ArcError`
  subclass (a *named* refusal: timeout, budget, unsupported, …);
* ``mismatch`` — executed fine but the answer differs (the bug class this
  harness exists to catch);
* ``error`` — an untyped exception escaped (always a bug).

Each cell also records the native-vs-fallback verdict (``run_info``'s
explicit ``fallback_reasons`` channel), the static capability-probe
prediction (:func:`repro.backends.exec.probe_capabilities`), and per-phase
span timings from the session tracer, so the report doubles as coverage
accounting: which feature classes each backend runs natively, which it
refuses, and whether the probe's promises match observed dispatch.

The nl pipeline is scored on the same corpus by execution match: the
template pipeline's executed answer set-compared against the oracle of a
gold SQL text (``gold=None`` cases must be *refused* to count as matched).
"""

from __future__ import annotations

import json
import time

from ..api import EvalOptions, Session
from ..backends.exec import probe_capabilities, reset_breakers
from ..core.conventions import (
    SET_CONVENTIONS,
    SOUFFLE_CONVENTIONS,
    SQL_CONVENTIONS,
)
from ..data import NULL, Relation
from ..data.relation import sort_canonical
from ..errors import ArcError
from ..nl.pipeline import Nl2ArcPipeline
from ..nl.templates import default_grammar
from ..obs import Tracer
from ..workloads.scenarios import SCENARIOS, get_scenario

CONVENTIONS = {
    "set": SET_CONVENTIONS,
    "sql": SQL_CONVENTIONS,
    "souffle": SOUFFLE_CONVENTIONS,
}

#: The full backend matrix every cell runs against.
DEFAULT_BACKENDS = ("reference", "planner", "sqlite")

#: Rows persisted per cell in the JSON report (full results stay in memory).
REPORT_ROW_CAP = 20

REPORT_VERSION = 1


# -- result normalization ----------------------------------------------------


def normalize_result(result, *, compare="bag", ndigits=9):
    """A canonical, frontend-agnostic form of an evaluation result.

    Frontends disagree on column *names* (``cid`` vs ``c``) but corpus
    queries pin column *order*, so rows normalize positionally in schema
    order: floats round to *ndigits* (aggregate arithmetic differs across
    engines only in the last ulps), the rows sort into the canonical order
    (:func:`~repro.data.relation.sort_canonical`), and NULL becomes ``None``.
    ``compare="set"`` collapses multiplicities first.  Truth values (from
    sentences) normalize to ``("truth", name)``.
    """
    if not isinstance(result, Relation):
        return ("truth", getattr(result, "name", str(result)))
    source = result.iter_distinct() if compare == "set" else iter(result)
    rows = [
        tuple(
            round(value, ndigits) if isinstance(value, float) else value
            for value in (row[attr] for attr in result.schema)
        )
        for row in source
    ]
    sort_canonical(rows)
    return (
        "rows",
        tuple(
            tuple(None if v is NULL else v for v in row) if NULL in row else row
            for row in rows
        ),
    )


def results_agree(left, right, *, compare="bag", ndigits=9):
    """Execution-based comparison of two results (positional, normalized)."""
    return normalize_result(left, compare=compare, ndigits=ndigits) == (
        normalize_result(right, compare=compare, ndigits=ndigits)
    )


def result_rows(result, *, cap=None):
    """JSON-able row lists (schema order, NULL → null), capped for reports."""
    if not isinstance(result, Relation):
        return [[getattr(result, "name", str(result))]]
    rows = result.json_rows()
    return rows if cap is None else rows[:cap]


# -- the differential runner -------------------------------------------------


class _SessionPool:
    """One warm Session per (backend, conventions) pair over one catalog."""

    def __init__(self, database, backends):
        self.database = database
        self.backends = backends
        self._sessions = {}

    def get(self, backend, conventions_name):
        key = (backend, conventions_name)
        session = self._sessions.get(key)
        if session is None:
            session = Session(
                self.database,
                CONVENTIONS[conventions_name],
                options=EvalOptions(backend=backend),
            )
            session.tracer = Tracer(stats=session.stats)
            self._sessions[key] = session
        return session


def _phase_timings(tracer):
    """Drain the tracer; total seconds per span name for the last run."""
    spans, _events = tracer.take()
    phases = {}
    for span in spans:
        phases[span.name] = phases.get(span.name, 0.0) + span.duration_s
    return phases


def _run_cell(pool, query, frontend, node, backend, oracle):
    """Evaluate one (query, frontend, backend) cell and difference it."""
    session = pool.get(backend, query.conventions)
    cell = {
        "query": query.name,
        "frontend": frontend,
        "backend": backend,
        "features": sorted(query.features),
        "native": None,
        "fallback_reasons": [],
        "status": None,
        "error_type": None,
        "error": None,
        "row_count": None,
        "elapsed_ms": None,
        "phases": {},
    }
    started = time.perf_counter()
    try:
        info = session.prepare(node, frontend=frontend).run_info()
    except ArcError as exc:
        cell["status"] = (
            "ok"
            if isinstance(oracle, Exception) and type(oracle) is type(exc)
            else "typed_error"
        )
        cell["error_type"] = type(exc).__name__
        cell["error"] = str(exc)
    except Exception as exc:  # pragma: no cover - always a harness finding
        cell["status"] = "error"
        cell["error_type"] = type(exc).__name__
        cell["error"] = str(exc)
    else:
        result = info["result"]
        cell["fallback_reasons"] = list(info["fallback_reasons"])
        cell["native"] = not cell["fallback_reasons"]
        if isinstance(oracle, Exception):
            # The oracle refused but this backend answered: a mismatch
            # unless the answer channel is irrelevant (it never is today).
            cell["status"] = "mismatch"
            cell["error"] = (
                f"oracle raised {type(oracle).__name__} but "
                f"{backend} returned rows"
            )
        else:
            equal = result == oracle
            cell["status"] = "ok" if equal else "mismatch"
            if isinstance(result, Relation):
                cell["row_count"] = sum(result.counter().values())
    cell["elapsed_ms"] = round((time.perf_counter() - started) * 1e3, 3)
    cell["phases"] = {
        name: round(seconds * 1e3, 3)
        for name, seconds in _phase_timings(session.tracer).items()
    }
    return cell


def _coverage(cells):
    """Native-vs-fallback accounting per backend, with a reason histogram."""
    coverage = {}
    for cell in cells:
        entry = coverage.setdefault(
            cell["backend"],
            {"cells": 0, "native": 0, "fallback": 0, "errors": 0, "reasons": {}},
        )
        entry["cells"] += 1
        if cell["native"] is True:
            entry["native"] += 1
        elif cell["native"] is False:
            entry["fallback"] += 1
        else:
            entry["errors"] += 1
        for reason in cell["fallback_reasons"]:
            entry["reasons"][reason] = entry["reasons"].get(reason, 0) + 1
    return coverage


def score_nl(scenario, database, *, oracle_session=None):
    """Execution-match accuracy of the nl pipeline on *scenario*'s cases.

    A gold-bearing case matches when the pipeline executes and its answer
    set-equals the oracle of the gold SQL; a ``gold=None`` case matches
    when the pipeline *refuses* (LookupError surfaced as ``error``), so
    grammar gaps are measured rather than skipped.
    """
    schema = scenario.nl_schema()
    cases = scenario.nl_cases()
    if schema is None or not cases:
        return None
    if oracle_session is None:
        oracle_session = Session(
            database, SQL_CONVENTIONS, options=EvalOptions(backend="reference")
        )
    pipeline = Nl2ArcPipeline(
        default_grammar(schema), database=database, conventions=SQL_CONVENTIONS
    )
    per_case = []
    matched = 0
    for case in cases:
        entry = {
            "request": case.request,
            "expected": "refusal" if case.gold is None else "execution-match",
            "matched_rule": None,
            "matched": False,
            "detail": None,
        }
        outcome = pipeline.run(case.request, execute=True)
        entry["matched_rule"] = outcome.matched_rule
        if case.gold is None:
            entry["matched"] = not outcome.ok
            entry["detail"] = outcome.error or "pipeline answered unexpectedly"
        elif not outcome.ok or outcome.result is None:
            entry["detail"] = outcome.error or "pipeline produced no result"
        else:
            try:
                gold = oracle_session.prepare(
                    case.gold, frontend=case.gold_frontend
                ).run()
            except ArcError as exc:  # a broken gold text is a corpus bug
                entry["detail"] = f"gold failed: {type(exc).__name__}: {exc}"
            else:
                entry["matched"] = results_agree(
                    outcome.result, gold, compare="set"
                )
                if not entry["matched"]:
                    entry["detail"] = "executed answer differs from gold"
        matched += entry["matched"]
        per_case.append(entry)
    gold_cases = [c for c in per_case if c["expected"] == "execution-match"]
    refusal_cases = [c for c in per_case if c["expected"] == "refusal"]
    gold_matched = sum(c["matched"] for c in gold_cases)
    return {
        "cases": len(cases),
        "matched": matched,
        "gold_cases": len(gold_cases),
        "gold_matched": gold_matched,
        # Execution-match accuracy counts only gold-bearing cases; expected
        # refusals are tracked separately so they cannot inflate it.
        "accuracy": (
            round(gold_matched / len(gold_cases), 4) if gold_cases else None
        ),
        "expected_refusals": len(refusal_cases),
        "refused_as_expected": sum(c["matched"] for c in refusal_cases),
        "per_case": per_case,
    }


def run_scenario(
    scenario,
    *,
    size="small",
    seed=0,
    backends=DEFAULT_BACKENDS,
    frontends=None,
    run_nl=True,
):
    """Run one scenario's full (query × frontend × backend) cell matrix."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    database = scenario.catalog(size=size, seed=seed)
    pool = _SessionPool(database, backends)
    cells = []
    queries = {}
    for query in scenario.queries():
        conventions = CONVENTIONS[query.conventions]
        oracle_session = pool.get("reference", query.conventions)
        per_frontend = {}
        parse_ms = {}
        probes = {}
        for frontend in query.frontends:
            if frontends is not None and frontend not in frontends:
                continue
            text = query.texts[frontend]
            started = time.perf_counter()
            node = oracle_session.prepare(text, frontend=frontend).node
            parse_ms[frontend] = round((time.perf_counter() - started) * 1e3, 3)
            try:
                oracle = oracle_session.prepare(node, frontend=frontend).run()
            except ArcError as exc:
                oracle = exc
            per_frontend[frontend] = oracle
            probes[frontend] = {
                name: list(reasons)
                for name, reasons in probe_capabilities(
                    node, database, conventions, backends=backends
                ).items()
            }
            _phase_timings(oracle_session.tracer)  # drain oracle spans
            for backend in backends:
                cells.append(
                    _run_cell(pool, query, frontend, node, backend, oracle)
                )
        # Cross-frontend equivalence under the oracle, normalized
        # positionally (column names differ by design across frontends).
        executed = {
            fe: normalize_result(res, compare=query.compare)
            for fe, res in per_frontend.items()
            if not isinstance(res, Exception)
        }
        forms = list(executed.values())
        agree = bool(forms) and all(form == forms[0] for form in forms)
        reference = next(iter(per_frontend.values()), None)
        queries[query.name] = {
            "description": query.description,
            "features": sorted(query.features),
            "frontends": sorted(per_frontend),
            "conventions": query.conventions,
            "compare": query.compare,
            "cross_frontend_agree": agree,
            "parse_ms": parse_ms,
            "probe_reasons": probes,
            "oracle_rows": (
                None
                if isinstance(reference, Exception)
                else result_rows(reference, cap=REPORT_ROW_CAP)
            ),
        }
    report = {
        "scenario": scenario.name,
        "description": scenario.description,
        "size": size,
        "seed": seed,
        "fingerprint": scenario.fingerprint(size=size, seed=seed),
        "catalog": {
            name: sum(database[name].counter().values())
            for name in database.names()
        },
        "queries": queries,
        "cells": cells,
        "coverage": _coverage(cells),
        "nl": score_nl(
            scenario, database, oracle_session=pool.get("reference", "sql")
        )
        if run_nl
        else None,
    }
    return report


def run_corpus(
    names=None,
    *,
    size="small",
    seed=0,
    backends=DEFAULT_BACKENDS,
    frontends=None,
    run_nl=True,
):
    """Run every named scenario (default: all) and assemble the report."""
    if names is None:
        names = list(SCENARIOS)
    reset_breakers()  # verdicts reflect capabilities, not prior failures
    scenario_reports = {}
    for name in names:
        scenario_reports[name] = run_scenario(
            name,
            size=size,
            seed=seed,
            backends=backends,
            frontends=frontends,
            run_nl=run_nl,
        )
    all_cells = [
        cell
        for report in scenario_reports.values()
        for cell in report["cells"]
    ]
    statuses = {"ok": 0, "typed_error": 0, "mismatch": 0, "error": 0}
    feature_cells = {}
    for cell in all_cells:
        statuses[cell["status"]] += 1
        for feature in cell["features"]:
            feature_cells[feature] = feature_cells.get(feature, 0) + 1
    nl_reports = {
        name: report["nl"]
        for name, report in scenario_reports.items()
        if report["nl"] is not None
    }
    nl_cases = sum(r["cases"] for r in nl_reports.values())
    nl_matched = sum(r["matched"] for r in nl_reports.values())
    nl_gold = sum(r["gold_cases"] for r in nl_reports.values())
    nl_gold_matched = sum(r["gold_matched"] for r in nl_reports.values())
    disagreements = [
        f"{name}:{qname}"
        for name, report in scenario_reports.items()
        for qname, qinfo in report["queries"].items()
        if not qinfo["cross_frontend_agree"]
    ]
    return {
        "version": REPORT_VERSION,
        "size": size,
        "seed": seed,
        "backends": list(backends),
        "frontends": sorted(
            {
                fe
                for report in scenario_reports.values()
                for qinfo in report["queries"].values()
                for fe in qinfo["frontends"]
            }
        ),
        "scenarios": scenario_reports,
        "summary": {
            "scenarios": len(scenario_reports),
            "queries": sum(
                len(report["queries"]) for report in scenario_reports.values()
            ),
            "cells": len(all_cells),
            **statuses,
            "cross_frontend_disagreements": disagreements,
            "coverage": _coverage(all_cells),
            "feature_cells": feature_cells,
            "nl": {
                "cases": nl_cases,
                "matched": nl_matched,
                "gold_cases": nl_gold,
                "gold_matched": nl_gold_matched,
                "accuracy": (
                    round(nl_gold_matched / nl_gold, 4) if nl_gold else None
                ),
            },
        },
    }


def report_failures(report):
    """Cells (and frontend disagreements) that should fail a gate.

    A ``typed_error`` is an accepted refusal; ``mismatch`` / ``error``
    cells and any cross-frontend disagreement are genuine failures.
    Accepts a corpus-level report (:func:`run_corpus`) or a single
    scenario report (:func:`run_scenario`).
    """
    scenario_reports = report.get("scenarios")
    if scenario_reports is None:
        scenario_reports = {report["scenario"]: report}
    failures = [
        f"{name}/{cell['query']}/{cell['frontend']}/{cell['backend']}: "
        f"{cell['status']} ({cell['error_type'] or 'wrong answer'})"
        for name, scenario_report in scenario_reports.items()
        for cell in scenario_report["cells"]
        if cell["status"] in ("mismatch", "error")
    ]
    failures.extend(
        f"cross-frontend disagreement: {name}:{qname}"
        for name, scenario_report in scenario_reports.items()
        for qname, qinfo in scenario_report["queries"].items()
        if not qinfo["cross_frontend_agree"]
    )
    return failures


def write_report(report, path):
    """Write the corpus report as deterministic, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
