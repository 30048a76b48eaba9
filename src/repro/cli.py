"""Command-line interface: the SQL ↔ ARC translator of the paper's Section 5.

Usage (see ``python -m repro --help``)::

    python -m repro translate --from sql --to alt "select R.A from R ..."
    python -m repro translate --from arc --to sql "{Q(A) | ∃r ∈ R[Q.A = r.A]}"
    python -m repro validate "{Q(A, sm) | ∃r ∈ R[Q.sm = sum(r.B)]}"
    python -m repro eval --db data.csv:R "select R.A from R"
    python -m repro eval --db data.csv:R --backend sqlite --conventions sql ...
    python -m repro eval --db data.csv:R --db-file catalog.db ...  # warm restarts
    python -m repro eval --db data.csv:R --repeat 3 ...  # warm-path timing
    python -m repro serve --db data.csv:R --port 8421    # HTTP service mode
    python -m repro patterns "select R.A from R where not exists (...)"

Input languages: ``arc`` (comprehension syntax), ``alt`` (the box-drawing
ALT text — modalities are losslessly inter-translatable), ``sql``,
``datalog``, ``trc``, ``rel``.  Output modalities: ``arc`` (Unicode),
``ascii``, ``alt``, ``higraph``, ``svg``, ``sql``.

``eval`` and ``serve`` are built on the Session API (:mod:`repro.api`):
``eval`` constructs one Session and a prepared query — ``--repeat N`` runs
it N times, showing the cold-vs-warm split — and ``serve`` keeps the
Session alive across HTTP requests.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from .api import EvalOptions, Session
from .backends.comprehension import render, render_ascii
from .backends.sql_render import to_sql
from .core import build_higraph, render_alt, render_higraph_ascii, render_svg
from .core.conventions import (
    SET_CONVENTIONS,
    SOUFFLE_CONVENTIONS,
    SQL_CONVENTIONS,
)
from .core.validator import validate
from .data import Database, csvio
from .errors import ArcError, OptionsError
from .frontends import load_query as _load_query

CONVENTIONS = {
    "set": SET_CONVENTIONS,
    "sql": SQL_CONVENTIONS,
    "souffle": SOUFFLE_CONVENTIONS,
}


def _render_output(query, modality, database=None):
    if modality == "arc":
        return render(query)
    if modality == "ascii":
        return render_ascii(query)
    if modality == "alt":
        return render_alt(query, include_links=True)
    if modality == "higraph":
        return render_higraph_ascii(build_higraph(query, database=database))
    if modality == "svg":
        return render_svg(build_higraph(query, database=database))
    if modality == "sql":
        return to_sql(query)
    raise ArcError(f"unknown output modality {modality!r}")


def _load_database(specs):
    """Each spec is ``path.csv:Name``; loads CSVs into a catalog."""
    database = Database()
    for spec in specs or ():
        path, _, name = spec.rpartition(":")
        if not path:
            raise ArcError(f"database spec must be path.csv:Name, got {spec!r}")
        database.add(csvio.read_csv(path, name))
    return database


def _read_text(args):
    if args.query == "-":
        return sys.stdin.read()
    return args.query


def cmd_translate(args):
    database = _load_database(args.db)
    query = _load_query(_read_text(args), args.source, database)
    print(_render_output(query, args.target, database))
    return 0


def cmd_validate(args):
    database = _load_database(args.db) if args.db else None
    query = _load_query(_read_text(args), args.source, database)
    report = validate(query, database=database, allow_abstract=args.allow_abstract)
    for issue in report.issues:
        print(issue)
    if report.ok:
        print("OK")
        return 0
    return 1


def _session_options(args):
    """Build :class:`EvalOptions` from eval/serve flags.

    Validation lives in ``EvalOptions`` itself.  ``--no-planner`` is the
    CLI spelling of ``--backend reference``, so giving both is refused.
    """
    backend = args.backend
    if getattr(args, "no_planner", False):
        if backend is not None:
            raise ArcError(
                "--no-planner and --backend both select an engine; use "
                "--backend reference instead of combining them"
            )
        backend = "reference"
    return EvalOptions(
        decorrelate=not getattr(args, "no_decorrelate", False),
        backend=backend,
        db_file=args.db_file,  # implies backend="sqlite" when set
        timeout_ms=args.timeout_ms,
        max_rows=args.max_rows,
    )


def _flag_names(exc):
    """*exc*'s message with option names spelled as their CLI flags."""
    return re.sub(
        r"\b(db_file|timeout_ms|max_rows|hard_timeout_ms|shed_threshold_ms)\b",
        lambda match: "--" + match.group(1).replace("_", "-"),
        str(exc),
    )


def cmd_eval(args):
    database = _load_database(args.db)
    session = Session(
        database, CONVENTIONS[args.conventions], options=_session_options(args)
    )
    tracing = args.explain or args.trace_out
    if tracing:
        # Attach the recording tracer before prepare() so frontend.parse
        # is part of the profile.
        from .obs import Tracer

        session.tracer = Tracer(stats=session.stats)
    prepared = session.prepare(_read_text(args), frontend=args.source)
    repeat = max(1, args.repeat)
    timings = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = prepared.run()
        timings.append(time.perf_counter() - start)
    if hasattr(result, "to_table"):
        print(result.to_table(max_rows=args.display_rows))
    else:
        print(result.name)  # a Truth value
    if repeat > 1:
        # The first run pays parse/plan/probe/load; later runs ride the
        # session's warm state.  Shown so the split is visible from the CLI.
        for i, elapsed in enumerate(timings):
            label = " (cold)" if i == 0 else ""
            print(f"run {i + 1}: {elapsed * 1e3:.2f} ms{label}")
        stats = session.stats
        print(
            "decorrelation: "
            f"laterals_decorrelated={stats.laterals_decorrelated} "
            f"lateral_reevals={stats.lateral_reevals} "
            f"decorr_index_builds={stats.decorr_index_builds} "
            f"band_index_builds={stats.band_index_builds} "
            f"domain_join_compensations={stats.domain_join_compensations} "
            f"tribucket_probes={stats.tribucket_probes}"
        )
    if tracing:
        from .obs import render_span_tree, write_chrome_trace

        spans, events = session.tracer.take()
        if args.explain:
            print("explain:")
            print(render_span_tree(spans, events))
        if args.trace_out:
            write_chrome_trace(args.trace_out, spans, events)
            print(
                f"trace: {len(spans)} spans, {len(events)} events "
                f"written to {args.trace_out} (load in chrome://tracing "
                "or https://ui.perfetto.dev)"
            )
    return 0


def _load_catalogs(specs):
    """Each spec is ``name=path.csv:Rel[,path.csv:Rel...]``; named catalogs."""
    catalogs = {}
    for spec in specs or ():
        name, sep, rest = spec.partition("=")
        if not sep or not name or not rest:
            raise ArcError(
                f"catalog spec must be name=path.csv:Rel[,...], got {spec!r}"
            )
        catalogs[name] = _load_database(rest.split(","))
    return catalogs


def cmd_serve(args):
    from .serve import DEFAULT_QUEUE_DEPTH, DEFAULT_WORKERS

    database = _load_database(args.db)
    session = Session(
        database, CONVENTIONS[args.conventions], options=_session_options(args)
    )
    from .api import serve

    workers = args.workers if args.workers is not None else DEFAULT_WORKERS
    queue_depth = (
        args.queue_depth if args.queue_depth is not None else DEFAULT_QUEUE_DEPTH
    )
    server = serve.make_server(
        session,
        args.host,
        args.port,
        workers=workers,
        queue_depth=queue_depth,
        catalogs=_load_catalogs(args.catalog),
        quiet=args.quiet,
        max_body_bytes=(
            args.max_body_bytes
            if args.max_body_bytes is not None
            else serve.DEFAULT_MAX_BODY_BYTES
        ),
        log_requests=args.log_requests,
        log_json=args.log_json,
        hard_timeout_ms=args.hard_timeout_ms,
        shed_threshold_ms=args.shed_threshold_ms,
        poison_threshold=args.poison_threshold,
        quarantine_ttl_s=args.quarantine_ttl_s,
    )
    # SIGTERM/SIGINT drain queued + in-flight requests, then stop
    # accepting — an orchestrator's stop signal never kills a response
    # mid-write and never abandons an admitted request.
    serve.install_sigterm_handler(server)
    print(f"serving on {server.url} (relations: "
          f"{', '.join(sorted(database.names())) or 'none'}; "
          f"backend: {session.options.backend}; "
          f"workers: {workers}; queue: {queue_depth})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
    print("shutdown: drained in-flight requests, socket closed", flush=True)
    return 0


def cmd_eval_corpus(args):
    from .eval.harness import (
        DEFAULT_BACKENDS,
        report_failures,
        run_corpus,
        write_report,
    )
    from .workloads.scenarios import SCENARIOS, SIZES, get_scenario

    if args.list:
        for name, scenario in SCENARIOS.items():
            print(f"{name}: {scenario.description}")
            for query in scenario.queries():
                features = ",".join(sorted(query.features))
                frontends = "/".join(query.frontends)
                print(f"  {query.name:28s} [{features}] ({frontends})")
        return 0
    names = args.scenario or list(SCENARIOS)
    try:
        for name in names:
            get_scenario(name)  # fail fast on typos, before any evaluation
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    backends = tuple(args.backend) if args.backend else DEFAULT_BACKENDS
    report = run_corpus(
        names, size=args.size, seed=args.seed, backends=backends
    )
    summary = report["summary"]
    print(
        f"corpus: {summary['scenarios']} scenarios, "
        f"{summary['queries']} queries, {summary['cells']} cells "
        f"(size={args.size}, seed={args.seed})"
    )
    for name, scenario_report in report["scenarios"].items():
        cells = scenario_report["cells"]
        ok = sum(c["status"] == "ok" for c in cells)
        typed = sum(c["status"] == "typed_error" for c in cells)
        bad = len(cells) - ok - typed
        nl = scenario_report["nl"]
        nl_text = (
            f", nl accuracy {nl['accuracy']} "
            f"({nl['gold_matched']}/{nl['gold_cases']} gold, "
            f"{nl['refused_as_expected']}/{nl['expected_refusals']} refusals)"
            if nl
            else ""
        )
        print(
            f"  {name}: {ok} ok, {typed} typed refusals, {bad} failing"
            f"{nl_text}"
        )
    for backend, entry in summary["coverage"].items():
        print(
            f"  backend {backend}: {entry['native']} native, "
            f"{entry['fallback']} fallback, {entry['errors']} refused"
        )
    if args.json:
        write_report(report, args.json)
        print(f"report written to {args.json}")
    failures = report_failures(report)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_patterns(args):
    from .analysis import detect_patterns, fingerprint, pattern_summary

    database = _load_database(args.db) if args.db else None
    query = _load_query(_read_text(args), args.source, database)
    print("patterns:   ", ", ".join(sorted(detect_patterns(query))) or "(none)")
    print("fingerprint:", fingerprint(query))
    print("shape:      ", fingerprint(query, anonymize_relations=True))
    for key, value in pattern_summary(query).items():
        print(f"  {key}: {value}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARC: Abstract Relational Calculus — translator and evaluator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_target=False):
        p.add_argument("query", help="query text, or '-' to read stdin")
        p.add_argument(
            "--from",
            dest="source",
            default="arc",
            choices=["arc", "alt", "sql", "datalog", "trc", "rel"],
            help="input language (default: arc)",
        )
        p.add_argument(
            "--db",
            action="append",
            metavar="CSV:NAME",
            help="load a base relation from a CSV file (repeatable)",
        )
        if needs_target:
            p.add_argument(
                "--to",
                dest="target",
                default="arc",
                choices=["arc", "ascii", "alt", "higraph", "svg", "sql"],
                help="output modality (default: arc)",
            )

    def _budget_flags(p):
        p.add_argument(
            "--timeout-ms",
            dest="timeout_ms",
            type=float,
            default=None,
            metavar="MS",
            help="wall-clock deadline per run in milliseconds; exceeding it "
            "raises QueryTimeout instead of hanging (serve: per-request "
            "timeout_ms overrides this default)",
        )
        p.add_argument(
            "--max-rows",
            dest="max_rows",
            type=int,
            default=None,
            metavar="N",
            help="row budget per run (rows produced across all execution "
            "tiers); exceeding it raises BudgetExceeded",
        )

    p_translate = sub.add_parser("translate", help="translate between languages/modalities")
    common(p_translate, needs_target=True)
    p_translate.set_defaults(func=cmd_translate)

    p_validate = sub.add_parser("validate", help="check scoping/grouping/safety rules")
    common(p_validate)
    p_validate.add_argument("--allow-abstract", action="store_true")
    p_validate.set_defaults(func=cmd_validate)

    p_eval = sub.add_parser("eval", help="evaluate against CSV-loaded relations")
    common(p_eval)
    p_eval.add_argument(
        "--conventions",
        default="set",
        choices=sorted(CONVENTIONS),
        help="semantic conventions (default: set)",
    )
    p_eval.add_argument(
        "--display-rows",
        type=int,
        default=50,
        metavar="N",
        help="table rows to print before truncating the display (default: 50)",
    )
    p_eval.add_argument(
        "--no-planner",
        action="store_true",
        help="disable the hash-indexed execution layer (reference strategy)",
    )
    p_eval.add_argument(
        "--no-decorrelate",
        action="store_true",
        help="disable the FOI→FIO lateral decorrelation pass (correlated "
        "scopes re-evaluate per outer row; on the sqlite backend, "
        "decorrelatable laterals fall back to the planner)",
    )
    p_eval.add_argument(
        "--backend",
        default=None,
        choices=["reference", "planner", "sqlite"],
        help="executable backend (default: planner; sqlite offloads the "
        "rendered SQL to a loaded SQLite catalog, falling back to the "
        "planner for constructs it cannot honor)",
    )
    p_eval.add_argument(
        "--db-file",
        default=None,
        metavar="PATH",
        help="persist the SQLite catalog at PATH (implies --backend sqlite); "
        "later runs against the unchanged catalog start warm",
    )
    p_eval.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run the prepared query N times through one Session and print "
        "per-run timings (run 1 is cold; later runs ride the warm state)",
    )
    p_eval.add_argument(
        "--explain",
        action="store_true",
        help="print the span tree after the run(s): per-phase timings, "
        "plan/strategy decisions, fallback reasons, and the stats "
        "counters each phase moved",
    )
    p_eval.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        metavar="FILE",
        help="write the run's spans as Chrome-trace-viewer JSON to FILE "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
    )
    _budget_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_serve = sub.add_parser(
        "serve",
        help="serve queries over HTTP from one warm Session "
        "(POST /query, GET /healthz)",
    )
    p_serve.add_argument(
        "--db",
        action="append",
        metavar="CSV:NAME",
        help="load a base relation from a CSV file (repeatable)",
    )
    p_serve.add_argument(
        "--conventions",
        default="set",
        choices=sorted(CONVENTIONS),
        help="semantic conventions (default: set)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8421,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    p_serve.add_argument(
        "--backend",
        default=None,
        choices=["reference", "planner", "sqlite"],
        help="default executable backend for requests that do not name one",
    )
    p_serve.add_argument(
        "--db-file",
        default=None,
        metavar="PATH",
        help="persist the SQLite catalog at PATH (implies --backend sqlite)",
    )
    p_serve.add_argument(
        "--no-decorrelate",
        action="store_true",
        help="disable the FOI→FIO lateral decorrelation pass",
    )
    p_serve.add_argument(
        "--max-body-bytes",
        dest="max_body_bytes",
        type=int,
        default=None,
        metavar="N",
        help="refuse request bodies larger than N bytes with 413 before "
        "reading them (default: 1 MiB)",
    )
    p_serve.add_argument(
        "--quiet",
        action="store_true",
        default=True,
        help=argparse.SUPPRESS,
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker threads, each holding its own warm Session "
        "(default: 4; 1 = strictly serialized execution)",
    )
    p_serve.add_argument(
        "--queue-depth",
        dest="queue_depth",
        type=int,
        default=None,
        metavar="N",
        help="queued requests admitted before answering 429 + Retry-After "
        "(default: 64)",
    )
    p_serve.add_argument(
        "--catalog",
        action="append",
        metavar="NAME=CSV:REL[,CSV:REL...]",
        help="an extra named catalog selectable via the request 'catalog' "
        "field (repeatable)",
    )
    p_serve.add_argument(
        "--log-requests",
        dest="log_requests",
        action="store_true",
        help="log one line per request (method, path, status code, elapsed "
        "time, query id) through the stdlib 'repro.serve' logger",
    )
    p_serve.add_argument(
        "--hard-timeout-ms",
        dest="hard_timeout_ms",
        type=int,
        default=None,
        metavar="MS",
        help="hard wall cap per execution: every run's deadline is the "
        "smaller of this and its own timeout_ms, so even deadline-less "
        "queries answer 408 past it (default: the request's own "
        "deadline, else 10000)",
    )
    p_serve.add_argument(
        "--shed-threshold-ms",
        dest="shed_threshold_ms",
        type=int,
        default=None,
        metavar="MS",
        help="shed deadline-less requests (429) when the estimated queue "
        "wait exceeds this (default: off; requests with timeout_ms are "
        "always shed when the wait exceeds their budget)",
    )
    p_serve.add_argument(
        "--poison-threshold",
        dest="poison_threshold",
        type=int,
        default=2,
        metavar="N",
        help="worker crashes by one request fingerprint before it is "
        "quarantined and answers 422 (default: 2)",
    )
    p_serve.add_argument(
        "--quarantine-ttl-s",
        dest="quarantine_ttl_s",
        type=float,
        default=300.0,
        metavar="S",
        help="seconds a poisoned fingerprint stays quarantined "
        "(default: 300)",
    )
    p_serve.add_argument(
        "--log-json",
        dest="log_json",
        action="store_true",
        help="structured JSON request logs on the same logger "
        "(implies --log-requests)",
    )
    _budget_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_patterns = sub.add_parser("patterns", help="report the relational pattern")
    common(p_patterns)
    p_patterns.set_defaults(func=cmd_patterns)

    p_corpus = sub.add_parser(
        "eval-corpus",
        help="run the scenario corpus through the differential harness",
        description=(
            "Evaluate every (scenario, query, frontend, backend) cell "
            "through the Session API, compare each answer against the "
            "reference oracle, and report native-vs-fallback coverage plus "
            "nl execution-match accuracy. Exits 1 on any mismatch or "
            "untyped error (typed refusals pass)."
        ),
    )
    p_corpus.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="scenario to run (repeatable; default: all scenarios)",
    )
    p_corpus.add_argument(
        "--size",
        default="small",
        choices=["small", "medium", "large"],
        help="catalog scale factor (default: small)",
    )
    p_corpus.add_argument(
        "--seed", type=int, default=0, help="generator seed (default: 0)"
    )
    p_corpus.add_argument(
        "--backend",
        action="append",
        metavar="NAME",
        help="backend to evaluate (repeatable; default: "
        "reference, planner, sqlite)",
    )
    p_corpus.add_argument(
        "--json",
        metavar="PATH",
        help="write the machine-readable report (SCENARIO_REPORT.json)",
    )
    p_corpus.add_argument(
        "--list",
        action="store_true",
        help="list scenarios, queries, and feature tags, then exit",
    )
    p_corpus.set_defaults(func=cmd_eval_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OptionsError as exc:
        # Options are validated once, in the library; the CLI only spells
        # their names the way the user typed them.
        print(f"error: {_flag_names(exc)}", file=sys.stderr)
        return 2
    except ArcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
