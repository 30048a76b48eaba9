"""The Session API: long-lived evaluation state and prepared queries.

A :class:`Session` is the warm-state owner real engines put behind a
connection handle: it pins the parsed ASTs of prepared queries (keeping
their per-node compiled-plan caches alive), accumulates one
:class:`~repro.engine.planner.ExecutionStats` across runs, reuses the
SQLite catalog connection through the thread's fingerprint cache, and
memoizes backend capability-probe verdicts per catalog state.  The one-shot
``repro.evaluate(...)`` is a thin wrapper constructing a transient Session;
``repro serve`` holds one Session per catalog so repeated requests hit all
of these caches.

Warm-state inventory (and what invalidates each piece):

========================  =======================================  =====================
state                     where it lives                           invalidated by
========================  =======================================  =====================
scope plans               weak per-AST-node cache (planner)        AST garbage-collected
relation hash indexes     ``Relation._indexes``                    ``Relation.add``
decorrelation indexes     shared derived cache on inner relations  any inner mutation
probe verdicts            shared derived cache on all relations    any catalog mutation
SQLite connection         the thread's fingerprint-keyed LRU       any catalog mutation
parsed queries            the Session's prepared-query LRU         eviction only
========================  =======================================  =====================

A Session (and everything it hands out) is **not thread-safe**; callers
serialize access.  ``repro serve`` gives each pool worker its *own*
Session and never shares one across threads.  In-memory SQLite
connections are not the Session's at all: each thread keeps one LRU of
them (see :mod:`repro.backends.exec.sqlite_exec`), so two Sessions over
equal catalogs in two threads never touch the same handle.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.conventions import SET_CONVENTIONS
from ..data.database import Database
from ..data.relation import Relation
from ..engine.evaluator import Evaluator
from ..engine.externals import standard_registry
from ..engine.planner import ExecutionStats
from ..errors import BudgetExceeded, OptionsError, QueryTimeout
from ..frontends import load_query
from ..obs import NULL_SPAN
from .options import EvalOptions

#: Prepared queries a session retains before evicting the least recent.
_PREPARED_LIMIT = 64


class Prepared:
    """A query bound to a Session: parse once, run many times warm.

    Holding the Prepared keeps its AST alive, which keeps the weak
    per-node plan caches warm — a second :meth:`run` performs zero plan
    compilations, zero decorrelation-index builds, and zero catalog
    reloads (counter-pinned by ``tests/api/test_session.py``).
    """

    __slots__ = ("session", "node", "text", "frontend", "run_count", "__weakref__")

    def __init__(self, session, node, text=None, frontend=None):
        self.session = session
        self.node = node
        self.text = text
        self.frontend = frontend
        self.run_count = 0

    def run(self, backend=None, *, timeout_ms=None, max_rows=None):
        """Evaluate on the session's engine (or *backend* for this run).

        Returns a :class:`~repro.data.relation.Relation` for collections
        and programs, a :class:`~repro.data.values.Truth` for sentences.
        ``timeout_ms`` / ``max_rows`` override the session options' budget
        for this run only; exceeding either raises
        :class:`~repro.errors.QueryTimeout` /
        :class:`~repro.errors.BudgetExceeded`.
        """
        return self.session._run_prepared(
            self, backend, timeout_ms=timeout_ms, max_rows=max_rows
        )

    def run_info(self, backend=None, *, timeout_ms=None, max_rows=None):
        """Like :meth:`run`, plus execution metadata.

        Returns ``{"result": ..., "fallback_reasons": [...]}`` where the
        reasons list is the explicit channel for backend-fallback
        explanations (empty when the requested engine ran the query
        itself).  ``repro serve`` uses this instead of sniffing warnings.
        """
        reasons = []
        result = self.session._run_prepared(
            self,
            backend,
            timeout_ms=timeout_ms,
            max_rows=max_rows,
            reasons=reasons,
        )
        return {"result": result, "fallback_reasons": reasons}

    def explain(self, backend=None, *, timeout_ms=None, max_rows=None):
        """Run once under a recording tracer and profile where time went.

        Returns an :class:`Explain` whose ``render()`` (and ``str()``) is
        the span tree — per-phase timings, strategy decisions, fallback
        reasons, and the stats counters each phase moved.  The session's
        own tracer (if any) is restored afterwards, so explaining inside a
        metrics-collecting server does not disturb its histograms.
        """
        from ..obs import Tracer

        session = self.session
        previous = session.tracer
        tracer = Tracer(stats=session.stats)
        session.tracer = tracer
        reasons = []
        try:
            result = session._run_prepared(
                self,
                backend,
                timeout_ms=timeout_ms,
                max_rows=max_rows,
                reasons=reasons,
            )
        finally:
            session.tracer = previous
        spans, events = tracer.take()
        return Explain(result, reasons, spans, events)

    def __repr__(self):
        source = self.text if self.text is not None else type(self.node).__name__
        return f"Prepared({source!r}, runs={self.run_count})"


class Explain:
    """The profile :meth:`Prepared.explain` returns: result + span tree."""

    __slots__ = ("result", "fallback_reasons", "spans", "events")

    def __init__(self, result, fallback_reasons, spans, events):
        self.result = result
        self.fallback_reasons = fallback_reasons
        self.spans = spans
        self.events = events

    def render(self, file=None):
        """The span tree as text (also printed to *file* when given)."""
        from ..obs import render_span_tree

        return render_span_tree(self.spans, self.events, file=file)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return (
            f"Explain(spans={len(self.spans)}, events={len(self.events)}, "
            f"fallbacks={len(self.fallback_reasons)})"
        )


class SessionContext:
    """The per-run view every :class:`~repro.backends.exec.Backend` receives.

    Bundles the run's (possibly per-run overridden) options and armed
    deadline with the session's warm state: the catalog, the shared
    execution stats and tracer, SQLite connection acquisition, and
    memoized capability-probe verdicts.  ``Backend.run(node, context)``
    takes everything it needs from here.  Duck-typed on purpose: the
    backend registry must not import this package.
    """

    __slots__ = ("session", "options", "deadline", "database", "stats", "tracer")

    def __init__(self, session, options, deadline=None):
        self.session = session
        self.options = options
        #: Armed Deadline for this run, or None (unbounded).
        self.deadline = deadline
        self.database = session.database
        self.stats = session.stats
        #: The session's tracer (or None) when the run started.
        self.tracer = session.tracer

    def evaluator(self, planner):
        """A fresh in-process evaluator for this run, sharing session stats.

        Evaluator instances are cheap and carry per-program definition
        state (``defined``) that must not leak between queries; the warm
        state proper lives on the AST nodes, the relations, and the
        session — all of which the fresh instance sees.  The run's
        deadline rides along, so a planner substituted on fallback
        inherits the *remaining* budget of the run that failed over.
        """
        session = self.session
        evaluator = Evaluator(
            self.database,
            session.conventions,
            session.externals,
            planner=planner,
            decorrelate=self.options.decorrelate,
            deadline=self.deadline,
            tracer=self.tracer,
        )
        evaluator.stats = self.stats
        return evaluator

    def acquire_connection(self):
        """A SQLite connection for the catalog honoring ``options.db_file``.

        With ``db_file`` the connection is fresh and the caller closes it.
        In-memory connections belong to the calling thread's cache and
        must not be closed.
        """
        from ..backends.exec import sqlite_exec

        session, tracer = self.session, self.tracer
        with NULL_SPAN if tracer is None else tracer.span("sqlite.connect") as span:
            conn, loaded = sqlite_exec.connect_catalog(
                self.database, db_file=self.options.db_file
            )
            span.tag(loaded=loaded)
        if loaded:
            session.catalog_loads += 1
        else:
            session.catalog_hits += 1
        return conn

    def probe(self, engine, node):
        """Capability-probe *engine* for *node*, memoized per catalog state.

        The verdict is cached on every catalog relation via the shared
        derived-result cache, keyed on (engine, conventions, decorrelate,
        relation names), so mutating **any** relation (which can change
        NULL-hazard and decorrelation answers) re-probes, while an
        unchanged catalog answers from memory.
        """
        session, database, tracer = self.session, self.database, self.tracer
        conventions, decorrelate = session.conventions, self.options.decorrelate
        names = database.names()
        relations = [database[name] for name in names]
        tag = ("capabilities", engine.name, conventions, decorrelate, frozenset(names))
        if relations:
            cached = Relation.derived_get_shared(relations, node, tag)
            if cached is not None:
                session.probe_hits += 1
                if tracer is not None:
                    tracer.event(
                        "probe.cached", engine=engine.name,
                        problems=len(cached),
                    )
                return list(cached)
        with NULL_SPAN if tracer is None else tracer.span(
            "probe.capabilities", engine=engine.name
        ) as span:
            problems = engine.capabilities(
                node, conventions, database, decorrelate=decorrelate
            )
            span.tag(problems=len(problems))
        if relations:
            Relation.derived_put_shared(relations, node, tag, tuple(problems))
        return problems


class Session:
    """Long-lived evaluation context over one catalog.

    >>> import repro
    >>> from repro.api import Session, EvalOptions
    >>> db = repro.Database()
    >>> _ = db.create("R", ["A", "B"], [(1, 10), (2, 20)])
    >>> session = Session(db, repro.SQL_CONVENTIONS,
    ...                   options=EvalOptions(backend="sqlite"))
    >>> prepared = session.prepare("{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 15]}")
    >>> prepared.run().sorted_rows()
    [Tuple(A=2)]
    >>> prepared.run(backend="reference").sorted_rows()  # per-run override
    [Tuple(A=2)]
    """

    def __init__(self, database=None, conventions=SET_CONVENTIONS, *,
                 externals=None, options=None):
        if options is None:
            options = EvalOptions()
        elif not isinstance(options, EvalOptions):
            raise OptionsError(
                f"options must be an EvalOptions, got {type(options).__name__}"
            )
        self.database = database if database is not None else Database()
        self.conventions = conventions
        self.externals = externals if externals is not None else standard_registry()
        self.options = options
        #: One ExecutionStats accumulated across every run of this session.
        self.stats = ExecutionStats()
        #: Catalog (re)loads and warm hits observed by this session's
        #: SQLite runs (a load means the fingerprint changed or was cold).
        self.catalog_loads = 0
        self.catalog_hits = 0
        #: Capability-probe verdicts served from the warm cache.
        self.probe_hits = 0
        #: Optional :class:`~repro.obs.Tracer`; None (the default) keeps
        #: every instrumentation site on its zero-overhead branch.
        self.tracer = None
        self._prepared = OrderedDict()  # (text, frontend) -> Prepared

    # -- preparing ---------------------------------------------------------

    def prepare(self, query, frontend="arc"):
        """Parse (or adopt) *query* and bind it to this session.

        *query* may be surface text in any supported *frontend* language
        (``arc``, ``alt``, ``sql``, ``datalog``, ``trc``, ``rel``) or an
        already-built ARC node.  Textual queries are cached in an LRU, so
        ``repro serve`` re-preparing the same request string is a hit.
        """
        tracer = self.tracer
        if not isinstance(query, str):
            return Prepared(self, query)
        key = (query, frontend)
        prepared = self._prepared.get(key)
        if prepared is not None:
            self._prepared.move_to_end(key)
            if tracer is not None:
                tracer.event("prepared.lru", result="hit", frontend=frontend)
                tracer.count(
                    "arc_prepared_lru_total",
                    help_text="Prepared-query LRU lookups by outcome.",
                    result="hit",
                )
            return prepared
        if tracer is not None:
            tracer.count(
                "arc_prepared_lru_total",
                help_text="Prepared-query LRU lookups by outcome.",
                result="miss",
            )
        with NULL_SPAN if tracer is None else tracer.span(
            "frontend.parse", frontend=frontend
        ):
            node = load_query(query, frontend, self.database)
        prepared = Prepared(self, node, query, frontend)
        self._prepared[key] = prepared
        while len(self._prepared) > _PREPARED_LIMIT:
            self._prepared.popitem(last=False)
        return prepared

    def evaluate(self, query, frontend="arc", *, backend=None):
        """One-shot convenience: ``prepare(query, frontend).run(backend)``."""
        return self.prepare(query, frontend).run(backend)

    # -- running -----------------------------------------------------------

    def _run_prepared(self, prepared, backend=None, *, timeout_ms=None,
                      max_rows=None, reasons=None):
        # Resolved through the package on every call, so a wrapper
        # installed on ``repro.backends.exec.run_backend`` sees each run.
        from ..backends.exec import run_backend

        options = self.options.with_backend(backend)
        context = SessionContext(self, options, options.deadline(timeout_ms, max_rows))
        tracer = self.tracer
        with NULL_SPAN if tracer is None else tracer.span(
            "query", backend=options.backend, warm=prepared.run_count > 0,
        ):
            try:
                result = run_backend(prepared.node, context, reasons=reasons)
            except QueryTimeout:
                self.stats.timeouts += 1
                raise
            except BudgetExceeded:
                self.stats.budget_exceeded += 1
                raise
        # Counted only on success: a failed run leaves the query cold, so
        # serve's X-Arc-Warm header never marks an errored first attempt.
        prepared.run_count += 1
        return result

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Release the session's prepared queries.

        In-memory SQLite connections belong to the thread that loaded them
        (other sessions over the same catalog on that thread share them)
        and stay open.
        """
        self._prepared.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return (
            f"Session(relations={sorted(self.database.names())}, "
            f"backend={self.options.backend!r}, "
            f"prepared={len(self._prepared)})"
        )
