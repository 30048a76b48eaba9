"""The executable-backend registry: pluggable engines behind ``evaluate``.

The paper's Section 5 positions ARC as a hub between query languages;
:mod:`repro.backends.sql_render` already produces executable SQL *text*, and
this package turns that modality into an *engine*.  A backend is anything
that can take an ARC node plus a catalog and produce the same answer the
reference evaluator would:

* ``reference`` — the paper's nested-loop strategy, the semantic oracle;
* ``planner`` — the hash-indexed execution layer (the default engine);
* ``sqlite`` — renders the node through ``to_sql`` and offloads execution
  to a SQLite connection holding the loaded catalog
  (:mod:`repro.backends.exec.sqlite_exec`).

Every run — whichever backend ``EvalOptions.backend`` names — goes through
one call, :func:`run_backend(node, context) <run_backend>`, where
*context* is the run's :class:`repro.api.session.SessionContext`.
Backends advertise what they can honor through a static ``capabilities``
probe; dispatch falls back to the planner — reporting why, through the
caller's reasons list or a :class:`BackendFallbackWarning` — when the probe
(or the engine itself, via :class:`BackendUnsupported`) reports a construct
or convention the backend cannot evaluate faithfully.  The fallback keeps
every backend total: every query answers, and the reasons say which engine
actually ran.
"""

from __future__ import annotations

import sys
import threading
import time
import warnings

from ...errors import ArcError, EvaluationError
from ...obs import NULL_SPAN


class BackendUnsupported(EvaluationError):
    """A backend cannot faithfully evaluate this query/catalog/conventions."""


class BackendFallbackWarning(UserWarning):
    """Dispatch substituted the planner for the requested backend.

    ``reasons`` carries the capability probe's findings verbatim, one entry
    per failed capability, so callers (and tests) can inspect *which*
    construct blocked the offload instead of parsing the message.
    """

    def __init__(self, message, reasons=()):
        super().__init__(message)
        self.reasons = tuple(reasons)


class Backend:
    """Protocol for an executable backend.

    Subclasses set :attr:`name`, may override :meth:`capabilities` (return a
    list of human-readable reasons the node cannot run — empty means fully
    supported), and must implement :meth:`run`.
    """

    name = None

    def capabilities(self, node, conventions, database=None, *, decorrelate=True,
                     externals=None):
        """Reasons this backend cannot evaluate *node*; ``[]`` = supported.

        Static: it needs no session, so the corpus harness and tests probe
        directly.  *decorrelate* and *externals* mirror the run's option and
        registry, so the verdict matches what the engine will execute.
        """
        return []

    def run(self, node, context):
        """Evaluate *node*; returns a Relation (collections/programs) or Truth.

        *context* is the run's session context (see
        :class:`repro.api.session.SessionContext`, duck-typed so this module
        stays import-light): the catalog, options, armed deadline, shared
        stats and tracer all come from it, and ``context.evaluator(planner)``
        builds the in-process engine over the session's conventions.
        """
        raise NotImplementedError


class ReferenceBackend(Backend):
    """The paper's nested-loop strategy — the semantic oracle."""

    name = "reference"

    def run(self, node, context):
        return context.evaluator(planner=False).evaluate(node)


class PlannerBackend(Backend):
    """The hash-indexed execution layer (the default engine)."""

    name = "planner"

    def run(self, node, context):
        return context.evaluator(planner=True).evaluate(node)


_REGISTRY = {}

#: Consecutive runtime failures before a backend's breaker opens.
BREAKER_THRESHOLD = 5
#: Seconds an open breaker waits before letting one half-open probe through.
BREAKER_COOLDOWN_S = 30.0


class CircuitBreaker:
    """Per-backend failure breaker: closed → open → half-open → closed.

    *Runtime* failures (a ``run`` that raises — :class:`BackendUnsupported`
    the static probe missed, or an untyped infrastructure error) count;
    static probe refusals are expected steady-state behavior and do not,
    nor does any other typed :class:`~repro.errors.ArcError` — a bad query
    or the caller's deadline/budget, not the backend's health.  After
    ``threshold`` consecutive failures the breaker **opens**: dispatch
    skips the backend entirely (straight to planner fallback, no probe).
    After ``cooldown_s`` it turns **half-open** and admits one trial run —
    success closes it, failure re-opens it for another cooldown.  The
    clock is injectable so tests drive the state machine deterministically.

    Thread-safe: transitions are read-modify-write sequences (``allow``'s
    cooldown check-and-set, ``record_failure``'s count-and-trip), so every
    one runs under the breaker's lock — the serve worker pool records
    outcomes from N threads at once (pinned by
    ``tests/serve/test_thread_safety.py``).
    """

    __slots__ = (
        "name", "threshold", "cooldown_s", "failures", "trips",
        "_state", "_opened_at", "_clock", "_lock",
    )

    def __init__(self, name, threshold=BREAKER_THRESHOLD,
                 cooldown_s=BREAKER_COOLDOWN_S, *, clock=time.monotonic):
        self.name = name
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.trips = 0
        self._state = "closed"
        self._opened_at = None
        self._clock = clock
        # RLock: state/snapshot re-enter from the locked transitions.
        self._lock = threading.RLock()

    @property
    def state(self):
        """``"closed"``, ``"open"``, or ``"half-open"`` (cooldown elapsed)."""
        with self._lock:
            if (
                self._state == "open"
                and self._clock() - self._opened_at >= self.cooldown_s
            ):
                return "half-open"
            return self._state

    def allow(self):
        """Whether dispatch may try the backend now.

        Transitions open → half-open when the cooldown has elapsed, so the
        admitted run is the breaker's single trial.
        """
        with self._lock:
            state = self.state
            if state == "half-open":
                self._state = "half-open"
                return True
            return state != "open"

    def record_success(self):
        with self._lock:
            self.failures = 0
            self._state = "closed"
            self._opened_at = None

    def record_failure(self):
        """Count one runtime failure; True when this failure *trips* open."""
        with self._lock:
            self.failures += 1
            if self._state == "half-open" or (
                self._state == "closed" and self.failures >= self.threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self.trips += 1
                return True
            return False

    def snapshot(self):
        with self._lock:
            return {
                "state": self.state,
                "failures": self.failures,
                "trips": self.trips,
            }

    def __repr__(self):
        return (
            f"CircuitBreaker({self.name!r}, state={self.state!r}, "
            f"failures={self.failures}, trips={self.trips})"
        )


#: backend name -> its process-wide breaker (created on first dispatch).
_BREAKERS = {}

#: Guards breaker creation: two serve workers dispatching the same backend
#: for the first time must share one breaker, not race two into existence.
_BREAKERS_LOCK = threading.Lock()


def breaker_for(name):
    """The process-wide :class:`CircuitBreaker` for backend *name*."""
    with _BREAKERS_LOCK:
        breaker = _BREAKERS.get(name)
        if breaker is None:
            breaker = _BREAKERS[name] = CircuitBreaker(name)
        return breaker


def breaker_states():
    """Snapshot of every instantiated breaker: ``{name: {state, ...}}``."""
    with _BREAKERS_LOCK:
        names = sorted(_BREAKERS)
        return {name: _BREAKERS[name].snapshot() for name in names}


def reset_breakers():
    """Drop every breaker (test isolation / cold-start state)."""
    with _BREAKERS_LOCK:
        _BREAKERS.clear()


def register(backend):
    """Register *backend* under its name (replacing any previous holder)."""
    if not backend.name:
        raise ValueError("backend must define a name")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EvaluationError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def available_backends():
    return sorted(_REGISTRY)


def probe_capabilities(node, database, conventions, backends=None):
    """Static capability verdicts for *node*, per backend.

    Returns ``{backend_name: tuple_of_reasons}`` over *backends* (default:
    every registered backend); an empty tuple predicts a fully native run.
    This is the accounting surface the scenario-corpus harness reports next
    to the *observed* native-vs-fallback verdicts from dispatch, so probe
    drift (a probe that promises what the engine then refuses, or refuses
    what it could run) shows up as a coverage discrepancy instead of noise.
    """
    verdicts = {}
    for name in backends if backends is not None else available_backends():
        engine = get_backend(name)
        verdicts[name] = tuple(engine.capabilities(node, conventions, database))
    return verdicts


def _count_failure(breaker, context):
    """Record a runtime failure; mirror a trip into the session stats."""
    if breaker.record_failure():
        context.stats.breaker_trips += 1


def _caller_stacklevel():
    """``warnings.warn`` stacklevel of the first frame outside ``repro``.

    Counted from the function calling this helper (level 1), so a warning
    raised deep in dispatch points at the user's call site — whichever of
    ``Prepared.run``, ``Session.evaluate`` or ``repro.evaluate`` it came
    through.
    """
    frame, level = sys._getframe(1), 1
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module != "repro" and not module.startswith("repro."):
            break
        frame, level = frame.f_back, level + 1
    return level


def run_backend(node, context, *, reasons=None):
    """Evaluate *node* on ``context.options.backend``, falling back to the planner.

    The fallback triggers when the backend's capability probe reports
    problems, its ``run`` raises :class:`BackendUnsupported` (e.g. SQLite
    rejecting a construct the static probe could not see), or the backend's
    circuit breaker is open after repeated runtime failures.

    *context* is the run's session context (see :meth:`Backend.run`): its
    probe memo answers repeated capability checks warm, and it is handed
    to the engine — including the planner substituted on fallback, so
    session stats, the deadline and the tracer see the run.

    *reasons* is the explicit fallback-reason channel: when a list is
    supplied, the probe findings are appended to it **instead of** emitting
    a :class:`BackendFallbackWarning` — callers that want to report why an
    offload failed over (``repro serve``) read the list rather than
    sniffing the warnings machinery.
    """
    engine = get_backend(context.options.backend)
    tracer = context.tracer
    # The planner is the fallback target, so it carries no breaker — a
    # planner outage has nowhere to fail over to.
    breaker = breaker_for(engine.name) if engine.name != PlannerBackend.name else None
    with NULL_SPAN if tracer is None else tracer.span(
        "backend.dispatch", backend=engine.name
    ) as span:
        problems = None
        if breaker is not None and not breaker.allow():
            problems = [
                f"circuit breaker for backend {engine.name!r} is open "
                f"(cooling down after {breaker.failures} consecutive failures)"
            ]
            if tracer is not None:
                tracer.event(
                    "breaker.skip", backend=engine.name,
                    failures=breaker.failures,
                )
        if problems is None:
            problems = context.probe(engine, node)
        if not problems:
            try:
                result = engine.run(node, context)
            except BackendUnsupported as exc:
                # A *runtime* refusal the static probe missed: counts toward
                # the breaker (unlike probe refusals, which are steady-state).
                if breaker is not None:
                    _count_failure(breaker, context)
                if tracer is not None:
                    tracer.event(
                        "backend.refused", backend=engine.name, reason=str(exc)
                    )
                problems = [str(exc)]
            except ArcError:
                # A typed query error or the caller's deadline/budget, not
                # the backend's health.
                raise
            except Exception:
                if breaker is not None:
                    _count_failure(breaker, context)
                raise
            else:
                if breaker is not None:
                    breaker.record_success()
                span.tag(ran=engine.name)
                return result
        reason = "; ".join(problems)
        if engine.name == PlannerBackend.name:
            raise BackendUnsupported(
                f"backend {engine.name!r} cannot evaluate this query: {reason}"
            )
        if reasons is not None:
            reasons.extend(problems)
        else:
            warnings.warn(
                BackendFallbackWarning(
                    f"backend {engine.name!r} cannot evaluate this query "
                    f"({reason}); falling back to the planner",
                    problems,
                ),
                stacklevel=_caller_stacklevel(),
            )
        if tracer is not None:
            tracer.event(
                "backend.fallback", backend=engine.name, reasons=len(problems)
            )
            tracer.count(
                "arc_backend_fallbacks_total",
                help_text="Dispatches that fell back to the planner.",
                backend=engine.name,
            )
        span.tag(ran=PlannerBackend.name, fallback=True)
        return get_backend(PlannerBackend.name).run(node, context)


register(ReferenceBackend())
register(PlannerBackend())

# SQLite ships with CPython, but gate the import so a stripped-down build
# still exposes the pure-Python backends.
try:
    from .sqlite_exec import SqliteBackend
except ImportError:  # pragma: no cover - sqlite3 is stdlib everywhere we run
    SqliteBackend = None
else:
    register(SqliteBackend())
