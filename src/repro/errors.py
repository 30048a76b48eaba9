"""Exception hierarchy for the ARC reference implementation.

Every user-visible failure raises a subclass of :class:`ArcError` so that
applications embedding the library can catch one base class.  The hierarchy
mirrors the pipeline stages: parsing, linking (name resolution), validation
(scoping / grouping / safety rules), and evaluation.
"""

from __future__ import annotations


class ArcError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ParseError(ArcError):
    """A textual modality (comprehension syntax, SQL, Datalog, ...) failed to parse.

    Attributes
    ----------
    message:
        Human-readable description of the failure.
    line, column:
        1-based position of the offending token when available.
    """

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")


class LinkError(ArcError):
    """Name resolution failed: an identifier has no binding in any enclosing scope."""


class ValidationError(ArcError):
    """A structurally well-formed query violates ARC's semantic rules.

    Examples: a head attribute never assigned, an aggregation predicate in a
    scope without a grouping operator, an unsafe (non-range-restricted)
    query, or recursion through negation/aggregation.
    """


class EvaluationError(ArcError):
    """The evaluator could not compute a result (e.g. an external relation's
    access patterns cannot be satisfied from the bound attributes)."""


class SchemaError(ArcError):
    """A relation was used with the wrong attributes or a catalog lookup failed."""


class OptionsError(ArcError):
    """Contradictory or malformed evaluation options.

    Raised by :class:`repro.api.EvalOptions` when a combination of options
    cannot be honored faithfully (e.g. ``db_file=...`` together with
    ``backend="planner"``, which has no SQLite catalog to persist) instead
    of silently ignoring one of them.
    """


class RewriteError(ArcError):
    """A rewrite was requested that is not applicable (or not semantics-preserving)
    for the given query and conventions."""


class ResourceError(ArcError):
    """An execution resource limit (deadline or budget) was exceeded.

    Raised by the stride-counted checks the evaluation tiers perform when a
    :class:`repro.util.deadline.Deadline` is armed.  The limit is a policy
    the caller configured (:class:`repro.api.EvalOptions` ``timeout_ms`` /
    ``max_rows``), so hitting it is a *bounded-failure answer*, not an
    engine defect — ``repro serve`` maps the two subclasses onto
    408/413-style JSON responses.
    """


class QueryTimeout(ResourceError):
    """The query ran past its configured deadline (``timeout_ms``)."""


class BudgetExceeded(ResourceError):
    """The query produced more rows than its budget allows (``max_rows``)."""


class WorkerCrash(ArcError):
    """A pool worker thread died while executing this request.

    Raised *to the waiting caller* by the worker pool's supervisor when an
    exception escapes a worker's job loop (e.g. an injected
    ``pool.worker`` failpoint).  The pool respawns the worker with a fresh
    Session, so the crash costs one request, never capacity — ``repro
    serve`` maps this to a 500 and keeps serving.
    """


class PoisonQuery(ArcError):
    """A request fingerprint is quarantined after killing too many workers.

    The worker pool attributes each worker death to the request that was
    executing; a fingerprint that reaches the configured kill threshold is
    refused at admission for a TTL instead of taking down more capacity.
    ``repro serve`` maps this to a typed 422; ``retry_after_s`` (when set)
    is the remaining quarantine TTL the response advertises.
    """

    def __init__(self, message, *, retry_after_s=None):
        super().__init__(message)
        self.retry_after_s = retry_after_s
