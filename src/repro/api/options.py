"""Evaluation options: one validated object instead of a kwarg pile.

Historically every entry point took ``evaluate(node, database, conventions,
externals, *, planner, decorrelate, backend, db_file)`` and each layer
re-interpreted the loose kwargs — which is how ``planner=False`` came to be
silently ignored whenever ``backend=`` was also given.

:class:`EvalOptions` is the replacement: an immutable, validated bundle in
which ``backend`` is the one engine selector, and which **raises**
:class:`~repro.errors.OptionsError` on contradictory combinations instead
of picking a winner silently.  :class:`~repro.api.Session` carries one, and
the one-shot ``evaluate(..., options=...)`` takes one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import OptionsError
from ..util.deadline import Deadline


def validate_budget(timeout_ms, max_rows, *, flavor="",
                    timeout_name="timeout_ms"):
    """Raise :class:`OptionsError` on malformed deadline/budget values.

    Shared by :class:`EvalOptions`, the per-request overrides ``repro
    serve`` accepts, and the server's own millisecond limits, so all
    reject the same shapes with the same wording.  *flavor* prefixes the
    message (e.g. ``"request "``); *timeout_name* names the millisecond
    value (e.g. ``"hard_timeout_ms"``).
    """
    if timeout_ms is not None:
        if isinstance(timeout_ms, bool) or not isinstance(
            timeout_ms, (int, float)
        ):
            raise OptionsError(
                f"{flavor}{timeout_name} must be a number of milliseconds, "
                f"got {timeout_ms!r}"
            )
        if timeout_ms <= 0:
            raise OptionsError(
                f"{flavor}{timeout_name} must be positive, got {timeout_ms!r}"
            )
    if max_rows is not None:
        if isinstance(max_rows, bool) or not isinstance(max_rows, int):
            raise OptionsError(
                f"{flavor}max_rows must be an integer row count, got "
                f"{max_rows!r}"
            )
        if max_rows <= 0:
            raise OptionsError(
                f"{flavor}max_rows must be positive, got {max_rows!r}"
            )


@dataclass(frozen=True)
class EvalOptions:
    """How a :class:`~repro.api.Session` evaluates queries.

    Parameters
    ----------
    decorrelate:
        ``False`` disables the FOI → FIO lateral decorrelation pass
        (correlated scopes re-evaluate per outer row).
    backend:
        The registered executable backend that runs every query:
        ``"planner"`` (the hash-indexed execution layer), ``"reference"``
        (the paper's nested-loop strategy, the semantic oracle) or
        ``"sqlite"``.  None resolves once, at construction: ``"sqlite"``
        when ``db_file`` is set, else ``"planner"``.  When the backend
        cannot honor a query, dispatch falls back to the planner and
        reports why (``Prepared.run_info()["fallback_reasons"]``).
    db_file:
        Path persisting the SQLite catalog on disk (implies
        ``backend="sqlite"``; any other backend would silently ignore it,
        so the combination raises).
    timeout_ms:
        Wall-clock deadline per run, in milliseconds.  Exceeding it raises
        :class:`~repro.errors.QueryTimeout` from whichever execution tier
        notices first (planner loops, fixpoint rounds, or the SQLite
        progress handler).  None (default) = unbounded.
    max_rows:
        Row budget per run: the maximum rows a run may produce across all
        execution tiers (results and materialized intermediates).
        Exceeding it raises :class:`~repro.errors.BudgetExceeded`.
        None (default) = unbounded.
    """

    decorrelate: bool = True
    backend: str | None = None
    db_file: str | None = None
    timeout_ms: int | float | None = None
    max_rows: int | None = None

    def __post_init__(self):
        validate_budget(self.timeout_ms, self.max_rows)
        if self.backend is None:
            # A persistent catalog implies the SQLite engine (mirrors the
            # CLI's --db-file behavior).
            object.__setattr__(
                self, "backend", "planner" if self.db_file is None else "sqlite"
            )
        elif self.db_file is not None and self.backend != "sqlite":
            raise OptionsError(
                f"db_file persists a SQLite catalog; backend "
                f"{self.backend!r} would silently ignore it"
            )

    def with_backend(self, backend):
        """This option set with *backend* substituted for one run.

        ``db_file`` only applies to the SQLite engine, so overriding to a
        different backend drops it for the run instead of raising.
        """
        if backend is None or backend == self.backend:
            return self
        db_file = self.db_file if backend == "sqlite" else None
        return replace(self, backend=backend, db_file=db_file)

    def deadline(self, timeout_ms=None, max_rows=None):
        """Arm a :class:`~repro.util.deadline.Deadline` for one run.

        Per-run overrides (e.g. a request-level ``timeout_ms`` from
        ``repro serve``) take precedence over the option set's defaults;
        returns None when no source sets a bound, so the unbounded path
        stays entirely check-free.
        """
        validate_budget(timeout_ms, max_rows, flavor="override ")
        timeout_ms = timeout_ms if timeout_ms is not None else self.timeout_ms
        max_rows = max_rows if max_rows is not None else self.max_rows
        if timeout_ms is None and max_rows is None:
            return None
        return Deadline(timeout_ms=timeout_ms, max_rows=max_rows)

