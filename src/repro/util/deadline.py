"""Deadlines and row budgets: bounded execution for every tier.

A :class:`Deadline` is armed once per run (by
:meth:`repro.api.EvalOptions.deadline` via the Session) and threaded through
the evaluator, the planner's compiled-scope loops, the semi-naive fixpoint,
and the SQLite backend.  Latency bounds are treated as a correctness
property of the serving path: a query that cannot finish inside its budget
must *answer* with a typed error (:class:`~repro.errors.QueryTimeout` /
:class:`~repro.errors.BudgetExceeded`), never hang.

Two kinds of checks, tuned for hot loops:

* :meth:`tick` — called once per enumerated row in the execution loops.
  It only bumps a counter; every :data:`STRIDE` ticks it reads the
  monotonic clock and raises :class:`~repro.errors.QueryTimeout` past the
  deadline.  The common case is one integer add and one compare, so the
  guard stays well under the 5 % overhead ceiling the CI perf gate asserts
  on the E23 width-4 sweep.
* :meth:`count_rows` — called where result rows are *produced* (collection
  emission loops, fused grouped outputs, SQLite fetch chunks, fixpoint
  deltas).  Exceeding ``max_rows`` raises
  :class:`~repro.errors.BudgetExceeded` before the oversized result is
  fully materialized.  The budget bounds rows produced across all
  execution tiers — materialized intermediates included — so it is a
  resource budget, not an exact result-size predicate.

The clock is injectable for deterministic tests; :meth:`expired` is the
boolean form the SQLite progress handler polls.

A Deadline is the only cancellation path: ``repro serve`` enforces its
hard wall cap by arming each served run with ``min(soft, hard)`` as the
run's ``timeout_ms``, so a runaway stops at the same stride checks and
progress callbacks as any client deadline.
"""

from __future__ import annotations

import time

from ..errors import BudgetExceeded, QueryTimeout

#: Ticks between monotonic-clock reads in the hot loops.  Small enough that
#: even ~1 ms/row pathological loops notice the deadline within a second;
#: large enough that the per-row cost is a counter bump.
STRIDE = 1024


class Deadline:
    """One run's deadline and row budget (either part optional).

    Parameters
    ----------
    timeout_ms:
        Wall-clock budget in milliseconds from construction, or None for
        no deadline.
    max_rows:
        Maximum rows the run may produce, or None for no budget.
    clock:
        Monotonic clock (seconds); injectable for deterministic tests.
    """

    __slots__ = (
        "timeout_ms",
        "max_rows",
        "rows",
        "_clock",
        "_started",
        "_expires",
        "_ops",
        "_next_check",
    )

    def __init__(self, timeout_ms=None, max_rows=None, *,
                 clock=time.monotonic):
        self.timeout_ms = timeout_ms
        self.max_rows = max_rows
        self.rows = 0
        self._clock = clock
        self._started = clock()
        self._expires = (
            None if timeout_ms is None else self._started + timeout_ms / 1000.0
        )
        self._ops = 0
        self._next_check = STRIDE

    # -- deadline ----------------------------------------------------------

    def expired(self):
        """Whether the deadline passed."""
        return self._expires is not None and self._clock() > self._expires

    def check(self):
        """Raise :class:`QueryTimeout` when past the deadline (direct read).

        Used at naturally coarse checkpoints (one fixpoint round, one
        grouped scan) where a clock read per call is cheap relative to the
        work between calls.
        """
        if self._expires is not None and self._clock() > self._expires:
            raise QueryTimeout(
                f"query exceeded its {self.timeout_ms} ms deadline "
                f"(ran {(self._clock() - self._started) * 1000:.0f} ms)"
            )

    def tick(self):
        """Stride-counted per-row check for hot loops.

        Call once per enumerated row; reads the clock only every
        :data:`STRIDE` calls.
        """
        self._ops += 1
        if self._ops >= self._next_check:
            self._next_check = self._ops + STRIDE
            self.check()

    # -- budget ------------------------------------------------------------

    def count_rows(self, n=1):
        """Record *n* produced rows; raise when over ``max_rows``."""
        self.rows += n
        if self.max_rows is not None and self.rows > self.max_rows:
            raise BudgetExceeded(
                f"query produced more than max_rows={self.max_rows} rows "
                f"(aborted at {self.rows})"
            )

    def __repr__(self):
        return (
            f"Deadline(timeout_ms={self.timeout_ms}, max_rows={self.max_rows}, "
            f"rows={self.rows}, expired={self.expired()})"
        )
