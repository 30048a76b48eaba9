"""Deadline-aware execution: timeouts and row budgets on every tier.

The acceptance property: a runaway query returns
:class:`~repro.errors.QueryTimeout` within 2× its configured ``timeout_ms``
on all three backends, instead of hanging.  The runaway here is an
unbounded recursion (``T.x = t.x + 1`` grows forever) — the paper's
fixpoint semantics guarantee it never converges, so only the deadline can
stop it.
"""

import time

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.core.conventions import SET_CONVENTIONS, SQL_CONVENTIONS
from repro.core.parser import parse
from repro.engine import Evaluator
from repro.errors import BudgetExceeded, OptionsError, QueryTimeout
from repro.util.deadline import STRIDE, Deadline

#: Diverging fixpoint: the base disjunct seeds from P, the recursive one
#: adds x+1 forever.
RUNAWAY = "{T(x) | ∃p ∈ P[T.x = p.x] ∨ ∃t ∈ T[T.x = t.x + 1]}"


def _db():
    db = repro.Database()
    db.create("P", ("x",), [(1,)])
    return db


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now


class TestDeadlineUnit:
    def test_check_raises_only_past_the_deadline(self):
        clock = FakeClock()
        deadline = Deadline(timeout_ms=100, clock=clock)
        clock.now = 0.099
        deadline.check()  # inside the budget
        clock.now = 0.101
        with pytest.raises(QueryTimeout, match="100 ms deadline"):
            deadline.check()

    def test_no_timeout_means_check_never_raises(self):
        deadline = Deadline(max_rows=10, clock=FakeClock())
        deadline.check()
        assert not deadline.expired()

    def test_count_rows_enforces_the_budget(self):
        deadline = Deadline(max_rows=5)
        deadline.count_rows(5)
        with pytest.raises(BudgetExceeded, match="max_rows=5"):
            deadline.count_rows()
        assert deadline.rows == 6

    def test_count_rows_without_budget_only_accumulates(self):
        deadline = Deadline(timeout_ms=10_000)
        deadline.count_rows(1_000_000)
        assert deadline.rows == 1_000_000


#: One case per planner step kind, each enumerating more than STRIDE rows
#: in that step's row loop (inner materializations stay under STRIDE, so
#: the stride check that fires is the step's own):
#: (query, conventions, decorrelate, predicate pinning the step kind).
_LATERAL = (
    "{{Q(A, B) | ∃r ∈ R, z ∈ {{Z(B) | ∃s ∈ S[Z.B = s.B ∧ s.A {op} r.A]}}"
    "[Q.A = r.A ∧ Q.B = z.B]}}"
)
_STEP_KINDS = {
    "fio-eq-probe": (
        _LATERAL.format(op="="), SET_CONVENTIONS, True,
        lambda s: s.laterals_decorrelated and not s.band_index_builds
        and not s.lateral_reevals,
    ),
    "fio-band-probe": (
        _LATERAL.format(op="<="), SET_CONVENTIONS, True,
        lambda s: s.band_index_builds == 1 and not s.lateral_reevals,
    ),
    "per-frame-lateral": (
        _LATERAL.format(op="="), SET_CONVENTIONS, False,
        lambda s: s.lateral_reevals == 2,
    ),
    "index-probe": (
        "{Q(A, B) | ∃r ∈ R, s ∈ S[r.A = s.A ∧ Q.A = r.A ∧ Q.B = s.B]}",
        SET_CONVENTIONS, True,
        lambda s: s.index_probes == 2,
    ),
    "set-scan": (
        "{Q(A, B) | ∃r ∈ R, s ∈ S[Q.A = r.B ∧ Q.B = s.B]}", SET_CONVENTIONS,
        True, lambda s: not s.index_probes,
    ),
    "bag-scan": (
        "{Q(A, B) | ∃r ∈ R, s ∈ S[Q.A = r.B ∧ Q.B = s.B]}", SQL_CONVENTIONS,
        True, lambda s: not s.index_probes,
    ),
}


def _step_kind_evaluator(case, deadline=None):
    """A fresh catalog, parse and evaluator for one step-kind case, so no
    plan or index cache is shared between runs."""
    query, conventions, decorrelate, _ = _STEP_KINDS[case]
    inner_rows = STRIDE // 2 + 88  # two outer frames enumerate > STRIDE
    db = repro.Database()
    db.create("R", ("A", "B"), [(1, 10), (1, 20)])
    db.create("S", ("A", "B"), [(1, b) for b in range(inner_rows)])
    evaluator = Evaluator(
        db, conventions, decorrelate=decorrelate, deadline=deadline
    )
    return evaluator, parse(query)


class TestPerRowChecks:
    """The stride check inside the planner's row loop, per step kind."""

    @pytest.mark.parametrize("case", list(_STEP_KINDS))
    def test_expired_clock_raises_from_the_row_loop(self, case):
        clock = FakeClock()
        deadline = Deadline(timeout_ms=100, clock=clock)
        clock.now = 1.0  # long past the deadline
        evaluator, query = _step_kind_evaluator(case, deadline)
        with pytest.raises(QueryTimeout):
            evaluator.evaluate(query)
        # Raised by a per-row stride check, not a coarse checkpoint.
        assert evaluator.stats.rows_enumerated >= STRIDE

    @pytest.mark.parametrize("case", list(_STEP_KINDS))
    def test_live_clock_changes_neither_answer_nor_stats(self, case):
        unarmed, query = _step_kind_evaluator(case)
        expected = unarmed.evaluate(query)
        assert _STEP_KINDS[case][3](unarmed.stats)
        assert unarmed.stats.rows_enumerated > STRIDE
        clock = FakeClock()
        armed, query = _step_kind_evaluator(
            case, Deadline(timeout_ms=100, clock=clock)
        )
        assert armed.evaluate(query) == expected
        assert armed.stats.as_dict() == unarmed.stats.as_dict()
        assert clock.reads > 1  # the stride check did read the clock


class TestOptionsValidation:
    @pytest.mark.parametrize("bad", [0, -1, -0.5, "fast", True])
    def test_nonpositive_or_nonnumeric_timeout_raises(self, bad):
        with pytest.raises(OptionsError, match="timeout_ms"):
            EvalOptions(timeout_ms=bad)

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, "many"])
    def test_bad_max_rows_raises(self, bad):
        with pytest.raises(OptionsError, match="max_rows"):
            EvalOptions(max_rows=bad)

    def test_deadline_override_is_validated_too(self):
        options = EvalOptions()
        with pytest.raises(OptionsError, match="override timeout_ms"):
            options.deadline(timeout_ms=-1)

    def test_unbounded_options_arm_no_deadline(self):
        assert EvalOptions().deadline() is None

    def test_override_takes_precedence_over_the_option_set(self):
        options = EvalOptions(timeout_ms=5_000, max_rows=10)
        deadline = options.deadline(timeout_ms=50)
        assert deadline.timeout_ms == 50
        assert deadline.max_rows == 10  # inherited where not overridden


class TestRunawayTimeouts:
    """The acceptance criterion, per backend."""

    @pytest.mark.parametrize(
        "backend,conventions",
        [
            (None, SET_CONVENTIONS),        # in-process planner
            ("reference", SET_CONVENTIONS),  # nested-loop oracle
            ("sqlite", SQL_CONVENTIONS),     # WITH RECURSIVE offload
        ],
        ids=["planner", "reference", "sqlite"],
    )
    def test_runaway_times_out_within_twice_the_budget(
        self, backend, conventions
    ):
        timeout_ms = 300
        options = (
            EvalOptions(timeout_ms=timeout_ms)
            if backend is None
            else EvalOptions(timeout_ms=timeout_ms, backend=backend)
        )
        session = Session(_db(), conventions, options=options)
        start = time.monotonic()
        with pytest.raises(QueryTimeout):
            session.prepare(RUNAWAY).run()
        elapsed_ms = (time.monotonic() - start) * 1000
        # 2× the budget plus scheduling slack: generous enough not to
        # flake under CI load, tight enough to prove the abort is prompt.
        assert elapsed_ms < 2 * timeout_ms + 500
        assert session.stats.timeouts == 1

    def test_runaway_not_exists_build_times_out(self):
        """The exists index enumerates its inner scope once — here a
        27-million-row cross product — under the same stride checks."""
        db = repro.Database()
        db.create("R", ("A",), [(i,) for i in range(10)])
        db.create("S", ("A", "B"), [(i, i) for i in range(300)])
        query = (
            "{Q(A) | ∃r ∈ R[¬∃s ∈ S, t ∈ S, u ∈ S[s.A = r.A ∧ "
            "t.B + u.B = -1] ∧ Q.A = r.A]}"
        )
        timeout_ms = 300
        session = Session(
            db, SQL_CONVENTIONS, options=EvalOptions(timeout_ms=timeout_ms)
        )
        start = time.monotonic()
        with pytest.raises(QueryTimeout):
            session.prepare(query).run()
        elapsed_ms = (time.monotonic() - start) * 1000
        assert elapsed_ms < 2 * timeout_ms + 500
        assert session.stats.timeouts == 1
        assert session.stats.decorr_index_builds == 0  # aborted, not cached

    def test_per_run_override_beats_the_session_default(self):
        session = Session(
            _db(), SET_CONVENTIONS, options=EvalOptions(timeout_ms=60_000)
        )
        start = time.monotonic()
        with pytest.raises(QueryTimeout):
            session.prepare(RUNAWAY).run(timeout_ms=200)
        assert (time.monotonic() - start) < 2.0


class TestRowBudget:
    def test_runaway_trips_the_row_budget(self):
        session = Session(
            _db(), SET_CONVENTIONS, options=EvalOptions(max_rows=50)
        )
        with pytest.raises(BudgetExceeded):
            session.prepare(RUNAWAY).run()
        assert session.stats.budget_exceeded == 1

    def test_budget_on_sqlite_fetch(self):
        db = repro.Database()
        db.create("R", ("A",), [(i,) for i in range(100)])
        session = Session(
            db, SQL_CONVENTIONS,
            options=EvalOptions(backend="sqlite", max_rows=10),
        )
        with pytest.raises(BudgetExceeded):
            session.prepare("{Q(A) | ∃r ∈ R[Q.A = r.A]}").run()
        assert session.stats.budget_exceeded == 1

    def test_within_budget_answers_normally(self):
        session = Session(
            _db(), SET_CONVENTIONS, options=EvalOptions(max_rows=1_000)
        )
        result = session.prepare("{Q(x) | ∃p ∈ P[Q.x = p.x]}").run()
        assert [row["x"] for row in result.sorted_rows()] == [1]
        assert session.stats.budget_exceeded == 0

    def test_unbounded_runs_pay_no_accounting(self):
        session = Session(_db(), SET_CONVENTIONS)
        result = session.prepare("{Q(x) | ∃p ∈ P[Q.x = p.x]}").run()
        assert len(result) == 1
        assert session.stats.timeouts == 0
        assert session.stats.budget_exceeded == 0


class TestErrorTaxonomy:
    def test_resource_errors_are_arc_errors(self):
        assert issubclass(QueryTimeout, repro.ResourceError)
        assert issubclass(BudgetExceeded, repro.ResourceError)
        assert issubclass(repro.ResourceError, repro.ArcError)
