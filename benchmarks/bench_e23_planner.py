"""E23 — the hash-indexed execution layer vs the reference strategy.

Sweeps the workloads where the planner changes the complexity class
(equality joins, correlated laterals, grouped aggregates, transitive
closure) with the planner on and off, asserting bag-equal results either
way.  The planner-off configurations use small instances or single
rounds — the reference strategy is the quadratic baseline being measured,
not a regression target.

Representative numbers from the machine this layer was built on
(CPython 3.11, min over rounds):

========================================  ==========  ===========  ========
case                                      planner on  planner off   speedup
========================================  ==========  ===========  ========
join width=3 (E21 sweep, 60 rows/rel)       ~0.8 ms       ~450 ms     ~550x
join width=4 (E21 sweep, 60 rows/rel)       ~1.6 ms    ~25,000 ms  ~15,000x
grouped aggregate n=900 (E21 sweep)        ~0.05 ms       ~4.7 ms     ~100x
transitive closure, 250 nodes               ~15 ms      ~1,140 ms      ~77x
correlated lateral, 120 rows                ~26 ms         ~40 ms     ~1.5x
========================================  ==========  ===========  ========
"""

import gc
import os
import time

import pytest

from repro.api import EvalOptions
from repro.core.conventions import SET_CONVENTIONS
from repro.core.parser import parse
from repro.data import generators
from repro.engine import evaluate
from repro.workloads import sweeps

import _common

ORACLE = EvalOptions(backend="reference")

ANCESTOR = (
    "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
    "∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}"
)


def _run_off_once(benchmark, fn):
    """Time a planner-off baseline without autocalibration blowing up."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# -- equality joins ------------------------------------------------------------


@pytest.mark.parametrize("width", [2, 3, 4])
def test_join_chain_planner_on(benchmark, width):
    db = generators.chain_database(width, 60, domain=30, seed=3)
    query = sweeps.join_chain_query(width)
    result = benchmark(evaluate, query, db, SET_CONVENTIONS)
    assert result == evaluate(query, db, SET_CONVENTIONS, options=ORACLE)


@pytest.mark.parametrize("width", [2, 3])
def test_join_chain_planner_off(benchmark, width):
    db = generators.chain_database(width, 60, domain=30, seed=3)
    query = sweeps.join_chain_query(width)
    _run_off_once(
        benchmark, lambda: evaluate(query, db, SET_CONVENTIONS, options=ORACLE)
    )


# -- grouped aggregates --------------------------------------------------------


@pytest.mark.parametrize("n_rows", [100, 300, 900])
def test_grouped_aggregate_planner_on(benchmark, n_rows):
    db = sweeps.size_sweep_database(n_rows, seed=1)
    query = sweeps.grouped_aggregate_query()
    result = benchmark(evaluate, query, db, SET_CONVENTIONS)
    assert result == evaluate(query, db, SET_CONVENTIONS, options=ORACLE)


@pytest.mark.parametrize("n_rows", [100, 300, 900])
def test_grouped_aggregate_planner_off(benchmark, n_rows):
    db = sweeps.size_sweep_database(n_rows, seed=1)
    query = sweeps.grouped_aggregate_query()
    _run_off_once(
        benchmark, lambda: evaluate(query, db, SET_CONVENTIONS, options=ORACLE)
    )


# -- correlated laterals -------------------------------------------------------


@pytest.mark.parametrize("n_rows", [30, 120])
def test_correlated_lateral_planner_on(benchmark, n_rows):
    db = sweeps.size_sweep_database(n_rows, seed=2)
    query = sweeps.lateral_query()
    result = benchmark(evaluate, query, db, SET_CONVENTIONS)
    assert result == evaluate(query, db, SET_CONVENTIONS, options=ORACLE)


@pytest.mark.parametrize("n_rows", [30, 120])
def test_correlated_lateral_planner_off(benchmark, n_rows):
    db = sweeps.size_sweep_database(n_rows, seed=2)
    query = sweeps.lateral_query()
    _run_off_once(
        benchmark, lambda: evaluate(query, db, SET_CONVENTIONS, options=ORACLE)
    )


# -- transitive closure (incremental semi-naive + indexes) ---------------------


@pytest.mark.parametrize("n_nodes", [50, 250])
def test_transitive_closure_planner_on(benchmark, n_nodes):
    db = generators.parent_edges(n_nodes, seed=5, extra_edges=n_nodes // 4)
    query = parse(ANCESTOR)
    result = benchmark(evaluate, query, db, SET_CONVENTIONS)
    assert len(result) >= n_nodes - 1


@pytest.mark.parametrize("n_nodes", [50, 250])
def test_transitive_closure_planner_off(benchmark, n_nodes):
    db = generators.parent_edges(n_nodes, seed=5, extra_edges=n_nodes // 4)
    query = parse(ANCESTOR)
    result = _run_off_once(
        benchmark, lambda: evaluate(query, db, SET_CONVENTIONS, options=ORACLE)
    )
    assert len(result) >= n_nodes - 1


# -- deadline instrumentation overhead -----------------------------------------


def test_deadline_checks_cost_under_5_percent_on_join_width_4():
    """Acceptance claim (CI perf gate): arming a deadline + row budget costs
    < 5% on the E23 width-4 join chain.

    The stride counters in the planner's row loops are the only per-row
    cost an armed run adds (the clock is read once per 1024 rows, the row
    budget flushes once per 1024 emissions), so this ratio bounds the price
    of running every query under a timeout, as ``repro serve`` does.

    Measurement: interleaved blocks of warm prepared runs, best-of per
    block, and the **minimum** block ratio is asserted.  Scheduler and
    allocator jitter only ever inflates a block's ratio, so the minimum is
    the least-biased estimator of the true overhead — a real regression
    past 5% inflates every block and still fails the gate.  Skipped on
    shared CI runners unless ``RUN_TIMING_ASSERTIONS=1`` (the dedicated
    perf-gate job sets it).
    """
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")

    from repro.api import EvalOptions, Session

    db = generators.chain_database(4, 60, domain=30, seed=3)
    query = sweeps.join_chain_query(4)
    unarmed = Session(db, SET_CONVENTIONS, options=EvalOptions()).prepare(query)
    armed = Session(
        db,
        SET_CONVENTIONS,
        options=EvalOptions(timeout_ms=3_600_000, max_rows=1_000_000_000),
    ).prepare(query)
    assert unarmed.run() == armed.run()  # warm both; deadline changes nothing

    def block_min(prepared, rounds=9):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            prepared.run()
            best = min(best, time.perf_counter() - start)
        return best

    gc.disable()
    try:
        blocks = [(block_min(armed), block_min(unarmed)) for _ in range(9)]
    finally:
        gc.enable()

    ratios = [armed_s / unarmed_s for armed_s, unarmed_s in blocks]
    best_ratio = min(ratios)
    _common.record_metric(
        "e23_deadline_overhead",
        best_ratio=round(best_ratio, 4),
        block_ratios=[round(r, 3) for r in ratios],
        best_unarmed_ms=round(min(u for _, u in blocks) * 1000, 4),
        best_armed_ms=round(min(a for a, _ in blocks) * 1000, 4),
    )
    assert best_ratio < 1.05, (
        f"armed deadline costs {(best_ratio - 1) * 100:.1f}% on the width-4 "
        f"join chain (block ratios: {[f'{r:.3f}' for r in ratios]})"
    )


def test_tracer_costs_under_5_percent_on_join_width_4():
    """Acceptance claim (CI perf gate): a metrics-mode tracer — the exact
    configuration ``repro serve`` arms behind ``GET /metrics`` — costs < 5%
    on E23 warm prepared runs.

    The tracer sits at coarse phase boundaries only (a handful of spans per
    query, never per row; ``tests/obs/test_overhead.py`` pins that shape
    with counters), so the armed cost is a few clock reads and histogram
    updates per query.  Same protocol as the deadline gate above:
    interleaved best-of blocks, minimum ratio asserted, skipped on shared
    CI runners unless ``RUN_TIMING_ASSERTIONS=1``.
    """
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")

    from repro.api import EvalOptions, Session
    from repro.obs import MetricsRegistry, Tracer

    db = generators.chain_database(4, 60, domain=30, seed=3)
    query = sweeps.join_chain_query(4)
    untraced = Session(db, SET_CONVENTIONS, options=EvalOptions()).prepare(query)
    traced_session = Session(db, SET_CONVENTIONS, options=EvalOptions())
    traced_session.tracer = Tracer(metrics=MetricsRegistry(), keep_spans=False)
    traced = traced_session.prepare(query)
    assert untraced.run() == traced.run()  # warm both; tracing changes nothing

    def block_min(prepared, rounds=9):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            prepared.run()
            best = min(best, time.perf_counter() - start)
        return best

    gc.disable()
    try:
        ratios = [block_min(traced) / block_min(untraced) for _ in range(9)]
    finally:
        gc.enable()

    best_ratio = min(ratios)
    _common.record_metric(
        "e23_tracer_overhead",
        best_ratio=round(best_ratio, 4),
        block_ratios=[round(r, 3) for r in ratios],
    )
    assert best_ratio < 1.05, (
        f"armed tracer costs {(best_ratio - 1) * 100:.1f}% on the width-4 "
        f"join chain (block ratios: {[f'{r:.3f}' for r in ratios]})"
    )
