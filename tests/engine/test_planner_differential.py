"""Differential harness: planner-on must agree with planner-off everywhere.

The hash-indexed execution layer (:mod:`repro.engine.planner`) is meant to
be semantics-preserving by construction; this module enforces that claim by
evaluating every paper workload and families of randomized chain-join and
grouping queries under both strategies and asserting bag equality (or equal
Truth values / equal errors) under several conventions.
"""

import random

import pytest

from repro.api import EvalOptions
from repro.core import builder as b
from repro.core import nodes as n
from repro.core.conventions import (
    Conventions,
    SET_CONVENTIONS,
    SOUFFLE_CONVENTIONS,
    SQL_CONVENTIONS,
    Semantics,
)
from repro.core.parser import parse
from repro.data import Database, NULL, generators
from repro.engine import evaluate
from repro.errors import ArcError
from repro.workloads import instances, paper_examples, sweeps

ORACLE = EvalOptions(backend="reference")
NO_DECORRELATE = EvalOptions(decorrelate=False)

BAG = Conventions(semantics=Semantics.BAG)

CONVENTION_SET = [
    ("set", SET_CONVENTIONS),
    ("sql", SQL_CONVENTIONS),
    ("bag", BAG),
]


def assert_agree(node, db, conventions):
    """Planner-on and planner-off must produce identical results or errors."""
    try:
        with_planner = evaluate(node, db, conventions)
    except ArcError as exc:
        with pytest.raises(type(exc)):
            evaluate(node, db, conventions, options=ORACLE)
        return
    reference = evaluate(node, db, conventions, options=ORACLE)
    assert with_planner == reference


def _rs_db():
    db = Database()
    db.create("R", ("A", "B"), [(1, 10), (2, 20), (3, 30), (3, 30)])
    db.create("S", ("B", "C"), [(10, 0), (20, 5), (30, 0), (40, 1)])
    return db


def _matrix_db():
    db = Database()
    db.add(generators.sparse_matrix("A", 4, 5, density=0.5, seed=3))
    db.add(generators.sparse_matrix("B", 5, 4, density=0.5, seed=4))
    return db


PAPER_CASES = [
    ("eq1", _rs_db),
    ("eq2", instances.lateral_instance),
    ("eq3", lambda: sweeps.size_sweep_database(40, seed=9)),
    ("eq7", lambda: sweeps.size_sweep_database(40, seed=9)),
    ("eq8", instances.payroll_instance),
    ("eq10", instances.payroll_instance),
    ("eq12", instances.payroll_instance),
    ("eq13", lambda: instances.boolean_instance(satisfied=True)),
    ("eq13", lambda: instances.boolean_instance(satisfied=False)),
    ("eq14", lambda: instances.boolean_instance(satisfied=True)),
    ("eq14", lambda: instances.boolean_instance(satisfied=False)),
    ("eq15", instances.conventions_instance),
    ("eq16", instances.ancestor_instance),
    ("eq17", lambda: instances.not_in_instance(with_null=True)),
    ("eq17", lambda: instances.not_in_instance(with_null=False)),
    ("not_in_3vl", lambda: instances.not_in_instance(with_null=True)),
    ("eq18", instances.outer_join_instance),
    ("eq19", instances.arithmetic_instance),
    ("eq20", instances.arithmetic_instance),
    ("eq21", instances.arithmetic_instance),
    ("eq22", instances.likes_instance),
    ("eq23_24", instances.likes_instance),
    ("eq25_arc", _matrix_db),
    ("eq26", _matrix_db),
    ("eq27", instances.count_bug_instance),
    ("eq27", instances.count_bug_populated),
    ("eq28", instances.count_bug_instance),
    ("eq28", instances.count_bug_populated),
    ("eq29", instances.count_bug_instance),
    ("eq29", instances.count_bug_populated),
]


@pytest.mark.parametrize(
    "key,db_factory",
    PAPER_CASES,
    ids=[f"{key}-{i}" for i, (key, _) in enumerate(PAPER_CASES)],
)
@pytest.mark.parametrize("conv_name,conventions", CONVENTION_SET)
def test_paper_workloads_agree(key, db_factory, conv_name, conventions):
    node = parse(paper_examples.ARC[key])
    assert_agree(node, db_factory(), conventions)


def test_paper_workloads_agree_souffle_conventions():
    for key, db_factory in [
        ("eq3", lambda: sweeps.size_sweep_database(30, seed=2)),
        ("eq15", instances.conventions_instance),
        ("eq27", instances.count_bug_instance),
    ]:
        assert_agree(parse(paper_examples.ARC[key]), db_factory(), SOUFFLE_CONVENTIONS)


# -- randomized chain joins ---------------------------------------------------


def test_random_chain_joins_agree():
    rng = random.Random(71)
    for trial in range(10):
        width = rng.randint(2, 4)
        rows = rng.randint(4, 30 // width)
        domain = rng.randint(2, 10)
        db = generators.chain_database(width, rows, domain=domain, seed=trial)
        query = sweeps.join_chain_query(width)
        for _, conventions in CONVENTION_SET:
            assert_agree(query, db, conventions)


def test_chain_join_with_nulls_agrees():
    db = Database()
    db.add(
        generators.binary_relation("R0", 15, domain=4, seed=1, attrs=("A", "B"), null_rate=0.3)
    )
    db.add(
        generators.binary_relation("R1", 15, domain=4, seed=2, attrs=("B", "C"), null_rate=0.3)
    )
    query = sweeps.join_chain_query(2)
    for _, conventions in CONVENTION_SET:
        assert_agree(query, db, conventions)


def test_constant_equality_probe_agrees():
    db = generators.chain_database(2, 20, domain=5, seed=8)
    query = parse("{Q(out) | ∃r0 ∈ R0, r1 ∈ R1[Q.out = r1.C ∧ r0.B = r1.B ∧ r0.A = 3]}")
    for _, conventions in CONVENTION_SET:
        assert_agree(query, db, conventions)


# -- randomized grouping queries ----------------------------------------------

AGG_FUNCS = ["sum", "count", "avg", "min", "max", "sumdistinct", "countdistinct"]


def _grouped_query(func, *, grouped_key=True, having=False):
    """{Q(A?, v) | ∃r ∈ R, γ [r.A] [assignments (+ HAVING)]}"""
    agg = n.AggCall(func, b.attr2("r", "B"))
    conjuncts = [n.Comparison(n.Attr("Q", "v"), "=", agg)]
    attrs = ["v"]
    if grouped_key:
        conjuncts.insert(0, b.eq(b.attr2("Q", "A"), b.attr2("r", "A")))
        attrs.insert(0, "A")
        grouping = b.grouping(b.attr2("r", "A"))
    else:
        grouping = b.grouping()
    if having:
        conjuncts.append(n.Comparison(n.AggCall("count", None), ">", n.Const(1)))
    return b.collection(
        "Q", attrs, b.exists([b.bind("r", "R")], b.conj(*conjuncts), grouping=grouping)
    )


@pytest.mark.parametrize("func", AGG_FUNCS)
@pytest.mark.parametrize("null_rate", [0.0, 0.4])
def test_random_grouped_aggregates_agree(func, null_rate):
    rng = random.Random(hash(func) % 1000)
    for trial in range(3):
        db = Database()
        db.add(
            generators.binary_relation(
                "R", rng.randint(0, 40), domain=6, seed=trial, null_rate=null_rate
            )
        )
        for grouped_key in (True, False):
            query = _grouped_query(func, grouped_key=grouped_key)
            for _, conventions in CONVENTION_SET:
                assert_agree(query, db, conventions)


def test_grouped_with_having_agrees():
    db = Database()
    db.add(generators.binary_relation("R", 30, domain=4, seed=5, null_rate=0.2))
    for grouped_key in (True, False):
        query = _grouped_query("sum", grouped_key=grouped_key, having=True)
        for _, conventions in CONVENTION_SET:
            assert_agree(query, db, conventions)


def test_correlated_lateral_group_agrees():
    db = sweeps.size_sweep_database(25, seed=12)
    query = sweeps.lateral_query()
    for _, conventions in CONVENTION_SET:
        assert_agree(query, db, conventions)


# -- correlated-lateral decorrelation (FOI → FIO) ------------------------------


def assert_decorrelation_agrees(node, db, conventions):
    """reference ≡ decorrelated planner ≡ per-row planner (or equal errors)."""
    try:
        reference = evaluate(node, db, conventions, options=ORACLE)
    except ArcError as exc:
        with pytest.raises(type(exc)):
            evaluate(node, db, conventions)
        with pytest.raises(type(exc)):
            evaluate(node, db, conventions, options=NO_DECORRELATE)
        return
    assert evaluate(node, db, conventions) == reference
    assert evaluate(node, db, conventions, options=NO_DECORRELATE) == reference


CORRELATED_AGGS = ["sum", "count", "avg", "min", "max"]


def test_correlated_lateral_family_agrees():
    """Seeded FOI family: correlation arity, aggregate, γ∅ vs γ-keys, and
    outer keys missing from the inner relation (empty γ∅ groups)."""
    rng = random.Random(1234)
    for trial in range(8):
        arity = rng.choice([1, 1, 2])
        agg = rng.choice(CORRELATED_AGGS)
        grouped = rng.random() < 0.5
        query = sweeps.correlated_aggregate_query(arity=arity, agg=agg, grouped=grouped)
        db = sweeps.correlated_sweep_database(
            rng.randint(0, 25), rng.randint(0, 40), arity=arity, seed=trial
        )
        for _, conventions in CONVENTION_SET:
            assert_decorrelation_agrees(query, db, conventions)


def test_correlated_lateral_all_outer_groups_empty_agrees():
    """Every probe misses: γ∅ must still emit its empty-group row per outer
    row (the count bug's asymmetry, compensated at probe time)."""
    query = sweeps.correlated_aggregate_query(agg="count")
    db = sweeps.correlated_sweep_database(10, 15, seed=3, miss_rate=1.0)
    for _, conventions in CONVENTION_SET:
        assert_decorrelation_agrees(query, db, conventions)
    summed = sweeps.correlated_aggregate_query(agg="sum")
    for _, conventions in CONVENTION_SET:
        assert_decorrelation_agrees(summed, db, conventions)


def test_correlated_lateral_null_keys_agree():
    """NULL correlation keys: probed through the UNKNOWN-aware tri-bucket
    index under 3VL, through the NULL bucket under 2VL — both must match
    the reference."""
    for grouped in (False, True):
        query = sweeps.correlated_aggregate_query(agg="sum", grouped=grouped)
        db = sweeps.correlated_sweep_database(20, 30, seed=7, null_rate=0.3)
        for _, conventions in CONVENTION_SET + [("souffle", SOUFFLE_CONVENTIONS)]:
            assert_decorrelation_agrees(query, db, conventions)


def test_theta_correlated_family_agrees():
    """Seeded θ-band family (E27): operator, aggregate, equality-key
    bucketing, NULL-able keys (tri-bucket under 3VL, build fallback under
    2VL), and the non-grouped slice shape."""
    rng = random.Random(2718)
    for trial in range(10):
        op = rng.choice(["<", "<=", ">", ">="])
        eq_arity = rng.choice([0, 0, 1])
        null_rate = rng.choice([0.0, 0.0, 0.3])
        null_band_rate = rng.choice([0.0, 0.0, 0.25])
        db = sweeps.theta_sweep_database(
            rng.randint(0, 25),
            rng.randint(0, 40),
            eq_arity=eq_arity,
            seed=trial,
            null_rate=null_rate,
            null_band_rate=null_band_rate,
        )
        if rng.random() < 0.7:
            query = sweeps.theta_aggregate_query(
                op=op, agg=rng.choice(CORRELATED_AGGS), eq_arity=eq_arity
            )
        else:
            query = sweeps.theta_rows_query(op=op)
        for _, conventions in CONVENTION_SET + [("souffle", SOUFFLE_CONVENTIONS)]:
            assert_decorrelation_agrees(query, db, conventions)


def test_theta_join_inner_agrees():
    query = sweeps.theta_join_aggregate_query()
    db = sweeps.theta_sweep_database(20, 25, seed=4, with_join=True)
    for _, conventions in CONVENTION_SET:
        assert_decorrelation_agrees(query, db, conventions)


def test_paper_correlated_workloads_decorrelation_agrees():
    for key, db_factory in [
        ("eq2", instances.lateral_instance),
        ("eq7", lambda: sweeps.size_sweep_database(40, seed=9)),
        ("eq10", instances.payroll_instance),
        ("eq15", instances.conventions_instance),
        ("eq12", instances.payroll_instance),  # uncorrelated: materialize-once
    ]:
        node = parse(paper_examples.ARC[key])
        db = db_factory()
        for _, conventions in CONVENTION_SET:
            assert_decorrelation_agrees(node, db, conventions)


def test_grouped_over_empty_relation_agrees():
    db = Database()
    db.create("R", ("A", "B"), [])
    for grouped_key in (True, False):
        for func in ("sum", "count"):
            query = _grouped_query(func, grouped_key=grouped_key)
            for _, conventions in CONVENTION_SET:
                assert_agree(query, db, conventions)


def test_grouped_all_null_group_agrees():
    db = Database()
    db.create("R", ("A", "B"), [(1, NULL), (1, NULL), (2, 5)])
    for func in AGG_FUNCS:
        query = _grouped_query(func)
        for _, conventions in CONVENTION_SET:
            assert_agree(query, db, conventions)


def test_nan_join_keys_agree():
    """NaN never satisfies '=', so an index probe must not match it either."""
    nan = float("nan")
    db = Database()
    db.create("R", ("A",), [(nan,), (1.0,)])
    db.create("S", ("A",), [(nan,), (1.0,)])
    query = parse("{Q(out) | ∃r ∈ R, s ∈ S[Q.out = 1 ∧ s.A = r.A]}")
    for _, conventions in CONVENTION_SET:
        assert_agree(query, db, conventions)
    grouped = _grouped_query("count")
    db2 = Database()
    db2.create("R", ("A", "B"), [(nan, 1), (nan, 2), (1, 3)])
    for _, conventions in CONVENTION_SET:
        assert_agree(grouped, db2, conventions)


# -- recursion and mutation ---------------------------------------------------


def test_transitive_closure_agrees():
    db = generators.parent_edges(30, seed=21, extra_edges=10)
    query = parse(paper_examples.ARC["eq16"])
    for _, conventions in CONVENTION_SET:
        assert_agree(query, db, conventions)


def test_results_track_relation_mutation():
    """Cached indexes and materialized aggregates must invalidate on add."""
    db = sweeps.size_sweep_database(50, seed=3)
    query = sweeps.grouped_aggregate_query()
    first = evaluate(query, db, SET_CONVENTIONS)
    assert first == evaluate(query, db, SET_CONVENTIONS)  # warm cache
    db["R"].add((99, 7))
    second = evaluate(query, db, SET_CONVENTIONS)
    assert second == evaluate(query, db, SET_CONVENTIONS, options=ORACLE)
    assert first != second

    join = sweeps.join_chain_query(2)
    db2 = generators.chain_database(2, 25, domain=5, seed=6)
    first_join = evaluate(join, db2, SET_CONVENTIONS)
    db2["R1"].add((99, 99))
    db2["R0"].add((99, 99))  # A=99 is outside the generated domain
    assert evaluate(join, db2, SET_CONVENTIONS) == evaluate(
        join, db2, SET_CONVENTIONS, options=ORACLE
    )
    assert first_join != evaluate(join, db2, SET_CONVENTIONS)
