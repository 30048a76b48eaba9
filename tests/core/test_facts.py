"""One pass per static question: the node walkers and ``facts`` keep the
answers of the direct recursive walks they replace.

Inputs are every paper example, the scenario corpus in every frontend, and
hypothesis-built trees.  The references below are the straightforward
recursive definitions (over ``dataclasses.fields``) that the cached,
explicit-stack implementations must agree with.
"""

import dataclasses
import functools
import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import nodes as n
from repro.core.scopes import free_variables
from repro.data.values import NULL, is_null
from repro.engine.joins import annotation_consts, annotation_vars
from repro.frontends import load_query
from repro.workloads import paper_examples
from repro.workloads.scenarios import SCENARIOS


def paper_nodes():
    out = [(f"arc:{key}", paper_examples.arc(key)) for key in paper_examples.all_arc_keys()]
    out += [
        (f"sql:{key}", paper_examples.sql_arc(key))
        for key in paper_examples.all_sql_keys()
    ]
    return out


def corpus_nodes():
    """``(id, node, catalog)`` for every corpus cell in every frontend."""
    out = []
    for scenario in SCENARIOS.values():
        db = scenario.catalog(size="small", seed=0)
        for query in scenario.queries():
            for frontend, text in sorted(query.texts.items()):
                node = load_query(text, frontend, database=db)
                out.append((f"{scenario.name}.{query.name}.{frontend}", node, db))
    return out


PAPER = paper_nodes()
CORPUS = corpus_nodes()
ALL = PAPER + [(name, node) for name, node, _ in CORPUS]


# -- recursive references ------------------------------------------------------


def ref_children(node):
    if isinstance(node, n.Program):
        out = list(node.definitions.values())
        return out + [node.main] if isinstance(node.main, n.Node) else out
    out = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, n.Node):
            out.append(value)
        elif isinstance(value, (list, tuple)):
            out.extend(item for item in value if isinstance(item, n.Node))
    return out


def ref_walk(node):
    yield node
    for child in ref_children(node):
        yield from ref_walk(child)


def ref_rebuild(node, fn):
    """Recursive clone (``fn`` = identity) or transform over the fields."""
    if not isinstance(node, n.Node):
        return node
    kwargs = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, list):
            kwargs[f.name] = [ref_rebuild(v, fn) for v in value]
        elif isinstance(value, tuple):
            kwargs[f.name] = tuple(ref_rebuild(v, fn) for v in value)
        elif isinstance(value, dict):
            kwargs[f.name] = {k: ref_rebuild(v, fn) for k, v in value.items()}
        else:
            kwargs[f.name] = ref_rebuild(value, fn)
    return fn(type(node)(**kwargs))


def ref_free(node, bound=frozenset()):
    """Free variables by the scope-aware recursion ``facts`` replaced."""
    if isinstance(node, n.Attr):
        return set() if node.var in bound else {node.var}
    if isinstance(node, n.Collection):
        return ref_free(node.body, bound | {node.head.name})
    if isinstance(node, n.Quantifier):
        free = set()
        scope = set(bound)
        for binding in node.bindings:
            # A binding's source sees earlier bindings of the same scope
            # (lateral nesting), not itself.
            free |= ref_free(binding.source, frozenset(scope))
            scope.add(binding.var)
        inner = frozenset(scope)
        free |= ref_free(node.body, inner)
        if node.grouping is not None:
            for key in node.grouping.keys:
                free |= ref_free(key, inner)
        return free
    free = set()
    for child in ref_children(node):
        free |= ref_free(child, bound)
    return free


def ref_facts(node):
    """What each replaced analysis read, by its own direct walk."""
    walked = list(ref_walk(node))

    def scoped(sub):
        return any(isinstance(s, (n.Quantifier, n.Collection)) for s in ref_walk(sub))

    return {
        "relation_refs": tuple(s.name for s in walked if isinstance(s, n.RelationRef)),
        "heads": frozenset(s.head.name for s in walked if isinstance(s, n.Collection)),
        "aggregates": tuple(s for s in walked if isinstance(s, n.AggCall)),
        "null_literal": any(
            isinstance(s, n.Const) and is_null(s.value) for s in walked
        ),
        "negated_quantifier": any(
            isinstance(s, n.Not) and scoped(s.child) for s in walked
        ),
        "arithmetic": tuple(
            (s.op, s.left, s.right) for s in walked if isinstance(s, n.Arith)
        ),
        "comparisons": tuple(
            (s.op, s.left, s.right) for s in walked if isinstance(s, n.Comparison)
        ),
        "vars": frozenset(s.var for s in walked if isinstance(s, n.Attr)),
        "free": frozenset(ref_free(node)),
        "join_vars": frozenset(s.var for s in walked if isinstance(s, n.JoinVar)),
        "join_consts": frozenset(
            s.value for s in walked if isinstance(s, n.JoinConst)
        ),
        "scoped": scoped(node),
    }


def check_node(node):
    walked = list(node.walk())
    assert [id(s) for s in walked] == [id(s) for s in ref_walk(node)]
    for sub in walked:
        assert list(sub.children()) == ref_children(sub)
    assert n.facts(node)._asdict() == ref_facts(node)
    assert n.facts(node) is n.facts(node)
    # One walk records every subtree: each one is now a hit, and each
    # record equals the direct walk of that subtree.
    for sub in walked:
        if type(sub) not in n._LEAVES and not isinstance(sub, n.AggCall):
            assert sub in n._FACTS, sub
        found = n.facts(sub)
        assert found._asdict() == ref_facts(sub)
        assert n.vars_used(sub) == found.vars
        assert free_variables(sub) == found.free
        if isinstance(sub, n.JoinExpr):
            assert annotation_vars(sub) == found.join_vars
            assert annotation_consts(sub) == found.join_consts
    for sub in walked:
        if isinstance(sub, n.Comparison):
            assert sub.has_aggregate() == any(
                isinstance(s, n.AggCall) for s in ref_walk(sub)
            )
    copy = n.clone(node)
    assert n.structurally_equal(copy, node)
    assert repr(copy) == repr(node) == repr(ref_rebuild(node, lambda x: x))
    assert not {id(s) for s in copy.walk()} & {id(s) for s in walked}

    def rename(sub):
        if isinstance(sub, n.Attr):
            return n.Attr(sub.var + "_", sub.attr)
        return sub

    renamed = n.transform(node, rename)
    assert repr(renamed) == repr(ref_rebuild(node, rename))
    assert n.structurally_equal(renamed, node) == (
        not any(isinstance(s, n.Attr) for s in walked)
    )


@pytest.mark.parametrize("name,node", ALL, ids=[name for name, _ in ALL])
def test_walkers_and_facts_match_the_recursive_references(name, node):
    check_node(node)


# -- hypothesis-built trees ----------------------------------------------------

names = st.sampled_from(["r", "s", "t", "Q"])
attrs = st.sampled_from(["A", "B"])
consts = st.sampled_from([0, 1, 2.5, "x", "O'Brien", NULL, True])

exprs = st.recursive(
    st.one_of(st.builds(n.Attr, names, attrs), st.builds(n.Const, consts)),
    lambda inner: st.one_of(
        st.builds(n.Arith, st.sampled_from(n.ARITHMETIC_OPS), inner, inner),
        st.builds(n.AggCall, st.sampled_from(["sum", "min", "count"]), inner),
        st.builds(n.AggCall, st.just("count"), st.none()),
    ),
    max_leaves=4,
)
atoms = st.one_of(
    st.builds(n.Comparison, exprs, st.sampled_from(n.COMPARISON_OPS), exprs),
    st.builds(n.IsNull, exprs, st.booleans()),
    st.builds(n.BoolConst, st.booleans()),
)


def _collection(body):
    return st.builds(n.Collection, st.builds(n.Head, names, st.just(("A",))), body)


def _quantifier(body):
    source = st.one_of(
        st.builds(n.RelationRef, st.sampled_from(["R", "S", "Q"])), _collection(body)
    )
    return st.builds(
        n.Quantifier,
        st.lists(st.builds(n.Binding, names, source), min_size=1, max_size=2),
        body,
        st.one_of(
            st.none(),
            st.builds(n.Grouping, st.lists(exprs, max_size=2).map(tuple)),
        ),
        st.one_of(
            st.none(),
            st.builds(
                n.Join,
                st.just("inner"),
                st.lists(
                    st.one_of(st.builds(n.JoinVar, names), st.builds(n.JoinConst, consts)),
                    max_size=2,
                ),
            ),
        ),
    )


formulas = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(n.And, st.lists(inner, max_size=3)),
        st.builds(n.Or, st.lists(inner, max_size=3)),
        st.builds(n.Not, inner),
        _quantifier(inner),
    ),
    max_leaves=8,
)
roots = st.one_of(
    _collection(formulas),
    st.builds(n.Sentence, formulas),
    st.builds(
        lambda coll, main: n.Program({coll.head.name: coll}, main),
        _collection(formulas),
        st.one_of(st.none(), st.builds(n.Sentence, formulas)),
    ),
)


@settings(max_examples=200, deadline=None)
@given(roots)
def test_generated_trees_match_the_recursive_references(root):
    check_node(root)


def _recorded(sub):
    return type(sub) not in n._LEAVES and not isinstance(sub, n.AggCall)


@pytest.mark.parametrize("name,node", ALL, ids=[name for name, _ in ALL])
def test_one_walk_records_every_subtree(name, node, monkeypatch):
    """``facts(root)`` of a never-seen tree walks it once and leaves a
    record for every subtree but the leaves and AggCalls, so no later
    ``facts(sub)`` walks again."""
    monkeypatch.setattr(n, "_FACTS", weakref.WeakKeyDictionary())
    copy = n.clone(node)
    walks = []
    for cls in (n.Node, n.Program):

        def counting(self, _children=cls.children):
            walks.append(self)
            return _children(self)

        monkeypatch.setattr(cls, "children", counting)
    n.facts(copy)
    expanded = [sub for sub in ref_walk(copy) if type(sub) not in n._LEAVES]
    assert sorted(map(id, walks)) == sorted(map(id, expanded))
    recorded = {id(sub) for sub in ref_walk(copy) if _recorded(sub)}
    assert {id(sub) for sub in n._FACTS.keys()} == recorded
    walks.clear()
    for sub in ref_walk(copy):
        n.facts(sub)
    assert [sub for sub in walks if not isinstance(sub, n.AggCall)] == []


def _trees():
    yield "equality", lambda: n.Comparison(n.Attr("r", "A"), "=", n.Const(1))
    yield "arithmetic", lambda: n.Arith("+", n.Attr("r", "A"), n.Const(1))
    yield "aggregate", lambda: n.AggCall("sum", n.Attr("r", "A"))
    for name, node in ALL:
        yield name, lambda node=node: n.clone(node)


TREES = list(_trees())


#: Never-seen self-recursive texts: each wraps into a fresh program.
RECURSIVE_TEXTS = [
    f"{{T{i}(s, t) | ∃p ∈ P[T{i}.s = p.s ∧ T{i}.t = p.t] ∨ "
    f"∃p ∈ P, a ∈ T{i}[T{i}.s = p.s ∧ p.t = a.s ∧ T{i}.t = a.t]}}"
    for i in range(50)
]


def _record_tree(make):
    """Record one tree's facts; weak references to its subtrees."""
    node = make()
    n.facts(node)
    return [weakref.ref(sub) for sub in ref_walk(node)]


def _run_everywhere():
    """Every corpus text and every recursive text on the reference, the
    planner and SQLite with decorrelation on and off; weak references to
    the queries it prepared, none of which outlives the call."""
    from repro.api import EvalOptions, Session
    from repro.core.conventions import SQL_CONVENTIONS
    from repro.data import Database

    edges = Database()
    edges.create("P", ("s", "t"), [("a", "b"), ("b", "c"), ("c", "a")])
    work = [
        (scenario.catalog(size="small", seed=0), [
            (text, frontend)
            for query in scenario.queries()
            for frontend, text in sorted(query.texts.items())
        ])
        for scenario in SCENARIOS.values()
    ] + [(edges, [(text, "arc") for text in RECURSIVE_TEXTS])]
    options = [
        EvalOptions(backend="reference"),
        EvalOptions(backend="planner"),
        EvalOptions(backend="sqlite"),
        EvalOptions(backend="sqlite", decorrelate=False),
    ]
    refs = []
    for db, texts in work:
        for option in options:
            session = Session(db, SQL_CONVENTIONS, options=option)
            for text, frontend in texts:
                prepared = session.prepare(text, frontend)
                prepared.run_info()
                refs.append(weakref.ref(prepared.node))
    return refs


@pytest.mark.parametrize(
    "run",
    [functools.partial(_record_tree, make) for _, make in TREES] + [_run_everywhere],
    ids=[k for k, _ in TREES] + ["every-engine"],
)
def test_facts_do_not_keep_their_node_alive(run, monkeypatch):
    """Every per-node cache is weak, and no entry holds its own key: a
    record referring to its node (or to a program wrapping it) would keep
    a never-seen text's AST, and the entry, alive for good."""
    from repro.backends.exec import sqlite_exec
    from repro.engine import decorrelate, fixpoint, planner

    caches = {
        "nodes._FACTS": (n, "_FACTS"),
        "planner._PLAN_CACHE": (planner, "_PLAN_CACHE"),
        "decorrelate._SPECS": (decorrelate, "_SPECS"),
        "fixpoint._ANALYSES": (fixpoint, "_ANALYSES"),
        "sqlite_exec._COMPILED": (sqlite_exec, "_COMPILED"),
    }
    for module, name in caches.values():
        monkeypatch.setattr(module, name, weakref.WeakKeyDictionary())
    refs = run()
    gc.collect()
    assert [ref() for ref in refs if ref() is not None] == []
    left = {
        label: len(getattr(module, name))
        for label, (module, name) in caches.items()
    }
    assert left == dict.fromkeys(caches, 0)
