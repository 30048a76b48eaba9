"""The engine's static analyses keep their answers on one analysis pass.

* ``fixpoint._analysis`` links a program once instead of validating it
  once per definition; its stratification error and abstract names equal
  what :func:`validate` reports.
* The validator's relation classification reads ``facts`` instead of
  walking the root once per unresolved reference.
* The SQLite capability probe reads ``facts``; with a ``facts`` built from
  the direct walks it replaced, its reasons are the same.
"""

import pytest

from repro.backends.exec import sqlite_exec
from repro.core import nodes as n
from repro.core.conventions import (
    SET_CONVENTIONS,
    SOUFFLE_CONVENTIONS,
    SQL_CONVENTIONS,
)
from repro.core.parser import parse
from repro.core.validator import validate
from repro.engine import fixpoint
from repro.engine.externals import standard_registry
from tests.core.test_facts import CORPUS, PAPER, ref_facts, ref_walk


def _programs():
    """Every program the fixpoint sees: each Program, and each collection
    wrapped the way the evaluator wraps a self-recursive one."""
    out = []
    for name, node in PAPER + [(name, node) for name, node, _ in CORPUS]:
        if isinstance(node, n.Collection):
            node = n.Program({node.head.name: node}, node.head.name)
        if isinstance(node, n.Program):
            out.append((name, node))
    return out


PROGRAMS = _programs() + [
    (
        "not-stratified",
        parse(
            "{A(s) | ∃p ∈ P[A.s = p.s ∧ ¬(∃a ∈ A[a.s = p.t])]}"
        ),
    ),
    (
        "does-not-link",
        n.Program(
            {
                "V": parse("{V(x) | ∃p ∈ P[V.x = q.s]}"),
                "W": parse("{W(x) | ∃p ∈ P[p.s < W.x]}"),
            },
            "V",
        ),
    ),
]
PROGRAMS = [
    (name, node if isinstance(node, n.Program) else n.Program({"A": node}, "A"))
    for name, node in PROGRAMS
]


def validate_analysis(program):
    """Stratification error and abstract names, as validating reports them."""
    report = validate(program, allow_abstract=True)
    error = "; ".join(str(i) for i in report.errors() if i.code == "stratification")
    abstract = frozenset(
        name
        for name, definition in program.definitions.items()
        if validate(definition, allow_abstract=True).is_abstract
    )
    return error, abstract


@pytest.mark.parametrize("name,program", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_analysis_equals_the_validate_answer(name, program):
    error, abstract, order = fixpoint._analysis(program)
    assert (error, abstract) == validate_analysis(program)
    assert sorted(sum((c for c, _ in order), [])) == sorted(
        set(program.definitions) - abstract
    )


def test_analysis_of_the_abstract_subset_program():
    """Section 2.13.2: ``Sub`` reads its head attributes as inputs."""
    program = dict(PROGRAMS)["arc:eq23_24"]
    error, abstract, order = fixpoint._analysis(program)
    assert (error, abstract, order) == ("", frozenset({"Sub"}), ())


def test_stratification_and_link_failures_match():
    analyses = {name: fixpoint._analysis(p) for name, p in PROGRAMS[-2:]}
    assert "stratification" in analyses["not-stratified"][0]
    assert analyses["does-not-link"][:2] == ("", frozenset({"W"}))


def test_a_prepared_recursive_collection_is_analysed_once(monkeypatch):
    """The evaluator wraps a self-recursive collection into a fresh program
    on every run; the wrap's analysis is keyed on the collection, so ten
    planner runs of one prepared query link it once."""
    from repro.api import Session
    from repro.data import Database

    db = Database()
    db.create("P", ("s", "t"), [(1, 2), (2, 3)])
    prepared = Session(db).prepare(
        "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
        "∃p ∈ P, a ∈ A[A.s = p.s ∧ p.t = a.s ∧ A.t = a.t]}"
    )
    calls = []
    original = fixpoint.linked_or_none
    monkeypatch.setattr(
        fixpoint, "linked_or_none", lambda root: calls.append(root) or original(root)
    )
    for _ in range(10):
        assert len(prepared.run(backend="planner")) == 3
    assert len(calls) == 1


# -- relation classification -----------------------------------------------------


def ref_classification(root, database):
    """Kinds and unknown-relation errors by a walk per reference."""
    externals = standard_registry()
    definitions = root.definitions if isinstance(root, n.Program) else {}
    if isinstance(root, n.Program):
        main = root.resolve_main()
        parts = list(definitions.values())
        if main is not None and main not in parts:
            parts.append(main)
    else:
        parts = [root]
    walked = [sub for part in parts for sub in ref_walk(part)]
    kinds, errors = {}, []
    for sub in walked:
        if not isinstance(sub, n.RelationRef):
            continue
        name = sub.name
        if name in definitions:
            kind = "defined"
        elif database is not None and name in database:
            kind = "base"
        elif name in externals:
            kind = "external"
        elif any(isinstance(c, n.Collection) and c.head.name == name for c in walked):
            kind = "self"
        else:
            kind = "unknown"
            if database is not None:
                errors.append(name)
        kinds[name] = kind
    return kinds, errors


CELLS = [(name, node, None) for name, node in PAPER] + CORPUS
CELLS += [(name + ":nodb", node, None) for name, node, _ in CORPUS]


@pytest.mark.parametrize("name,node,db", CELLS, ids=[c[0] for c in CELLS])
def test_relation_kinds_are_unchanged(name, node, db):
    report = validate(node, database=db, allow_abstract=True)
    kinds, unknown = ref_classification(node, db)
    assert report.relation_kinds == kinds
    assert [
        i.message.split("'")[1] for i in report.issues if i.code == "unknown-relation"
    ] == unknown


# -- the SQLite capability probe ---------------------------------------------------


def _walked_facts(node):
    return n.Facts(**ref_facts(node))


@pytest.mark.parametrize(
    "name,node,db", CORPUS, ids=[name for name, _, _ in CORPUS]
)
def test_probe_reasons_equal_the_direct_walk_reasons(name, node, db, monkeypatch):
    backend = sqlite_exec.SqliteBackend()
    cases = [
        (conventions, decorrelate)
        for conventions in (SQL_CONVENTIONS, SOUFFLE_CONVENTIONS, SET_CONVENTIONS)
        for decorrelate in (True, False)
    ]
    with_facts = [
        backend.capabilities(node, c, db, decorrelate=d) for c, d in cases
    ]
    monkeypatch.setattr(n, "facts", _walked_facts)
    assert with_facts == [
        backend.capabilities(node, c, db, decorrelate=d) for c, d in cases
    ]
