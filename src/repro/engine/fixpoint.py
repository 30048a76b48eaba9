"""Least-fixed-point evaluation of programs with defined relations.

Section 2.9 of the paper: ARC supports recursion with the same
least-fixed-point semantics as Datalog, expressed in the named perspective —
a recursive relation is defined by a single collection whose body is the
disjunction of its rules.

This module materializes a program's definitions bottom-up:

1. definitions are classified (abstract definitions are registered as
   :class:`~repro.engine.abstract.AbstractSource` access-pattern modules,
   never materialized);
2. the dependency graph over defined names is condensed into strongly
   connected components, evaluated in topological order;
3. non-recursive components evaluate once; recursive components iterate
   **naive** or **semi-naive** fixpoint under set semantics until no
   relation changes.

The validator's stratification check guarantees monotonicity (no recursion
through negation or aggregation), so the iteration converges on finite
inputs.
"""

from __future__ import annotations

import weakref

from ..core import nodes as n
from ..core.validator import (
    abstract_definitions,
    dependency_graph,
    linked_or_none,
    stratification_issues,
    strongly_connected,
)
from ..data.relation import Relation
from ..errors import EvaluationError, ValidationError
from ..obs import NULL_SPAN
from .abstract import AbstractSource


def recursive_program(node, stored, externals):
    """The one-definition program *node* denotes when it is a collection
    reading its own head name (Section 2.9), or None.  A name that is
    stored (in *stored*) or external (in *externals*, Section 2.13) is
    read, not defined.  Every engine, SQLite included, wraps by this rule.
    """
    if not isinstance(node, n.Collection):
        return None
    name = node.head.name
    if name in stored or name in externals or name not in n.facts(node).relation_refs:
        return None
    return n.Program({name: node}, name)


def materialize_program(program, evaluator, *, seminaive=True):
    """Fill ``evaluator.defined`` / ``evaluator.abstract`` from *program*."""
    stratification_error, abstract_names, order = _analysis(program)
    if stratification_error:
        raise ValidationError(stratification_error)

    for name in abstract_names:
        evaluator.abstract[name] = AbstractSource(program.definitions[name], evaluator)

    definitions = program.definitions
    for component, recursive in order:
        if not recursive:
            name = component[0]
            evaluator.defined[name] = _evaluate_definition(definitions[name], evaluator)
        else:
            _solve_recursive(component, definitions, evaluator, seminaive=seminaive)


_ANALYSES = weakref.WeakKeyDictionary()


def _analysis(program):
    """``(stratification error, abstract names, SCC order)`` of *program*.

    The analysis depends on the AST alone and holds only names, so it is
    computed once per program and weakly cached — keyed on the definition
    for a one-definition program named by its head, the wrap
    :func:`recursive_program` builds afresh on every run.  The order lists
    each strongly connected component of the concrete definitions,
    dependencies first, with whether it is recursive.
    """
    key = program
    if isinstance(program.main, str) and len(program.definitions) == 1:
        only = program.definitions.get(program.main)
        if only is not None and only.head.name == program.main:
            key = only
    analysis = _ANALYSES.get(key)
    if analysis is not None:
        return analysis
    linked = linked_or_none(program)
    dependencies = dependency_graph(program)
    # validate() checks stratification only once the program links.
    stratification_error = "" if linked is None else "; ".join(
        str(issue) for issue in stratification_issues(program, dependencies)
    )
    abstract_names = abstract_definitions(program, linked)
    graph = {
        name: [
            target
            for target, _ in dependencies.get(name, [])
            if target in program.definitions and target not in abstract_names
        ]
        for name in program.definitions
        if name not in abstract_names
    }
    order = tuple(
        (component, len(component) > 1 or component[0] in graph[component[0]])
        for component in strongly_connected(graph)
    )
    analysis = (stratification_error, abstract_names, order)
    _ANALYSES[key] = analysis
    return analysis


def _evaluate_definition(definition, evaluator):
    # _eval_collection already applies set-normalization and yields
    # head-schema Tuples, so the relation can adopt the counter directly.
    counter = evaluator._eval_collection(definition, {})
    return evaluator._relation_from_counter(definition.head, counter)


def _solve_recursive(component, definitions, evaluator, *, seminaive):
    """Naive or semi-naive least fixed point over one recursive component.

    Recursion is evaluated under set semantics regardless of the bag
    convention (the standard Datalog choice; bag recursion generally has no
    finite fixed point).
    """
    solver = _solve_seminaive if seminaive else _solve_naive
    tracer = evaluator.tracer
    with NULL_SPAN if tracer is None else tracer.span(
        "fixpoint.solve",
        component=",".join(sorted(component)),
        strategy="seminaive" if seminaive else "naive",
    ) as span:
        rounds = solver(component, definitions, evaluator)
        span.tag(rounds=rounds)
    return rounds


def _solve_naive(component, definitions, evaluator):
    """Re-evaluate every definition against the full relations until no
    relation grows — the textbook naive iteration."""
    for name in component:
        head = definitions[name].head
        evaluator.defined[name] = Relation(name, head.attrs)

    deadline = evaluator.deadline
    tracer = evaluator.tracer
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        if iterations > 100_000:
            raise EvaluationError(
                f"fixpoint for {sorted(component)} did not converge"
            )
        if deadline is not None:
            # One clock read per round: a round is the natural coarse
            # checkpoint for a fixpoint that may never converge in bounds.
            deadline.check()
        with NULL_SPAN if tracer is None else tracer.span(
            "fixpoint.round", round=iterations
        ):
            changed = False
            for name in component:
                definition = definitions[name]
                counter = evaluator._eval_collection(definition, {})
                new_rows = set(counter)
                old_relation = evaluator.defined[name]
                old_rows = set(old_relation.iter_distinct())
                union = old_rows | new_rows
                if union != old_rows:
                    changed = True
                    merged = Relation(name, definition.head.attrs)
                    for row in union:
                        merged.add(row)
                    evaluator.defined[name] = merged
    return iterations


def _solve_seminaive(component, definitions, evaluator):
    """Incremental semi-naive iteration.

    Recursive disjuncts are re-evaluated once per recursive *occurrence*,
    with that occurrence restricted to the previous iteration's delta.
    Every new derivation must use at least one newly derived fact, so
    replacing one recursive reference by the delta (and keeping the full
    relation for the others) covers all new tuples; it may re-derive a few
    known ones, which the ``known`` check discards.  This is the standard
    inflationary semi-naive variant without rule stratification.

    The iteration state is maintained incrementally across rounds:

    * the delta-rewritten disjunct variants (and their Collection wrappers)
      are built **once per component**, not once per round, so the planner's
      per-node plan cache stays hot across the whole fixpoint;
    * each name's full relation is one :class:`Relation` object that grows
      by :meth:`~repro.data.relation.Relation.extend_new`, which appends the
      round's delta rows to the cached hash indexes *in place* — the planner
      probes delta→full without rebuilding full-relation indexes each round
      (the per-round delta relations are small and re-indexed from scratch;
      the full relations are large and maintained incrementally);
    * the ``known`` sets of derived rows persist across rounds instead of
      being re-materialized from the full relations.
    """
    component_set = set(component)
    delta_name = {name: f"Δ{name}" for name in component}

    base_parts = {}
    delta_parts = {}
    for name in component:
        definition = definitions[name]
        head = definition.head
        disjuncts = (
            definition.body.children_list
            if isinstance(definition.body, n.Or)
            else [definition.body]
        )
        base_parts[name] = [
            n.Collection(n.Head(name, head.attrs), disjunct)
            for disjunct in disjuncts
            if not _references(disjunct, component_set)
        ]
        delta_parts[name] = [
            n.Collection(n.Head(name, head.attrs), variant)
            for disjunct in disjuncts
            if _references(disjunct, component_set)
            for variant in _delta_variants(disjunct, component_set, delta_name)
        ]

    # Iteration 0: every definition over the empty component relations.  A
    # recursive disjunct runs through its delta variants over empty Δ
    # relations — the same disjunct over no facts, on the plans round 1
    # reuses — because a mention under ∨ can still derive rows from none.
    full = {}
    for name in component:
        attrs = definitions[name].head.attrs
        full[name] = evaluator.defined[name] = Relation(name, attrs)
        evaluator.defined[delta_name[name]] = Relation(delta_name[name], attrs)
    known = {
        name: {
            row
            for part in base_parts[name] + delta_parts[name]
            for row in evaluator._eval_collection(part, {})
        }
        for name in component
    }
    for name, rows in known.items():
        full[name].extend_new(rows)
    deltas = dict(known)

    deadline = evaluator.deadline
    tracer = evaluator.tracer
    iterations = 0
    while any(deltas.values()):
        iterations += 1
        if iterations > 100_000:
            raise EvaluationError(
                f"fixpoint for {sorted(component)} did not converge"
            )
        if deadline is not None:
            deadline.check()
        with NULL_SPAN if tracer is None else tracer.span(
            "fixpoint.round", round=iterations
        ) as round_span:
            # Expose the deltas as relations the rewritten disjuncts can read.
            for name in component:
                delta_rel = Relation(delta_name[name], definitions[name].head.attrs)
                delta_rel.extend_new(deltas[name])
                evaluator.defined[delta_name[name]] = delta_rel
            new_deltas = {name: set() for name in component}
            for name in component:
                seen = known[name]
                fresh = new_deltas[name]
                for part in delta_parts[name]:
                    for row in evaluator._eval_collection(part, {}):
                        if row not in seen:
                            seen.add(row)
                            fresh.add(row)
            for name in component:
                # Delta-aware growth: append the fresh rows to the full
                # relation's cached indexes instead of invalidating them.
                full[name].extend_new(new_deltas[name])
            round_span.tag(
                new_rows=sum(len(rows) for rows in new_deltas.values())
            )
        deltas = new_deltas
    for name in component:
        evaluator.defined.pop(delta_name[name], None)
    return iterations


def _references(formula, names):
    return not names.isdisjoint(n.facts(formula).relation_refs)


def _delta_variants(disjunct, component_set, delta_name):
    """One copy of *disjunct* per recursive occurrence, with exactly that
    occurrence redirected to its delta relation."""
    occurrences = sum(
        name in component_set for name in n.facts(disjunct).relation_refs
    )
    for target_index in range(occurrences):
        seen = [0]

        def redirect(node, target=target_index):
            if isinstance(node, n.RelationRef) and node.name in component_set:
                index = seen[0]
                seen[0] += 1
                if index == target:
                    return n.RelationRef(delta_name[node.name])
            return node

        yield n.transform(disjunct, redirect)


def transitive_closure_reference(pairs):
    """Reference transitive closure used by tests/benchmarks (Warshall-style).

    *pairs* is an iterable of (source, target); returns the set of reachable
    (source, target) pairs — the paper's ancestor query (16).
    """
    edges = set(pairs)
    adjacency = {}
    for source, target in edges:
        adjacency.setdefault(source, set()).add(target)
    closure = set()
    for start in adjacency:
        stack = list(adjacency[start])
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            stack.extend(adjacency.get(node, ()))
    return closure
