"""Pattern-level rewrites over ARC queries.

Each rewrite is the ARC-level formulation of a transformation the paper
discusses, together with its applicability conditions:

* :func:`unnest` — merge a nested quantifier into its parent scope.  Valid
  under set semantics; **refused under bag semantics** because unnesting
  multiplies output multiplicities (Section 2.7).  Inner variables that
  clash with names of the parent scope are renamed; a scope whose renaming
  a further nested scope could capture stays nested.
* :func:`unnest_lateral` — the same unnesting applied to a non-grouped
  lateral binding, which is sound under bag semantics too; the SQL
  lowering (:func:`repro.backends.sql_render.rewrite_for_sql`) uses it.
* :func:`nest_existential` — the inverse: push bindings into a nested
  existential scope (semijoin form).
* :func:`not_in_to_not_exists` — replicate SQL's three-valued NOT IN
  behaviour in two-valued logic by adding explicit IS NULL checks
  (Section 2.10, Fig. 11, eq. (17)).
* :func:`distinct_as_grouping` — deduplication via grouping on all
  projected attributes (Section 2.7).
* :func:`decorrelate_scalar` — the **correct** decorrelation of a
  correlated scalar-aggregate test (count-bug version 1) into the lateral
  left-join + grouping form (version 3, eq. (29)).  It applies when the
  γ∅ scope holds exactly one aggregate comparison (any operator, the
  aggregate on either side) and correlates only through equalities
  between inner and outer expressions over **one** outer relation; each
  equality becomes a key column of the derived table.  A θ correlation
  or keys from two outer relations raise :class:`RewriteError`.  The
  correlated outer attributes must be a key of that relation: eq. (29)
  left-joins a copy of it, so duplicate outer keys multiply the inner
  group.
* :func:`decorrelate_scalar_naive` — the **incorrect** textbook rewrite
  (version 2, eq. (28)); kept as a counterexample generator for the count
  bug (Section 3.2).  Same applicability conditions.
* :func:`inline_abstract` — replace bindings to an abstract relation by the
  substituted definition body (Section 2.13.2), the inverse of
  modularization.

Fresh names (derived tables, copies of the outer relation, renamed inner
variables) never clash with a name the query already uses.
"""

from __future__ import annotations

from itertools import count as _counter

from ..errors import RewriteError
from . import nodes as n
from .conventions import SET_CONVENTIONS
from .scopes import (
    assignment_of,
    fresh_name,
    names_in,
    orient_aggregate,
    renames_apart,
    shadows_binding,
    substitute,
)


# ---------------------------------------------------------------------------
# Unnesting (Section 2.7)
# ---------------------------------------------------------------------------


def unnest(collection, conventions=SET_CONVENTIONS):
    """Merge directly nested existential scopes into their parent scope.

    ``{Q(A) | ∃r∈R[∃s∈S[...]]}`` becomes ``{Q(A) | ∃r∈R, s∈S[...]}``.
    Refused under bag semantics: the nested form emits once per outer
    witness, the flat form once per combination (Section 2.7).
    """
    if conventions.is_bag:
        raise RewriteError(
            "unnesting is not semantics-preserving under bag conventions: "
            "the nested form has semijoin multiplicity, the flat form "
            "multiplies multiplicities per matching pair"
        )
    changed = True
    body = collection.body
    while changed:
        body, changed = _unnest_once(body)
    return n.Collection(n.Head(collection.head.name, collection.head.attrs), body)


def _unnest_once(formula):
    if isinstance(formula, n.Quantifier):
        conjuncts = n.conjuncts(formula.body)
        for index, conjunct in enumerate(conjuncts):
            if (
                isinstance(conjunct, n.Quantifier)
                and conjunct.grouping is None
                and conjunct.join is None
                and formula.grouping is None
                and formula.join is None
            ):
                renames = renames_apart(formula, conjunct, skip=conjunct)
                if renames is None:
                    continue  # a nested scope could capture the rename
                inner = substitute(conjunct, renames)
                rest = conjuncts[:index] + conjuncts[index + 1 :]
                merged_body = n.make_and(rest + n.conjuncts(inner.body))
                return (
                    n.Quantifier(formula.bindings + inner.bindings, merged_body),
                    True,
                )
        new_body, changed = _unnest_once(formula.body)
        if changed:
            return n.Quantifier(formula.bindings, new_body, formula.grouping, formula.join), True
        return formula, False
    if isinstance(formula, (n.And, n.Or)):
        new_children = []
        changed = False
        for child in formula.children_list:
            new_child, child_changed = _unnest_once(child)
            new_children.append(new_child)
            changed = changed or child_changed
        rebuilt = type(formula)(new_children)
        return rebuilt, changed
    if isinstance(formula, n.Not):
        new_child, changed = _unnest_once(formula.child)
        return n.Not(new_child), changed
    return formula, False


def unnest_lateral(quant, binding):
    """Unnest the non-grouped lateral *binding* of scope *quant*.

    The paper's unnesting (Section 2.7) applied to a binding instead of an
    existential conjunct.  Returns ``(inner bindings, moved row formulas,
    {(var, attr): expr})`` — what replaces *binding* in *quant*, and the
    head assignments that replace its ``var.attr`` references — or None
    when the shape is unsafe.  Sound under bag semantics, unlike
    :func:`unnest`: a non-grouped collection emits one head tuple per
    satisfying inner combination, so binding the inner rows directly
    preserves multiplicities for *any* correlation predicate.
    """
    source = binding.source
    body = source.body
    if (
        not isinstance(body, n.Quantifier)
        or body.grouping is not None
        or body.join is not None
        or not all(isinstance(b.source, n.RelationRef) for b in body.bindings)
        or shadows_binding(quant, binding)
    ):
        return None
    if quant.join is not None and binding.var in n.facts(quant.join).join_vars:
        return None
    head = source.head
    assignments = {}
    row_formulas = []
    for conjunct in n.conjuncts(body.body):
        comparison = isinstance(conjunct, n.Comparison)
        if comparison and conjunct.has_aggregate():
            return None
        target = assignment_of(conjunct, head) if comparison else None
        if target is not None and head.name not in n.vars_used(target[1]):
            if target[0] in assignments:
                return None  # duplicate head assignment: keep the lateral
            assignments[target[0]] = target[1]
        elif head.name in n.vars_used(conjunct):
            return None
        else:
            row_formulas.append(conjunct)
    if set(head.attrs) - set(assignments):
        return None
    renames = renames_apart(quant, body, skip=source)
    if renames is None:
        return None
    return (
        [substitute(b, renames) for b in body.bindings],
        [substitute(f, renames) for f in row_formulas],
        {
            (binding.var, attr): substitute(expr, renames)
            for attr, expr in assignments.items()
        },
    )


def nest_existential(collection, inner_vars):
    """Push the bindings named in *inner_vars* into a nested existential
    scope, along with every conjunct that only references them (and the
    remaining outer variables).  The inverse of :func:`unnest`."""
    body = collection.body
    if not isinstance(body, n.Quantifier) or body.grouping or body.join:
        raise RewriteError("nest_existential expects a plain quantifier body")
    inner_vars = set(inner_vars)
    outer_bindings = [b for b in body.bindings if b.var not in inner_vars]
    inner_bindings = [b for b in body.bindings if b.var in inner_vars]
    if len(inner_bindings) != len(inner_vars):
        missing = inner_vars - {b.var for b in inner_bindings}
        raise RewriteError(f"variables {sorted(missing)} are not bound in this scope")
    inner_conjuncts = []
    outer_conjuncts = []
    for conjunct in n.conjuncts(body.body):
        if n.vars_used(conjunct) & inner_vars:
            inner_conjuncts.append(conjunct)
        else:
            outer_conjuncts.append(conjunct)
    inner = n.Quantifier(inner_bindings, n.make_and(inner_conjuncts))
    outer = n.Quantifier(outer_bindings, n.make_and(outer_conjuncts + [inner]))
    return n.Collection(n.Head(collection.head.name, collection.head.attrs), outer)


# ---------------------------------------------------------------------------
# NOT IN -> NOT EXISTS with explicit null checks (Section 2.10)
# ---------------------------------------------------------------------------


def not_in_to_not_exists(collection):
    """Make SQL's 3VL NOT-IN behaviour explicit in two-valued logic.

    Rewrites every ``¬∃s∈S[s.A = r.A]`` into
    ``¬∃s∈S[s.A = r.A ∨ s.A is null ∨ r.A is null]`` (eq. (17)): the
    rewritten query returns SQL's answer even under the two-valued null
    comparison convention.
    """

    def rewrite(node):
        if not isinstance(node, n.Not) or not isinstance(node.child, n.Quantifier):
            return node
        quant = node.child
        if quant.grouping is not None or quant.join is not None:
            return node
        conjuncts = n.conjuncts(quant.body)
        if len(conjuncts) != 1:
            return node
        predicate = conjuncts[0]
        if not isinstance(predicate, n.Comparison) or predicate.op != "=":
            return node
        if not (isinstance(predicate.left, n.Attr) and isinstance(predicate.right, n.Attr)):
            return node
        disjunction = n.Or(
            [
                predicate,
                n.IsNull(n.clone(predicate.left)),
                n.IsNull(n.clone(predicate.right)),
            ]
        )
        return n.Not(n.Quantifier(quant.bindings, disjunction))

    return n.transform(collection, rewrite)


# ---------------------------------------------------------------------------
# DISTINCT as grouping (Section 2.7)
# ---------------------------------------------------------------------------


def distinct_as_grouping(collection):
    """Add a grouping operator on all head-assigned expressions, expressing
    deduplication without a dedicated DISTINCT construct."""
    body = collection.body
    if not isinstance(body, n.Quantifier):
        raise RewriteError("distinct_as_grouping expects a quantifier body")
    if body.grouping is not None:
        return collection
    head = collection.head
    targets = [
        assignment_of(c, head)
        for c in n.conjuncts(body.body)
        if isinstance(c, n.Comparison)
    ]
    keys = [n.clone(expr) for _, expr in filter(None, targets)]
    if len(keys) != len(head.attrs):
        raise RewriteError("not every head attribute has a plain assignment")
    return n.Collection(
        n.Head(head.name, head.attrs),
        n.Quantifier(body.bindings, body.body, n.Grouping(tuple(keys)), body.join),
    )


# ---------------------------------------------------------------------------
# Count-bug decorrelations (Section 3.2)
# ---------------------------------------------------------------------------


def decorrelate_scalar_naive(collection):
    """The **incorrect** decorrelation (count-bug version 2, eq. (28)).

    Replaces the correlated γ∅ test with a join against an aggregate
    grouped on the correlation key.  Loses outer tuples whose group is
    empty — on R(9,0) with S=∅ the result drops from {9} to {}.
    """
    return _decorrelate_scalar(collection, left_join=False)


def decorrelate_scalar(collection):
    """The **correct** decorrelation (count-bug version 3, eq. (29)):
    a derived table built by a left join of the outer relation against the
    inner one, grouped on the outer key, so empty groups survive."""
    return _decorrelate_scalar(collection, left_join=True)


def _decorrelate_scalar(collection, *, left_join):
    """Build version 2 or 3 from the count-bug version-1 shape

    ``{Q(...) | ∃r∈R[... ∧ ∃s∈S, γ∅[keys ∧ filters ∧ r.q op agg(s.x)]]}``.
    """
    body = collection.body
    inner = None
    if isinstance(body, n.Quantifier) and body.grouping is None and body.join is None:
        inner = next(
            (
                c
                for c in n.conjuncts(body.body)
                if isinstance(c, n.Quantifier)
                and c.join is None
                and c.grouping is not None
                and not c.grouping.keys
                and sum(
                    isinstance(f, n.Comparison) and f.has_aggregate()
                    for f in n.conjuncts(c.body)
                )
                == 1
            ),
            None,
        )
    if inner is None:
        raise RewriteError("query does not have the correlated-scalar shape")
    outer_vars = {b.var for b in body.bindings}
    inner_vars = {b.var for b in inner.bindings}
    keys = []  # (predicate, inner side, outer side)
    filters = []
    for conjunct in n.conjuncts(inner.body):
        if isinstance(conjunct, n.Comparison) and conjunct.has_aggregate():
            agg_expr, other, op = orient_aggregate(conjunct)
        elif n.vars_used(conjunct) & outer_vars:
            keys.append((conjunct, *_correlation_key(conjunct, inner_vars, outer_vars)))
        else:
            filters.append(conjunct)
    if not keys:
        raise RewriteError("no equality correlation predicate found")
    sources = set().union(*(n.vars_used(outer) for _, _, outer in keys))
    if len(sources) != 1:
        raise RewriteError(
            f"correlation keys come from more than one outer relation {sorted(sources)}"
        )
    if n.vars_used(agg_expr) & outer_vars or n.vars_used(other) & inner_vars:
        raise RewriteError("the aggregate comparison mixes inner and outer operands")

    taken = names_in(collection)
    derived_name = fresh_name("X", taken)
    new_var = fresh_name("x", taken)
    columns = set()
    key_attrs = [
        fresh_name(outer.attr if isinstance(outer, n.Attr) else "key", columns)
        for _, _, outer in keys
    ]
    ct = fresh_name("ct", columns)
    bindings = [n.clone(b) for b in inner.bindings]
    if left_join:
        # eq. (29): a fresh copy of the outer relation, left-joined against
        # the inner bindings, carries every outer key into the grouping.
        (outer_var,) = sources
        copy = fresh_name(outer_var, taken)
        renames = {outer_var: copy}
        source = next(b.source for b in body.bindings if b.var == outer_var)
        bindings.append(n.Binding(copy, n.clone(source)))
        group_keys = [substitute(outer, renames) for _, _, outer in keys]
        correlations = [substitute(c, renames) for c, _, _ in keys]
        right = [n.JoinVar(b.var) for b in inner.bindings]
        join = n.Join(
            "left",
            [n.JoinVar(copy), right[0] if len(right) == 1 else n.Join("inner", right)],
        )
    else:
        group_keys = [inner_side for _, inner_side, _ in keys]
        correlations = []
        join = None
    derived = n.Collection(
        n.Head(derived_name, (*key_attrs, ct)),
        n.Quantifier(
            bindings,
            n.make_and(
                [
                    n.Comparison(n.Attr(derived_name, attr), "=", n.clone(key))
                    for attr, key in zip(key_attrs, group_keys)
                ]
                + [n.Comparison(n.Attr(derived_name, ct), "=", n.clone(agg_expr))]
                + correlations
                + [n.clone(f) for f in filters]
            ),
            n.Grouping(tuple(n.clone(key) for key in group_keys)),
            join,
        ),
    )
    rest = [n.clone(c) for c in n.conjuncts(body.body) if c is not inner]
    return n.Collection(
        n.Head(collection.head.name, collection.head.attrs),
        n.Quantifier(
            [n.clone(b) for b in body.bindings] + [n.Binding(new_var, derived)],
            n.make_and(
                rest
                + [
                    n.Comparison(n.clone(outer), "=", n.Attr(new_var, attr))
                    for attr, (_, _, outer) in zip(key_attrs, keys)
                ]
                + [n.Comparison(n.clone(other), op, n.Attr(new_var, ct))]
            ),
        ),
    )


def _correlation_key(predicate, inner_vars, outer_vars):
    """``(inner side, outer side)`` of an equality correlation predicate."""
    if isinstance(predicate, n.Comparison) and predicate.op == "=":
        for inner_side, outer_side in (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        ):
            inner_used = n.vars_used(inner_side)
            outer_used = n.vars_used(outer_side)
            if inner_used and inner_used <= inner_vars and outer_used and outer_used <= outer_vars:
                return inner_side, outer_side
    raise RewriteError(
        "only equalities between an inner and an outer expression correlate "
        "a decorrelatable scalar test"
    )


# ---------------------------------------------------------------------------
# Abstract-relation inlining (Section 2.13.2)
# ---------------------------------------------------------------------------


def inline_abstract(program):
    """Inline every abstract definition into its usage sites.

    For each binding ``v ∈ Abstract`` together with the equality conjuncts
    ``v.attr = expr`` of the same scope, the binding is removed and the
    definition body is substituted with head-attribute references replaced
    by the equated expressions (range variables freshened).  The result is a
    program without abstract definitions — e.g. inlining ``Subset`` in
    query (24) reproduces the monolithic unique-set query (22).
    """
    from .validator import abstract_definitions, linked_or_none

    abstract_names = abstract_definitions(program, linked_or_none(program))
    abstract = {}
    concrete = {}
    for name, definition in program.definitions.items():
        if name in abstract_names:
            abstract[name] = definition
        else:
            concrete[name] = definition
    if not abstract:
        return program
    counter = _counter(1)

    def inline_in(node):
        if not isinstance(node, n.Quantifier):
            return node
        remaining_bindings = []
        extra = []
        conjuncts = n.conjuncts(node.body)
        removed = []
        for binding in node.bindings:
            if (
                isinstance(binding.source, n.RelationRef)
                and binding.source.name in abstract
            ):
                definition = abstract[binding.source.name]
                substitution = {}
                for conjunct in conjuncts:
                    if not isinstance(conjunct, n.Comparison) or conjunct.op != "=":
                        continue
                    for side, other in (
                        (conjunct.left, conjunct.right),
                        (conjunct.right, conjunct.left),
                    ):
                        if isinstance(side, n.Attr) and side.var == binding.var:
                            substitution[side.attr] = other
                            removed.append(conjunct)
                missing = set(definition.head.attrs) - set(substitution)
                if missing:
                    raise RewriteError(
                        f"cannot inline {binding.source.name!r}: attributes "
                        f"{sorted(missing)} are not determined by equality "
                        "predicates"
                    )
                extra.append(
                    _substitute_definition(definition, substitution, counter)
                )
            else:
                remaining_bindings.append(binding)
        if not extra:
            return node
        kept = [c for c in conjuncts if c not in removed]
        if not remaining_bindings:
            raise RewriteError(
                "inlining would leave a quantifier with no bindings"
            )
        return n.Quantifier(
            remaining_bindings,
            n.make_and(kept + extra),
            node.grouping,
            node.join,
        )

    new_definitions = {
        name: n.transform(definition, inline_in)
        for name, definition in concrete.items()
    }
    main = program.main
    if isinstance(main, n.Node):
        main = n.transform(main, inline_in)
    return n.Program(new_definitions, main)


def _substitute_definition(definition, substitution, counter):
    """Instantiate an abstract definition body: head attrs replaced by the
    equated expressions, range variables freshened."""
    suffix = f"_i{next(counter)}"
    renames = {
        sub.var: f"{sub.var}{suffix}"
        for sub in definition.body.walk()
        if isinstance(sub, n.Binding)
    }
    head = definition.head.name
    return substitute(
        definition.body,
        renames,
        {(head, attr): expr for attr, expr in substitution.items()},
    )
