"""Generic scope analyses over ARC quantifier scopes.

These analyses answer structural questions every consumer of a scope needs
— the SQL renderer, the FOI → FIO decorrelation pass, and the executable
backends' capability probes — without committing to any one of them:

* :func:`free_variables` — which outer range variables a subtree references
  (a nested collection with free variables is *correlated*);
* :func:`shadows_binding` — whether a scope rebinds a variable name, which
  blocks substitution-based rewrites (capture);
* :func:`split_scope` — the four-way classification of a scope's conjuncts
  against a head (plain assignments, aggregate assignments, aggregate
  comparisons, row formulas) that both rendering and evaluation share;
* :func:`scalar_subquery_shape` — whether a nested γ∅ collection has the
  one-row-per-outer-environment contract of a scalar subquery (the paper's
  Fig. 5a/13a device).

They lived in :mod:`repro.backends.sql_render` historically; they are in
``core`` because the *engine* needs them too (the decorrelation pass), and
the engine must not depend on a rendering backend.
"""

from __future__ import annotations

from . import nodes as n


def free_variables(node):
    """Range variables referenced in *node* but not bound inside it.

    A nested collection with free variables is *correlated*: its SQL
    rendering needs LATERAL, and engines without LATERAL support cannot
    execute it.  The analysis is scope-aware — a variable bound in a nested
    sub-scope does not shadow an outer reference *outside* that sub-scope —
    and collection head names count as bound (head-assignment predicates
    reference them as ``Head.attr``).
    """
    return _free_vars(node, frozenset())


def _free_vars(node, bound):
    if isinstance(node, n.Attr):
        return set() if node.var in bound else {node.var}
    if isinstance(node, n.Collection):
        return _free_vars(node.body, bound | {node.head.name})
    if isinstance(node, n.Quantifier):
        free = set()
        scope = set(bound)
        for binding in node.bindings:
            # A binding's source sees earlier bindings of the same scope
            # (lateral nesting), not itself.
            free |= _free_vars(binding.source, frozenset(scope))
            scope.add(binding.var)
        inner = frozenset(scope)
        free |= _free_vars(node.body, inner)
        if node.grouping is not None:
            for key in node.grouping.keys:
                free |= _free_vars(key, inner)
        return free
    if not isinstance(node, n.Node):
        return set()
    free = set()
    for child in node.children():
        free |= _free_vars(child, bound)
    return free


def assignment_of(predicate, head):
    """``(attr, value-expression)`` when *predicate* assigns *head*, else None.

    The head side must be ``Head.attr`` with ``op == '='``; either operand
    may be the head side.
    """
    if predicate.op != "=":
        return None
    for side, other in (
        (predicate.left, predicate.right),
        (predicate.right, predicate.left),
    ):
        if (
            isinstance(side, n.Attr)
            and side.var == head.name
            and side.attr in head.attrs
        ):
            return (side.attr, other)
    return None


def split_scope(head, quant):
    """Classify a scope's conjuncts against *head* into the four roles.

    Returns ``(assignments, agg_assignments, agg_comparisons, row_formulas)``
    where assignments are ``(attr, expr)`` pairs and the rest are raw
    formulas — the shared vocabulary of SQL's SELECT / GROUP BY aggregate
    items / HAVING / WHERE and the evaluator's scope plan (Section 2.5).
    """
    assignments = []
    agg_assignments = []
    agg_comparisons = []
    row_formulas = []
    for conjunct in n.conjuncts(quant.body):
        if isinstance(conjunct, n.Comparison):
            target = assignment_of(conjunct, head)
            if target is not None:
                if conjunct.has_aggregate():
                    agg_assignments.append(target)
                else:
                    assignments.append(target)
                continue
            if conjunct.has_aggregate():
                agg_comparisons.append(conjunct)
                continue
        row_formulas.append(conjunct)
    return assignments, agg_assignments, agg_comparisons, row_formulas


def scalar_subquery_shape(source):
    """Why *source* cannot render as correlated scalar subqueries (or None).

    The device applies to a γ∅ scope whose head attributes are all assigned
    by aggregate expressions: such a scope emits exactly one row per outer
    environment, so each head attribute is a scalar — rendered as its own
    correlated subquery, which engines without LATERAL (SQLite) execute.
    """
    body = source.body
    if not isinstance(body, n.Quantifier):
        return "inner body is not a single quantifier scope"
    if body.join is not None:
        return "inner scope carries a join annotation"
    if body.grouping is None or body.grouping.keys:
        return "inner scope is not an aggregate-only γ∅ scope"
    head = source.head
    assignments, agg_assignments, agg_comparisons, row_formulas = split_scope(
        head, body
    )
    if assignments:
        return "non-aggregate head assignment in a γ∅ scope"
    if agg_comparisons:
        return "γ∅ aggregate comparison (the group may be filtered away)"
    assigned = dict(agg_assignments)
    if len(assigned) != len(agg_assignments):
        return "duplicate head assignment"
    missing = [attr for attr in head.attrs if attr not in assigned]
    if missing:
        return f"head attributes {missing} have no aggregate assignment"
    for formula in row_formulas:
        if head.name in n.vars_used(formula):
            return "head attribute used outside an assignment"
    return None


def shadows_binding(quant, binding):
    """Whether *quant* rebinds ``binding.var`` outside the binding's source.

    Scalar-subquery inlining substitutes ``var.attr`` references throughout
    the scope's rendering; a nested scope rebinding the same name would be
    captured, so those shapes keep the lateral encoding.
    """
    target = binding.var

    def scan(node):
        if node is binding.source:
            return False
        if isinstance(node, n.Binding) and node is not binding and node.var == target:
            return True
        if isinstance(node, n.Collection) and node.head.name == target:
            return True
        return any(scan(child) for child in node.children())

    return any(scan(child) for child in quant.children())
