"""Semantic validation of ARC queries.

ARC is stricter than textbook TRC (Section 2.1 of the paper): heads are
*clean* (body variables never appear in the head; output attributes receive
values only through assignment predicates), every range variable is
introduced by an explicit quantifier binding, and the appearance of any
aggregation predicate turns a scope into a grouping scope that **requires**
a grouping operator.

This module enforces those rules, performs a safety (range-restriction)
analysis that distinguishes ordinary *intensional* definitions from
*abstract relations* (Section 2.13.2 — definitions that are only meaningful
inside a surrounding safe query), and checks that recursive programs are
stratified (no recursion through negation or aggregation, Section 2.9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from . import nodes as n
from .linker import link

ERROR = "error"
WARNING = "warning"


@dataclass
class Issue:
    """One validation finding."""

    severity: str
    code: str
    message: str

    def __str__(self):
        return f"[{self.severity}:{self.code}] {self.message}"


@dataclass
class Report:
    """Validation outcome: issues plus derived facts about the query."""

    issues: list = field(default_factory=list)
    #: True when the query references head attributes as inputs (an abstract
    #: relation) or leaves head attributes unassigned — i.e. it has no
    #: standalone well-defined extension.
    is_abstract: bool = False
    #: name -> kind for every relation reference ("base", "defined",
    #: "external", "self", "unknown").
    relation_kinds: dict = field(default_factory=dict)

    def errors(self):
        return [i for i in self.issues if i.severity == ERROR]

    def warnings(self):
        return [i for i in self.issues if i.severity == WARNING]

    @property
    def ok(self):
        return not self.errors()

    def raise_if_errors(self):
        if not self.ok:
            details = "; ".join(str(issue) for issue in self.errors())
            raise ValidationError(details)
        return self

    def add(self, severity, code, message):
        self.issues.append(Issue(severity, code, message))


def validate(root, *, database=None, externals=None, allow_abstract=False):
    """Validate *root* (Collection | Sentence | Program); return a Report.

    ``database`` and ``externals`` (an
    :class:`~repro.engine.externals.ExternalRegistry` or any object with a
    ``__contains__`` of names) let the validator classify relation
    references; unknown references are errors when a database is supplied.
    ``allow_abstract`` suppresses the error for definitions that are only
    meaningful as modules inside a larger query (Section 2.13.2).
    """
    report = Report()
    try:
        linked = link(root)
    except Exception as exc:  # LinkError and friends become issues
        report.add(ERROR, "link", str(exc))
        return report

    if isinstance(root, n.Program):
        for name, definition in root.definitions.items():
            _validate_collection(
                definition, linked, report, allow_abstract=True, context=name
            )
        main = root.resolve_main()
        if isinstance(main, n.Collection) and main not in set(root.definitions.values()):
            _validate_collection(main, linked, report, allow_abstract=allow_abstract)
        elif isinstance(main, n.Sentence):
            _validate_body(main.body, linked, report, context="sentence")
        report.issues.extend(stratification_issues(root, dependency_graph(root)))
    elif isinstance(root, n.Collection):
        _validate_collection(root, linked, report, allow_abstract=allow_abstract)
    elif isinstance(root, n.Sentence):
        _validate_body(root.body, linked, report, context="sentence")
    else:
        report.add(ERROR, "root", f"cannot validate a {type(root).__name__}")
        return report

    _classify_relations(root, database, externals, report)
    return report


# ---------------------------------------------------------------------------
# Collection-level rules
# ---------------------------------------------------------------------------


def _validate_collection(coll, linked, report, *, allow_abstract, context=None):
    label = context or coll.head.name

    # Rule: every head attribute must be assigned in every emitting branch.
    unassigned, params = _head_inputs(coll, linked)
    if unassigned or params:
        report.is_abstract = True
        if not allow_abstract:
            if params:
                names = sorted({f"{a.var}.{a.attr}" for a in params})
                report.add(
                    ERROR,
                    "abstract",
                    f"{label}: head attributes used as inputs ({', '.join(names)}); "
                    "this is an abstract relation and has no standalone extension",
                )
            for attr in sorted(unassigned):
                report.add(
                    ERROR,
                    "head-unassigned",
                    f"{label}: head attribute {attr!r} is never assigned",
                )
        else:
            report.add(
                WARNING,
                "abstract",
                f"{label}: abstract relation (head attributes "
                f"{sorted(unassigned) or [f'{a.var}.{a.attr}' for a in params]} "
                "are inputs/unassigned)",
            )
    _validate_body(coll.body, linked, report, context=label)
    # Nested collections bound inside the body are validated recursively.
    for nested in _bound_collections(coll):
        _validate_collection(nested, linked, report, allow_abstract=allow_abstract)


def _bound_collections(coll):
    """Collections bound as binding sources anywhere in *coll*'s body."""
    return [
        node.source
        for node in (coll.body.walk() if coll.body is not None else ())
        if isinstance(node, n.Binding) and isinstance(node.source, n.Collection)
    ]


def _head_inputs(coll, linked):
    """``(unassigned head attributes, head attributes read as inputs)`` of
    *coll*; either one makes it an abstract relation (Section 2.13.2)."""
    params = [
        attr
        for attr in linked.head_params
        if linked.resolutions.get(attr) is coll.head
    ]
    return _unassigned_attrs(coll, linked), params


def linked_or_none(root):
    """:func:`link` of *root*, or None when it does not link (:func:`validate`
    reports why)."""
    try:
        return link(root)
    except Exception:  # LinkError and friends
        return None


def abstract_definitions(program, linked):
    """Names of *program*'s abstract definitions — those where it, or a
    collection bound inside it, leaves a head attribute unassigned or reads
    one as an input — as :func:`validate` of each definition would report.

    *linked* is ``linked_or_none(program)``: one link serves every
    definition.  When the program does not link as a whole each definition
    is linked alone, and one that does not link is not abstract.
    """
    names = []
    for name, definition in program.definitions.items():
        own = linked if linked is not None else linked_or_none(definition)
        if own is not None and any(
            any(_head_inputs(coll, own))
            for coll in [definition, *_bound_collections(definition)]
        ):
            names.append(name)
    return frozenset(names)


def _unassigned_attrs(coll, linked):
    """Head attributes not assigned in some emitting branch of the body."""

    def assigned_in(formula):
        """Set of head attrs assigned (positively) within *formula*."""
        if isinstance(formula, n.Comparison):
            target = linked.assignment_target(formula)
            if target and target[0] is coll.head:
                return {target[1]}
            return set()
        if isinstance(formula, n.And):
            result = set()
            for child in formula.children_list:
                result |= assigned_in(child)
            return result
        if isinstance(formula, n.Or):
            # An attribute is reliably assigned only if every branch does so.
            branch_sets = [assigned_in(c) for c in formula.children_list]
            if not branch_sets:
                return set()
            result = branch_sets[0]
            for branch in branch_sets[1:]:
                result &= branch
            return result
        if isinstance(formula, n.Quantifier):
            return assigned_in(formula.body)
        # Not / IsNull / BoolConst / nested Collection assign nothing here.
        return set()

    if coll.body is None:
        return set(coll.head.attrs)
    return set(coll.head.attrs) - assigned_in(coll.body)


# ---------------------------------------------------------------------------
# Body rules (grouping legality, aggregate placement, join annotations)
# ---------------------------------------------------------------------------


def _validate_body(formula, linked, report, *, context, in_grouping_scope=False):
    if formula is None:
        report.add(ERROR, "empty-body", f"{context}: missing body")
        return
    if isinstance(formula, n.Quantifier):
        _validate_quantifier(formula, linked, report, context=context)
        return
    if isinstance(formula, (n.And, n.Or)):
        for child in formula.children_list:
            _validate_body(
                child, linked, report, context=context, in_grouping_scope=in_grouping_scope
            )
        return
    if isinstance(formula, n.Not):
        _validate_body(
            formula.child, linked, report, context=context, in_grouping_scope=in_grouping_scope
        )
        return
    if isinstance(formula, n.Comparison):
        if formula.has_aggregate() and not in_grouping_scope:
            report.add(
                ERROR,
                "aggregate-scope",
                f"{context}: aggregation predicate "
                f"'{_pred_text(formula)}' occurs outside any grouping scope "
                "(an aggregation predicate requires a grouping operator γ)",
            )
        for node in formula.walk():
            if isinstance(node, n.AggCall) and node.arg is not None:
                if n.facts(node.arg).aggregates:
                    report.add(
                        ERROR,
                        "nested-aggregate",
                        f"{context}: nested aggregate in '{_pred_text(formula)}'",
                    )
        return
    if isinstance(formula, (n.IsNull, n.BoolConst)):
        return
    if isinstance(formula, n.Collection):
        return  # validated by the collection pass
    report.add(ERROR, "body-node", f"{context}: unexpected {type(formula).__name__}")


def _validate_quantifier(quant, linked, report, *, context):
    scope = linked.scope_of.get(quant)
    has_aggregate = _scope_has_aggregate(quant)
    if has_aggregate and quant.grouping is None:
        report.add(
            ERROR,
            "grouping-required",
            f"{context}: scope contains an aggregation predicate but no "
            "grouping operator (the paper's rule: any aggregation predicate "
            "turns an existential scope into a grouping scope)",
        )
    if quant.grouping is not None:
        for key in quant.grouping.keys:
            if isinstance(key, n.Attr):
                declaration = scope.lookup(key.var) if scope else None
                if not isinstance(declaration, n.Binding):
                    report.add(
                        ERROR,
                        "grouping-key",
                        f"{context}: grouping key {key.var}.{key.attr} does not "
                        "reference a range variable",
                    )
    if quant.join is not None:
        _validate_join(quant, linked, report, context=context)
    if not quant.bindings:
        report.add(ERROR, "no-bindings", f"{context}: quantifier with no bindings")
    _validate_body(
        quant.body,
        linked,
        report,
        context=context,
        in_grouping_scope=quant.grouping is not None,
    )


def _scope_has_aggregate(quant):
    """True when a predicate *directly owned* by this scope has an AggCall.

    Predicates inside nested quantifiers or nested collections belong to
    those scopes, not this one.
    """

    def walk_own(formula):
        if isinstance(formula, (n.Quantifier, n.Collection)):
            return False
        if isinstance(formula, n.Comparison):
            return formula.has_aggregate()
        if isinstance(formula, (n.And, n.Or)):
            return any(walk_own(c) for c in formula.children_list)
        if isinstance(formula, n.Not):
            return walk_own(formula.child)
        return False

    return walk_own(quant.body)


def _validate_join(quant, linked, report, *, context):
    join = quant.join
    seen = set()
    bound = {binding.var for binding in quant.bindings}
    for node in join.walk():
        if isinstance(node, n.JoinVar):
            if node.var in seen:
                report.add(
                    ERROR,
                    "join-duplicate",
                    f"{context}: variable {node.var!r} appears twice in the "
                    "join annotation",
                )
            seen.add(node.var)
            if node.var not in bound:
                report.add(
                    ERROR,
                    "join-unbound",
                    f"{context}: join annotation references {node.var!r} "
                    "which is not bound in this scope",
                )
    missing = bound - seen
    if seen and missing:
        report.add(
            WARNING,
            "join-partial",
            f"{context}: bindings {sorted(missing)} not covered by the join "
            "annotation (treated as inner-joined)",
        )


def _pred_text(predicate):
    from .alt import _expr_text

    return f"{_expr_text(predicate.left)} {predicate.op} {_expr_text(predicate.right)}"


# ---------------------------------------------------------------------------
# Program rules (stratification) and relation classification
# ---------------------------------------------------------------------------


def dependency_graph(program):
    """Edges def-name -> (referenced-name, is_monotone) for a Program."""
    edges = {}
    for name, definition in program.definitions.items():
        edges[name] = []
        _collect_deps(definition.body, edges[name], negated=False, grouped=False)
    return edges


def _collect_deps(formula, out, *, negated, grouped):
    if formula is None:
        return
    if isinstance(formula, n.Quantifier):
        scope_grouped = grouped or formula.grouping is not None and _scope_has_aggregate(formula)
        for binding in formula.bindings:
            if isinstance(binding.source, n.RelationRef):
                out.append((binding.source.name, not (negated or scope_grouped)))
            else:
                _collect_deps(binding.source.body, out, negated=negated, grouped=scope_grouped)
        _collect_deps(formula.body, out, negated=negated, grouped=scope_grouped)
        return
    if isinstance(formula, (n.And, n.Or)):
        for child in formula.children_list:
            _collect_deps(child, out, negated=negated, grouped=grouped)
        return
    if isinstance(formula, n.Not):
        _collect_deps(formula.child, out, negated=True, grouped=grouped)
        return
    if isinstance(formula, n.Collection):
        _collect_deps(formula.body, out, negated=negated, grouped=grouped)


def stratification_issues(program, edges):
    """Errors for recursion through negation or aggregation in *program*,
    whose :func:`dependency_graph` is *edges* (Section 2.9)."""
    defined = set(program.definitions)
    sccs = strongly_connected(
        {name: [t for t, _ in edges[name] if t in defined] for name in defined}
    )
    component_of = {}
    for index, component in enumerate(sccs):
        for name in component:
            component_of[name] = index
    issues = []
    for name in defined:
        for target, monotone in edges[name]:
            if target in defined and component_of[target] == component_of[name]:
                recursive = len(sccs[component_of[name]]) > 1 or target == name or _self_loop(edges, name)
                if recursive and not monotone:
                    issues.append(Issue(
                        ERROR,
                        "stratification",
                        f"recursion through negation/aggregation between "
                        f"{name!r} and {target!r} has no least fixed point",
                    ))
    return issues


def _self_loop(edges, name):
    return any(target == name for target, _ in edges[name])


def strongly_connected(graph):
    """Strongly connected components of *graph* (dict name -> successor
    list), dependencies first.

    Tarjan emits components in reverse topological order of the
    condensation, which for a dependency graph is exactly the evaluation
    order.
    """
    index_counter = [0]
    stack = []
    lowlink = {}
    index = {}
    on_stack = set()
    result = []

    def strongconnect(node):
        work = [(node, 0)]
        while work:
            v, child_index = work[-1]
            if child_index == 0:
                index[v] = index_counter[0]
                lowlink[v] = index_counter[0]
                index_counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            successors = graph.get(v, [])
            while child_index < len(successors):
                w = successors[child_index]
                child_index += 1
                if w not in index:
                    work[-1] = (v, child_index)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                result.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    for node in graph:
        if node not in index:
            strongconnect(node)
    return result


def _classify_relations(root, database, externals, report):
    if externals is None:
        # The engine defaults to the standard registry of reified built-ins;
        # classification mirrors that default.
        from ..engine.externals import standard_registry

        externals = standard_registry()
    definitions = root.definitions if isinstance(root, n.Program) else {}
    found = n.facts(root)
    for name in found.relation_refs:
        if name in definitions:
            kind = "defined"
        elif database is not None and name in database:
            kind = "base"
        elif externals is not None and name in externals:
            kind = "external"
        elif name in found.heads:
            kind = "self"  # direct recursion written without a Program
        else:
            kind = "unknown"
            if database is not None:
                report.add(
                    ERROR,
                    "unknown-relation",
                    f"relation {name!r} is not a base, defined, or external relation",
                )
        report.relation_kinds[name] = kind
