"""The ARC reference evaluator: the paper's conceptual evaluation strategy.

Semantics implemented (see DESIGN.md §4 for the full decision list):

* **Nested loops, lateral nesting** (Section 2.3/2.4): bindings enumerate
  left-to-right; a nested collection bound in a scope is re-evaluated per
  partial environment, so it may correlate with earlier bindings and
  enclosing scopes.
* **Emission**: the quantifier forming a collection's body (or each
  disjunct of its ``Or``) enumerates combinations and emits one head tuple
  per satisfying combination (with bag multiplicities under bag
  conventions).  A quantifier *nested inside another scope* is existential:
  it contributes head assignments as a deduplicated set of witnesses (the
  semijoin-like behaviour of Section 2.7).
* **Grouping scopes** (Section 2.5): row-level predicates filter the scope's
  rows (SQL ``WHERE``); the grouping operator partitions them (``γ∅`` =
  exactly one group, even over empty input); aggregation *assignment*
  predicates compute per-group outputs; aggregation *comparison* predicates
  filter groups (SQL ``HAVING``).
* **Three-valued logic** (Section 2.10): comparisons touching NULL are
  UNKNOWN under the 3VL convention; ∃ folds with Kleene ``or``; a row or
  group is kept only when its condition is TRUE.
* **Outer joins** (Section 2.11): join-annotation trees with condition
  assignment, evaluated by :mod:`repro.engine.joins`.
* **External and abstract relations** (Section 2.13): bindings to relations
  without stored extensions are deferred until equality predicates determine
  enough attributes to satisfy an access pattern.
* **Recursion** (Section 2.9): programs are stratified and recursive strata
  solved by least fixed point (:mod:`repro.engine.fixpoint`).
"""

from __future__ import annotations

from collections import Counter

from ..core import nodes as n
from ..core.conventions import Conventions, SET_CONVENTIONS
from ..core.scopes import assignment_of, split_scope
from ..data.database import Database
from ..data.relation import Relation, Tuple
from ..data.values import (
    NULL,
    Truth,
    arithmetic,
    compare,
    is_null,
    t_and,
    t_not,
    t_or,
)
from ..errors import EvaluationError
from ..util.deadline import STRIDE_MASK
from . import aggregates as agg_lib
from . import decorrelate
from .externals import ExternalRegistry, standard_registry
from .fixpoint import materialize_program, recursive_program
from .joins import ConditionAssignment, annotation_vars, enumerate_annotation
from .planner import (
    ExecutionStats,
    compile_bindings,
    compile_scope,
    plan_entry,
    scope_assumptions,
)


def evaluate(node, database, conventions=SET_CONVENTIONS, externals=None, *,
             options=None):
    """Evaluate *node* against *database* under *conventions*.

    Returns a :class:`~repro.data.relation.Relation` for collections and
    programs, and a :class:`~repro.data.values.Truth` for sentences.

    This is the one-shot convenience wrapper over the Session API: it
    builds a transient :class:`repro.api.Session` from *options* (an
    :class:`repro.api.EvalOptions`; ``EvalOptions(backend="reference")``
    selects the paper's reference nested-loop oracle) and evaluates once.
    Long-lived callers should hold a Session and
    :meth:`~repro.api.Session.prepare` their queries instead — repeated
    one-shot calls re-derive state a session keeps warm.
    """
    from ..api.session import Session

    return Session(
        database, conventions, externals=externals, options=options
    ).evaluate(node)


class _JoinContext:
    """Adapter handing evaluator callbacks to the join-annotation module."""

    def __init__(self, evaluator, bindings_by_var):
        self._evaluator = evaluator
        self._bindings = bindings_by_var

    def rows(self, var, env):
        return self._evaluator._binding_rows(self._bindings[var], env)

    def truth(self, formula, env):
        return self._evaluator._truth(formula, env)


#: The head a sentence's scopes classify against: no attribute to assign.
_NO_HEAD = n.Head("", ())


class _ScopePlan:
    """Classification of one quantifier's body into evaluation roles."""

    __slots__ = (
        "assignments",
        "agg_assignments",
        "agg_comparisons",
        "row_formulas",
        "emitters",
        "aggregates",
        "head",
    )

    def __init__(self):
        self.assignments = []  # (attr, expr) plain head assignments
        self.agg_assignments = []  # (attr, expr-with-aggregates)
        self.agg_comparisons = []  # Comparison with aggregates, not assigning
        self.row_formulas = []  # boolean row-level formulas
        self.emitters = []  # nested formulas containing head assignments
        self.aggregates = ()  # distinct AggCall nodes of the two agg lists
        #: A grouping scope's head reads, one ``(attr, kind, payload, expr)``
        #: per assignment: *kind* "row" reads ``payload = (var, attr)`` off
        #: the representative row, "agg" the aggregate value keyed
        #: ``payload``, and "expr" evaluates *expr*.
        self.head = ()


def _head_read(attr, expr, scope_vars):
    """One :attr:`_ScopePlan.head` entry for the assignment ``attr = expr``."""
    if isinstance(expr, n.Attr) and expr.var in scope_vars:
        return attr, "row", (expr.var, expr.attr), expr
    if isinstance(expr, n.AggCall):
        return attr, "agg", id(expr), expr
    return attr, "expr", None, expr


class Evaluator:
    """Evaluates ARC nodes against a catalog, honouring the conventions."""

    def __init__(
        self,
        database=None,
        conventions=SET_CONVENTIONS,
        externals=None,
        *,
        planner=True,
        decorrelate=True,
        deadline=None,
        tracer=None,
    ):
        self.database = database if database is not None else Database()
        self.conventions = conventions
        self.externals = externals if externals is not None else standard_registry()
        self.defined = {}  # name -> materialized Relation
        self.abstract = {}  # name -> AbstractSource
        self.planner = planner
        self.decorrelate = decorrelate
        self.stats = ExecutionStats()
        #: Optional :class:`~repro.obs.Tracer` recording phase spans.  All
        #: sites are coarse (per scope / per compile / per fixpoint round —
        #: never per row) and gated on ``tracer is not None``, so the
        #: disabled path costs one attribute read per phase.
        self.tracer = tracer
        #: Armed :class:`~repro.util.deadline.Deadline` for the current run,
        #: or None (unbounded).  Every execution tier reads it: the
        #: compiled-scope row loops check once per stride of rows, the
        #: fixpoint checks per round, and collection emission counts rows
        #: against the budget.
        self.deadline = deadline
        #: Heads of the collections being evaluated, innermost last; a
        #: sentence's scopes read the bottom head, which has no attributes
        #: and so is never assigned.
        self._head_stack = [_NO_HEAD]

    # -- public API -----------------------------------------------------------

    def evaluate(self, node):
        tracer = self.tracer
        if tracer is not None:
            with tracer.span(
                "execute", engine="planner" if self.planner else "reference"
            ):
                return self._evaluate_node(node)
        return self._evaluate_node(node)

    def _evaluate_node(self, node):
        if isinstance(node, n.Program):
            return self._evaluate_program(node)
        if isinstance(node, n.Collection):
            program = recursive_program(node, self.database, self.externals)
            if program is not None:
                return self._evaluate_program(program)
            return self._relation_from_counter(
                node.head, self._eval_collection(node, {})
            )
        if isinstance(node, n.Sentence):
            return self._truth(node.body, {})
        raise EvaluationError(f"cannot evaluate {type(node).__name__}")

    # -- programs -----------------------------------------------------------

    def _evaluate_program(self, program):
        materialize_program(program, self)
        main = program.resolve_main()
        if main is None:
            raise EvaluationError("program has no main query")
        if isinstance(program.main, str):
            if program.main in self.defined:
                return self.defined[program.main]
            raise EvaluationError(
                f"main relation {program.main!r} is abstract and cannot be "
                "materialized standalone"
            )
        if isinstance(main, n.Sentence):
            return self._truth(main.body, {})
        return self._relation_from_counter(main.head, self._eval_collection(main, {}))

    # -- collections -------------------------------------------------------------

    def _relation_from_counter(self, head, counter):
        # Rows produced by _eval_collection are Tuples built over exactly
        # the head attributes (and already set-normalized when the set
        # convention applies), so the relation adopts the counter unchecked.
        return Relation._adopt_counter(head.name, head.attrs, counter)

    def _eval_collection(self, coll, env):
        """Evaluate a collection under *env*; returns Counter[Tuple]."""
        tracer = self.tracer
        if tracer is not None and len(self._head_stack) == 1:
            # Only the top-level collection gets a span: laterally nested
            # collections re-evaluate per outer row and must stay span-free.
            with tracer.span("scope.execute", head=coll.head.name) as span:
                out = self._eval_collection_inner(coll, env)
                span.tag(rows=len(out))
                return out
        return self._eval_collection_inner(coll, env)

    def _eval_collection_inner(self, coll, env):
        head = coll.head
        attrs = head.attrs
        self._head_stack.append(head)
        deadline = self.deadline
        adopt = Tuple._adopt
        out = Counter()
        # Row budget, batched: a local counter per emission with one
        # count_rows() flush per stride (plus the remainder below), so the
        # accounting stays exact while the hot loop avoids a method call
        # per row.  A budget trip may land up to a stride late — still
        # memory-bounded by max_rows + STRIDE.
        dl_rows = 0
        dl_mask = STRIDE_MASK
        try:
            for assigns, mult in self._solutions(coll.body, env, top=True):
                try:
                    row = adopt({a: assigns[a] for a in attrs})
                except KeyError:
                    missing = set(attrs) - set(assigns)
                    raise EvaluationError(
                        f"collection {head.name!r}: head attributes "
                        f"{sorted(missing)} were never assigned"
                    ) from None
                out[row] += mult
                if deadline is not None:
                    dl_rows += 1
                    if not dl_rows & dl_mask:
                        deadline.count_rows(dl_mask + 1)
            if deadline is not None and dl_rows & dl_mask:
                deadline.count_rows(dl_rows & dl_mask)
        finally:
            self._head_stack.pop()
        if self.conventions.is_set:
            return Counter(dict.fromkeys(out, 1))
        return out

    # -- solutions (emitting evaluation) ------------------------------------------

    def _solutions(self, formula, env, *, top):
        """Yield (head-assignments dict, multiplicity) for *formula*.

        ``top`` is True for the collection body and for the disjuncts of a
        top-level Or (generator position: multiplicities enumerate); nested
        quantifiers are existential and deduplicate their witnesses.
        """
        if isinstance(formula, n.Quantifier):
            yield from self._solutions_quantifier(formula, env, top=top)
            return
        if isinstance(formula, n.Or):
            for child in formula.children_list:
                yield from self._solutions(child, env, top=top)
            return
        if isinstance(formula, n.And):
            yield from self._solutions_and(formula, env, top=top)
            return
        if isinstance(formula, n.Comparison):
            target = assignment_of(formula, self._head_stack[-1])
            if target is not None:
                attr, expr = target
                yield {attr: self._eval_expr(expr, env)}, 1
                return
            if self._truth(formula, env) is Truth.TRUE:
                yield {}, 1
            return
        if isinstance(formula, n.BoolConst):
            if formula.value:
                yield {}, 1
            return
        if isinstance(formula, (n.Not, n.IsNull)):
            if self._truth(formula, env) is Truth.TRUE:
                yield {}, 1
            return
        raise EvaluationError(
            f"cannot enumerate solutions of {type(formula).__name__}"
        )

    def _solutions_and(self, conj, env, *, top):
        emitters = []
        booleans = []
        for child in conj.children_list:
            if self._emits(child):
                emitters.append(child)
            else:
                booleans.append(child)
        if any(self._truth(b, env) is not Truth.TRUE for b in booleans):
            return ()
        return self._emitter_product(emitters, env, top=top)

    @staticmethod
    def _merge_assigns(first, second):
        merged = dict(first)
        for attr, value in second.items():
            if attr in merged and merged[attr] != value:
                return None  # conflicting assignments: no solution
            merged[attr] = value
        return merged

    def _solutions_quantifier(self, quant, env, *, top):
        """The quantifier's solutions, as :meth:`_solutions` yields them."""
        plan = self._plan_scope(quant)
        if quant.grouping is not None:
            return self._group_solutions(quant, plan, env)
        return self._scope_solutions(quant, plan, env, top=top)

    def _scope_solutions(self, quant, plan, env, *, top):
        if plan.agg_assignments or plan.agg_comparisons:
            raise EvaluationError(
                "aggregation predicate in a scope without a grouping operator"
            )
        results = None if top else Counter()
        for env2, mult in self._combos(quant, plan, env, strict=True):
            base = {}
            conflict = False
            for attr, expr in plan.assignments:
                value = self._eval_expr(expr, env2)
                if attr in base and base[attr] != value:
                    conflict = True
                    break
                base[attr] = value
            if conflict:
                continue
            if plan.emitters:
                for emitter_assigns, emitter_mult in self._emitter_product(
                    plan.emitters, env2
                ):
                    merged = self._merge_assigns(base, emitter_assigns)
                    if merged is None:
                        continue
                    if top:
                        yield merged, mult * emitter_mult
                    else:
                        results[Tuple(merged)] += 1
            else:
                if top:
                    yield base, mult
                else:
                    results[Tuple(base)] += 1
        if not top:
            # Existential semantics: distinct witnesses, multiplicity 1.
            for row in results:
                yield row.as_dict(), 1

    def _emitter_product(self, emitters, env, *, top=False):
        """Every merge-compatible combination of the emitters' solutions.

        Emitters nested in a scope are existential (``top=False``): each
        deduplicates its witnesses.
        """
        solutions = [({}, 1)]
        for emitter in emitters:
            expanded = []
            for assigns, mult in solutions:
                for sub_assigns, sub_mult in self._solutions(emitter, env, top=top):
                    merged = self._merge_assigns(assigns, sub_assigns)
                    if merged is not None:
                        expanded.append((merged, mult * sub_mult))
            solutions = expanded
        return solutions

    # -- grouping scopes --------------------------------------------------------

    def _group_solutions(self, quant, plan, env):
        """Yield ``(head assignments, 1)`` for every group of the scope whose
        HAVING holds — a fused bucket and a reference partition alike.

        The head reads come from :attr:`_ScopePlan.head`, resolved once per
        scope plan; assignments that disagree within a group drop it.
        """
        if plan.emitters:
            raise EvaluationError(
                "a grouping scope cannot contain nested emitting formulas"
            )
        head = plan.head
        eval_expr = self._eval_expr
        for rows, rep_env, agg_values, having in self._scope_groups(quant, plan, env):
            if having is not Truth.TRUE:
                continue
            assigns = {}
            for attr, kind, payload, expr in head:
                if not rows:
                    value = self._eval_empty_group_expr(expr, env, agg_values)
                elif kind == "row":
                    value = rep_env[payload[0]][payload[1]]
                elif kind == "agg":
                    value = agg_values[payload]
                else:
                    value = eval_expr(expr, rep_env, agg_values)
                if attr in assigns and assigns[attr] != value:
                    break
                assigns[attr] = value
            else:
                yield assigns, 1

    def _scope_groups(self, quant, plan, env):
        """The scope's groups as :meth:`_groups` yields them: from the
        compiled scope's fused partition when the planner has one, else
        from :meth:`_groups`."""
        if self.planner and quant.join is None:
            groups = self._compile_scope(quant, plan).groups(self, plan, env)
            if groups is not None:
                return groups
        return self._groups(quant, plan, env)

    def _groups(self, quant, plan, env):
        """Partition the scope's combinations by grouping key (first-seen
        order) and yield ``(rows, rep_env, agg_values, having)`` per group:
        its rows, a representative env, its aggregate values, and the Kleene
        AND of the aggregate comparisons (HAVING)."""
        rows = list(self._combos(quant, plan, env, strict=True))
        keys = quant.grouping.keys
        if keys:
            groups = {}
            for env2, mult in rows:
                key = tuple(self._eval_expr(k, env2) for k in keys)
                groups.setdefault(key, []).append((env2, mult))
            groups = groups.values()
        else:
            groups = (rows,)  # γ∅: exactly one group, even over empty input
        for group_rows in groups:
            yield (group_rows, *self._group_verdict(plan, group_rows, env))

    def _group_verdict(self, plan, group_rows, env):
        """``(rep_env, agg_values, having)`` for one group: a representative
        env (*env* over an empty group), every AggCall of the scope over the
        group's rows, and its :meth:`_having` truth."""
        values = {}
        for node in plan.aggregates:
            if node.arg is None:
                values[id(node)] = agg_lib.count_rows(m for _, m in group_rows)
            else:
                pairs = [
                    (self._eval_expr(node.arg, env2), mult)
                    for env2, mult in group_rows
                ]
                values[id(node)] = agg_lib.aggregate(node.func, pairs, self.conventions)
        rep_env = group_rows[0][0] if group_rows else env
        return rep_env, values, self._having(plan, rep_env, values)

    def _having(self, plan, rep_env, agg_values):
        """The Kleene AND of the scope's aggregate comparisons (HAVING) for
        one group."""
        having = Truth.TRUE
        for predicate in plan.agg_comparisons:
            having = t_and(having, self._truth(predicate, rep_env, agg_values))
            if having is Truth.FALSE:
                break
        return having

    def _eval_empty_group_expr(self, expr, outer_env, agg_values):
        """Evaluate a head assignment over an empty γ∅ group.

        Well-formed queries only assign grouping-key expressions (constant
        across a group) and aggregates; over the empty group only the outer
        environment is bound, so a non-aggregate expression must be
        computable from it alone.
        """
        try:
            return self._eval_expr(expr, outer_env, agg_values)
        except EvaluationError:
            if n.facts(expr).aggregates:
                raise
            raise EvaluationError(
                "non-aggregate assignment over an empty γ∅ group references "
                "scope variables; no value is defined"
            ) from None

    # -- scope planning -----------------------------------------------------------

    def _head_key(self):
        """Cache key for head-dependent classifications of a scope."""
        head = self._head_stack[-1]
        return (head.name, head.attrs)

    def _plan_scope(self, quant):
        entry = plan_entry(quant)
        key = self._head_key()
        plan = entry.scope_plans.get(key)
        if plan is None:
            plan = self._classify_scope(quant)
            entry.scope_plans[key] = plan
        return plan

    def _cached_variant(self, variants, bindings, build):
        """The plan in *variants* matching the current catalog assumptions,
        compiling (and evicting the oldest of >4 variants) on a miss."""
        assumptions = scope_assumptions(self, bindings)
        for compiled in variants:
            if compiled.assumptions == assumptions:
                self.stats.plan_cache_hits += 1
                return compiled
        tracer = self.tracer
        if tracer is not None:
            with tracer.span("plan.compile"):
                compiled = build()
        else:
            compiled = build()
        variants.append(compiled)
        if len(variants) > 4:
            variants.pop(0)
        return compiled

    def _compile_scope(self, quant, plan):
        """Cached compilation of one scope (per AST node and head context)."""
        entry = plan_entry(quant)
        key = self._head_key()
        variants = entry.compiled.get(key)
        if variants is None:
            variants = entry.compiled[key] = []
        return self._cached_variant(
            variants, quant.bindings, lambda: compile_scope(self, quant, plan)
        )

    def _join_plan(self, quant, plan):
        """Cached condition assignment (+ uncovered-binding sub-plan)."""
        entry = plan_entry(quant)
        key = self._head_key()
        record = entry.join_plans.get(key)
        if record is None:
            assignment = ConditionAssignment(quant.join, plan.row_formulas)
            covered = annotation_vars(quant.join)
            uncovered = [b for b in quant.bindings if b.var not in covered]
            record = (assignment, uncovered, [])
            entry.join_plans[key] = record
        assignment, uncovered, variants = record
        sub = None
        if self.planner:
            sub = self._cached_variant(
                variants,
                uncovered,
                lambda: compile_bindings(self, uncovered, assignment.residual),
            )
        return assignment, uncovered, sub

    def _classify_scope(self, quant):
        plan = _ScopePlan()
        (
            plan.assignments,
            plan.agg_assignments,
            plan.agg_comparisons,
            formulas,
        ) = split_scope(self._head_stack[-1], quant)
        for formula in formulas:
            if self._emits(formula):
                plan.emitters.append(formula)
            else:
                plan.row_formulas.append(formula)
        agg_formulas = [expr for _, expr in plan.agg_assignments]
        agg_formulas += plan.agg_comparisons
        plan.aggregates = tuple(
            dict.fromkeys(
                agg for formula in agg_formulas for agg in n.facts(formula).aggregates
            )
        )
        if quant.grouping is not None:
            scope_vars = {binding.var for binding in quant.bindings}
            plan.head = tuple(
                _head_read(attr, expr, scope_vars)
                for attr, expr in plan.assignments + plan.agg_assignments
            )
        return plan

    def _emits(self, formula):
        """True when *formula* contains a positive assignment to the current
        head (so it must be enumerated, not just tested)."""
        head = self._head_stack[-1]

        def walk(node, negated):
            if isinstance(node, n.Comparison):
                return not negated and assignment_of(node, head) is not None
            if isinstance(node, (n.And, n.Or)):
                return any(walk(c, negated) for c in node.children_list)
            if isinstance(node, n.Not):
                return walk(node.child, True)
            if isinstance(node, n.Quantifier):
                return walk(node.body, negated)
            # Nested collections have their own heads; they do not emit for ours.
            return False

        return walk(formula, False)

    # -- combination enumeration -----------------------------------------------

    def _combos(self, quant, plan, env, *, strict):
        """Yield (env2, mult) for each binding combination of the scope.

        ``strict=True`` keeps only combinations whose row formulas are all
        TRUE (emitting and grouping scopes).  ``strict=False`` yields
        (env2, mult, truth) triples with the Kleene conjunction of the row
        formulas (boolean scopes need UNKNOWN propagation).
        """
        if quant.join is not None:
            assignment, uncovered, sub = self._join_plan(quant, plan)
            ctx = _JoinContext(self, {b.var: b for b in quant.bindings})
            deadline = self.deadline
            dl_ops = 0
            for delta, mult in enumerate_annotation(quant.join, env, ctx, assignment):
                if deadline is not None:
                    dl_ops += 1
                    if not dl_ops & STRIDE_MASK:
                        deadline.check()
                env2 = {**env, **delta}
                if sub is not None and strict:
                    yield from sub.execute(self, env2, mult)
                else:
                    yield from self._extend_with_bindings(
                        uncovered, assignment.residual, env2, mult, strict=strict
                    )
            return
        if strict and self.planner:
            compiled = self._compile_scope(quant, plan)
            yield from compiled.execute(self, env)
            return
        yield from self._extend_with_bindings(
            list(quant.bindings), plan.row_formulas, env, 1, strict=strict
        )

    def _extend_with_bindings(self, bindings, residual, env, mult, *, strict):
        concrete = []
        deferred = []
        for binding in bindings:
            if self._is_deferred(binding):
                deferred.append(binding)
            else:
                concrete.append(binding)
        deadline = self.deadline
        dl_ops = 0

        def recurse(index, env2, mult2):
            nonlocal dl_ops
            if index == len(concrete):
                yield from self._resolve_deferred(
                    list(deferred), residual, env2, mult2, strict=strict
                )
                return
            binding = concrete[index]
            for row, row_mult in self._binding_rows(binding, env2):
                if deadline is not None:
                    dl_ops += 1
                    if not dl_ops & STRIDE_MASK:
                        deadline.check()
                yield from recurse(index + 1, {**env2, binding.var: row}, mult2 * row_mult)

        yield from recurse(0, env, mult)

    def _resolve_deferred(self, pending, residual, env, mult, *, strict):
        """Bind external/abstract relations once their access patterns are
        satisfiable, then evaluate the residual row formulas."""
        if pending:
            for index, binding in enumerate(pending):
                known = self._known_attrs(binding, residual, env)
                rows = self._try_complete(binding, known, env)
                if rows is None:
                    continue
                rest = pending[:index] + pending[index + 1 :]
                for row in rows:
                    yield from self._resolve_deferred(
                        rest, residual, {**env, binding.var: Tuple(row)}, mult, strict=strict
                    )
                return
            names = [b.source.name for b in pending]
            raise EvaluationError(
                f"unsafe query: external/abstract bindings {names} cannot be "
                "resolved from the bound attributes (no access pattern applies)"
            )
        if strict:
            for formula in residual:
                if self._truth(formula, env) is not Truth.TRUE:
                    return
            yield env, mult
        else:
            truth = Truth.TRUE
            for formula in residual:
                truth = t_and(truth, self._truth(formula, env))
                if truth is Truth.FALSE:
                    break
            yield env, mult, truth

    def _known_attrs(self, binding, residual, env):
        """Attribute values for *binding* determined by equality conjuncts
        whose other side is already evaluable under *env*."""
        known = {}
        for formula in residual:
            if not isinstance(formula, n.Comparison) or formula.op != "=":
                continue
            for side, other in (
                (formula.left, formula.right),
                (formula.right, formula.left),
            ):
                if isinstance(side, n.Attr) and side.var == binding.var:
                    try:
                        known[side.attr] = self._eval_expr(other, env)
                    except EvaluationError:
                        pass
        return known

    def _try_complete(self, binding, known, env):
        """Rows completing a deferred binding, or None when not yet resolvable."""
        name = binding.source.name
        if name in self.abstract:
            source = self.abstract[name]
            if not source.resolvable(known):
                return None
            return source.complete(known)
        external = self.externals.get(name)
        if not external.accepts(known):
            return None
        return external.complete(known)

    def _is_deferred(self, binding):
        if not isinstance(binding.source, n.RelationRef):
            return False
        name = binding.source.name
        if name in self.defined or name in self.database:
            return False
        return name in self.abstract or name in self.externals

    def _resolve_relation(self, name):
        """The stored relation *name* currently denotes (defined wins)."""
        relation = self.defined.get(name)
        if relation is not None:
            return relation
        if name in self.database:
            return self.database.get(name)
        if name in self.abstract or name in self.externals:
            raise EvaluationError(
                f"relation {name!r} has no stored extension and must be "
                "resolved through access patterns"
            )
        raise EvaluationError(f"unknown relation {name!r}")

    def _binding_rows(self, binding, env):
        """Enumerate (row, mult) for one binding, laterally under *env*."""
        if isinstance(binding.source, n.Collection):
            self.stats.lateral_reevals += 1
            counter = self._eval_collection(binding.source, env)
            for row, mult in counter.items():
                yield row, mult
            return
        relation = self._resolve_relation(binding.source.name)
        if self.conventions.is_set:
            for row in relation.iter_distinct():
                yield row, 1
        else:
            for row, mult in relation.counter().items():
                yield row, mult

    # -- boolean evaluation ------------------------------------------------------

    def _truth(self, formula, env, agg_values=None):
        if isinstance(formula, n.Comparison):
            left = self._eval_expr(formula.left, env, agg_values)
            right = self._eval_expr(formula.right, env, agg_values)
            return compare(
                left, formula.op, right, three_valued=self.conventions.three_valued
            )
        if isinstance(formula, n.IsNull):
            result = Truth.of(is_null(self._eval_expr(formula.expr, env, agg_values)))
            return t_not(result) if formula.negated else result
        if isinstance(formula, n.BoolConst):
            return Truth.TRUE if formula.value else Truth.FALSE
        if isinstance(formula, n.And):
            result = Truth.TRUE
            for child in formula.children_list:
                result = t_and(result, self._truth(child, env, agg_values))
                if result is Truth.FALSE:
                    return result
            return result
        if isinstance(formula, n.Or):
            result = Truth.FALSE
            for child in formula.children_list:
                result = t_or(result, self._truth(child, env, agg_values))
                if result is Truth.TRUE:
                    return result
            return result
        if isinstance(formula, n.Not):
            return t_not(self._truth(formula.child, env, agg_values))
        if isinstance(formula, n.Quantifier):
            return self._truth_quantifier(formula, env)
        raise EvaluationError(f"cannot evaluate {type(formula).__name__} as boolean")

    def _truth_quantifier(self, quant, env):
        plan = self._plan_scope(quant)
        if plan.assignments or plan.agg_assignments or plan.emitters:
            # An emitting quantifier used as a boolean test: true iff it has
            # at least one solution (e.g. under Not in hand-written queries).
            for _ in self._solutions_quantifier(quant, env, top=False):
                return Truth.TRUE
            return Truth.FALSE
        if self.planner and env:
            # A scope outside every other (empty env) runs once, and its
            # early exit beats building an index.
            truth = self._truth_exists(quant, env)
            if truth is not None:
                return truth
        if quant.grouping is not None:
            return self._truth_grouped(quant, plan, env)
        result = Truth.FALSE
        for _, _, truth in self._combos(quant, plan, env, strict=False):
            result = t_or(result, truth)
            if result is Truth.TRUE:
                return result
        return result

    def _truth_exists(self, quant, env):
        """∃ as one probe of the scope's decorrelated index, or None when
        the scope must run per row (refused shape, ``decorrelate=False``,
        unindexable data, or an outer key that does not evaluate)."""
        spec = decorrelate.plan_for(self, quant)[0]
        if spec is None:
            return None
        index = spec.materialize(self)
        if index is None:
            return None
        try:
            key = tuple(self._eval_expr(expr, env) for expr in spec.outer_exprs)
        except EvaluationError:
            return None
        stats = self.stats
        stats.index_probes += 1
        if index.tribucket:
            stats.tribucket_probes += 1
        return index.truth(key)

    def _truth_grouped(self, quant, plan, env):
        """Boolean grouping scope: ∃ a group satisfying the aggregate
        predicates (Fig. 9 and the count bug's version 1), per outer row —
        the oracle for the index :meth:`_truth_exists` probes."""
        result = Truth.FALSE
        for _, _, _, having in self._groups(quant, plan, env):
            result = t_or(result, having)
            if result is Truth.TRUE:
                return result
        return result

    # -- expressions ----------------------------------------------------------------

    def _eval_expr(self, expr, env, agg_values=None):
        if isinstance(expr, n.Const):
            return expr.value
        if isinstance(expr, n.Attr):
            row = env.get(expr.var)
            if row is None:
                raise EvaluationError(f"unbound range variable {expr.var!r}")
            return row[expr.attr]
        if isinstance(expr, n.Arith):
            left = self._eval_expr(expr.left, env, agg_values)
            right = self._eval_expr(expr.right, env, agg_values)
            return arithmetic(expr.op, left, right)
        if isinstance(expr, n.AggCall):
            if agg_values is None or id(expr) not in agg_values:
                raise EvaluationError(
                    f"aggregate {expr.func}(...) evaluated outside a grouping scope"
                )
            return agg_values[id(expr)]
        raise EvaluationError(f"cannot evaluate expression {type(expr).__name__}")
