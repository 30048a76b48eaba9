"""Rendering ARC back into executable SQL text.

The inverse direction of the paper's planned ``SQL ↔ ARC`` translator
(Section 5): every ARC construct maps onto its SQL encoding —

* bindings become FROM items; nested collections become ``JOIN LATERAL``
  derived tables (the paper's canonical encoding of body nesting, Fig. 3a);
* join annotations become INNER/LEFT/FULL JOIN syntax, re-materializing the
  literal-leaf device as ON conjuncts (Fig. 12);
* plain assignments become select items; aggregation assignments become
  aggregate select items with GROUP BY; aggregation comparisons become
  HAVING;
* boolean quantifiers become EXISTS subqueries; a boolean ``γ∅`` scope with
  a single aggregation comparison becomes a correlated scalar subquery
  (Fig. 21a); negation becomes NOT EXISTS;
* top-level disjunction becomes UNION ALL; deduplicating grouping becomes
  SELECT DISTINCT; recursion becomes WITH RECURSIVE, with the recursive
  disjuncts joined by set-based UNION — the engine's fixpoint materializes
  recursive relations under set semantics (Section 2.9), and UNION is what
  makes the SQL iteration terminate on cyclic data.

Derived tables carry the ``lateral`` keyword only when the nested collection
actually references outer bindings; uncorrelated subqueries render as plain
parenthesized FROM items, which keeps them inside the fragment engines
without LATERAL support (e.g. SQLite) can execute.  A correlated γ∅ scope
whose head is aggregate-only is not rendered as a FROM item at all: it is
inlined as per-attribute *correlated scalar subqueries* (the paper's
Fig. 5a/13a device, :func:`scalar_subquery_shape`) — a γ∅ scope emits
exactly one row per outer row, which is precisely a scalar subquery's
contract (including ``count`` over an empty group, where the group-by
rewrite would hit the count bug).  The device is operator-agnostic: an
eq15-shaped θ correlation (``s.a < r.a``) renders as the same scalar
subquery with the inequality in its WHERE clause, and the FOI → FIO pass
(:mod:`repro.engine.decorrelate`) turns non-grouped θ laterals that
resist unnesting into uncorrelated derived tables joined back through the
projected band key with the original inequality.  Together these keep
every equality-, θ-, or aggregate-correlated paper workload executable on
engines without LATERAL.

The produced text parses back through :mod:`repro.frontends.sql` for the
non-recursive fragment, enabling round-trip testing, and executes on the
SQLite offload backend (:mod:`repro.backends.exec.sqlite_exec`).
"""

from __future__ import annotations

from ..core import nodes as n
from ..core.scopes import (
    free_variables,
    scalar_subquery_shape,
    shadows_binding,
    split_scope,
)
from ..data.values import is_null
from ..errors import RewriteError


def to_sql(node, *, pretty=True):
    """Render an ARC Collection, Sentence, or Program as SQL text."""
    renderer = _SqlRenderer()
    if isinstance(node, n.Program):
        return renderer.render_program(node)
    if isinstance(node, n.Collection):
        return renderer.render_collection(node)
    if isinstance(node, n.Sentence):
        return renderer.render_sentence(node)
    raise RewriteError(f"cannot render {type(node).__name__} as SQL")


def scalar_inlinable(quant, binding):
    """Why the renderer will NOT inline *binding* as scalar subqueries.

    Returns None when it will.  This is the renderer's own decision
    procedure, shared with the SQLite capability probe
    (:mod:`repro.engine.decorrelate`) so the probe never promises native
    execution for a shape the renderer still emits as LATERAL.
    """
    reason = scalar_subquery_shape(binding.source)
    if reason is not None:
        return reason
    if shadows_binding(quant, binding):
        return f"the variable {binding.var!r} is rebound in the scope"
    if quant.join is not None:
        from ..engine.joins import annotation_vars

        if binding.var in annotation_vars(quant.join):
            return "the binding is an operand of a join annotation"
    return None


class _SqlRenderer:
    def __init__(self):
        #: Active scalar-subquery substitutions: (var, attr) -> SQL text.
        self._scalar = {}

    # -- programs ------------------------------------------------------------

    def render_program(self, program):
        if not program.definitions:
            return self.render_collection(program.resolve_main())
        ctes = []
        recursive = False
        for name, definition in program.definitions.items():
            is_recursive = self._is_recursive(name, definition)
            recursive = recursive or is_recursive
            attrs = ", ".join(definition.head.attrs)
            # Recursive definitions iterate to a *set-based* least fixpoint
            # (Section 2.9), so their disjuncts are joined by UNION — which
            # also makes the SQL recursion terminate on cyclic inputs.
            body = self.render_collection(definition, set_union=is_recursive)
            ctes.append(f"{name}({attrs}) as (\n{body}\n)")
        main = program.resolve_main()
        if isinstance(program.main, str):
            main_sql = f"select * from {program.main}"
        elif isinstance(main, n.Sentence):
            main_sql = self.render_sentence(main)
        else:
            main_sql = self.render_collection(main)
        keyword = "with recursive" if recursive else "with"
        return f"{keyword} " + ",\n".join(ctes) + f"\n{main_sql}"

    @staticmethod
    def _is_recursive(name, definition):
        return any(
            isinstance(node, n.RelationRef) and node.name == name
            for node in definition.walk()
        )

    # -- collections ------------------------------------------------------------

    def render_collection(self, coll, *, set_union=False):
        head = coll.head
        disjuncts = (
            coll.body.children_list if isinstance(coll.body, n.Or) else [coll.body]
        )
        selects = []
        for disjunct in disjuncts:
            if not isinstance(disjunct, n.Quantifier):
                raise RewriteError(
                    "only quantifier bodies can be rendered as SQL selects "
                    f"(got {type(disjunct).__name__})"
                )
            selects.append(self._render_quantifier_select(head, disjunct))
        separator = "\nunion\n" if set_union else "\nunion all\n"
        return separator.join(selects)

    def _render_quantifier_select(self, head, quant):
        parts = split_scope(head, quant)
        (assignments, agg_assignments, agg_comparisons, row_formulas) = parts

        eliminated, substitutions = self._scalar_eliminated(quant)
        saved = self._scalar
        if substitutions:
            self._scalar = {**saved, **substitutions}
        try:
            return self._render_select_body(
                head, quant, parts, eliminated
            )
        finally:
            self._scalar = saved

    def _render_select_body(self, head, quant, parts, eliminated):
        (assignments, agg_assignments, agg_comparisons, row_formulas) = parts

        from_sql, on_consumed = self._render_from(quant, skip=eliminated)
        where = [
            self._render_formula(f)
            for f in row_formulas
            if id(f) not in on_consumed
        ]

        select_items = []
        for attr in head.attrs:
            expr = dict(assignments + agg_assignments).get(attr)
            if expr is None:
                raise RewriteError(
                    f"head attribute {attr!r} has no assignment predicate"
                )
            select_items.append(f"{self._render_expr(expr)} as {attr}")

        grouping = quant.grouping
        distinct = ""
        group_by = ""
        having = ""
        if grouping is not None:
            has_aggs = bool(agg_assignments or agg_comparisons)
            if not has_aggs:
                # Pure deduplication: grouping on all projected expressions.
                assigned = {self._render_expr(e) for _, e in assignments}
                keys = {self._render_expr(k) for k in grouping.keys}
                if keys == assigned:
                    distinct = "distinct "
                else:
                    group_by = "\ngroup by " + ", ".join(
                        self._render_expr(k) for k in grouping.keys
                    )
            elif grouping.keys:
                group_by = "\ngroup by " + ", ".join(
                    self._render_expr(k) for k in grouping.keys
                )
            if agg_comparisons:
                having = "\nhaving " + " and ".join(
                    self._render_formula(f) for f in agg_comparisons
                )

        sql = f"select {distinct}" + ", ".join(select_items)
        if from_sql:
            sql += f"\nfrom {from_sql}"
        if where:
            sql += "\nwhere " + " and ".join(where)
        sql += group_by + having
        return sql

    # -- correlated scalar subqueries -----------------------------------------

    def _scalar_eliminated(self, quant):
        """Bindings inlined as scalar subqueries: (ids to skip, substitutions).

        A correlated γ∅ aggregate-only collection emits exactly one row per
        outer environment, so each head attribute renders as a correlated
        scalar subquery (Fig. 5a/13a) instead of a LATERAL FROM item.
        Bindings are processed in scope order with the substitutions
        installed progressively, so a later inlined binding referencing an
        earlier one renders the reference as a *nested* scalar subquery
        instead of naming an alias that was eliminated from FROM.
        """
        eliminated = set()
        substitutions = {}
        saved = self._scalar
        try:
            for binding in quant.bindings:
                source = binding.source
                if not isinstance(source, n.Collection) or not free_variables(
                    source
                ):
                    continue
                if scalar_inlinable(quant, binding) is not None:
                    continue
                self._scalar = {**saved, **substitutions}
                for attr in source.head.attrs:
                    substitutions[(binding.var, attr)] = (
                        self._render_scalar_subquery(source, attr)
                    )
                eliminated.add(id(binding))
        finally:
            self._scalar = saved
        return eliminated, substitutions

    def _render_scalar_subquery(self, source, attr):
        body = source.body
        parts = split_scope(source.head, body)
        _, agg_assignments, _, row_formulas = parts
        expr = dict(agg_assignments)[attr]
        from_sql, consumed = self._render_from(body)
        where = [
            self._render_formula(f)
            for f in row_formulas
            if id(f) not in consumed
        ]
        sub = f"select {self._render_expr(expr)}"
        if from_sql:
            sub += f"\nfrom {from_sql}"
        if where:
            sub += "\nwhere " + " and ".join(where)
        indented = "\n   ".join(sub.splitlines())
        return f"(\n   {indented})"

    # -- FROM / joins -----------------------------------------------------------------

    def _render_from(self, quant, skip=frozenset()):
        """Render the FROM clause; returns (sql, ids of consumed conjuncts).

        *skip* holds ids of bindings inlined as scalar subqueries (they are
        not FROM items); an empty FROM renders as "" (a one-row select).
        """
        bindings = {b.var: b for b in quant.bindings}
        consumed = set()
        if quant.join is None:
            items = [
                self._render_binding(b) for b in quant.bindings if id(b) not in skip
            ]
            return ",\n     ".join(items), consumed

        from ..engine.joins import ConditionAssignment, annotation_vars

        row_formulas = [
            c
            for c in n.conjuncts(quant.body)
            if not (isinstance(c, n.Comparison) and c.has_aggregate())
            and self._assignment_of_any(c, quant) is None
        ]
        assignment = ConditionAssignment(quant.join, row_formulas)

        def render_ann(node):
            if isinstance(node, n.JoinVar):
                filters = assignment.filters(node.var)
                consumed.update(id(f) for f in filters)
                text = self._render_binding(bindings[node.var])
                return text, [self._render_formula(f) for f in filters]
            if isinstance(node, n.JoinConst):
                return None, []
            children = [render_ann(c) for c in node.children_list]
            conditions = assignment.conditions(node)
            consumed.update(id(f) for f in conditions)
            condition_texts = [self._render_formula(f) for f in conditions]
            if node.kind == "inner":
                texts = [(t, extra) for t, extra in children if t is not None]
                base, extras = texts[0]
                condition_texts.extend(extras)
                for text, child_extras in texts[1:]:
                    on = " and ".join(condition_texts + child_extras) or "true"
                    base = f"{base}\n  join {text} on {on}"
                    condition_texts = []
                return base, condition_texts
            keyword = {"left": "left join", "full": "full join"}[node.kind]
            (left_text, left_extras) = children[0]
            (right_text, right_extras) = children[1]
            on_parts = condition_texts + left_extras + right_extras
            on = " and ".join(on_parts) or "true"
            return f"{left_text}\n  {keyword} {right_text} on {on}", []

        covered = annotation_vars(quant.join)
        text, leftover = render_ann(quant.join)
        if leftover:
            raise RewriteError("dangling join conditions in annotation rendering")
        uncovered = [
            b for b in quant.bindings if b.var not in covered and id(b) not in skip
        ]
        items = [text] + [self._render_binding(b) for b in uncovered]
        return ",\n     ".join(items), consumed

    def _assignment_of_any(self, conjunct, quant):
        """An assignment to *any* enclosing head cannot be a row formula;
        detect by shape (Head.attr = expr with a capitalized-style var that
        is not bound in this scope)."""
        if not isinstance(conjunct, n.Comparison) or conjunct.op != "=":
            return None
        bound = {b.var for b in quant.bindings}
        for side in (conjunct.left, conjunct.right):
            if isinstance(side, n.Attr) and side.var not in bound:
                other = conjunct.right if side is conjunct.left else conjunct.left
                other_vars = n.vars_used(other)
                if other_vars and other_vars <= bound:
                    return side
        return None

    def _render_binding(self, binding):
        if isinstance(binding.source, n.RelationRef):
            name = binding.source.name
            if not (name[0].isalpha() or name[0] == "_"):
                name = f'"{name}"'
            if binding.var.lower() == binding.source.name.lower():
                return name
            return f"{name} {binding.var}"
        sub = self.render_collection(binding.source)
        indented = "\n    ".join(sub.splitlines())
        keyword = "lateral " if free_variables(binding.source) else ""
        return f"{keyword}(\n    {indented}\n  ) {binding.var}"

    # -- formulas -----------------------------------------------------------------------

    def _render_formula(self, formula):
        if isinstance(formula, n.Comparison):
            return (
                f"{self._render_expr(formula.left)} {formula.op} "
                f"{self._render_expr(formula.right)}"
            )
        if isinstance(formula, n.IsNull):
            suffix = "is not null" if formula.negated else "is null"
            return f"{self._render_expr(formula.expr)} {suffix}"
        if isinstance(formula, n.BoolConst):
            return "true" if formula.value else "false"
        if isinstance(formula, n.And):
            return "(" + " and ".join(
                self._render_formula(c) for c in formula.children_list
            ) + ")"
        if isinstance(formula, n.Or):
            return "(" + " or ".join(
                self._render_formula(c) for c in formula.children_list
            ) + ")"
        if isinstance(formula, n.Not):
            if isinstance(formula.child, n.Quantifier):
                return f"not {self._render_boolean_quantifier(formula.child)}"
            return f"not ({self._render_formula(formula.child)})"
        if isinstance(formula, n.Quantifier):
            return self._render_boolean_quantifier(formula)
        raise RewriteError(f"cannot render formula {type(formula).__name__} as SQL")

    def _render_boolean_quantifier(self, quant):
        eliminated, substitutions = self._scalar_eliminated(quant)
        saved = self._scalar
        if substitutions:
            self._scalar = {**saved, **substitutions}
        try:
            return self._render_boolean_quantifier_body(quant, eliminated)
        finally:
            self._scalar = saved

    def _render_boolean_quantifier_body(self, quant, eliminated):
        conjuncts = n.conjuncts(quant.body)
        agg_comparisons = [
            c
            for c in conjuncts
            if isinstance(c, n.Comparison) and c.has_aggregate()
        ]
        row_formulas = [c for c in conjuncts if c not in agg_comparisons]
        from_sql, consumed = self._render_from(quant, skip=eliminated)
        where = [
            self._render_formula(f) for f in row_formulas if id(f) not in consumed
        ]
        if quant.grouping is not None and not quant.grouping.keys and len(agg_comparisons) == 1:
            # γ∅ + single aggregation comparison: correlated scalar subquery
            # (Fig. 21a / Fig. 9 pattern).
            predicate = agg_comparisons[0]
            agg_side, other_side, op = self._orient_aggregate(predicate)
            sub = f"select {self._render_expr(agg_side)}"
            if from_sql:
                sub += f"\nfrom {from_sql}"
            if where:
                sub += "\nwhere " + " and ".join(where)
            indented = "\n   ".join(sub.splitlines())
            return f"{self._render_expr(other_side)} {op} (\n   {indented})"
        sql = "select 1"
        if from_sql:
            sql += f"\nfrom {from_sql}"
        if where:
            sql += "\nwhere " + " and ".join(where)
        if quant.grouping is not None:
            if quant.grouping.keys:
                sql += "\ngroup by " + ", ".join(
                    self._render_expr(k) for k in quant.grouping.keys
                )
            if agg_comparisons:
                sql += "\nhaving " + " and ".join(
                    self._render_formula(f) for f in agg_comparisons
                )
        indented = "\n   ".join(sql.splitlines())
        return f"exists (\n   {indented})"

    def render_sentence(self, sentence):
        """A sentence becomes a one-value boolean SELECT.

        Negations stay *outside* the quantifier rendering: wrapping the
        boolean select in a further EXISTS would always be true (the inner
        select always yields its one row), so ``¬∃`` renders directly as
        ``select not exists (...)``.
        """
        return self._render_truth_select(sentence.body, negated=False)

    def _render_truth_select(self, body, *, negated):
        if isinstance(body, n.Not):
            return self._render_truth_select(body.child, negated=not negated)
        if isinstance(body, n.Quantifier):
            text = self._render_boolean_quantifier(body)
            if text.startswith("exists ("):
                keyword = "not exists" if negated else "exists"
                return f"select {keyword} {text[len('exists '):]}"
            # γ∅ scalar-subquery shape: a bare comparison.
            return f"select not ({text})" if negated else f"select {text}"
        raise RewriteError("sentence body must be a (negated) quantifier")

    @staticmethod
    def _orient_aggregate(predicate):
        """Return (aggregate-side, other-side, op-with-other-on-left)."""
        flip = {"=": "=", "<>": "<>", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        left_has = any(isinstance(x, n.AggCall) for x in predicate.left.walk())
        if left_has:
            return predicate.left, predicate.right, flip[predicate.op]
        return predicate.right, predicate.left, predicate.op

    # -- expressions ----------------------------------------------------------------------

    def _render_expr(self, expr):
        if isinstance(expr, n.Attr):
            inlined = self._scalar.get((expr.var, expr.attr))
            if inlined is not None:
                return inlined
            return f"{expr.var}.{expr.attr}"
        if isinstance(expr, n.Const):
            value = expr.value
            if is_null(value):
                return "null"
            if value is True:
                return "true"
            if value is False:
                return "false"
            if isinstance(value, str):
                return f"'{value}'"
            return repr(value)
        if isinstance(expr, n.AggCall):
            if expr.arg is None:
                return "count(*)"
            func = expr.func
            if func.endswith("distinct"):
                return f"{func[:-len('distinct')]}(distinct {self._render_expr(expr.arg)})"
            return f"{func}({self._render_expr(expr.arg)})"
        if isinstance(expr, n.Arith):
            left = self._render_expr(expr.left)
            right = self._render_expr(expr.right)
            if isinstance(expr.left, n.Arith):
                left = f"({left})"
            if isinstance(expr.right, n.Arith):
                right = f"({right})"
            return f"{left} {expr.op} {right}"
        raise RewriteError(f"cannot render expression {type(expr).__name__}")
