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
  makes the SQL iteration terminate on cyclic data — base disjuncts first.

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
subquery with the inequality in its WHERE clause.

**SQL-level FOI → FIO lowering** (:func:`rewrite_for_sql`, on the
engine's correlation analysis :func:`repro.engine.decorrelate.analyze`) —
equality-correlated scopes become plain ``group by`` derived tables joined
on the key columns (no ``lateral`` keyword, so engines without
``LATERAL`` — SQLite — execute them natively), non-grouped correlated
collections are *unnested* into the outer scope
(:func:`repro.core.rewrites.unnest_lateral`), and non-grouped θ-correlated
collections that resist unnesting become uncorrelated derived tables
joined through the *inequality* key.  γ∅ aggregate-only scopes — any
correlation operator — are left to the scalar-subquery device.
:func:`lateral_bindings` names what stays lateral when the lowering is off.
Nothing here is cached: the SQLite backend keeps the results in its one
compile record per query node.

The produced text parses back through :mod:`repro.frontends.sql` for the
non-recursive fragment, enabling round-trip testing, and executes on the
SQLite offload backend (:mod:`repro.backends.exec.sqlite_exec`).
"""

from __future__ import annotations

from ..core import nodes as n
from ..core.rewrites import unnest_lateral
from ..core.scopes import (
    free_variables,
    orient_aggregate,
    scalar_subquery_shape,
    shadows_binding,
    split_scope,
    substitute,
)
from ..data.values import is_null
from ..engine.decorrelate import analyze
from ..engine.joins import ConditionAssignment, annotation_vars
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
    procedure, shared with the SQL lowering below, so the SQLite capability
    probe never promises native execution for a shape the renderer still
    emits as LATERAL.
    """
    reason = scalar_subquery_shape(binding.source)
    if reason is not None:
        return reason
    if shadows_binding(quant, binding):
        return f"the variable {binding.var!r} is rebound in the scope"
    if quant.join is not None and binding.var in annotation_vars(quant.join):
        return "the binding is an operand of a join annotation"
    return None


def _correlated(binding):
    source = binding.source
    return isinstance(source, n.Collection) and free_variables(source)


def lateral_bindings(node):
    """Correlated bindings of *node* that render with ``LATERAL`` when the
    lowering is off (:func:`rewrite_for_sql` reports them when it is on)."""
    for sub in node.walk():
        if isinstance(sub, n.Quantifier):
            for binding in sub.bindings:
                if (
                    _correlated(binding)
                    and scalar_inlinable(sub, binding) is not None
                ):
                    yield binding


# ---------------------------------------------------------------------------
# FOI → FIO lowering (bag semantics; used by the SQLite backend)
# ---------------------------------------------------------------------------

def rewrite_for_sql(node):
    """Decorrelate *node* for SQL rendering; ``(rewritten, leftovers)``.

    Sound under bag semantics, the only conventions the SQLite backend
    accepts.  γ∅ scopes are never group-by-rewritten (the count bug: an
    empty group must still emit a row).  *leftovers* lists ``(var,
    reason)`` for bindings that remain correlated and will need the
    ``lateral`` keyword — the backend's capability probe turns each into a
    specific fallback message.  The rewritten tree is rebuilt, so it holds
    no node of *node*'s; the SQLite backend keeps it in its compile record.
    """
    leftovers = []
    rewritten = n.transform(node, lambda sub: _fix_quantifier(sub, leftovers))
    return rewritten, tuple(leftovers)


def _fio_join_conjuncts(spec, var):
    """Key-join conjuncts tying the FIO derived table back to the outer row."""
    extra = [
        n.Comparison(n.Attr(var, ck), "=", n.clone(outer))
        for ck, outer in zip(spec.key_attrs, spec.outer_exprs)
    ]
    if spec.strategy == "band":
        extra.append(
            n.Comparison(
                n.Attr(var, spec.band_attr),
                spec.band_op,
                n.clone(spec.band_outer_expr),
            )
        )
    return extra


def _fix_quantifier(node, leftovers):
    if not isinstance(node, n.Quantifier):
        return node
    extra = []  # join conjuncts added by FIO rewrites
    substitutions = {}  # (var, attr) -> replacement expr, from unnesting
    spliced = False
    out = []
    for binding in node.bindings:
        if not _correlated(binding):
            out.append(binding)
            continue
        spec = analyze(binding.source)
        fio = spec.reason is None and not spec.empty_group
        if fio and spec.strategy == "eq":
            # FIO: uncorrelated grouped derived table + key-equality join.
            out.append(n.Binding(binding.var, n.clone(spec.rewritten)))
            extra.extend(_fio_join_conjuncts(spec, binding.var))
            continue
        unnested = unnest_lateral(node, binding)
        if unnested is not None:
            inner_bindings, moved, mapping = unnested
            out.extend(inner_bindings)
            extra.extend(moved)
            substitutions.update(mapping)
            spliced = True
            continue
        scalar_reason = scalar_inlinable(node, binding)
        if scalar_reason is None:
            out.append(binding)  # the renderer inlines it as scalar subqueries
            continue
        if fio:
            # Band FIO: uncorrelated derived table carrying the band key,
            # joined back through the original inequality — no LATERAL.
            out.append(n.Binding(binding.var, n.clone(spec.rewritten)))
            extra.extend(_fio_join_conjuncts(spec, binding.var))
            continue
        fio_reason = spec.reason or (
            "γ∅ scope must emit a row even over an empty group (the count "
            "bug forbids a group-by rewrite)"
        )
        leftovers.append(
            (
                binding.var,
                f"cannot decorrelate ({fio_reason}) nor inline as a scalar "
                f"subquery ({scalar_reason})",
            )
        )
        out.append(binding)
    if not extra and not spliced:
        return node
    body = n.make_and(n.conjuncts(node.body) + extra)
    return substitute(
        n.Quantifier(out, body, node.grouping, node.join), attrs=substitutions
    )


def _split_select(head, quant):
    """:func:`split_scope`, refusing a head attribute assigned twice: a
    select item holds one expression, so the second assignment (a
    constraint that both agree) would be silently dropped."""
    parts = split_scope(head, quant)
    assigned = [attr for attr, _ in parts[0] + parts[1]]
    if len(set(assigned)) != len(assigned):
        twice = sorted({attr for attr in assigned if assigned.count(attr) > 1})
        raise RewriteError(
            f"head attributes {twice} have more than one assignment "
            "(a select item holds one expression)"
        )
    return parts


def _parenthesized(sql):
    """*sql* as an indented parenthesized subquery."""
    indented = "\n   ".join(sql.splitlines())
    return f"(\n   {indented})"


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
            is_recursive = name in n.facts(definition).relation_refs
            recursive = recursive or is_recursive
            attrs = ", ".join(definition.head.attrs)
            body = self.render_collection(
                definition, recursive=name if is_recursive else None
            )
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

    # -- collections ------------------------------------------------------------

    def render_collection(self, coll, *, recursive=None):
        """*coll*'s disjunct selects; those of a definition reading its own
        name *recursive* are joined by UNION, base disjuncts first (a
        recursive CTE runs its non-recursive selects before the others)."""
        head = coll.head
        disjuncts = (
            coll.body.children_list if isinstance(coll.body, n.Or) else [coll.body]
        )
        if recursive is not None:
            disjuncts = sorted(
                disjuncts, key=lambda d: recursive in n.facts(d).relation_refs
            )
        selects = []
        for disjunct in disjuncts:
            if not isinstance(disjunct, n.Quantifier):
                raise RewriteError(
                    "only quantifier bodies can be rendered as SQL selects "
                    f"(got {type(disjunct).__name__})"
                )
            selects.append(self._render_quantifier_select(head, disjunct))
        separator = "\nunion all\n" if recursive is None else "\nunion\n"
        return separator.join(selects)

    def _render_quantifier_select(self, head, quant):
        parts = _split_select(head, quant)
        return self._with_scalars(
            quant, self._render_select_body, head, quant, parts
        )

    def _render_select_body(self, head, quant, parts, eliminated):
        (assignments, agg_assignments, agg_comparisons, row_formulas) = parts
        tail = self._from_where(quant, row_formulas, eliminated)
        select_items = []
        for attr in head.attrs:
            expr = dict(assignments + agg_assignments).get(attr)
            if expr is None:
                raise RewriteError(
                    f"head attribute {attr!r} has no assignment predicate"
                )
            select_items.append(f"{self._render_expr(expr)} as {attr}")

        distinct = ""
        if quant.grouping is not None:
            keys = [self._render_expr(k) for k in quant.grouping.keys]
            if agg_assignments or agg_comparisons:
                tail += self._group_tail(keys, agg_comparisons)
            elif set(keys) == {self._render_expr(e) for _, e in assignments}:
                distinct = "distinct "  # pure deduplication of the projection
            else:
                tail += "\ngroup by " + ", ".join(keys)
        return f"select {distinct}" + ", ".join(select_items) + tail

    def _group_tail(self, keys, agg_comparisons):
        """The ``group by … having …`` tail of an aggregating select."""
        tail = "\ngroup by " + ", ".join(keys) if keys else ""
        if agg_comparisons:
            tail += "\nhaving " + " and ".join(
                self._render_formula(f) for f in agg_comparisons
            )
        return tail

    # -- correlated scalar subqueries -----------------------------------------

    def _with_scalars(self, quant, render, *args):
        """``render(*args, eliminated)`` with *quant*'s scalar-inlined
        bindings (:meth:`_scalar_eliminated`) substituted."""
        eliminated, substitutions = self._scalar_eliminated(quant)
        saved = self._scalar
        if substitutions:
            self._scalar = {**saved, **substitutions}
        try:
            return render(*args, eliminated)
        finally:
            self._scalar = saved

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
                if (
                    not _correlated(binding)
                    or scalar_inlinable(quant, binding) is not None
                ):
                    continue
                source = binding.source
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
        parts = _split_select(source.head, body)
        _, agg_assignments, _, row_formulas = parts
        expr = dict(agg_assignments)[attr]
        tail = self._from_where(body, row_formulas)
        return _parenthesized(f"select {self._render_expr(expr)}{tail}")

    # -- FROM / joins -----------------------------------------------------------------

    def _from_where(self, quant, row_formulas, skip=frozenset()):
        """The ``from … where …`` tail of a select over *quant*: its FROM
        items and the row formulas no join annotation's ON consumed."""
        from_sql, consumed = self._render_from(quant, skip=skip)
        where = [
            self._render_formula(f) for f in row_formulas if id(f) not in consumed
        ]
        return (f"\nfrom {from_sql}" if from_sql else "") + (
            "\nwhere " + " and ".join(where) if where else ""
        )

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
        return self._with_scalars(quant, self._render_boolean_quantifier_body, quant)

    def _render_boolean_quantifier_body(self, quant, eliminated):
        conjuncts = n.conjuncts(quant.body)
        agg_comparisons = [
            c
            for c in conjuncts
            if isinstance(c, n.Comparison) and c.has_aggregate()
        ]
        row_formulas = [c for c in conjuncts if c not in agg_comparisons]
        tail = self._from_where(quant, row_formulas, eliminated)
        if quant.grouping is not None and not quant.grouping.keys and len(agg_comparisons) == 1:
            # γ∅ + single aggregation comparison: correlated scalar subquery
            # (Fig. 21a / Fig. 9 pattern).
            agg_side, other_side, op = orient_aggregate(agg_comparisons[0])
            sub = _parenthesized(f"select {self._render_expr(agg_side)}{tail}")
            return f"{self._render_expr(other_side)} {op} {sub}"
        if quant.grouping is not None:
            keys = [self._render_expr(k) for k in quant.grouping.keys]
            tail += self._group_tail(keys, agg_comparisons)
        return f"exists {_parenthesized('select 1' + tail)}"

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
                return "'" + value.replace("'", "''") + "'"
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
