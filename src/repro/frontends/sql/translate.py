"""Translation of the SQL subset into ARC, preserving relational patterns.

The embeddings implemented here are exactly the ones the paper describes:

* FROM aliases become quantifier bindings; explicit joins become join
  annotations (Section 2.11), with the literal-leaf device
  (``inner(11, s)``) applied automatically to preserved-side-constant ON
  conjuncts (Fig. 12);
* derived tables and ``JOIN LATERAL`` become nested collections bound in
  the body (Section 2.4);
* correlated scalar subqueries with aggregates become boolean grouping
  scopes with ``γ∅`` when compared in WHERE (the count-bug pattern,
  eq. (27)) and lateral FOI collections when selected (Fig. 5a -> eq. (7),
  Section 2.12);
* GROUP BY becomes a grouping operator; aggregates become aggregation
  assignment predicates evaluated *in the same scope* (the FIO pattern,
  Fig. 4); HAVING becomes a selection on a wrapping collection (eq. (8));
* DISTINCT becomes grouping on all projected expressions (Section 2.7);
* IN / NOT IN become (negated) existential quantifiers, reproducing SQL's
  three-valued NULL behaviour under the 3VL convention (Section 2.10);
* UNION becomes disjunction (Section 2.8); UNION without ALL adds a
  deduplicating wrapper;
* ``SELECT EXISTS(...)`` with no FROM clause becomes a boolean Sentence
  (Fig. 9).
"""

from __future__ import annotations

from itertools import count as _counter

from ...core import nodes as n
from ...core.scopes import FLIP
from ...errors import ParseError
from . import ast
from .parser import parse_sql


def to_arc(sql, *, database=None, head_name="Q"):
    """Parse *sql* and translate it to ARC.

    Returns a :class:`~repro.core.nodes.Collection`, a
    :class:`~repro.core.nodes.Sentence` (for ``SELECT EXISTS`` with no
    FROM), or a :class:`~repro.core.nodes.Program` (for ``SELECT INTO``).
    """
    stmt = parse_sql(sql)
    return translate(stmt, database=database, head_name=head_name)


def translate(stmt, *, database=None, head_name="Q"):
    translator = SqlTranslator(database)
    return translator.translate_statement(stmt, head_name)


class _SqlScope:
    """Column-resolution scope: ordered (var, schema) pairs plus a parent."""

    def __init__(self, parent=None):
        self.parent = parent
        self.entries = []  # (var, qualifier, schema-or-None)

    def add(self, var, qualifier, schema):
        self.entries.append((var, qualifier, schema))

    def resolve_qualified(self, qualifier):
        lowered = qualifier.lower()
        for var, qual, _ in reversed(self.entries):
            if qual is not None and qual.lower() == lowered:
                return var
        if self.parent is not None:
            return self.parent.resolve_qualified(qualifier)
        return None

    def resolve_unqualified(self, column):
        matches = []
        unknown = []
        for var, _, schema in self.entries:
            if schema is None:
                unknown.append(var)
            elif column in schema:
                matches.append(var)
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise ParseError(f"ambiguous column reference {column!r}")
        if not matches and len(unknown) == 1 and not self.entries_known():
            return unknown[0]
        if self.parent is not None:
            return self.parent.resolve_unqualified(column)
        return None

    def entries_known(self):
        return all(schema is not None for _, _, schema in self.entries)


class SqlTranslator:
    def __init__(self, database=None):
        self._database = database
        self._ids = _counter(1)

    def _fresh(self, prefix):
        return f"{prefix}{next(self._ids)}"

    # -- statements -------------------------------------------------------------

    def translate_statement(self, stmt, head_name="Q"):
        if isinstance(stmt, ast.UnionStmt):
            return self._translate_union(stmt, head_name)
        if self._is_boolean_select(stmt):
            item = stmt.items[0].expr
            body = self._translate_exists(item, _SqlScope())
            return n.Sentence(body)
        collection = self._translate_select(stmt, head_name, _SqlScope())
        if stmt.into:
            renamed = n.Collection(
                n.Head(stmt.into, collection.head.attrs),
                _rename_head_var(collection.body, collection.head.name, stmt.into),
            )
            return n.Program({stmt.into: renamed}, stmt.into)
        return collection

    @staticmethod
    def _is_boolean_select(stmt):
        return (
            not stmt.from_items
            and len(stmt.items) == 1
            and isinstance(stmt.items[0].expr, ast.ExistsPred)
        )

    def _translate_union(self, stmt, head_name):
        branches = [
            self._translate_select(branch, head_name, _SqlScope())
            for branch in stmt.branches
        ]
        attrs = branches[0].head.attrs
        bodies = []
        for branch in branches:
            if len(branch.head.attrs) != len(attrs):
                raise ParseError("UNION branches have different arities")
            body = branch.body
            if branch.head.attrs != attrs:
                mapping = dict(zip(branch.head.attrs, attrs))
                body = _rename_head_attrs(body, branch.head.name, mapping)
            bodies.append(body)
        union = n.Collection(n.Head(head_name, attrs), n.make_or(bodies))
        if stmt.all:
            return union
        return self._dedup_wrapper(union, head_name)

    def _dedup_wrapper(self, collection, head_name):
        """Deduplication via grouping on all projected attributes (§2.7)."""
        inner_name = self._fresh("U")
        inner = n.Collection(
            n.Head(inner_name, collection.head.attrs),
            _rename_head_var(collection.body, collection.head.name, inner_name),
        )
        var = self._fresh("u")
        attrs = collection.head.attrs
        assigns = [
            n.Comparison(n.Attr(head_name, attr), "=", n.Attr(var, attr))
            for attr in attrs
        ]
        quant = n.Quantifier(
            [n.Binding(var, inner)],
            n.make_and(assigns),
            n.Grouping(tuple(n.Attr(var, attr) for attr in attrs)),
        )
        return n.Collection(n.Head(head_name, attrs), quant)

    # -- SELECT ----------------------------------------------------------------------

    def _translate_select(self, stmt, head_name, outer_scope):
        scope = _SqlScope(outer_scope)
        bindings, join_ann, from_conjuncts = self._translate_from(stmt, scope)

        conjuncts = list(from_conjuncts)
        extra_bindings = []  # lateral bindings for scalar subqueries in SELECT
        if stmt.where is not None:
            conjuncts.append(self._translate_condition(stmt.where, scope))

        has_aggregates = any(
            _contains_aggregate(item.expr) for item in stmt.items
        ) or (stmt.having is not None)

        if stmt.having is not None or (has_aggregates and self._needs_wrapper(stmt)):
            return self._translate_grouped_with_wrapper(
                stmt, head_name, scope, bindings, join_ann, conjuncts
            )

        names = self._item_names(stmt.items)
        assignments = []
        item_exprs = []
        group_keys = []
        if has_aggregates:
            group_keys = [self._translate_expr(g, scope) for g in stmt.group_by]
        for item, name in zip(stmt.items, names):
            expr, lateral = self._translate_select_expr(item.expr, scope)
            extra_bindings.extend(lateral)
            item_exprs.append(expr)
            assignments.append(n.Comparison(n.Attr(head_name, name), "=", expr))

        grouping = None
        if has_aggregates:
            grouping = n.Grouping(tuple(group_keys))
        elif stmt.distinct:
            grouping = n.Grouping(tuple(n.clone(e) for e in item_exprs))

        all_bindings = bindings + extra_bindings
        if not all_bindings:
            raise ParseError("SELECT without FROM is only supported for EXISTS")
        quant = n.Quantifier(
            all_bindings,
            n.make_and(conjuncts + assignments),
            grouping,
            join_ann,
        )
        return n.Collection(n.Head(head_name, tuple(names)), quant)

    def _needs_wrapper(self, stmt):
        """HAVING always wraps; pure grouped aggregates do not (FIO)."""
        return stmt.having is not None

    def _translate_grouped_with_wrapper(
        self, stmt, head_name, scope, bindings, join_ann, conjuncts
    ):
        """GROUP BY ... HAVING: inner grouped collection + outer selection,
        the paper's eq. (8) pattern."""
        inner_name = self._fresh("X")
        names = self._item_names(stmt.items)
        inner_assigns = []
        inner_attrs = []
        group_keys = [self._translate_expr(g, scope) for g in stmt.group_by]

        for item, name in zip(stmt.items, names):
            expr, lateral = self._translate_select_expr(item.expr, scope)
            if lateral:
                raise ParseError(
                    "scalar subqueries combined with HAVING are not supported"
                )
            inner_attrs.append(name)
            inner_assigns.append(n.Comparison(n.Attr(inner_name, name), "=", expr))

        # HAVING may reference aggregates and group keys not in the select
        # list; export them from the inner collection under fresh names.
        having_exports = []

        def export(expr_node):
            attr = f"h{len(having_exports) + 1}"
            inner_attrs.append(attr)
            inner_assigns.append(n.Comparison(n.Attr(inner_name, attr), "=", expr_node))
            having_exports.append(attr)
            return attr

        outer_var = self._fresh("x")
        having_formula = self._translate_having(
            stmt.having, scope, outer_var, export
        )

        inner_quant = n.Quantifier(
            bindings,
            n.make_and(conjuncts + inner_assigns),
            n.Grouping(tuple(group_keys)),
            join_ann,
        )
        inner = n.Collection(n.Head(inner_name, tuple(inner_attrs)), inner_quant)

        outer_assigns = [
            n.Comparison(n.Attr(head_name, name), "=", n.Attr(outer_var, name))
            for name in names
        ]
        outer_quant = n.Quantifier(
            [n.Binding(outer_var, inner)],
            n.make_and(outer_assigns + [having_formula]),
        )
        return n.Collection(n.Head(head_name, tuple(names)), outer_quant)

    def _translate_having(self, cond, scope, outer_var, export):
        """Translate a HAVING condition against the wrapping collection:
        aggregates and bare columns become attributes of the inner result."""
        if cond is None:
            return n.BoolConst(True)
        if isinstance(cond, ast.AndCond):
            return n.make_and(
                [self._translate_having(p, scope, outer_var, export) for p in cond.parts]
            )
        if isinstance(cond, ast.OrCond):
            return n.make_or(
                [self._translate_having(p, scope, outer_var, export) for p in cond.parts]
            )
        if isinstance(cond, ast.NotCond):
            return n.Not(self._translate_having(cond.part, scope, outer_var, export))
        if isinstance(cond, ast.Comparison):
            left = self._translate_having_expr(cond.left, scope, outer_var, export)
            right = self._translate_having_expr(cond.right, scope, outer_var, export)
            return n.Comparison(left, cond.op, right)
        if isinstance(cond, ast.IsNullPred):
            return n.IsNull(
                self._translate_having_expr(cond.expr, scope, outer_var, export),
                cond.negated,
            )
        raise ParseError(f"unsupported HAVING condition {type(cond).__name__}")

    def _translate_having_expr(self, expr, scope, outer_var, export):
        if isinstance(expr, ast.FuncCall):
            agg = self._translate_aggregate(expr, scope)
            return n.Attr(outer_var, export(agg))
        if isinstance(expr, ast.ColumnRef):
            inner_expr = self._translate_expr(expr, scope)
            return n.Attr(outer_var, export(inner_expr))
        if isinstance(expr, ast.Literal):
            return n.Const(expr.value)
        if isinstance(expr, ast.BinaryOp):
            return n.Arith(
                expr.op,
                self._translate_having_expr(expr.left, scope, outer_var, export),
                self._translate_having_expr(expr.right, scope, outer_var, export),
            )
        raise ParseError(f"unsupported HAVING expression {type(expr).__name__}")

    @staticmethod
    def _item_names(items):
        names = []
        for index, item in enumerate(items, start=1):
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.ColumnRef) and item.expr.column != "*":
                names.append(item.expr.column)
            else:
                names.append(f"col{index}")
        if len(set(names)) != len(names):
            names = [
                name if names.count(name) == 1 else f"{name}_{index}"
                for index, name in enumerate(names, start=1)
            ]
        return names

    # -- FROM ------------------------------------------------------------------------

    def _translate_from(self, stmt, scope):
        """Returns (bindings, join-annotation-or-None, extra conjuncts)."""
        bindings = []
        conjuncts = []
        annotations = []
        any_outer = False
        for item in stmt.from_items:
            ann, has_outer = self._translate_from_item(item, scope, bindings, conjuncts)
            annotations.append(ann)
            any_outer = any_outer or has_outer
        if not any_outer:
            return bindings, None, conjuncts
        if len(annotations) == 1:
            join_ann = annotations[0]
        else:
            join_ann = n.Join("inner", annotations)
        return bindings, join_ann, conjuncts

    def _translate_from_item(self, item, scope, bindings, conjuncts):
        """Returns (annotation subtree, contains-outer-join)."""
        if isinstance(item, ast.TableRef):
            var = self._table_var(item, scope)
            bindings.append(n.Binding(var, n.RelationRef(item.name)))
            return n.JoinVar(var), False
        if isinstance(item, ast.DerivedTable):
            var = self._derived_var(item.alias, scope)
            sub_scope = scope if item.lateral else scope.parent or _SqlScope()
            if isinstance(item.query, ast.UnionStmt):
                collection = self._translate_union(item.query, item.alias)
            else:
                collection = self._translate_select(item.query, item.alias, sub_scope)
            scope.add(var, item.alias, collection.head.attrs)
            # The alias doubles as head name; rename the range variable so
            # the ARC query reads naturally (x ∈ {X(...) | ...}).
            bindings.append(n.Binding(var, collection))
            return n.JoinVar(var), False
        if isinstance(item, ast.JoinedTable):
            left_ann, left_outer = self._translate_from_item(
                item.left, scope, bindings, conjuncts
            )
            right_ann, right_outer = self._translate_from_item(
                item.right, scope, bindings, conjuncts
            )
            condition_conjuncts = []
            if item.condition is not None:
                condition_conjuncts = n.conjuncts(
                    self._translate_condition(item.condition, scope)
                )
            if item.kind in ("inner", "cross"):
                conjuncts.extend(condition_conjuncts)
                ann = n.Join("inner", [left_ann, right_ann])
                return ann, left_outer or right_outer
            # Outer join: apply the literal-leaf device to preserved-side
            # constant conjuncts so they become part of the join condition.
            right_ann = self._wrap_preserved_constants(
                condition_conjuncts, left_ann, right_ann
            )
            conjuncts.extend(condition_conjuncts)
            ann = n.Join(item.kind, [left_ann, right_ann])
            return ann, True
        raise ParseError(f"unsupported FROM item {type(item).__name__}")

    def _wrap_preserved_constants(self, condition_conjuncts, left_ann, right_ann):
        """Fig. 12: an ON conjunct like ``R.h = 11`` that references only the
        preserved side must still behave as a join condition; the paper
        encodes this by adding the constant as a literal leaf on the
        optional side (``inner(11, s)``)."""
        from ...engine.joins import annotation_vars

        left_vars = annotation_vars(left_ann)
        consts = []
        for conjunct in condition_conjuncts:
            used = n.vars_used(conjunct)
            if used and used <= left_vars:
                consts.extend(
                    node.value
                    for node in conjunct.walk()
                    if isinstance(node, n.Const)
                )
        if not consts:
            return right_ann
        leaves = [n.JoinConst(value) for value in dict.fromkeys(consts)]
        return n.Join("inner", leaves + [right_ann])

    def _table_var(self, item, scope):
        base = item.alias or item.name
        if not base[0].isalpha() and base[0] != "_":
            var = self._fresh("f")  # reified operators like "-", ">"
        else:
            var = base.lower()
        existing = {entry[0] for entry in scope.entries}
        while var in existing:
            var = self._fresh(var)
        schema = None
        if self._database is not None and item.name in self._database:
            schema = tuple(self._database[item.name].schema)
        elif self._is_external(item.name):
            schema = self._external_schema(item.name)
        scope.add(var, item.alias or item.name, schema)
        return var

    def _is_external(self, name):
        from ...engine.externals import standard_registry

        return name in standard_registry()

    def _external_schema(self, name):
        from ...engine.externals import standard_registry

        return standard_registry().get(name).attrs

    def _derived_var(self, alias, scope):
        var = alias.lower()
        if var == alias:  # avoid colliding with the nested head name
            var = f"{var}_"
        existing = {entry[0] for entry in scope.entries}
        while var in existing:
            var = self._fresh(var)
        return var

    # -- conditions -----------------------------------------------------------------

    def _translate_condition(self, cond, scope):
        if isinstance(cond, ast.AndCond):
            return n.make_and([self._translate_condition(p, scope) for p in cond.parts])
        if isinstance(cond, ast.OrCond):
            return n.make_or([self._translate_condition(p, scope) for p in cond.parts])
        if isinstance(cond, ast.NotCond):
            return n.Not(self._translate_condition(cond.part, scope))
        if isinstance(cond, ast.BoolLiteral):
            return n.BoolConst(cond.value)
        if isinstance(cond, ast.ExistsPred):
            body = self._translate_exists(cond, scope)
            return body
        if isinstance(cond, ast.InPredicate):
            return self._translate_in(cond, scope)
        if isinstance(cond, ast.IsNullPred):
            return n.IsNull(self._translate_expr(cond.expr, scope), cond.negated)
        if isinstance(cond, ast.Comparison):
            return self._translate_comparison(cond, scope)
        raise ParseError(f"unsupported condition {type(cond).__name__}")

    def _translate_exists(self, pred, scope):
        quant = self._subquery_as_quantifier(pred.query, scope)
        return n.Not(quant) if pred.negated else quant

    def _translate_in(self, pred, scope):
        sub = pred.query
        if len(sub.items) != 1:
            raise ParseError("IN subquery must select exactly one column")
        outer_expr = self._translate_expr(pred.expr, scope)
        quant = self._subquery_as_quantifier(
            sub,
            scope,
            extra=lambda sub_scope: [
                n.Comparison(
                    self._translate_expr(sub.items[0].expr, sub_scope), "=", outer_expr
                )
            ],
        )
        return n.Not(quant) if pred.negated else quant

    def _translate_comparison(self, cond, scope):
        left_scalar = isinstance(cond.left, ast.ScalarSubquery)
        right_scalar = isinstance(cond.right, ast.ScalarSubquery)
        if left_scalar and right_scalar:
            raise ParseError("comparing two scalar subqueries is not supported")
        if left_scalar or right_scalar:
            sub = (cond.left if left_scalar else cond.right).query
            other = cond.right if left_scalar else cond.left
            op = cond.op if not left_scalar else FLIP[cond.op]
            return self._translate_scalar_comparison(other, op, sub, scope)
        return n.Comparison(
            self._translate_expr(cond.left, scope),
            cond.op,
            self._translate_expr(cond.right, scope),
        )

    def _translate_scalar_comparison(self, outer_expr_ast, op, sub, scope):
        """``expr op (SELECT agg(...) FROM ...)`` — the count-bug pattern:
        a boolean grouping scope with γ∅ and an aggregation comparison
        predicate (eq. (27))."""
        if len(sub.items) != 1:
            raise ParseError("scalar subquery must select exactly one column")
        outer_expr = self._translate_expr(outer_expr_ast, scope)
        item = sub.items[0].expr
        if _contains_aggregate(item) and not sub.group_by:
            def extra(sub_scope):
                agg_expr = self._translate_expr(item, sub_scope)
                return [n.Comparison(outer_expr, op, agg_expr)]

            return self._subquery_as_quantifier(
                sub, scope, extra=extra, grouping=n.Grouping(())
            )
        # Non-aggregate (or grouped) scalar subquery: existential comparison.
        def extra(sub_scope):
            value = self._translate_expr(item, sub_scope)
            return [n.Comparison(outer_expr, op, value)]

        return self._subquery_as_quantifier(sub, scope, extra=extra)

    def _subquery_as_quantifier(self, sub, scope, *, extra=None, grouping=None):
        """Translate a subquery used as a boolean test (EXISTS / IN /
        scalar-comparison): its FROM becomes bindings, its WHERE becomes
        conjuncts; the select list is ignored except through *extra*."""
        if sub.group_by or sub.having or sub.distinct and extra is None:
            raise ParseError("subquery shape not supported in boolean position")
        sub_scope = _SqlScope(scope)
        bindings = []
        conjuncts = []
        annotations = []
        any_outer = False
        for item in sub.from_items:
            ann, has_outer = self._translate_from_item(
                item, sub_scope, bindings, conjuncts
            )
            annotations.append(ann)
            any_outer = any_outer or has_outer
        join_ann = None
        if any_outer:
            join_ann = annotations[0] if len(annotations) == 1 else n.Join("inner", annotations)
        if sub.where is not None:
            conjuncts.append(self._translate_condition(sub.where, sub_scope))
        if extra is not None:
            conjuncts.extend(extra(sub_scope))
        if not bindings:
            raise ParseError("subquery without FROM is not supported")
        return n.Quantifier(bindings, n.make_and(conjuncts), grouping, join_ann)

    # -- expressions ------------------------------------------------------------------

    def _translate_select_expr(self, expr, scope):
        """Translate a select-item expression; scalar subqueries become
        lateral bindings (Section 2.12).  Returns (arc-expr, [bindings])."""
        if isinstance(expr, ast.ScalarSubquery):
            binding, attr = self._scalar_as_lateral(expr.query, scope)
            return n.Attr(binding.var, attr), [binding]
        if isinstance(expr, ast.FuncCall):
            return self._translate_aggregate(expr, scope), []
        if isinstance(expr, ast.BinaryOp):
            left, lb = self._translate_select_expr(expr.left, scope)
            right, rb = self._translate_select_expr(expr.right, scope)
            return n.Arith(expr.op, left, right), lb + rb
        return self._translate_expr(expr, scope), []

    def _scalar_as_lateral(self, sub, scope):
        """A scalar subquery in the select list becomes a lateral FOI
        collection with γ∅ (Fig. 5a -> eq. (7), Fig. 13a -> Fig. 13d)."""
        if len(sub.items) != 1:
            raise ParseError("scalar subquery must select exactly one column")
        inner_name = self._fresh("X")
        attr = sub.items[0].alias or "val"
        item = sub.items[0].expr
        sub_scope = _SqlScope(scope)
        bindings = []
        conjuncts = []
        for from_item in sub.from_items:
            self._translate_from_item(from_item, sub_scope, bindings, conjuncts)
        if sub.where is not None:
            conjuncts.append(self._translate_condition(sub.where, sub_scope))
        value_expr = self._translate_expr(item, sub_scope)
        conjuncts.append(n.Comparison(n.Attr(inner_name, attr), "=", value_expr))
        grouping = n.Grouping(()) if _contains_aggregate(item) else None
        quant = n.Quantifier(bindings, n.make_and(conjuncts), grouping)
        collection = n.Collection(n.Head(inner_name, (attr,)), quant)
        var = self._fresh("x")
        scope.add(var, None, (attr,))
        return n.Binding(var, collection), attr

    def _translate_aggregate(self, call, scope):
        func = call.name
        if call.distinct:
            func = f"{func}distinct"
        if call.arg is None:
            return n.AggCall("count", None)
        return n.AggCall(func, self._translate_expr(call.arg, scope))

    def _translate_expr(self, expr, scope):
        if isinstance(expr, ast.Literal):
            return n.Const(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._translate_column(expr, scope)
        if isinstance(expr, ast.BinaryOp):
            return n.Arith(
                expr.op,
                self._translate_expr(expr.left, scope),
                self._translate_expr(expr.right, scope),
            )
        if isinstance(expr, ast.FuncCall):
            return self._translate_aggregate(expr, scope)
        if isinstance(expr, ast.ScalarSubquery):
            raise ParseError(
                "scalar subquery is only supported in select items and "
                "comparisons"
            )
        raise ParseError(f"unsupported expression {type(expr).__name__}")

    def _translate_column(self, ref, scope):
        if ref.column == "*":
            raise ParseError("bare * is only supported as the sole select item")
        if ref.table is not None:
            var = scope.resolve_qualified(ref.table)
            if var is None:
                raise ParseError(f"unknown table qualifier {ref.table!r}")
            return n.Attr(var, ref.column)
        var = scope.resolve_unqualified(ref.column)
        if var is None:
            raise ParseError(
                f"cannot resolve unqualified column {ref.column!r} "
                "(supply a database for schema-based resolution)"
            )
        return n.Attr(var, ref.column)


# -- helpers --------------------------------------------------------------------


def _contains_aggregate(expr):
    if isinstance(expr, ast.FuncCall):
        return True
    if isinstance(expr, ast.BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    return False


def _rename_head_var(formula, old, new):
    """Rename head-attribute references ``old.x`` to ``new.x`` in a body."""

    def rename(node):
        if isinstance(node, n.Attr) and node.var == old:
            return n.Attr(new, node.attr)
        return node

    return n.transform(formula, rename)


def _rename_head_attrs(formula, head_name, mapping):
    def rename(node):
        if isinstance(node, n.Attr) and node.var == head_name and node.attr in mapping:
            return n.Attr(head_name, mapping[node.attr])
        return node

    return n.transform(formula, rename)
