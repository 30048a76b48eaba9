"""Evaluation of join annotations (outer joins), Section 2.11 of the paper.

A quantifier may carry a join-annotation tree such as
``left(r, inner(11, s))``: interior nodes are ``inner`` (k-ary) or
``left``/``full`` (binary); leaves are the scope's range variables or
literal constants (virtual singleton tables, the Fig. 12 device).

**Condition assignment.**  Each row-level conjunct of the scope is assigned
to the *lowest* annotation node that covers all the leaves it references,
where a constant in the conjunct matches a ``JoinConst`` leaf of the same
value.  Conjuncts covered by a single leaf act as enumeration filters for
that leaf's relation; conjuncts covering an interior node become that
node's join condition (the ``ON`` clause); conjuncts referencing no
annotation leaf at all (e.g. correlations to outer scopes only) remain
residual filters applied after enumeration.

**Null padding.**  An unmatched row on the preserved side of a ``left`` or
``full`` node is padded with :data:`NULL_ROW` bindings for every variable
of the unmatched subtree, mirroring SQL outer-join semantics.
"""

from __future__ import annotations

from ..core import nodes as n
from ..data.values import NULL, Truth, t_and
from ..errors import EvaluationError


class _NullRow:
    """A row whose every attribute is NULL (outer-join padding)."""

    __slots__ = ()

    def __getitem__(self, attr):
        return NULL

    def get(self, attr, default=None):
        return NULL

    def attributes(self):
        return set()

    def __repr__(self):
        return "NullRow()"


NULL_ROW = _NullRow()


def annotation_vars(join):
    """All range-variable names under an annotation subtree."""
    return n.facts(join).join_vars


def annotation_consts(join):
    """All literal leaf values under an annotation subtree."""
    return n.facts(join).join_consts


class ConditionAssignment:
    """Partition of a scope's row conjuncts across an annotation tree."""

    def __init__(self, join, conjunct_list):
        self.join = join
        self.node_conditions = {}  # id(node) -> [formula]
        self.leaf_filters = {}  # var name -> [formula]
        self.residual = []
        self._assign(conjunct_list)

    def conditions(self, node):
        return self.node_conditions.get(id(node), [])

    def filters(self, var):
        return self.leaf_filters.get(var, [])

    def _assign(self, conjunct_list):
        all_vars = annotation_vars(self.join)
        for conjunct in conjunct_list:
            used_vars = n.vars_used(conjunct) & all_vars
            used_consts = {
                node.value
                for node in conjunct.walk()
                if isinstance(node, n.Const)
            }
            target = self._lowest_covering(self.join, used_vars, used_consts)
            if target is None:
                self.residual.append(conjunct)
            elif isinstance(target, n.JoinVar):
                self.leaf_filters.setdefault(target.var, []).append(conjunct)
            elif isinstance(target, n.JoinConst):
                self.residual.append(conjunct)
            else:
                self.node_conditions.setdefault(id(target), []).append(conjunct)

    def _lowest_covering(self, root, used_vars, used_consts):
        """Lowest annotation node whose leaves cover the conjunct's
        references; None when the conjunct touches no annotation leaf.

        A constant in the conjunct is *relevant* only when it also appears
        as a literal leaf of the annotation (the ``inner(11, s)`` device:
        ``r.h = 11`` must be covered by the node containing both the leaf
        ``r`` and the literal leaf ``11``).
        """
        if not used_vars:
            return None
        relevant_consts = used_consts & annotation_consts(root)

        def covers(node):
            return used_vars <= annotation_vars(node) and relevant_consts <= annotation_consts(node)

        node = root
        while isinstance(node, n.Join):
            covering_children = [c for c in node.children_list if covers(c)]
            if len(covering_children) == 1:
                node = covering_children[0]
            else:
                break
        return node


def enumerate_annotation(join, env, ctx, assignment):
    """Yield (env_delta, multiplicity) for one annotation tree.

    ``ctx`` supplies the evaluator callbacks:

    * ``ctx.rows(var, env)`` -> iterable of (row, mult) for the variable's
      binding, evaluated laterally under *env*;
    * ``ctx.truth(formula, env)`` -> :class:`~repro.data.values.Truth`.

    Join conditions must evaluate to TRUE for a match (UNKNOWN behaves like
    FALSE, as in SQL ``ON``).
    """
    if isinstance(join, n.JoinVar):
        for row, mult in ctx.rows(join.var, env):
            delta = {join.var: row}
            if all(
                ctx.truth(f, {**env, **delta}) is Truth.TRUE
                for f in assignment.filters(join.var)
            ):
                yield delta, mult
        return
    if isinstance(join, n.JoinConst):
        yield {}, 1
        return
    if join.kind == "inner":
        yield from _inner(join, env, ctx, assignment)
        return
    if join.kind == "left":
        yield from _outer(join, env, ctx, assignment, full=False)
        return
    if join.kind == "full":
        yield from _outer(join, env, ctx, assignment, full=True)
        return
    raise EvaluationError(f"unknown join kind {join.kind!r}")


def _inner(join, env, ctx, assignment):
    conditions = assignment.conditions(join)

    def recurse(index, delta, mult):
        if index == len(join.children_list):
            combined = {**env, **delta}
            if all(ctx.truth(f, combined) is Truth.TRUE for f in conditions):
                yield dict(delta), mult
            return
        child = join.children_list[index]
        for child_delta, child_mult in enumerate_annotation(
            child, {**env, **delta}, ctx, assignment
        ):
            yield from recurse(index + 1, {**delta, **child_delta}, mult * child_mult)

    yield from recurse(0, {}, 1)


def _null_pad(join):
    return {var: NULL_ROW for var in annotation_vars(join)}


def _outer(join, env, ctx, assignment, *, full):
    left_child, right_child = join.children_list
    conditions = assignment.conditions(join)

    right_rows_matched = set()  # indexes into the right enumeration
    left_results = []

    # Materialize the right side only for FULL joins (it must be enumerated
    # independently of the left rows to find right-unmatched rows).  For
    # LEFT joins the right side is enumerated laterally per left row, which
    # also supports correlated right sides.
    for left_delta, left_mult in enumerate_annotation(left_child, env, ctx, assignment):
        env_left = {**env, **left_delta}
        matched = False
        for right_index, (right_delta, right_mult) in enumerate(
            enumerate_annotation(right_child, env_left, ctx, assignment)
        ):
            combined_delta = {**left_delta, **right_delta}
            combined_env = {**env, **combined_delta}
            if all(ctx.truth(f, combined_env) is Truth.TRUE for f in conditions):
                matched = True
                right_rows_matched.add(right_index)
                left_results.append((combined_delta, left_mult * right_mult))
        if not matched:
            left_results.append(({**left_delta, **_null_pad(right_child)}, left_mult))

    yield from left_results

    if full:
        for right_index, (right_delta, right_mult) in enumerate(
            enumerate_annotation(right_child, env, ctx, assignment)
        ):
            if right_index not in right_rows_matched:
                yield {**_null_pad(left_child), **right_delta}, right_mult
