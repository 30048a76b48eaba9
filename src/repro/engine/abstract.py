"""Abstract relations: named sub-query modules without standalone extensions.

Section 2.13.2 of the paper: an abstract relation (e.g. the ``Subset``
module of the unique-set query, Example 2) is defined *within* the
relational language but may be domain-dependent — taken in isolation it has
no well-defined extension.  Inside a safe surrounding query it denotes the
intended relation, because the surrounding query supplies values for its
head attributes.

The evaluator therefore treats an abstract relation like an external one,
accessed through derived access patterns:

* **membership test** — when every head attribute is bound by equality
  predicates of the surrounding scope, the definition body is evaluated as
  a boolean sentence with the head tuple in scope (this is how ``Subset``
  is used in query (24));
* **functional completion** — when the body is a plain conjunction of
  head-assignment predicates (the ``Minus``-style comprehension definitions
  of Example 1), unknown attributes are derived from known ones by
  iterating the assignments.
"""

from __future__ import annotations

from ..core import nodes as n
from ..data.relation import Tuple
from ..data.values import Truth
from ..errors import EvaluationError


class AbstractSource:
    """Adapter exposing an abstract definition through access patterns."""

    def __init__(self, collection, evaluator):
        self._collection = collection
        self._evaluator = evaluator
        self.name = collection.head.name
        self.attrs = tuple(collection.head.attrs)
        self._functional = self._functional_assignments()

    def _functional_assignments(self):
        """``attr -> expr`` for bodies that are conjunctions of
        head-assignments over head attributes (no quantifiers)."""
        body = self._collection.body
        head = self._collection.head
        assignments = {}
        for conjunct in n.conjuncts(body):
            if not isinstance(conjunct, n.Comparison) or conjunct.op != "=":
                return {}
            for side, other in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
                if (
                    isinstance(side, n.Attr)
                    and side.var == head.name
                    and side.attr in head.attrs
                    and n.vars_used(other) <= {head.name}
                ):
                    assignments[side.attr] = other
                    break
            else:
                return {}
        return assignments

    # -- the access-pattern protocol used by the evaluator ---------------------

    def resolvable(self, known):
        """Can the definition produce rows given these bound attributes?"""
        if set(known) >= set(self.attrs):
            return True
        return bool(self._derive(dict(known), check=False))

    def complete(self, known):
        if set(known) >= set(self.attrs):
            values = {a: known[a] for a in self.attrs}
            if self._membership(values):
                return [values]
            return []
        derived = self._derive(dict(known), check=True)
        if derived is None:
            raise EvaluationError(
                f"abstract relation {self.name!r}: attributes "
                f"{sorted(set(self.attrs) - set(known))} cannot be derived from "
                f"{sorted(known)}"
            )
        return derived

    # -- internals -------------------------------------------------------------

    def _membership(self, values):
        env = {self.name: Tuple(values)}
        truth = self._evaluator._truth(self._collection.body, env)
        return truth is Truth.TRUE

    def _derive(self, known, *, check):
        """Iteratively apply functional assignments to fill missing attrs.

        Returns ``[full-row]`` / ``[]`` when successful (``check=True``
        verifies residual predicates via membership), a truthy marker when
        ``check=False`` and derivation would succeed, or None/False when the
        attributes cannot be determined.
        """
        if not self._functional:
            return None if check else False
        values = dict(known)
        progress = True
        while progress and set(values) < set(self.attrs):
            progress = False
            for attr, expr in self._functional.items():
                if attr in values:
                    continue
                needed = {a.attr for a in expr.walk() if isinstance(a, n.Attr)}
                if needed <= set(values):
                    row = Tuple(values)
                    env = {self.name: row}
                    try:
                        values[attr] = self._evaluator._eval_expr(expr, env)
                    except Exception:
                        return None if check else False
                    progress = True
        if set(values) < set(self.attrs):
            return None if check else False
        if not check:
            return True
        full = {a: values[a] for a in self.attrs}
        if self._membership(full):
            return [full]
        return []
