"""Textbook TRC frontend: the two normalization steps of Section 2.1.

A widely used textbook [Elmasri/Navathe] accepts TRC queries like::

    {r.A | r ∈ R ∧ ∃s[r.B = s.B ∧ s.C = 0 ∧ s ∈ S]}

ARC makes two changes (the paper's Section 2.1):

1. **Clarified scopes** — whenever a variable is quantified, it is also
   bound to a relation: membership conjuncts (``s ∈ S``) move into the
   quantifier's binding list, and free top-level range variables
   (``r ∈ R``) are bound by an implicit outermost quantifier.
2. **Strict heads** — body variables never appear in the head; head
   expressions become explicit *assignment predicates*
   (``{r.A | ...}`` becomes ``{Q(A) | ∃...[Q.A = r.A ∧ ...]}``).

The textbook syntax is ARC's own formula and expression grammar
(:mod:`repro.core.parser`) plus two textbook forms: membership ``r ∈ R``
as a predicate, and a quantifier ``∃s[...]`` whose variable has no
source.  This module parses it and performs both steps, producing a
strict ARC collection.
"""

from __future__ import annotations

from ..core import nodes as n
from ..core.lexer import IDENT
from ..core.parser import _Parser
from ..errors import ParseError


def to_arc(text, *, head_name="Q"):
    """Parse textbook TRC and normalize it into a strict ARC collection."""
    loose = parse_trc(text)
    return normalize(loose, head_name=head_name)


# ---------------------------------------------------------------------------
# Loose AST (membership predicates and unbound quantifiers are allowed)
# ---------------------------------------------------------------------------


class LooseQuery:
    def __init__(self, head_exprs, body):
        self.head_exprs = head_exprs  # list of n.Expr (typically Attr)
        self.body = body  # loose formula


class Membership:
    """``r ∈ R`` appearing as an ordinary predicate."""

    def __init__(self, var, relation):
        self.var = var
        self.relation = relation


class LooseExists:
    """``∃s[...]`` or ``∃s ∈ S[...]`` (bindings may lack sources)."""

    def __init__(self, items, body):
        self.items = items  # list of (var, relation-or-None)
        self.body = body


def parse_trc(text):
    return _TrcParser(text).parse_query()


class _TrcParser(_Parser):
    """ARC's formula and expression grammar plus the two textbook forms:
    membership ``r ∈ R`` as a predicate, and ``∃s[...]`` without a source."""

    def parse_query(self):
        self._expect_symbol("{")
        # Tuple heads ({r.A, s.B | ...}) are a comma list of expressions.
        head_exprs = [self._parse_expr()]
        while self._peek().is_symbol(","):
            self._next()
            head_exprs.append(self._parse_expr())
        self._expect_symbol("|")
        body = self._parse_or()
        self._expect_symbol("}")
        self._expect_end()
        return LooseQuery(head_exprs, body)

    def _parse_unary(self):
        if self._peek().type == IDENT and self._peek(1).is_keyword("in"):
            var = self._next().value
            self._next()
            return Membership(var, self._relation_name())
        if not self._peek().is_keyword("exists"):
            return super()._parse_unary()
        self._next()
        items = []
        while True:
            token = self._next()
            if token.type != IDENT:
                raise ParseError(
                    f"expected variable, got {token.value!r}", token.line, token.column
                )
            relation = None
            if self._peek().is_keyword("in"):
                self._next()
                relation = self._relation_name()
            items.append((token.value, relation))
            if not self._peek().is_symbol(","):
                break
            self._next()
        self._expect_symbol("[")
        body = self._parse_or()
        self._expect_symbol("]")
        return LooseExists(items, body)

    def _relation_name(self):
        token = self._next()
        if token.type != IDENT:
            raise ParseError(
                f"expected relation name, got {token.value!r}", token.line, token.column
            )
        return token.value


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize(loose, *, head_name="Q"):
    """Apply the paper's two Section-2.1 steps to a loose TRC query."""
    # Step 1a: collect top-level membership conjuncts — they become the
    # outermost bindings.
    conjuncts = n.conjuncts(loose.body)
    top_memberships = [c for c in conjuncts if isinstance(c, Membership)]
    rest = [c for c in conjuncts if not isinstance(c, Membership)]
    bindings = [n.Binding(m.var, n.RelationRef(m.relation)) for m in top_memberships]

    # Step 1b: recursively clean quantifiers in the remaining formula.
    cleaned = [_clean_formula(c) for c in rest]

    # Step 2: strict heads — name the output attributes and add assignment
    # predicates.
    attrs = []
    assignments = []
    for index, expr in enumerate(loose.head_exprs, start=1):
        if isinstance(expr, n.Attr):
            attr = expr.attr
        else:
            attr = f"col{index}"
        if attr in attrs:
            attr = f"{attr}_{index}"
        attrs.append(attr)
        assignments.append(n.Comparison(n.Attr(head_name, attr), "=", expr))

    body = n.make_and(assignments + cleaned)
    if bindings:
        body = n.Quantifier(bindings, body)
    return n.Collection(n.Head(head_name, tuple(attrs)), body)


def _clean_formula(formula):
    """Move membership predicates into their quantifier's binding list."""
    if isinstance(formula, LooseExists):
        conjuncts = n.conjuncts(formula.body)
        memberships = {
            c.var: c.relation for c in conjuncts if isinstance(c, Membership)
        }
        rest = [
            _clean_formula(c) for c in conjuncts if not isinstance(c, Membership)
        ]
        bindings = []
        for var, relation in formula.items:
            if relation is None:
                relation = memberships.pop(var, None)
                if relation is None:
                    raise ParseError(
                        f"quantified variable {var!r} has no membership "
                        "predicate binding it to a relation (unsafe TRC)"
                    )
            bindings.append(n.Binding(var, n.RelationRef(relation)))
        for var, relation in memberships.items():
            # Memberships for variables quantified here were consumed above;
            # leftovers bind variables not listed in the quantifier - treat
            # them as additional bindings of the same quantifier.
            bindings.append(n.Binding(var, n.RelationRef(relation)))
        return n.Quantifier(bindings, n.make_and(rest))
    if isinstance(formula, n.And):
        return n.make_and([_clean_formula(c) for c in formula.children_list])
    if isinstance(formula, n.Or):
        return n.make_or([_clean_formula(c) for c in formula.children_list])
    if isinstance(formula, n.Not):
        return n.Not(_clean_formula(formula.child))
    if isinstance(formula, Membership):
        raise ParseError(
            f"membership {formula.var} ∈ {formula.relation} appears under a "
            "connective where it cannot be attached to a quantifier"
        )
    return formula
