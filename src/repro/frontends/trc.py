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

This module parses the loose textbook syntax and performs both steps,
producing a strict ARC collection.
"""

from __future__ import annotations

from ..core import nodes as n
from ..core.lexer import IDENT, KEYWORD, NUMBER, STRING, TokenCursor, literal_value
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


class _TrcParser(TokenCursor):
    def parse_query(self):
        self._expect_symbol("{")
        head_exprs = [self._parse_expr()]
        # Tuple heads: {(r.A, s.B) | ...} are parenthesized by _parse_expr
        # only for single expressions; accept comma lists directly.
        while self._peek().is_symbol(","):
            self._next()
            head_exprs.append(self._parse_expr())
        self._expect_symbol("|")
        body = self._parse_or()
        self._expect_symbol("}")
        self._expect_end()
        return LooseQuery(head_exprs, body)

    def _parse_or(self):
        parts = [self._parse_and()]
        while self._peek().is_keyword("or"):
            self._next()
            parts.append(self._parse_and())
        if len(parts) == 1:
            return parts[0]
        return n.Or(parts)

    def _parse_and(self):
        parts = [self._parse_unary()]
        while self._peek().is_keyword("and"):
            self._next()
            parts.append(self._parse_unary())
        if len(parts) == 1:
            return parts[0]
        return n.And(parts)

    def _parse_unary(self):
        token = self._peek()
        if token.is_keyword("not"):
            self._next()
            return n.Not(self._parse_unary())
        if token.is_keyword("exists"):
            return self._parse_exists()
        if token.is_symbol("("):
            saved = self._pos
            try:
                self._next()
                inner = self._parse_or()
                self._expect_symbol(")")
                return inner
            except ParseError:
                self._pos = saved
        # Membership or comparison.
        if (
            token.type == IDENT
            and self._peek(1).is_keyword("in")
        ):
            var = self._next().value
            self._next()
            relation_token = self._next()
            if relation_token.type != IDENT:
                raise ParseError(
                    f"expected relation name, got {relation_token.value!r}",
                    relation_token.line,
                    relation_token.column,
                )
            return Membership(var, relation_token.value)
        return self._parse_comparison()

    def _parse_exists(self):
        self._next()  # exists
        items = []
        while True:
            token = self._next()
            if token.type != IDENT:
                raise ParseError(
                    f"expected variable, got {token.value!r}", token.line, token.column
                )
            var = token.value
            relation = None
            if self._peek().is_keyword("in"):
                self._next()
                rel_token = self._next()
                if rel_token.type != IDENT:
                    raise ParseError(
                        f"expected relation name, got {rel_token.value!r}",
                        rel_token.line,
                        rel_token.column,
                    )
                relation = rel_token.value
            items.append((var, relation))
            if self._peek().is_symbol(","):
                self._next()
                continue
            break
        self._expect_symbol("[")
        body = self._parse_or()
        self._expect_symbol("]")
        return LooseExists(items, body)

    def _parse_comparison(self):
        left = self._parse_expr()
        token = self._next()
        if token.is_keyword("is"):
            negated = False
            if self._peek().is_keyword("not"):
                self._next()
                negated = True
            null_token = self._next()
            if not null_token.is_keyword("null"):
                raise ParseError("expected NULL after IS")
            return n.IsNull(left, negated)
        if not token.is_symbol("=", "<>", "!=", "<", "<=", ">", ">="):
            raise ParseError(
                f"expected comparison operator, got {token.value!r}",
                token.line,
                token.column,
            )
        right = self._parse_expr()
        return n.Comparison(left, token.value, right)

    def _parse_expr(self):
        left = self._parse_term()
        while self._peek().is_symbol("+", "-"):
            op = self._next().value
            left = n.Arith(op, left, self._parse_term())
        return left

    def _parse_term(self):
        left = self._parse_factor()
        while self._peek().is_symbol("*", "/", "%"):
            op = self._next().value
            left = n.Arith(op, left, self._parse_factor())
        return left

    def _parse_factor(self):
        token = self._peek()
        if token.is_symbol("("):
            self._next()
            inner = self._parse_expr()
            self._expect_symbol(")")
            return inner
        if token.type in (NUMBER, STRING) or token.is_keyword("true", "false", "null"):
            return n.Const(literal_value(self._next()))
        if token.is_symbol("-"):
            self._next()
            inner = self._parse_factor()
            if isinstance(inner, n.Const) and isinstance(inner.value, (int, float)):
                return n.Const(-inner.value)
            return n.Arith("-", n.Const(0), inner)
        if token.type == IDENT:
            var = self._next().value
            self._expect_symbol(".")
            attr_token = self._next()
            if attr_token.type not in (IDENT, KEYWORD, NUMBER):
                raise ParseError(
                    f"expected attribute, got {attr_token.value!r}",
                    attr_token.line,
                    attr_token.column,
                )
            return n.Attr(var, attr_token.value)
        raise ParseError(
            f"expected expression, got {token.value!r}", token.line, token.column
        )


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize(loose, *, head_name="Q"):
    """Apply the paper's two Section-2.1 steps to a loose TRC query."""
    # Step 1a: collect top-level membership conjuncts — they become the
    # outermost bindings.
    conjuncts = _loose_conjuncts(loose.body)
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


def _loose_conjuncts(formula):
    if isinstance(formula, n.And):
        result = []
        for child in formula.children_list:
            result.extend(_loose_conjuncts(child))
        return result
    return [formula]


def _clean_formula(formula):
    """Move membership predicates into their quantifier's binding list."""
    if isinstance(formula, LooseExists):
        conjuncts = _loose_conjuncts(formula.body)
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
