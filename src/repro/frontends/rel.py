"""Rel mini-frontend: ``def`` aggregate definitions embedded into ARC.

Rel (Section 2.5, eq. (11)) writes the paper's multiple-aggregate query as::

    def Q(d, av) :
        av = average[(e, s) : R(e, d) and S(e, s)] and
        sum[(e, s) : R(e, d) and S(e, s)] > 100

The paper shows (eq. (12), Fig. 8) that Rel follows the **FIO** pattern for
aggregation (aggregates return their grouping keys), but inherits the
one-scope-per-aggregate legacy: each aggregate term becomes its own
collection, grouped on the head variables it mentions, and the main query
joins these collections on their shared keys.

This frontend parses the ``def`` syntax and produces exactly that
pattern-preserving translation.
"""

from __future__ import annotations

from itertools import count as _counter

from ..core import nodes as n
from ..core.lexer import EOF, IDENT, NUMBER, STRING, TokenCursor, literal_value
from ..errors import ParseError
from .datalog import Atom, _Const, _Var, bind_atom

AGGREGATE_WORDS = {
    "sum": "sum",
    "count": "count",
    "min": "min",
    "max": "max",
    "avg": "avg",
    "average": "avg",
    "mean": "avg",
}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class RelDef:
    def __init__(self, name, params, literals):
        self.name = name
        self.params = params  # head variable names
        self.literals = literals  # list of RelAgg | Atom


class RelAgg:
    """``target = func[(v1, ..., vk) : body]`` or a bare aggregate term used
    in a comparison (target None, op/value set)."""

    def __init__(self, func, tuple_vars, body, target=None, op=None, value=None):
        self.func = func
        self.tuple_vars = tuple_vars
        self.body = body  # list of Atom
        self.target = target
        self.op = op
        self.value = value


def parse_rel(text):
    return _RelParser(text).parse_defs()


class _RelParser(TokenCursor):
    def parse_defs(self):
        defs = []
        while self._peek().type != EOF:
            defs.append(self._parse_def())
        return defs

    def _parse_def(self):
        keyword = self._next()
        if not (keyword.type == IDENT and keyword.value == "def"):
            raise ParseError(
                f"expected 'def', got {keyword.value!r}", keyword.line, keyword.column
            )
        name = self._expect_ident()
        self._expect_symbol("(")
        params = [self._expect_ident()]
        while self._peek().is_symbol(","):
            self._next()
            params.append(self._expect_ident())
        self._expect_symbol(")")
        self._expect_symbol(":")
        literals = [self._parse_literal()]
        while self._peek().is_keyword("and"):
            self._next()
            literals.append(self._parse_literal())
        return RelDef(name, params, literals)

    def _parse_literal(self):
        token = self._peek()
        if token.type == IDENT and token.value in AGGREGATE_WORDS and self._peek(1).is_symbol("["):
            agg = self._parse_agg_term()
            op_token = self._next()
            if not op_token.is_symbol("=", "<>", "!=", "<", "<=", ">", ">="):
                raise ParseError(
                    f"expected comparison after aggregate, got {op_token.value!r}",
                    op_token.line,
                    op_token.column,
                )
            value = self._parse_value()
            agg.op = op_token.value
            agg.value = value
            return agg
        if token.type == IDENT and self._peek(1).is_symbol("="):
            target = self._expect_ident()
            self._expect_symbol("=")
            agg = self._parse_agg_term()
            agg.target = target
            return agg
        if token.type == IDENT and self._peek(1).is_symbol("("):
            return self._parse_atom()
        raise ParseError(
            f"expected Rel literal, got {token.value!r}", token.line, token.column
        )

    def _parse_agg_term(self):
        func_token = self._next()
        func = AGGREGATE_WORDS[func_token.value]
        self._expect_symbol("[")
        self._expect_symbol("(")
        tuple_vars = [self._expect_ident()]
        while self._peek().is_symbol(","):
            self._next()
            tuple_vars.append(self._expect_ident())
        self._expect_symbol(")")
        self._expect_symbol(":")
        body = [self._parse_atom()]
        while self._peek().is_keyword("and"):
            self._next()
            body.append(self._parse_atom())
        self._expect_symbol("]")
        return RelAgg(func, tuple_vars, body)

    def _parse_atom(self):
        predicate = self._expect_ident()
        self._expect_symbol("(")
        args = [self._parse_arg()]
        while self._peek().is_symbol(","):
            self._next()
            args.append(self._parse_arg())
        self._expect_symbol(")")
        return Atom(predicate, args)

    def _parse_arg(self):
        token = self._next()
        if token.type == IDENT:
            return _Var(token.value)
        if token.type in (NUMBER, STRING):
            return _Const(literal_value(token))
        raise ParseError(
            f"expected atom argument, got {token.value!r}", token.line, token.column
        )

    def _parse_value(self):
        token = self._next()
        if token.type in (NUMBER, STRING):
            return n.Const(literal_value(token))
        if token.type == IDENT:
            return ("var", token.value)
        raise ParseError(
            f"expected comparison value, got {token.value!r}", token.line, token.column
        )


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------


def to_arc(text, *, database=None, head_name=None):
    """Translate Rel ``def`` definitions into an ARC collection.

    The pattern produced is the paper's eq. (12): one grouped collection per
    aggregate term (keys = the head variables its body mentions, value = the
    aggregate over the last tuple component), joined on shared keys in the
    main scope.
    """
    defs = parse_rel(text)
    if len(defs) != 1:
        raise ParseError("exactly one Rel def is supported per translation")
    return _translate_def(defs[0], database, head_name)


def _translate_def(definition, database, head_name):
    head = head_name or definition.name
    ids = _counter(1)
    bindings = []
    conjuncts = []
    var_map = {}
    for literal in definition.literals:
        if isinstance(literal, Atom):
            schema = _schema(literal.predicate, len(literal.args), database)
            bindings.append(bind_atom(literal, schema, ids, var_map, conjuncts))
    # head param -> Attr producing it
    key_sources = {
        name: attr for name, attr in var_map.items() if name in definition.params
    }
    aggregates = [l for l in definition.literals if isinstance(l, RelAgg)]

    for aggregate in aggregates:
        collection, keys, value_attr = _translate_aggregate(
            aggregate, definition, database, ids
        )
        var = f"x{next(ids)}"
        bindings.append(n.Binding(var, collection))
        for key in keys:
            if key in key_sources:
                conjuncts.append(
                    n.Comparison(n.Attr(var, key), "=", key_sources[key])
                )
            else:
                key_sources[key] = n.Attr(var, key)
        if aggregate.target is not None:
            if aggregate.target in definition.params:
                key_sources[aggregate.target] = n.Attr(var, value_attr)
            else:
                var_map[aggregate.target] = n.Attr(var, value_attr)
        else:
            value = aggregate.value
            if isinstance(value, tuple):
                value = key_sources.get(value[1]) or var_map.get(value[1])
                if value is None:
                    raise ParseError(
                        f"comparison variable {aggregate.value[1]!r} is unbound"
                    )
            conjuncts.append(
                n.Comparison(n.Attr(var, value_attr), aggregate.op, value)
            )

    assignments = []
    for param in definition.params:
        source = key_sources.get(param) or var_map.get(param)
        if source is None:
            raise ParseError(f"head variable {param!r} is never bound")
        assignments.append(n.Comparison(n.Attr(head, param), "=", source))

    quant = n.Quantifier(bindings, n.make_and(conjuncts + assignments))
    return n.Collection(n.Head(head, tuple(definition.params)), quant)


def _translate_aggregate(aggregate, definition, database, ids):
    """One Rel aggregate term -> a grouped collection (FIO with keys)."""
    inner_name = f"X{next(ids)}"
    value_attr = "val"
    inner_map = {}
    inner_bindings = []
    inner_conjuncts = []
    for atom in aggregate.body:
        schema = _schema(atom.predicate, len(atom.args), database)
        inner_bindings.append(
            bind_atom(atom, schema, ids, inner_map, inner_conjuncts)
        )
    # The head params the body mentions, in binding order: the grouping keys.
    keys = [name for name in inner_map if name in definition.params]

    value_var = aggregate.tuple_vars[-1]
    if value_var not in inner_map:
        raise ParseError(
            f"aggregate tuple variable {value_var!r} is not bound in the body"
        )
    group_keys = tuple(inner_map[key] for key in keys)
    head_attrs = tuple(keys) + (value_attr,)
    assignments = [
        n.Comparison(n.Attr(inner_name, key), "=", inner_map[key]) for key in keys
    ]
    agg_expr = n.AggCall(aggregate.func, inner_map[value_var])
    assignments.append(n.Comparison(n.Attr(inner_name, value_attr), "=", agg_expr))
    quant = n.Quantifier(
        inner_bindings,
        n.make_and(inner_conjuncts + assignments),
        n.Grouping(group_keys),
    )
    return n.Collection(n.Head(inner_name, head_attrs), quant), keys, value_attr


def _schema(predicate, arity, database):
    if database is not None and predicate in database:
        schema = tuple(database[predicate].schema)
        if len(schema) != arity:
            raise ParseError(
                f"predicate {predicate!r} used with arity {arity}, schema is {schema}"
            )
        return schema
    return tuple(f"a{i}" for i in range(1, arity + 1))
