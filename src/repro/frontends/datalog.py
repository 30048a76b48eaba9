"""Datalog / Soufflé frontend: positional rules embedded into ARC.

Supports the constructs the paper discusses (Sections 2.5, 2.6, 2.9):

* plain rules with shared variables, constants, and ``_`` wildcards::

      A(x, y) :- P(x, y).
      A(x, y) :- P(x, z), A(z, y).

* negated atoms ``!R(x)`` (stratification is checked downstream);
* comparisons ``x < y``, ``x = 3``;
* Soufflé aggregates, both in rule bodies and in heads::

      Q(ak, sm) :- R(ak, _), sm = sum b : {S(a, b), a < ak}.     -- (15)
      Q(a, sum b : {R(a, b)}) :- R(a, _).                        -- (6)

The translation realizes the paper's observation that Soufflé aggregation is
a **from-the-outside-in (FOI)** pattern: each aggregate becomes a correlated
lateral collection with ``γ∅``; grouping keys are the outer variables the
aggregate body mentions ("you cannot export information from within the body
of an aggregate").

Multiple rules with the same head predicate become a single ARC collection
whose body is their disjunction (Section 2.9), and recursion is evaluated by
least fixed point.
"""

from __future__ import annotations

from collections import ChainMap
from itertools import count as _counter

from ..core import nodes as n
from ..core.lexer import EOF, IDENT, NUMBER, STRING, TokenCursor, literal_value
from ..errors import ParseError

AGGREGATE_WORDS = {"sum", "count", "min", "max", "avg", "mean"}


# ---------------------------------------------------------------------------
# Rule AST
# ---------------------------------------------------------------------------


class Atom:
    """``R(t1, ..., tk)`` — args are _Var, _Const, or _Wildcard."""

    def __init__(self, predicate, args, negated=False):
        self.predicate = predicate
        self.args = args
        self.negated = negated


class CompareLit:
    def __init__(self, left, op, right):
        self.left = left
        self.op = op
        self.right = right


class AggLit:
    """``target = func v : { atoms / comparisons }`` (target None in heads)."""

    def __init__(self, target, func, value_var, body):
        self.target = target
        self.func = func
        self.value_var = value_var
        self.body = body  # list of Atom | CompareLit


class _Var:
    def __init__(self, name):
        self.name = name


class _Const:
    def __init__(self, value):
        self.value = value


class _Wildcard:
    pass


class Rule:
    def __init__(self, head_predicate, head_args, body):
        self.head_predicate = head_predicate
        self.head_args = head_args  # list of _Var | _Const | AggLit
        self.body = body  # list of Atom | CompareLit | AggLit


def bind_atom(atom, schema, ids, scope, conjuncts):
    """Bind a positional *atom* to a fresh range variable; return its Binding.

    The variable is the predicate's initial and the next of *ids*; argument
    *i* reads its attribute ``schema[i]``.  A wildcard binds nothing, a
    constant or a variable *scope* already binds becomes an equality in
    *conjuncts*, and any other variable is bound in *scope* on this first
    occurrence — except in a negated atom, which cannot bind (range
    restriction).  Datalog's rule bodies, aggregate bodies and negated atoms
    and Rel's atoms all read atoms through this one binder.
    """
    var = f"{atom.predicate.lower()[:1]}{next(ids)}"
    for attr, arg in zip(schema, atom.args):
        if isinstance(arg, _Wildcard):
            continue
        here = n.Attr(var, attr)
        if isinstance(arg, _Const):
            conjuncts.append(n.Comparison(here, "=", n.Const(arg.value)))
        elif arg.name in scope:
            conjuncts.append(n.Comparison(here, "=", scope[arg.name]))
        elif atom.negated:
            raise ParseError(
                f"variable {arg.name!r} in a negated atom must be "
                "bound by a positive atom (range restriction)"
            )
        else:
            scope[arg.name] = here
    return n.Binding(var, n.RelationRef(atom.predicate))


# ---------------------------------------------------------------------------
# Parser (reuses the core lexer; Datalog's "!" is tokenized manually)
# ---------------------------------------------------------------------------


def parse_rules(text):
    """Parse a Datalog program into a list of Rules."""
    # The shared lexer has no "!" token; normalize Soufflé negation first.
    text = text.replace("!", " not ")
    return _RuleParser(text).parse_program()


class _RuleParser(TokenCursor):
    def parse_program(self):
        rules = []
        while self._peek().type != EOF:
            rules.append(self._parse_rule())
        return rules

    def _parse_rule(self):
        predicate, args = self._parse_head()
        body = []
        token = self._peek()
        if token.is_symbol(":") and self._peek(1).is_symbol("-"):
            self._next()
            self._next()
            body = self._parse_body()
        self._expect_symbol(".")
        return Rule(predicate, args, body)

    def _parse_head(self):
        token = self._next()
        if token.type != IDENT:
            raise ParseError(
                f"expected predicate name, got {token.value!r}", token.line, token.column
            )
        predicate = token.value
        self._expect_symbol("(")
        args = []
        if not self._peek().is_symbol(")"):
            while True:
                args.append(self._parse_head_arg())
                if self._peek().is_symbol(","):
                    self._next()
                    continue
                break
        self._expect_symbol(")")
        return predicate, args

    def _parse_head_arg(self):
        token = self._peek()
        if token.type == IDENT and token.value in AGGREGATE_WORDS:
            return self._parse_aggregate(target=None)
        return self._parse_term()

    def _parse_term(self):
        token = self._next()
        if token.type == IDENT:
            if token.value == "_":
                return _Wildcard()
            return _Var(token.value)
        if token.type in (NUMBER, STRING):
            return _Const(literal_value(token))
        if token.is_symbol("-") and self._peek().type == NUMBER:
            return _Const(-literal_value(self._next()))
        raise ParseError(
            f"expected term, got {token.value!r}", token.line, token.column
        )

    def _parse_body(self):
        literals = [self._parse_literal()]
        while self._peek().is_symbol(","):
            self._next()
            literals.append(self._parse_literal())
        return literals

    def _parse_atom(self):
        token = self._next()
        if token.type != IDENT:
            raise ParseError(
                f"expected predicate name, got {token.value!r}",
                token.line,
                token.column,
            )
        predicate = token.value
        self._expect_symbol("(")
        args = []
        if not self._peek().is_symbol(")"):
            while True:
                args.append(self._parse_term())
                if self._peek().is_symbol(","):
                    self._next()
                    continue
                break
        self._expect_symbol(")")
        return Atom(predicate, args)

    def _parse_literal(self):
        token = self._peek()
        if token.is_keyword("not"):
            self._next()
            atom = self._parse_atom()
            atom.negated = True
            return atom
        if token.type == IDENT and self._peek(1).is_symbol("(") and token.value not in AGGREGATE_WORDS:
            return self._parse_atom()
        # Comparison or aggregate assignment: term op term | var = agg ...
        left = self._parse_term()
        op_token = self._next()
        op = op_token.value
        if op_token.is_symbol("<", ">") and self._peek().is_symbol("="):
            self._next()
            op += "="
        if op not in ("=", "<", "<=", ">", ">=", "<>", "!="):
            raise ParseError(
                f"expected comparison operator, got {op!r}",
                op_token.line,
                op_token.column,
            )
        next_token = self._peek()
        if (
            op == "="
            and next_token.type == IDENT
            and next_token.value in AGGREGATE_WORDS
        ):
            if not isinstance(left, _Var):
                raise ParseError("aggregate target must be a variable")
            return self._parse_aggregate(target=left.name)
        right = self._parse_term()
        return CompareLit(left, op, right)

    def _parse_aggregate(self, target):
        func_token = self._next()
        func = {"mean": "avg"}.get(func_token.value, func_token.value)
        value_var = None
        if not self._peek().is_symbol(":"):
            term = self._parse_term()
            if not isinstance(term, _Var):
                raise ParseError("aggregate value must be a variable")
            value_var = term.name
        self._expect_symbol(":")
        self._expect_symbol("{")
        body = self._parse_body()
        self._expect_symbol("}")
        return AggLit(target, func, value_var, body)


# ---------------------------------------------------------------------------
# Translation to ARC
# ---------------------------------------------------------------------------


def to_arc(text, *, database=None):
    """Parse Datalog rules and translate them into an ARC Program.

    ``database`` supplies attribute names for base predicates (positional
    arguments are matched against the stored schema); without it, base
    predicates get positional attribute names ``a1..ak``.
    """
    rules = parse_rules(text)
    return translate_rules(rules, database=database)


def translate_rules(rules, *, database=None):
    translator = _DatalogTranslator(rules, database)
    return translator.translate()


class _DatalogTranslator:
    def __init__(self, rules, database):
        self._rules = rules
        self._database = database
        self._ids = _counter(1)
        self._head_schemas = self._infer_head_schemas()

    def _fresh(self, prefix):
        return f"{prefix}{next(self._ids)}"

    def _infer_head_schemas(self):
        """Defined predicate -> attribute names (from first rule's head vars)."""
        schemas = {}
        for rule in self._rules:
            if rule.head_predicate in schemas:
                if len(schemas[rule.head_predicate]) != len(rule.head_args):
                    raise ParseError(
                        f"predicate {rule.head_predicate!r} used with "
                        "inconsistent arities"
                    )
                continue
            attrs = []
            for index, arg in enumerate(rule.head_args, start=1):
                if isinstance(arg, _Var):
                    attrs.append(arg.name)
                else:
                    attrs.append(f"c{index}")
            if len(set(attrs)) != len(attrs):
                attrs = [f"c{i}" for i in range(1, len(attrs) + 1)]
            schemas[rule.head_predicate] = tuple(attrs)
        return schemas

    def _relation_schema(self, predicate, arity):
        if predicate in self._head_schemas:
            schema = self._head_schemas[predicate]
        elif self._database is not None and predicate in self._database:
            schema = tuple(self._database[predicate].schema)
        else:
            schema = tuple(f"a{i}" for i in range(1, arity + 1))
        if len(schema) != arity:
            raise ParseError(
                f"predicate {predicate!r} used with arity {arity}, but its "
                f"schema is {schema}"
            )
        return schema

    def translate(self):
        by_head = {}
        for rule in self._rules:
            by_head.setdefault(rule.head_predicate, []).append(rule)
        definitions = {}
        last = None
        for predicate, rules in by_head.items():
            bodies = [self._translate_rule(rule) for rule in rules]
            collection = n.Collection(
                n.Head(predicate, self._head_schemas[predicate]), n.make_or(bodies)
            )
            definitions[predicate] = collection
            last = predicate
        return n.Program(definitions, last)

    def _translate_rule(self, rule):
        head = rule.head_predicate
        head_attrs = self._head_schemas[head]
        bindings = []
        conjuncts = []
        var_map = {}  # datalog var -> Attr

        positives = [l for l in rule.body if isinstance(l, Atom) and not l.negated]
        negatives = [l for l in rule.body if isinstance(l, Atom) and l.negated]
        comparisons = [l for l in rule.body if isinstance(l, CompareLit)]
        aggregates = [l for l in rule.body if isinstance(l, AggLit)]

        for atom in positives:
            self._translate_atom(atom, var_map, bindings, conjuncts)
        # Aggregates before comparisons: an aggregate literal *binds* its
        # target variable, and Soufflé-style bodies filter on that target
        # (``ct = count v : {...}, ct >= 2``) regardless of literal order.
        for aggregate in aggregates:
            binding, value_attr = self._translate_aggregate(aggregate, var_map)
            bindings.append(binding)
            var_map[aggregate.target] = n.Attr(binding.var, value_attr)
        for comparison in comparisons:
            conjuncts.append(self._translate_comparison(comparison, var_map))
        for atom in negatives:
            self._translate_atom(atom, var_map, bindings, conjuncts)

        assignments = []
        for attr, arg in zip(head_attrs, rule.head_args):
            if isinstance(arg, _Var):
                if arg.name not in var_map:
                    raise ParseError(
                        f"head variable {arg.name!r} is not bound in the body "
                        f"of a rule for {head!r}"
                    )
                assignments.append(
                    n.Comparison(n.Attr(head, attr), "=", var_map[arg.name])
                )
            elif isinstance(arg, _Const):
                assignments.append(n.Comparison(n.Attr(head, attr), "=", n.Const(arg.value)))
            elif isinstance(arg, AggLit):
                binding, value_attr = self._translate_aggregate(arg, var_map)
                bindings.append(binding)
                assignments.append(
                    n.Comparison(n.Attr(head, attr), "=", n.Attr(binding.var, value_attr))
                )
            else:
                raise ParseError("wildcard not allowed in rule head")

        return n.Quantifier(bindings, n.make_and(conjuncts + assignments))

    def _translate_atom(self, atom, scope, bindings, conjuncts):
        """A positive atom joins *bindings*; a negated one becomes ``¬∃``."""
        schema = self._relation_schema(atom.predicate, len(atom.args))
        if not atom.negated:
            bindings.append(bind_atom(atom, schema, self._ids, scope, conjuncts))
            return
        equalities = []
        binding = bind_atom(atom, schema, self._ids, scope, equalities)
        conjuncts.append(n.Not(n.Quantifier([binding], n.make_and(equalities))))

    def _translate_comparison(self, comparison, var_map):
        return n.Comparison(
            self._term_expr(comparison.left, var_map),
            comparison.op,
            self._term_expr(comparison.right, var_map),
        )

    def _term_expr(self, term, var_map):
        if isinstance(term, _Const):
            return n.Const(term.value)
        if isinstance(term, _Var):
            if term.name not in var_map:
                raise ParseError(f"unbound variable {term.name!r} in comparison")
            return var_map[term.name]
        raise ParseError("wildcard not allowed in comparison")

    def _translate_aggregate(self, aggregate, outer_var_map):
        """Soufflé aggregate -> correlated lateral collection with γ∅ (FOI).

        Variables already bound outside are correlated into the aggregate
        body; variables bound only inside stay local (Soufflé's rule that
        groundings do not escape the aggregate scope).
        """
        inner_name = self._fresh("X")
        value_attr = "val"
        # Writes land in the aggregate's own scope; reads fall through to
        # the rule's variables, which correlate the body (FOI).
        scope = ChainMap({}, outer_var_map)
        inner_bindings = []
        inner_conjuncts = []
        for literal in aggregate.body:
            if isinstance(literal, Atom):
                self._translate_atom(literal, scope, inner_bindings, inner_conjuncts)
            elif isinstance(literal, CompareLit):
                inner_conjuncts.append(self._translate_comparison(literal, scope))
            else:
                raise ParseError("nested aggregates are not supported")
        inner_map = scope.maps[0]
        if aggregate.value_var is None:
            agg_expr = n.AggCall("count", None)
        else:
            if aggregate.value_var not in inner_map:
                raise ParseError(
                    f"aggregate value variable {aggregate.value_var!r} is not "
                    "bound inside the aggregate body"
                )
            agg_expr = n.AggCall(aggregate.func, inner_map[aggregate.value_var])
        inner_conjuncts.append(
            n.Comparison(n.Attr(inner_name, value_attr), "=", agg_expr)
        )
        quant = n.Quantifier(inner_bindings, n.make_and(inner_conjuncts), n.Grouping(()))
        collection = n.Collection(n.Head(inner_name, (value_attr,)), quant)
        var = self._fresh("x")
        return n.Binding(var, collection), value_attr
