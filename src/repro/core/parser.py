"""Parser for ARC's comprehension-syntax modality.

Grammar (both Unicode and ASCII spellings; see :mod:`repro.core.lexer`)::

    input       := program | collection | sentence
    program     := (IDENT ':=' collection ';')+ (collection | sentence)
    collection  := '{' head '|' body '}'
    head        := IDENT '(' [IDENT (',' IDENT)*] ')'
    body        := or_formula
    or_formula  := and_formula ('∨' and_formula)*
    and_formula := unary ('∧' unary)*
    unary       := '¬' unary
                 | quantifier
                 | '(' body ')'          -- when it contains a formula
                 | predicate
    quantifier  := '∃' qitem (',' qitem)* '[' body ']'
    qitem       := IDENT '∈' source | grouping | join_annotation
    source      := IDENT | collection
    grouping    := 'γ' ('∅' | key (',' key)*)      -- key := IDENT '.' IDENT
    join_ann    := ('inner'|'left'|'full') '(' jitem (',' jitem)* ')'
    jitem       := join_ann | IDENT | literal
    predicate   := expr (CMP expr) | expr 'is' ['not'] 'null'
    expr        := term (('+'|'-') term)*
    term        := factor (('*'|'/'|'%') factor)*
    factor      := literal | agg '(' (expr|'*') ')' | IDENT '.' IDENT
                 | '(' expr ')' | '-' factor
    sentence    := or_formula             -- no braces, boolean query

The parser is deliberately backtracking-free except at one point: a ``(``
inside a formula may open either a parenthesized formula or a parenthesized
arithmetic expression, resolved by tentative parsing.
"""

from __future__ import annotations

from ..errors import ParseError
from . import nodes as n
from .lexer import EOF, IDENT, KEYWORD, NUMBER, STRING, TokenCursor, literal_value


def parse(text):
    """Parse a collection, sentence, or program from comprehension syntax.

    Returns a :class:`~repro.core.nodes.Collection`,
    :class:`~repro.core.nodes.Sentence`, or
    :class:`~repro.core.nodes.Program` depending on the input shape.
    """
    return _Parser(text).parse_input()


def parse_collection(text):
    """Parse exactly one collection; raise ParseError on anything else."""
    result = parse(text)
    if not isinstance(result, n.Collection):
        raise ParseError(f"expected a collection, parsed {type(result).__name__}")
    return result


def parse_sentence(text):
    """Parse exactly one boolean sentence."""
    result = parse(text)
    if isinstance(result, n.Sentence):
        return result
    raise ParseError(f"expected a sentence, parsed {type(result).__name__}")


def parse_program(text):
    """Parse input and always wrap it in a Program (possibly with no defs)."""
    result = parse(text)
    if isinstance(result, n.Program):
        return result
    return n.Program({}, result)


class _Parser(TokenCursor):
    """Recursive-descent parser over a token list with save/restore."""

    # -- entry points --------------------------------------------------------

    def parse_input(self):
        # A program starts with `Name := {`.
        if self._peek().type == IDENT and self._peek(1).is_symbol(":="):
            return self._parse_program()
        if self._peek().is_symbol("{"):
            collection = self._parse_collection()
            self._expect_end()
            return collection
        sentence = n.Sentence(self._parse_or())
        self._expect_end()
        return sentence

    def _parse_program(self):
        definitions = {}
        while self._peek().type == IDENT and self._peek(1).is_symbol(":="):
            name = self._expect_ident()
            self._expect_symbol(":=")
            definition = self._parse_collection()
            definitions[name] = definition
            self._expect_symbol(";")
        if self._peek().type == EOF:
            # Program of definitions only: the last definition is the main.
            if not definitions:
                raise ParseError("empty program")
            return n.Program(definitions, next(reversed(definitions)))
        if self._peek().is_keyword("main"):
            self._next()
            name = self._expect_ident()
            self._expect_end()
            return n.Program(definitions, name)
        if self._peek().is_symbol("{"):
            main = self._parse_collection()
        else:
            main = n.Sentence(self._parse_or())
        self._expect_end()
        return n.Program(definitions, main)

    # -- collections -----------------------------------------------------------

    def _parse_collection(self):
        self._expect_symbol("{")
        head = self._parse_head()
        self._expect_symbol("|")
        body = self._parse_or()
        self._expect_symbol("}")
        return n.Collection(head, body)

    def _parse_head(self):
        name = self._expect_ident()
        self._expect_symbol("(")
        attrs = []
        if not self._peek().is_symbol(")"):
            while True:
                token = self._next()
                if token.type not in (IDENT, KEYWORD):
                    raise ParseError(
                        f"expected attribute name, got {token.value!r}",
                        token.line,
                        token.column,
                    )
                attrs.append(token.value)
                if self._peek().is_symbol(","):
                    self._next()
                    continue
                break
        self._expect_symbol(")")
        return n.Head(name, tuple(attrs))

    # -- formulas ---------------------------------------------------------------

    def _parse_or(self):
        parts = [self._parse_and()]
        while self._peek().is_keyword("or"):
            self._next()
            parts.append(self._parse_and())
        return n.make_or(parts)

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
            return self._parse_quantifier()
        if token.is_keyword("true") and not self._peek(1).is_symbol(
            "=", "<>", "!=", "<", "<=", ">", ">="
        ):
            self._next()
            return n.BoolConst(True)
        if token.is_keyword("false") and not self._peek(1).is_symbol(
            "=", "<>", "!=", "<", "<=", ">", ">="
        ):
            self._next()
            return n.BoolConst(False)
        if token.is_symbol("("):
            # Tentatively parse as a parenthesized formula; fall back to a
            # predicate whose left expression is parenthesized arithmetic.
            saved = self._pos
            try:
                self._next()
                inner = self._parse_or()
                self._expect_symbol(")")
                if self._peek().is_symbol("=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"):
                    raise ParseError("parenthesized expression, not formula")
                return inner
            except ParseError:
                self._pos = saved
                return self._parse_predicate()
        return self._parse_predicate()

    def _parse_quantifier(self):
        self._expect_keyword("exists")
        bindings = []
        grouping = None
        join = None
        while True:
            token = self._peek()
            if token.is_keyword("gamma"):
                self._next()
                grouping = self._parse_grouping_keys()
            elif token.is_keyword("left", "full", "inner") and self._peek(1).is_symbol("("):
                join = self._parse_join_annotation()
            elif token.type == IDENT:
                var = self._expect_ident()
                self._expect_keyword("in")
                bindings.append(n.Binding(var, self._parse_source()))
            else:
                raise ParseError(
                    f"expected binding, grouping, or join annotation, got {token.value!r}",
                    token.line,
                    token.column,
                )
            if self._peek().is_symbol(","):
                self._next()
                continue
            break
        self._expect_symbol("[")
        body = self._parse_or()
        self._expect_symbol("]")
        return n.Quantifier(bindings, body, grouping, join)

    def _parse_source(self):
        if self._peek().is_symbol("{"):
            return self._parse_collection()
        name = self._next()
        if name.type not in (IDENT, STRING):
            raise ParseError(
                f"expected relation name, got {name.value!r}", name.line, name.column
            )
        return n.RelationRef(name.value)

    def _parse_grouping_keys(self):
        if self._peek().is_keyword("empty"):
            self._next()
            return n.Grouping(())
        if self._peek().is_symbol("("):  # gamma() is also the empty grouping
            self._next()
            self._expect_symbol(")")
            return n.Grouping(())
        keys = [self._parse_attr()]
        # Keys continue while the lookahead is `, ident . ident` and the
        # identifier is not itself a new binding (`ident ∈ ...`).
        while (
            self._peek().is_symbol(",")
            and self._peek(1).type == IDENT
            and self._peek(2).is_symbol(".")
            and not self._peek(1).is_keyword("in")
        ):
            self._next()
            keys.append(self._parse_attr())
        return n.Grouping(tuple(keys))

    def _parse_join_annotation(self):
        kind_token = self._next()
        kind = kind_token.value
        self._expect_symbol("(")
        children = []
        while True:
            token = self._peek()
            if token.is_keyword("left", "full", "inner") and self._peek(1).is_symbol("("):
                children.append(self._parse_join_annotation())
            elif token.type == IDENT:
                children.append(n.JoinVar(self._expect_ident()))
            elif token.type in (NUMBER, STRING) or token.is_keyword("true", "false", "null"):
                children.append(n.JoinConst(literal_value(self._next())))
            else:
                raise ParseError(
                    f"expected join-annotation item, got {token.value!r}",
                    token.line,
                    token.column,
                )
            if self._peek().is_symbol(","):
                self._next()
                continue
            break
        self._expect_symbol(")")
        return n.Join(kind, children)

    # -- predicates and expressions ------------------------------------------

    def _parse_predicate(self):
        left = self._parse_expr()
        token = self._peek()
        if token.is_keyword("is"):
            self._next()
            negated = False
            if self._peek().is_keyword("not"):
                self._next()
                negated = True
            self._expect_keyword("null")
            return n.IsNull(left, negated)
        if token.is_symbol("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self._next().value
            right = self._parse_expr()
            return n.Comparison(left, op, right)
        raise ParseError(
            f"expected comparison operator, got {token.value!r}",
            token.line,
            token.column,
        )

    def _parse_expr(self):
        left = self._parse_term()
        while self._peek().is_symbol("+", "-"):
            op = self._next().value
            right = self._parse_term()
            left = n.Arith(op, left, right)
        return left

    def _parse_term(self):
        left = self._parse_factor()
        while self._peek().is_symbol("*", "/", "%"):
            op = self._next().value
            right = self._parse_factor()
            left = n.Arith(op, left, right)
        return left

    def _parse_factor(self):
        token = self._peek()
        if token.is_symbol("-"):
            self._next()
            inner = self._parse_factor()
            if isinstance(inner, n.Const) and isinstance(inner.value, (int, float)):
                return n.Const(-inner.value)
            return n.Arith("-", n.Const(0), inner)
        if token.is_symbol("("):
            self._next()
            inner = self._parse_expr()
            self._expect_symbol(")")
            return inner
        if token.type in (NUMBER, STRING) or token.is_keyword("true", "false", "null"):
            return n.Const(literal_value(self._next()))
        if token.type == IDENT:
            if token.value.lower() in n.AGGREGATE_FUNCTIONS and self._peek(1).is_symbol("("):
                return self._parse_aggregate()
            return self._parse_attr()
        raise ParseError(
            f"expected expression, got {token.value!r}", token.line, token.column
        )

    def _parse_aggregate(self):
        func = self._next().value.lower()
        self._expect_symbol("(")
        if self._peek().is_symbol("*"):
            self._next()
            self._expect_symbol(")")
            return n.AggCall("count", None)
        arg = self._parse_expr()
        self._expect_symbol(")")
        return n.AggCall(func, arg)

    def _parse_attr(self):
        var = self._expect_ident()
        self._expect_symbol(".")
        token = self._next()
        if token.type not in (IDENT, KEYWORD, NUMBER):
            raise ParseError(
                f"expected attribute name after '.', got {token.value!r}",
                token.line,
                token.column,
            )
        return n.Attr(var, token.value)
