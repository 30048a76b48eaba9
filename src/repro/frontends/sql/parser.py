"""Recursive-descent parser for the paper's SQL subset.

Supported: SELECT [DISTINCT] with expression/aggregate/scalar-subquery
items, INTO, FROM with comma cross products and INNER/LEFT/FULL/CROSS
joins (including ``JOIN LATERAL``), WHERE with AND/OR/NOT, comparisons,
[NOT] IN (subquery), [NOT] EXISTS (subquery), IS [NOT] NULL, GROUP BY,
HAVING, and UNION [ALL].  This covers every SQL text in the paper
(Figs. 3, 4a, 5, 6a, 9, 11, 12a, 13, 15, 17, 18, 19, 21).
"""

from __future__ import annotations

from ...core.lexer import (
    IDENT, KEYWORD, NUMBER, STRING, Lexicon, TokenCursor, literal_value,
)
from ...errors import ParseError
from . import ast

AGGREGATES = {"sum", "count", "avg", "min", "max"}

#: SQL's spelling for the shared tokenizer.  Keywords are case-insensitive and
#: identifiers keep their case; a double-quoted identifier is an IDENT (the
#: paper's reified operator relations like ``"-"`` and ``">"``, Fig. 15b).
SQL = Lexicon(
    words=frozenset(
        """select distinct from where group by having order as on join inner left
        right full outer cross lateral union all and or not exists in is null
        true false into like between case when then else end asc desc limit
        with recursive""".split()
    ),
    unicode={},
    multi=("<>", "!=", "<=", ">=", "||"),
    single=frozenset("(),.*=<>+-/%;"),
    comment="--",
    quotes={
        "'": (STRING, "unterminated string literal"),
        '"': (IDENT, "unterminated quoted identifier"),
    },
    unexpected="unexpected character {!r} in SQL",
    trailing="unexpected trailing SQL {!r}",
    keyword_label=str.upper,
    terminator=";",
    doubled="'",
)


def parse_sql(text):
    """Parse SQL text into a :class:`~repro.frontends.sql.ast.SelectStmt`
    or :class:`~repro.frontends.sql.ast.UnionStmt`."""
    parser = _Parser(text)
    stmt = parser.parse_statement()
    parser._expect_end()
    return stmt


class _Parser(TokenCursor):
    lexicon = SQL

    # -- statements ------------------------------------------------------------

    def parse_statement(self):
        first = self.parse_select()
        branches = [first]
        union_all = None
        while self._accept_keyword("union"):
            is_all = bool(self._accept_keyword("all"))
            if union_all is None:
                union_all = is_all
            elif union_all != is_all:
                raise ParseError("mixing UNION and UNION ALL is not supported")
            branches.append(self.parse_select())
        if len(branches) == 1:
            return first
        return ast.UnionStmt(branches, all=bool(union_all))

    def parse_select(self):
        self._expect_keyword("select")
        stmt = ast.SelectStmt()
        stmt.distinct = bool(self._accept_keyword("distinct"))
        stmt.items = self._parse_select_list()
        if self._accept_keyword("into"):
            stmt.into = self._expect_ident()
        if self._accept_keyword("from"):
            stmt.from_items = self._parse_from()
        if self._accept_keyword("where"):
            stmt.where = self._parse_condition()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            stmt.group_by = [self._parse_expr()]
            while self._peek().is_symbol(","):
                self._next()
                stmt.group_by.append(self._parse_expr())
        if self._accept_keyword("having"):
            stmt.having = self._parse_condition()
        return stmt

    def _parse_select_list(self):
        items = [self._parse_select_item()]
        while self._peek().is_symbol(","):
            self._next()
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self):
        if self._peek().is_symbol("*"):
            self._next()
            return ast.SelectItem(ast.ColumnRef(None, "*"))
        if self._peek().is_keyword("exists"):
            self._next()
            self._expect_symbol("(")
            query = self.parse_select()
            self._expect_symbol(")")
            expr = ast.ExistsPred(query)
        elif self._peek().is_keyword("not") and self._peek(1).is_keyword("exists"):
            self._next()
            self._next()
            self._expect_symbol("(")
            query = self.parse_select()
            self._expect_symbol(")")
            expr = ast.ExistsPred(query, negated=True)
        else:
            expr = self._parse_expr()
        alias = self._parse_alias()
        return ast.SelectItem(expr, alias)

    def _parse_alias(self):
        if self._accept_keyword("as"):
            return self._expect_ident()
        if self._peek().type == IDENT:
            return self._next().value
        return None

    # -- FROM -----------------------------------------------------------------------

    def _parse_from(self):
        items = [self._parse_join_chain()]
        while self._peek().is_symbol(","):
            self._next()
            items.append(self._parse_join_chain())
        return items

    def _parse_join_chain(self):
        left = self._parse_table_primary()
        while True:
            token = self._peek()
            if token.is_keyword("join"):
                self._next()
                left = self._finish_join(left, "inner")
            elif token.is_keyword("inner") and self._peek(1).is_keyword("join"):
                self._next()
                self._next()
                left = self._finish_join(left, "inner")
            elif token.is_keyword("left", "full"):
                kind = self._next().value
                self._accept_keyword("outer")
                self._expect_keyword("join")
                left = self._finish_join(left, kind)
            elif token.is_keyword("cross"):
                self._next()
                self._expect_keyword("join")
                right = self._parse_table_primary()
                left = ast.JoinedTable("cross", left, right, None)
            else:
                return left

    def _finish_join(self, left, kind):
        lateral = bool(self._accept_keyword("lateral"))
        right = self._parse_table_primary(lateral=lateral)
        condition = None
        if self._accept_keyword("on"):
            condition = self._parse_condition()
        if isinstance(condition, ast.BoolLiteral) and condition.value:
            condition = None
        return ast.JoinedTable(kind, left, right, condition)

    def _parse_table_primary(self, *, lateral=False):
        if self._peek().is_symbol("("):
            self._next()
            query = self.parse_statement()
            self._expect_symbol(")")
            alias = self._parse_alias()
            if alias is None:
                raise ParseError("derived table requires an alias")
            return ast.DerivedTable(query, alias, lateral=lateral)
        if self._peek().is_keyword("lateral"):
            self._next()
            self._expect_symbol("(")
            query = self.parse_statement()
            self._expect_symbol(")")
            alias = self._parse_alias()
            if alias is None:
                raise ParseError("lateral derived table requires an alias")
            return ast.DerivedTable(query, alias, lateral=True)
        name = self._expect_ident()
        alias = self._parse_alias()
        return ast.TableRef(name, alias)

    # -- conditions -----------------------------------------------------------------

    def _parse_condition(self):
        return self._parse_or_cond()

    def _parse_or_cond(self):
        parts = [self._parse_and_cond()]
        while self._accept_keyword("or"):
            parts.append(self._parse_and_cond())
        if len(parts) == 1:
            return parts[0]
        return ast.OrCond(parts)

    def _parse_and_cond(self):
        parts = [self._parse_not_cond()]
        while self._accept_keyword("and"):
            parts.append(self._parse_not_cond())
        if len(parts) == 1:
            return parts[0]
        return ast.AndCond(parts)

    def _parse_not_cond(self):
        if self._accept_keyword("not"):
            inner = self._parse_not_cond()
            if isinstance(inner, ast.ExistsPred) and not inner.negated:
                return ast.ExistsPred(inner.query, negated=True)
            return ast.NotCond(inner)
        return self._parse_primary_cond()

    def _parse_primary_cond(self):
        token = self._peek()
        if token.is_keyword("exists"):
            self._next()
            self._expect_symbol("(")
            query = self.parse_statement()
            self._expect_symbol(")")
            return ast.ExistsPred(query)
        if token.is_keyword("true"):
            self._next()
            return ast.BoolLiteral(True)
        if token.is_keyword("false"):
            self._next()
            return ast.BoolLiteral(False)
        if token.is_symbol("("):
            # Either a parenthesized condition or a parenthesized expression;
            # resolve by tentative parsing.
            saved = self._pos
            try:
                self._next()
                inner = self._parse_condition()
                self._expect_symbol(")")
                if self._peek().is_symbol("=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"):
                    raise ParseError("expression, not condition")
                if self._peek().is_keyword("is", "in", "not"):
                    raise ParseError("expression, not condition")
                return inner
            except ParseError:
                self._pos = saved
        left = self._parse_expr()
        return self._parse_cond_rest(left)

    def _parse_cond_rest(self, left):
        token = self._peek()
        if token.is_keyword("is"):
            self._next()
            negated = bool(self._accept_keyword("not"))
            self._expect_keyword("null")
            return ast.IsNullPred(left, negated)
        if token.is_keyword("not") and self._peek(1).is_keyword("in"):
            self._next()
            self._next()
            self._expect_symbol("(")
            query = self.parse_statement()
            self._expect_symbol(")")
            return ast.InPredicate(left, query, negated=True)
        if token.is_keyword("in"):
            self._next()
            self._expect_symbol("(")
            query = self.parse_statement()
            self._expect_symbol(")")
            return ast.InPredicate(left, query)
        if token.is_symbol("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self._next().value
            right = self._parse_expr()
            return ast.Comparison(op, left, right)
        raise ParseError(
            f"expected condition operator, got {token.value!r}",
            token.line,
            token.column,
        )

    # -- expressions -------------------------------------------------------------------

    def _parse_expr(self):
        left = self._parse_term()
        while self._peek().is_symbol("+", "-"):
            op = self._next().value
            left = ast.BinaryOp(op, left, self._parse_term())
        return left

    def _parse_term(self):
        left = self._parse_factor()
        while self._peek().is_symbol("*", "/", "%"):
            op = self._next().value
            left = ast.BinaryOp(op, left, self._parse_factor())
        return left

    def _parse_factor(self):
        token = self._peek()
        if token.is_symbol("-"):
            self._next()
            inner = self._parse_factor()
            if isinstance(inner, ast.Literal) and isinstance(inner.value, (int, float)):
                return ast.Literal(-inner.value)
            return ast.BinaryOp("-", ast.Literal(0), inner)
        if token.is_symbol("("):
            # Scalar subquery or parenthesized expression.
            if self._peek(1).is_keyword("select"):
                self._next()
                query = self.parse_statement()
                self._expect_symbol(")")
                return ast.ScalarSubquery(query)
            self._next()
            inner = self._parse_expr()
            self._expect_symbol(")")
            return inner
        if token.type in (NUMBER, STRING) or token.is_keyword("null", "true", "false"):
            return ast.Literal(literal_value(self._next()))
        if token.type == IDENT:
            name = self._next().value
            if name.lower() in AGGREGATES and self._peek().is_symbol("("):
                return self._parse_aggregate(name.lower())
            if self._peek().is_symbol("."):
                self._next()
                column = self._next()
                if column.type not in (IDENT, KEYWORD) and not column.is_symbol("*"):
                    raise ParseError(
                        f"expected column after '.', got {column.value!r}",
                        column.line,
                        column.column,
                    )
                return ast.ColumnRef(name, column.value)
            return ast.ColumnRef(None, name)
        raise ParseError(
            f"expected expression, got {token.value!r}", token.line, token.column
        )

    def _parse_aggregate(self, name):
        self._expect_symbol("(")
        if self._peek().is_symbol("*"):
            self._next()
            self._expect_symbol(")")
            return ast.FuncCall("count", None)
        distinct = bool(self._accept_keyword("distinct"))
        arg = self._parse_expr()
        self._expect_symbol(")")
        return ast.FuncCall(name, arg, distinct=distinct)
