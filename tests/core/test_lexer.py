"""Tests for the one lexer and token cursor behind every textual frontend."""

import ast
import pathlib

import pytest

from repro.core.alt_parser import parse_alt
from repro.core.lexer import EOF, IDENT, KEYWORD, NUMBER, STRING, SYMBOL, literal_value, tokenize
from repro.core.parser import parse
from repro.data.values import NULL
from repro.errors import ParseError
from repro.frontends.datalog import parse_rules
from repro.frontends.rel import parse_rel
from repro.frontends.sql import parse_sql
from repro.frontends.sql.parser import SQL
from repro.frontends.trc import parse_trc


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text) if t.type != EOF]


class TestUnicode:
    def test_symbols_normalize_to_keywords(self):
        assert kinds("∃ ∈ ∧ ∨ ¬ γ ∅") == [
            (KEYWORD, "exists"),
            (KEYWORD, "in"),
            (KEYWORD, "and"),
            (KEYWORD, "or"),
            (KEYWORD, "not"),
            (KEYWORD, "gamma"),
            (KEYWORD, "empty"),
        ]

    def test_ascii_words_equal_unicode(self):
        assert kinds("exists in and or not gamma empty") == kinds("∃ ∈ ∧ ∨ ¬ γ ∅")

    def test_case_insensitive_keywords(self):
        assert kinds("EXISTS")[0] == (KEYWORD, "exists")


class TestTokens:
    def test_identifiers(self):
        assert kinds("r2 foo_bar $1")[0] == (IDENT, "r2")
        assert kinds("$1") == [(IDENT, "$1")]

    def test_numbers(self):
        assert kinds("42") == [(NUMBER, "42")]
        assert kinds("3.5") == [(NUMBER, "3.5")]

    def test_number_then_attribute_dot(self):
        # "r.1" style and "1." followed by non-digit must not merge.
        tokens = kinds("x.2")
        assert tokens == [(IDENT, "x"), ("SYMBOL", "."), (NUMBER, "2")]

    def test_strings(self):
        assert kinds("'hello world'") == [(STRING, "hello world")]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_comments(self):
        assert kinds("a # comment\nb") == [(IDENT, "a"), (IDENT, "b")]

    def test_multichar_symbols(self):
        assert [v for _, v in kinds("<> != <= >= :=")] == ["<>", "!=", "<=", ">=", ":="]

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("@")


class TestLiteralValue:
    def test_values(self):
        assert literal_value(tokenize("5")[0]) == 5
        assert literal_value(tokenize("5.5")[0]) == 5.5
        assert literal_value(tokenize("'x'")[0]) == "x"
        assert literal_value(tokenize("true")[0]) is True
        assert literal_value(tokenize("false")[0]) is False
        assert literal_value(tokenize("null")[0]) is NULL

    def test_non_literal(self):
        with pytest.raises(ParseError):
            literal_value(tokenize("foo")[0])


def sql_kinds(text):
    return [(t.type, t.value) for t in tokenize(text, SQL) if t.type != EOF]


class TestSqlLexicon:
    def test_dash_dash_comment_runs_to_end_of_line(self):
        assert sql_kinds("select -- the rest - is ignored\n1 - 2") == [
            (KEYWORD, "select"),
            (NUMBER, "1"),
            (SYMBOL, "-"),
            (NUMBER, "2"),
        ]

    def test_concatenation_symbol(self):
        assert sql_kinds("a || b") == [(IDENT, "a"), (SYMBOL, "||"), (IDENT, "b")]

    def test_double_quotes_make_an_identifier(self):
        # Fig. 15b's reified operator relation "-".
        assert sql_kinds('from "-" m') == [(KEYWORD, "from"), (IDENT, "-"), (IDENT, "m")]
        assert sql_kinds("'-'") == [(STRING, "-")]

    def test_keywords_fold_case_and_identifiers_keep_it(self):
        assert sql_kinds("SeLeCt Name FROM R") == [
            (KEYWORD, "select"),
            (IDENT, "Name"),
            (KEYWORD, "from"),
            (IDENT, "R"),
        ]

    def test_arc_only_spellings_are_not_sql(self):
        assert sql_kinds("gamma main") == [(IDENT, "gamma"), (IDENT, "main")]

    def test_doubled_quote_inside_a_string_is_one_quote(self):
        assert sql_kinds("'O''Brien' ''''") == [(STRING, "O'Brien"), (STRING, "'")]
        assert sql_kinds("'' 'a'") == [(STRING, ""), (STRING, "a")]
        # ARC keeps ending a literal at its first closing quote.
        assert [t.value for t in tokenize("'a''b'")][:2] == ["a", "b"]

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ('select\n  "R', "unterminated quoted identifier", 2, 3),
            ("select r.A\nfrom R r where r.A = 'x", "unterminated string literal", 2, 22),
            ("select r.A\nfrom R r where r.A = 'x''", "unterminated string literal", 2, 22),
            ("select r.A\nfrom R r where r.A = #", "unexpected character '#' in SQL", 2, 22),
        ],
    )
    def test_errors_carry_their_position(self, text, message, line, column):
        with pytest.raises(ParseError) as info:
            tokenize(text, SQL)
        error = info.value
        assert (error.message, error.line, error.column) == (message, line, column)


_ALT = "COLLECTION\n├─ HEAD: Q(A)\n└─ QUANTIFIER ∃\n   ├─ BINDING: r ∈ R\n   └─ PREDICATE: "


@pytest.mark.parametrize(
    "parser, text, expected",
    [
        (parse, "{Q(A) | ∃r ∈ R[Q.A = r.A}", ("expected ']', got '}'", 1, 25)),
        (parse, "{Q(A) | ∃r R[Q.A = r.A]}", ("expected 'in', got 'R'", 1, 12)),
        (parse, "{Q(A) | ∃r ∈ R[Q.A = r.A]};", ("unexpected trailing input ';'", 1, 27)),
        (parse_alt, _ALT + "Q.A = (r.A", ("expected ')', got ''", 1, 11)),
        (parse_alt, _ALT + "Q.A = r.A x", ("unexpected trailing input 'x'", 1, 11)),
        (parse_sql, "select r.A from R r where (r.A = 1", ("expected ')', got '='", 1, 32)),
        (parse_sql, "select r.A from R r group r.A", ("expected BY, got 'r'", 1, 27)),
        (parse_sql, "select r.A from R r;;", ("unexpected trailing SQL ';'", 1, 21)),
        (parse_sql, "select r.A from R r x y", ("unexpected trailing SQL 'x'", 1, 21)),
        (parse_rules, "Q(x) :- R(x.", ("expected ')', got '.'", 1, 12)),
        (parse_rules, "Q(x) :- R(x). Q", ("expected '(', got ''", 1, 16)),
        (parse_rel, "def Q(x) : R(x", ("expected ')', got ''", 1, 15)),
        (parse_rel, "def Q(x) : R(x) )", ("expected 'def', got ')'", 1, 17)),
        (parse_trc, "{r.A | r ∈ R", ("expected '}', got ''", 1, 13)),
        (parse_trc, "{r.A | r ∈ R} x", ("unexpected trailing input 'x'", 1, 15)),
    ],
)
def test_malformed_input_names_its_position(parser, text, expected):
    with pytest.raises(ParseError) as info:
        parser(text)
    assert (info.value.message, info.value.line, info.value.column) == expected


def test_sql_accepts_one_trailing_semicolon():
    assert parse_sql("select r.A from R r;").items == parse_sql("select r.A from R r").items


#: Names only ``core/lexer.py`` may define: the token, the tokenizer loop and
#: the cursor's plumbing.
_LEXER_NAMES = {"Token", "tokenize", "_peek", "_next"}


def test_only_core_lexer_defines_a_token_tokenizer_or_cursor():
    import repro

    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for layer in ("core", "frontends"):
        for path in sorted((root / layer).rglob("*.py")):
            if path == root / "core" / "lexer.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                defines = isinstance(node, (ast.ClassDef, ast.FunctionDef))
                stores = isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                if (defines and node.name in _LEXER_NAMES) or (stores and node.attr == "_tokens"):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
