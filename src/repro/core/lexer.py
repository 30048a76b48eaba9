"""The one tokenizer and token cursor behind every textual frontend.

A language's spelling is a :class:`Lexicon` table: its keywords, symbols,
comment prefix, what each quote character produces, and the wording of its
errors.  :func:`tokenize` reads that table, and :class:`TokenCursor` (the
recursive-descent plumbing every parser subclasses) reads its error wording.
Two tables exist: :data:`ARC`, shared by the comprehension syntax, ALT, TRC,
Datalog and Rel, and ``SQL`` (in :mod:`repro.frontends.sql.parser`).

The comprehension modality of ARC uses a small Unicode vocabulary
(``∃ ∈ ∧ ∨ ¬ γ ∅``) with ASCII fallbacks (``exists in and or not gamma``)
so queries can be typed on any keyboard.  The lexer normalizes both spellings
to the same token types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ParseError


# Token types.
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
SYMBOL = "SYMBOL"  # punctuation and operators, value carries the symbol
KEYWORD = "KEYWORD"  # normalized keyword (exists, in, and, or, not, ...)
EOF = "EOF"


@dataclass(frozen=True)
class Lexicon:
    """One surface language's spelling, as data."""

    #: ASCII words promoted to keywords (case-insensitive).
    words: frozenset
    #: Single characters that stand for a normalized keyword.
    unicode: dict
    #: Two-character operators.
    multi: tuple
    #: One-character symbols.
    single: frozenset
    #: Prefix of a comment that runs to the end of the line.
    comment: str
    #: Quote character -> (token type, message when unterminated).
    quotes: dict
    #: Error for a character no rule accepts; formatted with the character.
    unexpected: str
    #: Error for input after the end; formatted with the token's value.
    trailing: str
    #: How "expected ..." errors spell a keyword.
    keyword_label: Callable[[str], str]
    #: One symbol accepted (and dropped) just before the end of input.
    terminator: str | None = None
    #: Quote characters that stand for themselves when doubled inside their
    #: own literal (SQL's ``'O''Brien'``).
    doubled: str = ""


ARC = Lexicon(
    words=frozenset(
        """exists in and or not gamma empty null true false is left full inner
        cross main""".split()
    ),
    unicode={
        "∃": "exists",
        "∈": "in",
        "∧": "and",
        "∨": "or",
        "¬": "not",
        "γ": "gamma",
        "∅": "empty",
        "×": "cross",
    },
    multi=(":=", "<>", "!=", "<=", ">="),
    single=frozenset("{}()[]|,;.=<>+-*/%:"),
    comment="#",
    quotes={
        "'": (STRING, "unterminated string literal"),
        '"': (STRING, "unterminated string literal"),
    },
    unexpected="unexpected character {!r}",
    trailing="unexpected trailing input {!r}",
    keyword_label=repr,
)


@dataclass(frozen=True)
class Token:
    """One lexical token with its 1-based source position."""

    type: str
    value: str
    line: int
    column: int

    def is_symbol(self, *symbols):
        return self.type == SYMBOL and self.value in symbols

    def is_keyword(self, *keywords):
        return self.type == KEYWORD and self.value in keywords

    def __repr__(self):
        return f"Token({self.type}, {self.value!r}, {self.line}:{self.column})"


def tokenize(text, lexicon=ARC):
    """Tokenize *text* spelled in *lexicon* into a list of Tokens ending in EOF.

    Raises :class:`~repro.errors.ParseError` on an unrecognized character or
    an unterminated quote.
    """
    words, unicode, quotes = lexicon.words, lexicon.unicode, lexicon.quotes
    multi, single, comment = lexicon.multi, lexicon.single, lexicon.comment
    comment_start = comment[0]
    tokens = []
    line = 1
    line_start = 0  # index of the current line's first character
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            if ch == "\n":
                line += 1
                line_start = i
            continue
        if ch == comment_start and text.startswith(comment, i):  # to end of line
            i = text.find("\n", i)
            if i < 0:
                i = n
            continue
        start_column = i - line_start + 1
        if ch in unicode:
            tokens.append(Token(KEYWORD, unicode[ch], line, start_column))
            i += 1
            continue
        two = text[i : i + 2]
        if two in multi:
            tokens.append(Token(SYMBOL, two, line, start_column))
            i += 2
            continue
        if ch in quotes:
            kind, unterminated = quotes[ch]
            j = text.find(ch, i + 1)
            escaped = ch in lexicon.doubled
            while escaped and j >= 0 and text.startswith(ch, j + 1):
                j = text.find(ch, j + 2)
            if j < 0:
                raise ParseError(unterminated, line, start_column)
            body = text[i + 1 : j]
            value = body.replace(ch * 2, ch) if escaped else body
            tokens.append(Token(kind, value, line, start_column))
            newlines = body.count("\n")
            if newlines:
                line += newlines
                line_start = i + 2 + body.rfind("\n")
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot not followed by a digit is attribute access, not
                    # part of the number (e.g. in positional contexts).
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token(NUMBER, text[i:j], line, start_column))
            i = j
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            if lowered in words:
                tokens.append(Token(KEYWORD, lowered, line, start_column))
            else:
                tokens.append(Token(IDENT, word, line, start_column))
            i = j
            continue
        if ch in single:
            tokens.append(Token(SYMBOL, ch, line, start_column))
            i += 1
            continue
        raise ParseError(lexicon.unexpected.format(ch), line, start_column)

    tokens.append(Token(EOF, "", line, n - line_start + 1))
    return tokens


def literal_value(token):
    """Convert a NUMBER/STRING/keyword-literal token to its Python value."""
    if token.type == NUMBER:
        if "." in token.value:
            return float(token.value)
        return int(token.value)
    if token.type == STRING:
        return token.value
    if token.type == KEYWORD:
        if token.value == "true":
            return True
        if token.value == "false":
            return False
        if token.value == "null":
            from ..data.values import NULL

            return NULL
    raise ParseError(f"not a literal: {token.value!r}", token.line, token.column)


class TokenCursor:
    """Recursive-descent plumbing over one text's tokens.

    A parser subclasses this and names its :class:`Lexicon` in ``lexicon``.
    Backtracking saves ``self._pos`` and assigns it back.
    """

    lexicon = ARC

    def __init__(self, text):
        self._tokens = tokenize(text, self.lexicon)
        self._pos = 0

    def _peek(self, offset=0):
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _next(self):
        token = self._peek()
        if token.type != EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, *keywords):
        if self._peek().is_keyword(*keywords):
            return self._next()
        return None

    def _expect_keyword(self, keyword):
        token = self._next()
        if not token.is_keyword(keyword):
            raise ParseError(
                f"expected {self.lexicon.keyword_label(keyword)}, got {token.value!r}",
                token.line,
                token.column,
            )
        return token

    def _expect_symbol(self, symbol):
        token = self._next()
        if not token.is_symbol(symbol):
            raise ParseError(
                f"expected {symbol!r}, got {token.value!r}", token.line, token.column
            )
        return token

    def _expect_ident(self):
        token = self._next()
        if token.type != IDENT:
            raise ParseError(
                f"expected identifier, got {token.value!r}", token.line, token.column
            )
        return token.value

    def _expect_end(self):
        terminator = self.lexicon.terminator
        if terminator and self._peek().is_symbol(terminator):
            self._next()
        token = self._peek()
        if token.type != EOF:
            raise ParseError(
                self.lexicon.trailing.format(token.value), token.line, token.column
            )
