"""Tokenizer shared by the DDL and query parsers.

The lexical rules:

* A name is a run of letters, digits and ``_``, non-ASCII ones included.
  Names may start with digits (date columns are named like 03_31_2020), so
  there is no separate number token; the parsers decide from context
  whether an atom is a name or a number, which is decimal digits with an
  optional leading ``-`` and ``.digits``.
* A string is single-quoted or double-quoted.  A backslash escapes any
  character: ``\\n``, ``\\t`` and ``\\r`` stand for newline, tab and
  carriage return, and any other escaped character stands for itself, which
  is how '\\~' denotes a tilde and '\\'' a quote.
* A ``;`` inside a string does not end a statement.

A Cursor reads tokens as its parser asks, or a stretch of text by pattern
(scan), as the DDL parser reads a CREATE's column list; a first pass over
the text finds its first lexical error, wherever the parser stops.
"""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn, Optional

from .errors import SqlSyntaxError

ATOM = "ATOM"
STRING = "STRING"  # single-quoted
DQSTRING = "DQSTRING"  # double-quoted

_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    "<": "LT",
    ">": "GT",
    ",": "COMMA",
    ";": "SEMI",
    "=": "EQ",
    ".": "DOT",
    ":": "COLON",
    "*": "STAR",
    "-": "MINUS",
}

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}

# A closed string literal; a backslash escapes any character, the quote too.
# Written as runs between escapes, so that re keeps backtracking state per
# escape rather than per character (about 1 MB for a 366-day mapping).
_QUOTED = r"""'[^'\\]*(?:\\.[^'\\]*)*'|"[^"\\]*(?:\\.[^"\\]*)*\""""
# Whitespace matches no alternative, so finditer skips it (Cursor refuses any
# other such character first).  \w is exactly isalnum() or "_", \s isspace().
_TOKEN = re.compile(rf"(?P<str>{_QUOTED})|(?P<atom>\w+)|(?P<punct>[()<>,;=.:*\-])", re.DOTALL)
# Whole tokens and whitespace, as far as they go; ASCII first, as it is cheaper.
_LEXED = re.compile(rf"(?:[a-zA-Z0-9_ \n()<>,;=.:*\-]+|[\w\s]+|{_QUOTED})*", re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


class Node:
    """An immutable syntax node whose fields are the names in its __slots__.

    Unlike a NamedTuple, a node equals and hashes like only nodes of its own
    kind, so ColumnRef(None, "x") != KeyFieldRef(None, "x").
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _unescape(m: re.Match[str]) -> str:
    return _ESCAPES.get(m[1], m[1])


def tokenize(text: str) -> list[Token]:
    p = Cursor(text)
    while p.peek() is not None:
        p.pos += 1
    return p.tokens


class Cursor:
    """A parser's place in one statement's tokens, read as the parser asks."""

    def __init__(self, text: str) -> None:
        bad = _LEXED.match(text).end()
        if bad < len(text):
            if text[bad] in "'\"":
                raise SqlSyntaxError("unterminated string literal", bad)
            raise SqlSyntaxError(f"unexpected character {text[bad]!r}", bad)
        self.text = text
        self.tokens: list[Token] = []  # read so far; pos indexes them
        self.pos = 0
        self._matches = _TOKEN.finditer(text)
        self._end = 0  # where the text after the tokens read so far starts

    def peek(self) -> Optional[Token]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        m = next(self._matches, None)
        if m is None:
            return None
        self._end = m.end()
        text = m[0]
        if m.lastgroup == "str":
            kind = STRING if text[0] == "'" else DQSTRING
            text = _ESCAPE.sub(_unescape, text[1:-1])
        else:
            kind = _PUNCT.get(text, ATOM)
        # tuple.__new__ skips the Python __new__ of a NamedTuple, as ddl does too.
        tok = tuple.__new__(Token, (kind, text, m.start()))
        self.tokens.append(tok)
        return tok

    def scan(self, pattern: re.Pattern[str]) -> re.Match[str]:
        """Match pattern (it may match "") after the tokens read, all consumed; read on past it."""
        m = pattern.match(self.text, self._end)
        self._end = m.end()
        self._matches = _TOKEN.finditer(self.text, self._end)
        return m

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise SqlSyntaxError("unexpected end of statement", len(self.text))
        self.pos += 1
        return tok

    def take(self, kind: str) -> bool:
        """Consume the next token if it is of the given kind."""
        tok = self.peek()
        if tok is not None and tok.kind == kind:
            self.pos += 1
            return True
        return False

    def take_keyword(self, word: str) -> bool:
        """Consume the next token if it is the given upper-case keyword."""
        tok = self.peek()
        if tok is not None and tok.kind == ATOM and tok.text.upper() == word:
            self.pos += 1
            return True
        return False

    def fail(self, expected: str) -> NoReturn:
        """Raise a syntax error naming what the next token should have been."""
        tok = self.peek()
        if tok is None:
            raise SqlSyntaxError(f"expected {expected}, found 'end of statement'", len(self.text))
        raise SqlSyntaxError(f"expected {expected}, found {tok.text!r}", tok.pos)

    def expect_keyword(self, words: str) -> None:  # one or more, space-separated
        for word in words.split():
            if not self.take_keyword(word):
                self.fail(word)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self.fail(what)
        self.pos += 1
        return tok

    def expect_name(self, what: str = "a name") -> str:
        return self.expect(ATOM, what).text

    def list_ends(self, close: str) -> bool:
        """Consume the ',' that continues a list (False) or its closing token (True)."""
        tok = self.next()
        if tok.kind == _PUNCT[close]:
            return True
        if tok.kind != "COMMA":
            raise SqlSyntaxError(f"expected ',' or {close!r}, found {tok.text!r}", tok.pos)
        return False

    def finish(self) -> None:
        """Allow one trailing semicolon, then require the end of the statement."""
        self.take("SEMI")
        tok = self.peek()
        if tok is not None:
            raise SqlSyntaxError(f"unexpected text {tok.text!r} after statement", tok.pos)


# A statement is strings and any text but ";"; a quote left open runs to
# the end of the text.
_STATEMENT = re.compile(rf"""(?:[^'";]+|{_QUOTED}|['"].*)+""", re.DOTALL)


def split_statements(text: str) -> list[str]:
    """Split script text into statements at semicolons outside strings."""
    return [s.strip() for s in _STATEMENT.findall(text) if s.strip()]
