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

A Cursor holds one statement's tokens as a flat list of their texts, lexed
by one findall, and a parser reads them by index; a token's kind is its
first character.  A first pass over the whole text raises its first lexical
error, wherever the parser stops.  Positions are found again only for an
error message (at).  A parser may lex a head of the text only and read on
by pattern (scan), as the DDL parser reads a CREATE's column list.
"""

from __future__ import annotations

import re
from typing import NamedTuple, NoReturn

from .errors import SqlSyntaxError

ATOM = "ATOM"
STRING = "STRING"  # single-quoted
DQSTRING = "DQSTRING"  # double-quoted

# A token's kind by its first character; any other starts a name (ATOM).
_KINDS = dict(zip("()<>,;=.:*-", "LPAREN RPAREN LT GT COMMA SEMI EQ DOT COLON STAR MINUS".split()))
_KINDS.update({"'": STRING, '"': DQSTRING})
# The first characters of tokens that are not names; "" (the end) is in it too.
NOT_NAME = "".join(_KINDS)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}

# A closed string literal; a backslash escapes any character, the quote too.
# Written as runs between escapes, so that re keeps backtracking state per
# escape rather than per character (about 1 MB for a 366-day mapping).
_QUOTED = r"""'[^'\\]*(?:\\.[^'\\]*)*'|"[^"\\]*(?:\\.[^"\\]*)*\""""
# Whitespace matches no alternative, so findall skips it (Cursor refuses any
# other such character first).  \w is exactly isalnum() or "_", \s isspace().
_TOKEN = re.compile(rf"\w+|[()<>,;=.:*\-]|{_QUOTED}", re.DOTALL)
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

    def __init_subclass__(cls) -> None:
        # Most nodes have two fields; theirs are set through the slots'
        # descriptors, without the loop: half the cost of a node.
        if len(cls.__slots__) == 2:
            first, second = (getattr(cls, name).__set__ for name in cls.__slots__)

            def __init__(self: Node, a: object, b: object) -> None:
                first(self, a)
                second(self, b)

            cls.__init__ = __init__

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


def unquote(tok: str) -> str:
    """A token's text, a string's without its quotes and with escapes decoded."""
    if tok[:1] not in ("'", '"'):
        return tok
    return _ESCAPE.sub(_unescape, tok[1:-1]) if "\\" in tok else tok[1:-1]


def tokenize(text: str) -> list[Token]:
    Cursor(text)  # raises the first lexical error
    return [Token(_KINDS.get(m[0][0], ATOM), unquote(m[0]), m.start()) for m in _TOKEN.finditer(text)]


class Cursor:
    """A parser's place (i) in one statement's tokens, a list of their texts ending in "".

    Given end, only text[:end] is lexed, and the parser must scan on from there.
    """

    def __init__(self, text: str, end: int | None = None) -> None:
        bad = _LEXED.match(text).end()
        if bad < len(text):
            if text[bad] in "'\"":
                raise SqlSyntaxError("unterminated string literal", bad)
            raise SqlSyntaxError(f"unexpected character {text[bad]!r}", bad)
        self.text = text
        self.toks = _TOKEN.findall(text, 0, len(text) if end is None else end) + [""]
        self.i = 0
        self._end = end  # where the lexed head ends
        self._lexed = (0, 0)  # the first token of the last stretch lexed, and its position

    def at(self, k: int) -> int:
        """Where token k starts (the end of the text for the end): found again, for an error."""
        first, pos = self._lexed
        for n, m in enumerate(_TOKEN.finditer(self.text, pos), first):
            if n == k:
                return m.start()
        return len(self.text)

    def scan(self, pattern: re.Pattern[str]) -> re.Match[str]:
        """Match pattern (it may match "") where the lexed head ends, all read; lex on past it."""
        m = pattern.match(self.text, self._end)
        self.toks[self.i :] = _TOKEN.findall(self.text, m.end()) + [""]
        self._lexed = (self.i, m.end())
        return m

    def error(self, message: str, k: int) -> SqlSyntaxError:
        return SqlSyntaxError(message, self.at(k))

    def next(self) -> str:
        tok = self.toks[self.i]
        if not tok:
            raise SqlSyntaxError("unexpected end of statement", len(self.text))
        self.i += 1
        return tok

    def take(self, tok: str) -> bool:
        """Consume the next token if it is the given punctuation."""
        if self.toks[self.i] == tok:
            self.i += 1
            return True
        return False

    def take_keyword(self, word: str) -> bool:
        """Consume the next token if it is the given upper-case keyword."""
        if self.toks[self.i].upper() == word:
            self.i += 1
            return True
        return False

    def fail(self, expected: str) -> NoReturn:
        """Raise a syntax error naming what the next token should have been."""
        tok = self.toks[self.i]
        shown = unquote(tok) if tok else "end of statement"
        raise self.error(f"expected {expected}, found {shown!r}", self.i)

    def expect_keyword(self, words: str) -> None:  # one or more, space-separated
        for word in words.split():
            if not self.take_keyword(word):
                self.fail(word)

    def expect(self, tok: str, what: str) -> None:
        if not self.take(tok):
            self.fail(what)

    def expect_quoted(self, quote: str, what: str) -> str:
        tok = self.toks[self.i]
        if tok[:1] != quote:
            self.fail(what)
        self.i += 1
        return unquote(tok)

    def expect_name(self, what: str = "a name") -> str:
        tok = self.toks[self.i]
        if tok[:1] in NOT_NAME:
            self.fail(what)
        self.i += 1
        return tok

    def list_ends(self, close: str) -> bool:
        """Consume the ',' that continues a list (False) or its closing token (True)."""
        tok = self.next()
        if tok == close:
            return True
        if tok != ",":
            raise self.error(f"expected ',' or {close!r}, found {unquote(tok)!r}", self.i - 1)
        return False

    def finish(self) -> None:
        """Allow one trailing semicolon, then require the end of the statement."""
        self.take(";")
        tok = self.toks[self.i]
        if tok:
            raise self.error(f"unexpected text {unquote(tok)!r} after statement", self.i)


# A statement is strings and any text but ";"; a quote left open runs to
# the end of the text.
_STATEMENT = re.compile(rf"""(?:[^'";]+|{_QUOTED}|['"].*)+""", re.DOTALL)


def split_statements(text: str) -> list[str]:
    """Split script text into statements at semicolons outside strings."""
    return [s.strip() for s in _STATEMENT.findall(text) if s.strip()]
