"""Tokenizer shared by the DDL and query parsers.

Identifiers here may start with digits (date columns are named like
03_31_2020), so there is no separate number token; the parsers decide from
context whether an atom is a name or a numeric literal.  Single-quoted and
double-quoted strings both use backslash escapes; an unknown escape stands
for the escaped character itself, which is how '\\~' denotes a tilde.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn, Optional

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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def _is_atom_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in ("'", '"'):
            kind = STRING if ch == "'" else DQSTRING
            start = i
            value, i = _read_string(text, start, ch)
            tokens.append(Token(kind, value, start))
            continue
        if _is_atom_char(ch):
            start = i
            while i < n and _is_atom_char(text[i]):
                i += 1
            tokens.append(Token(ATOM, text[start:i], start))
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def _read_string(text: str, start: int, quote: str) -> tuple[str, int]:
    # start points at the opening quote
    buf: list[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\":
            if i + 1 >= n:
                raise SqlSyntaxError("unterminated string literal", start)
            nxt = text[i + 1]
            buf.append(_ESCAPES.get(nxt, nxt))
            i += 2
            continue
        if ch == quote:
            return "".join(buf), i + 1
        buf.append(ch)
        i += 1
    raise SqlSyntaxError("unterminated string literal", start)


class Cursor:
    """A parser's place in one statement's tokens."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

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

    def expect_keyword(self, word: str) -> None:
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


def split_statements(text: str) -> list[str]:
    """Split script text into statements at semicolons outside strings."""
    parts: list[str] = []
    buf: list[str] = []
    i = 0
    n = len(text)
    quote = None
    while i < n:
        ch = text[i]
        if quote is not None:
            buf.append(ch)
            if ch == "\\" and i + 1 < n:
                buf.append(text[i + 1])
                i += 2
                continue
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch in ("'", '"'):
            quote = ch
            buf.append(ch)
            i += 1
            continue
        if ch == ";":
            parts.append("".join(buf))
            buf = []
            i += 1
            continue
        buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return [p.strip() for p in parts if p.strip()]
