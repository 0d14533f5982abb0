"""Golden parser corpus: every recorded statement parses as it did when recorded.

``tests/data/parser_corpus.jsonl`` was written by running ``parse_statement``
over a fixed corpus: the workload's ``.sql`` files whole and split, the
statements criterion 4's generators draw (their seeds), the parser tests'
own statements, ``schema-gen`` DDL for 70 and 366 days, DROP and DESCRIBE,
and hand-written escapes, unclosed quotes and stray characters.  Each line
is a JSON array:

* ``["text", statement, outcome]`` is a base statement;
* ``[op, k, outcome]`` is a mutation of the base above it (see ``mutate``).

An outcome is ``["ok", repr of the AST]`` (``"sha256:<hex>"`` of a repr
longer than 1000 characters), ``["same"]`` for a mutation that parses as its
base does, or ``[exception type, message, position or null]``.
"""

import hashlib
import json
import re

from covidstore.sql import parse_statement

from conftest import TESTS
from test_acceptance import budget

CORPUS = TESTS / "data" / "parser_corpus.jsonl"

# Tokens for mutating, independent of the lexer under test: strings (open
# ones too), names and numbers, and any other single non-space character.
_SPAN = re.compile(r"""'(?:[^'\\]|\\.)*'?|"(?:[^"\\]|\\.)*"?|\w+|\S""", re.DOTALL)
_SPACES = ("\u2028", "\x1c")


def mutate(text: str, op: str, k: int) -> str:
    """Token k deleted, doubled, cut after, case-flipped or preceded by odd whitespace;
    or ("spaces") every space replaced by _SPACES[k]."""
    if op == "spaces":
        return text.replace(" ", _SPACES[k])
    start, end = [m.span() for m in _SPAN.finditer(text)][k]
    tok = text[start:end]
    return {
        "delete": lambda: text[:start] + text[end:],
        "double": lambda: text[:start] + tok + " " + tok + text[end:],
        "cut": lambda: text[:end],
        "flip": lambda: text[:start] + tok.swapcase() + text[end:],
        "space": lambda: text[:start] + _SPACES[k % 2] + text[start:],
    }[op]()


def outcome(text: str) -> list:
    try:
        ast = parse_statement(text)
    except Exception as e:  # every exception is part of the recorded behaviour
        return [type(e).__name__, str(e), getattr(e, "position", None)]
    shown = repr(ast)
    if len(shown) > 1000:
        shown = "sha256:" + hashlib.sha256(shown.encode()).hexdigest()
    return ["ok", shown]


def test_every_recorded_statement_parses_as_recorded():
    with budget(5.0):
        lines = CORPUS.read_text(encoding="ascii").splitlines()
        wrong = []
        for line in lines:
            op, arg, expected = json.loads(line)
            if op == "text":
                base = text = arg
                base_outcome = got = outcome(text)
            else:
                text = mutate(base, op, arg)
                got = outcome(text)
                if got == base_outcome:
                    got = ["same"]
            if got != expected:
                wrong.append(f"{text!r}\n  recorded {expected}\n  now      {got}")
    assert len(lines) > 8000
    assert not wrong, f"{len(wrong)} of {len(lines)} differ:\n" + "\n".join(wrong[:10])
