"""Line-oriented shell over the store, in the style of the HBase shell.

Commands are a lowercase verb followed by single-quoted arguments separated
by commas; a quote inside an argument is written as two quotes.  The shell
never dies on a failed command: every error is rendered as a line starting
with "ERROR:" and the loop carries on until exit or end of input.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

from .store import ColumnCoord, LineReader, Store, StoreError


class ShellError(Exception):
    pass


# What a failed command raises; the shell renders each as one ERROR: line.
_FAILURES = (StoreError, ShellError, OSError)


def _error_line(exc: Exception) -> str:
    return f"ERROR: {exc}"


# verb -> (minimum args, maximum args or None for unbounded)
_ARITY: dict[str, tuple[int, Optional[int]]] = {
    "create": (2, None),
    "put": (4, 4),
    "get": (2, 3),
    "scan": (1, 1),
    "disable": (1, 1),
    "drop": (1, 1),
    "exit": (0, 0),
}


# Each table's `column=<coord>, value=` prefixes, one per coordinate of its
# header, with the header they were built for: get and scan render one per
# cell, and ColumnCoord.__str__ is a Python call.
_PREFIXES: dict[str, tuple[Sequence[ColumnCoord], list[str]]] = {}


def _prefixes(table: str, coords: Sequence[ColumnCoord]) -> list[str]:
    hit = _PREFIXES.get(table)
    if hit is None or hit[0] is not coords:
        hit = _PREFIXES[table] = (coords, [f"column={c}, value=" for c in coords])
    return hit[1]


class ShellCommand(NamedTuple):
    verb: str
    args: tuple[str, ...]


_VERB = re.compile(r"(\S+)\s*")
# One quoted argument, the spaces after it and the comma that continues the
# list.  The (?!') makes a doubled quote at the end of the text unbalanced
# instead of a closed argument followed by a stray quote.
_ARG = re.compile(r"'([^']*(?:''[^']*)*)'(?!')\s*(,\s*)?")


def parse_command(line: str) -> ShellCommand:
    """Parse one shell line into a command.

    Raises ShellError for unknown verbs, unbalanced quotes, text outside
    quotes, or the wrong number of arguments.  Verbs are case-sensitive
    lowercase, as in the original shell.
    """
    text = line.strip()
    if not text:
        raise ShellError("empty command")

    head = _VERB.match(text)
    verb = head[1]
    if verb not in _ARITY:
        raise ShellError(f"unknown command {verb!r}")

    args: list[str] = []
    pos = head.end()
    while pos < len(text):
        arg = _ARG.match(text, pos)
        if arg is None:
            if text[pos] == "'":
                raise ShellError("unbalanced quote in command")
            raise ShellError(f"expected a quoted argument at position {pos}")
        args.append(arg[1].replace("''", "'"))
        pos = arg.end()
        if arg[2]:
            if pos == len(text):
                raise ShellError("trailing comma without an argument")
        elif pos < len(text):
            raise ShellError(f"unexpected text at position {pos}")

    lo, hi = _ARITY[verb]
    if len(args) < lo or (hi is not None and len(args) > hi):
        if hi is None:
            expected = f"at least {lo}"
        elif lo == hi:
            expected = str(lo)
        else:
            expected = f"{lo} or {hi}"
        raise ShellError(f"{verb} expects {expected} argument(s), got {len(args)}")
    return ShellCommand(verb, tuple(args))


def _dispatch(cmd: ShellCommand, store: Store) -> str:
    """Run a command, raising on failure; returns the text to display."""
    if cmd.verb == "create":
        store.create_table(cmd.args[0], set(cmd.args[1:]))
        return ""
    if cmd.verb == "put":
        store.put(cmd.args[0], cmd.args[1], ColumnCoord.parse(cmd.args[2]), cmd.args[3])
        return ""
    if cmd.verb == "get" and len(cmd.args) == 3:
        cells = store.get(cmd.args[0], cmd.args[1], ColumnCoord.parse(cmd.args[2]))
        return "\n".join([*[f"column={c}, value={v}" for c, v in cells], f"{len(cells)} row(s)"])
    if cmd.verb == "get":
        row = store.get_row(cmd.args[0], cmd.args[1])
        if row is None:
            return "0 row(s)"
        lines = [p + v for p, v in zip(_prefixes(cmd.args[0], row.coords), row.values) if v]
        return "\n".join(lines) + "\n1 row(s)"
    if cmd.verb == "scan":
        rows = store.scan(cmd.args[0])
        prefixes = _prefixes(cmd.args[0], rows[0].coords) if rows else []
        lines = [f"{row.key}  {p}{v}" for row in rows for p, v in zip(prefixes, row.values) if v]
        lines.append(f"{len(rows)} row(s)")
        return "\n".join(lines)
    if cmd.verb == "disable":
        store.disable_table(cmd.args[0])
        return ""
    if cmd.verb == "drop":
        store.drop_table(cmd.args[0])
        return ""
    if cmd.verb == "exit":
        return ""
    raise ShellError(f"unknown command {cmd.verb!r}")


def execute_command(cmd: ShellCommand, store: Store) -> str:
    """Run a command and render the outcome, errors included.

    Failures come back as an "ERROR: <message>" line instead of an
    exception, so a driving loop can print and continue.
    """
    try:
        return _dispatch(cmd, store)
    except _FAILURES as exc:
        return _error_line(exc)


def _run(store: Store, lines: Iterable[str], out: IO[str]) -> int:
    """Run commands until exit or the end of lines; returns the error count.

    Blank lines are skipped, and a failed command prints its ERROR: line and
    the loop goes on.
    """
    errors = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            cmd = parse_command(line)
            if cmd.verb == "exit":
                break
            text = _dispatch(cmd, store)
        except _FAILURES as exc:
            text = _error_line(exc)
            errors += 1
        if text:
            print(text, file=out)
    return errors


def _prompted(stdin: IO[str], out: IO[str]) -> Iterator[str]:
    while True:
        out.write("kv> ")
        out.flush()
        line = stdin.readline()
        if not line:
            return
        yield line


def run_script(store: Store, path: str | Path, out: Optional[IO[str]] = None) -> int:
    """Execute commands from a file, one per line; returns the error count.

    Every line is read before any command runs, so a script that is not
    UTF-8 runs nothing.  Execution continues past failures; the caller
    turns a nonzero count into a nonzero exit status.
    """
    # Resolve at call time so stream redirection is honored.
    out = sys.stdout if out is None else out
    try:
        with open(path, "rb") as fh:
            lines = list(LineReader(fh))
    except UnicodeError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return _run(store, lines, out)


def repl(
    store: Store, stdin: Optional[IO[str]] = None, out: Optional[IO[str]] = None
) -> None:
    """Interactive loop; ends on the exit command or end of input."""
    stdin = sys.stdin if stdin is None else stdin
    out = sys.stdout if out is None else out
    interactive = hasattr(stdin, "isatty") and stdin.isatty()
    _run(store, _prompted(stdin, out) if interactive else stdin, out)
