"""Command-line front end tying the pipeline together.

Subcommands mirror the pipeline stages: fetch raw CSVs, ingest them into
the sparse format, load the result into the store, then query with sql or
poke at cells with the shell.  schema-gen prints the CREATE statement for a
date range so the DDL never has to be written by hand.

Exit codes: 0 on success; 2 for a usage error (a malformed command line)
or for lines skipped during a strict load; 1 for any other user error,
such as a bad --dates or --table value, a missing file, a failed
statement or a file-system error.

The command line is read from one table, _COMMANDS, by a short loop over
the words: each command is a short-lived process, and argparse, with the
gettext it loads, would cost every one of them about 5 ms.

`python -m covidstore` and the `covidstore` script both run run(): main(),
a flush of stdout and stderr, then os._exit, with no interpreter teardown,
so a command closes every file it opens before main() returns.  A reader
that leaves before the last flush gets nothing more; main()'s code stands.

A command imports only the layers it runs: fetch none, ingest the ingest
module, schema-gen the date naming module, dates (it only writes text),
load the store (and dates, for --dates), sql the store and the SQL engine,
shell the store and the shell.  Only sql loads the sql package; the other
commands catch SqlError from the package root.  The names in _LAYERS are
the ones the benchmark's tracer wraps: the commands call them through
this module object, whose __getattr__ imports each from its layer on
first use and keeps it here, so a wrapper set on this module is the one
that runs.
"""

from __future__ import annotations

import importlib
import os
import sys
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

from . import SqlError, StoreError, write_atomic

# Each layer name the commands call through _cli (this module), and its module.
_LAYERS = {"open_store": ".store", "Catalog": ".sql.engine", "parse_statement": ".sql.engine",
           "execute_statement": ".sql.engine", "render_result_set": ".sql.engine"}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_LAYERS[name], __package__), name)
    return value


EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_DATA_ERROR = 2

SERIES_NAMES = ("confirmed", "deaths", "recovered")
DEFAULT_SERIES = ("confirmed", "deaths")

_RAW_BASE = (
    "https://raw.githubusercontent.com/CSSEGISandData/COVID-19/master/"
    "csse_covid_19_data/csse_covid_19_time_series"
)


def raw_file_name(series: str) -> str:
    return f"time_series_covid19_{series}_global.csv"


def default_url(series: str) -> str:
    return f"{_RAW_BASE}/{raw_file_name(series)}"


# ------------------------------------------------------------------ commands


def cmd_fetch(args) -> int:
    urls = dict(args.url or [])
    if urls.keys() - set([] if args.from_dir else args.series):
        _fail("fetch", "argument --url: names a series this run does not download")
    data_dir = Path(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    rc = EXIT_OK
    for series in args.series:
        name = raw_file_name(series)
        target = data_dir / name
        try:
            if args.from_dir:
                source = Path(args.from_dir) / name
                with open(source, "rb") as fh:
                    payload = fh.read()
            else:
                # Imported here: urllib.request is a large share of CLI
                # start-up, and only a download uses it.
                import urllib.request

                url = urls.get(series, default_url(series))
                with urllib.request.urlopen(url, timeout=args.timeout) as resp:
                    payload = resp.read()
        except OSError as exc:  # URLError is an OSError
            print(f"error: {series}: {exc}", file=sys.stderr)
            rc = EXIT_USER_ERROR
            continue
        # A failed write never leaves a truncated CSV where the next stage
        # will pick it up.
        write_atomic(target, payload)
        print(f"{series}: saved {target} ({len(payload)} bytes)")
    return rc


def cmd_ingest(args) -> int:
    from . import ingest
    from .dates import FormatError

    data_dir = Path(args.data_dir)
    rc = EXIT_OK
    for series in args.series:
        source = data_dir / raw_file_name(series)
        try:
            with_names, sparse, result = ingest.write_formatted_files(source)
        except FormatError as exc:
            print(f"error: {series}: {exc}", file=sys.stderr)
            rc = EXIT_USER_ERROR
            continue
        print(f"{series}: {len(result.records)} rows, {len(result.errors)} errors")
        for err in result.errors:
            print(f"  line {err.line_number}: {err.message}", file=sys.stderr)
        print(f"  wrote {with_names}")
        print(f"  wrote {sparse}")
    return rc


def cmd_load(args) -> int:
    from .store import ROW_KEY, ColumnCoord, ImportSpec

    if args.dates is not None:
        from .dates import date_columns_between, parse_range, series_columns

        start, end = parse_range(args.dates)
        columns = [ROW_KEY, *series_columns(start, end)]
        _refuse_a_header(args.file, [d.header_form for d in date_columns_between(start, end)])
    else:
        columns = [c.strip() for c in args.columns.split(",")]
    spec = ImportSpec(tuple(ROW_KEY if c == ROW_KEY else ColumnCoord.parse(c) for c in columns))
    with _cli.open_store(args.store_dir) as store:
        report = store.import_tsv(args.table, args.file, spec)
        print(f"loaded {report.loaded} row(s), skipped {report.skipped}")
        for line_no, message in report.errors:
            print(f"  line {line_no}: {message}", file=sys.stderr)
    if report.skipped and args.strict:
        return EXIT_DATA_ERROR
    return EXIT_OK


def _refuse_a_header(file: str, days: list[str]) -> None:
    """Raise ValueError if file starts with ingest's header line, whose fourth field is a day.

    A data line holds a count there, or nothing.  A file that cannot be
    read is left to the load to report.
    """
    from .dates import DateColumn

    try:
        with open(file, "rb") as f:
            header = f.readline().decode("utf-8", "replace").rstrip("\r\n").split(",")[3:]
        if DateColumn.from_header(header[0]).header_form != header[0]:
            return
    except (OSError, IndexError, ValueError):
        return
    message = f"{file} starts with a header line, not a row; load the file without it"
    for n, (found, wanted) in enumerate(zip_longest(header, days, fillvalue="none"), 4):
        if found != wanted:
            raise ValueError(f"{message} (its column {n} is {found}, the date range's {wanted})")
    raise ValueError(message)


def cmd_sql(args) -> int:
    if args.file:
        try:
            # A leading BOM is skipped here, not by the utf-8-sig codec, whose
            # import raised the peak RSS of an sql -f process by about 150 KB.
            text = Path(args.file).read_text(encoding="utf-8").removeprefix("\ufeff")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
            return EXIT_USER_ERROR
    else:
        text = args.statement
    from .sql.lexer import split_statements

    statements = split_statements(text)
    if not statements:
        print("error: no statements to run", file=sys.stderr)
        return EXIT_USER_ERROR

    rc = EXIT_OK
    with _cli.open_store(args.store_dir) as store:
        catalog = _cli.Catalog(store)
        for i, statement_text in enumerate(statements, 1):
            try:
                statement = _cli.parse_statement(statement_text)
                outcome = _cli.execute_statement(statement, catalog, store)
            except (SqlError, StoreError, OSError) as exc:
                print(f"statement {i}: error: {exc}", file=sys.stderr)
                rc = EXIT_USER_ERROR
                if not args.keep_going:
                    break
                continue
            if outcome.result is not None:
                print(_cli.render_result_set(outcome.result))
            if outcome.text is not None:
                print(outcome.text)
            if outcome.warning is not None:
                print(f"statement {i}: warning: {outcome.warning}", file=sys.stderr)
    return rc


def cmd_shell(args) -> int:
    from .shell import repl, run_script

    with _cli.open_store(args.store_dir) as store:
        if args.script:
            errors = run_script(store, args.script)
            return EXIT_USER_ERROR if errors else EXIT_OK
        repl(store)
        return EXIT_OK


def cmd_schema_gen(args) -> int:
    from .dates import generate_schema, parse_range

    # The lexer's name rule: \w+, and \w is isalnum() or "_".
    if not args.table.replace("_", "0").isalnum():
        raise ValueError(f"table name {args.table!r} is not a run of letters, digits and _")
    print(generate_schema(args.table, *parse_range(args.dates)))
    return EXIT_OK


# ------------------------------------------------------------------- parsing


def _series_name(text: str) -> str:
    if text not in SERIES_NAMES:
        raise ValueError(f"invalid series {text!r} (choose from {', '.join(SERIES_NAMES)})")
    return text


def _url_pair(text: str) -> tuple[str, str]:
    series, sep, url = text.partition("=")
    if not sep or series not in SERIES_NAMES:
        raise ValueError(f"expected series=URL with series one of {', '.join(SERIES_NAMES)}")
    return series, url


def _seconds(text: str) -> float:
    # A socket timeout of 0 makes the socket non-blocking; inf and nan fail in it.
    try:
        if 0 < float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise ValueError(f"invalid value {text!r} (expected a positive finite number of seconds)")


# The check a value must pass, by attribute name; a check raises ValueError.
_CHECKS = {"series": _series_name, "url": _url_pair, "timeout": _seconds}

# Marker defaults: the option must be given; exactly one of the options so
# marked must be given; each use of the option adds its value to a list.
_REQUIRED, _ONE_OF, _APPEND = object(), object(), object()

# The command line, as (help, usage, positionals, options) for the options
# before the command and for each command.  A positional is (attribute,
# arity): "" takes one word, "?" at most one, "*" any number (the default
# series if none), "..." the command and every word after it.  An option is
# ("-s/--long", METAVAR, default, help) and sets the attribute its last flag
# names; no METAVAR makes a switch, a (variable, fallback) default reads the
# environment.
_GLOBAL = ("Sparse wide-column store and SQL layer for JHU COVID-19 time series.",
           "[--store-dir STORE_DIR] [--data-dir DATA_DIR] "
           "{fetch,ingest,load,sql,shell,schema-gen} ...",
           [("command", "...")], [
    ("--store-dir", "STORE_DIR", ("STORE_DIR", "store"),
     "store directory (default: $STORE_DIR or ./store)"),
    ("--data-dir", "DATA_DIR", ("DATA_DIR", "data"),
     "raw and formatted CSV directory (default: $DATA_DIR or ./data)")])
_COMMANDS = {
    "fetch": ("download the raw CSVs",
              "[--from-dir FROM_DIR] [--url SERIES=URL] [--timeout TIMEOUT] [SERIES ...]",
              [("series", "*")], [
        ("--from-dir", "FROM_DIR", None, "copy from a local directory instead of the network"),
        ("--url", "SERIES=URL", _APPEND, "override the download URL for one series"),
        ("--timeout", "TIMEOUT", 30.0, "seconds to wait for each download (default: 30)")]),
    "ingest": ("format raw CSVs into the sparse layout", "[SERIES ...]", [("series", "*")], []),
    "load": ("bulk-load a sparse CSV into a table",
             "(--dates START:END | --columns COLUMNS) [--strict] table file",
             [("table", ""), ("file", "")], [
        ("--dates", "START:END", _ONE_OF, "date range, generates the column spec"),
        ("--columns", "COLUMNS", _ONE_OF, "explicit comma-separated column spec"),
        ("--strict", None, False, "exit 2 if any line was skipped")]),
    "sql": ("run SQL statements", "[-f FILE] [--keep-going] [statement]",
            [("statement", "?")], [
        ("-f/--file", "FILE", None, "read statements from a file"),
        ("--keep-going", None, False, "continue past failed statements")]),
    "shell": ("interactive store shell", "[--script SCRIPT]", [], [
        ("--script", "SCRIPT", None, "run commands from a file instead of stdin")]),
    "schema-gen": ("print the CREATE TABLE for a date range",
                   "--table TABLE --dates START:END", [], [
        ("--table", "TABLE", _REQUIRED, "mapped and store table name"),
        ("--dates", "START:END", _REQUIRED, "date range of the day columns")]),
}


def _usage(command: str) -> str:
    prog = f"covidstore {command}".rstrip()
    return f"usage: {prog} [-h] {_COMMANDS.get(command, _GLOBAL)[1]}"


def _help(command: str) -> str:
    text, _, _, options = _COMMANDS.get(command, _GLOBAL)
    rows = [(name, _COMMANDS[name][0]) for name in _COMMANDS if not command]
    rows += [("-h, --help", "show this help message and exit")]
    rows += [(f"{flags.replace('/', ', ')} {metavar or ''}", line)
             for flags, metavar, _, line in options]
    return "\n".join([_usage(command), "", text, ""] + [f"  {a:<21} {b}" for a, b in rows])


def _fail(command: str, message: str):
    prog = f"covidstore {command}".rstrip()
    print(_usage(command), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _checked(command: str, label: str, name: str, text: str):
    try:
        return _CHECKS[name](text) if name in _CHECKS else text
    except ValueError as exc:
        _fail(command, f"argument {label}: {exc}")


def _is_option(word: str) -> bool:
    # As argparse reads a word: a negative number, or one holding a space
    # (such as a statement), is a value even when it starts with a dash.
    negative = word[1:].replace(".", "", 1).isdecimal()
    return word[:1] == "-" and len(word) > 1 and " " not in word and not negative


def _parse(command: str, argv: list[str], args) -> list[str]:
    """Set on args the values and defaults that a command's words give.

    command "" reads the options before the command, and returns the command
    and the words after it.  An option is named in full, its value given as
    the next word or after "=", and "--" makes every later word a positional.
    """
    _, _, positionals, options = _COMMANDS.get(command, _GLOBAL)
    specs = [(flags.split("/")[-1].lstrip("-").replace("-", "_"), flags, *rest)
             for flags, *rest in options]
    by_flag = {flag: spec for spec in specs for flag in spec[1].split("/")}
    for name, _, _, default, _ in specs:
        default = os.environ.get(*default) if isinstance(default, tuple) else default
        setattr(args, name, None if default in (_REQUIRED, _ONE_OF, _APPEND) else default)
    words, rest = [], iter(argv)
    for word in rest:
        flag, eq, value = word.partition("=")
        if flag not in by_flag and word[:2] in by_flag and word[1] != "-":
            flag, eq, value = word[:2], "=", word[2:]  # -fFILE
        if word in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(0)
        elif word == "--":
            words.extend(rest)
        elif flag in by_flag:
            name, flags, metavar, default, _ = by_flag[flag]
            if eq and not metavar:
                _fail(command, f"argument {flags}: ignored explicit argument {value!r}")
            if metavar and not eq:
                value = next(rest, "--")  # at the end, as if another option followed
                if _is_option(value):
                    _fail(command, f"argument {flags}: expected one argument")
            value = _checked(command, flags, name, value) if metavar else True
            old = getattr(args, name) or []
            setattr(args, name, old + [value] if default is _APPEND else value)
        elif _is_option(word):
            _fail(command, f"unrecognized arguments: {word}")
        else:
            words += [word] if command else [word, *rest]
    missing = [flags for name, flags, _, default, _ in specs
               if default is _REQUIRED and getattr(args, name) is None]
    for name, arity in positionals:
        if arity == "*":
            values, words = [_checked(command, name, name, word) for word in words], []
            setattr(args, name, values or list(DEFAULT_SERIES))
            continue
        setattr(args, name, words.pop(0) if words else None)
        if getattr(args, name) is None and arity != "?":
            missing.append(name)
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    if words and command:
        _fail(command, "unrecognized arguments: " + " ".join(words))
    pair = {flags: getattr(args, name) for name, flags, _, default, _ in specs
            if default is _ONE_OF}
    if pair and sum(value is not None for value in pair.values()) != 1:
        _fail(command, f"exactly one of the arguments {' '.join(pair)} is required")
    return words


def main(argv: list[str] | None = None) -> int:
    args = SimpleNamespace()
    rest = _parse("", sys.argv[1:] if argv is None else argv, args)
    if args.command not in _COMMANDS:
        _fail("", f"argument command: invalid choice: {args.command!r} "
                  f"(choose from {', '.join(_COMMANDS)})")
    _parse(args.command, rest, args)
    if args.command == "sql" and bool(args.statement) == bool(args.file):
        _fail("sql", "sql needs exactly one of a statement argument or -f FILE")

    store_dir = Path(args.store_dir).resolve()
    data_dir = Path(args.data_dir).resolve()
    if store_dir == data_dir:
        print("error: --store-dir and --data-dir must differ", file=sys.stderr)
        return EXIT_USER_ERROR

    try:
        # Looked up at call time, as the _LAYERS names are.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except BrokenPipeError:
        # Reader went away (e.g. piped into head); suppress the shutdown noise.
        # This handler comes first: BrokenPipeError is an OSError.
        _stdout_to_devnull()
        return EXIT_OK
    except (StoreError, SqlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


def _stdout_to_devnull() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def run() -> NoReturn:
    """The process entry: main(), a flush, then an exit with no interpreter teardown."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _stdout_to_devnull()  # as in main(): the reader left before the last write
    except OSError as exc:  # such as a full disk
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USER_ERROR
    sys.stderr.flush()
    os._exit(code)
