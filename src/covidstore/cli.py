"""Command-line front end tying the pipeline together.

Subcommands mirror the pipeline stages: fetch raw CSVs, ingest them into
the sparse format, load the result into the store, then query with sql or
poke at cells with the shell.  schema-gen prints the CREATE statement for a
date range so the DDL never has to be written by hand.

Exit codes: 0 on success, 1 for user errors (bad arguments, missing files,
failed statements, file-system errors), 2 for data errors (lines skipped
during a strict load).

A command imports only the layers it runs: fetch none, ingest and
schema-gen the ingest module (schema-gen only writes text), load the store
(and the date naming module, dates, for --dates), sql the store and the
SQL engine, shell the store and the shell.  Only sql loads the sql
package; the other commands catch SqlError from the package root.  The
names in _LAZY are the ones the benchmark's tracer wraps: they stay
attributes of this module, bound on first use by _bind or __getattr__,
and the commands look them up here at call time, so a wrapper set on
this module is the one that runs.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import SqlError, StoreError, write_atomic

if TYPE_CHECKING:
    from datetime import date
    from .sql.engine import Catalog, execute_statement, parse_statement, render_result_set
    from .store import ImportSpec, open_store

# The names each lazily imported layer binds here, by module.
_LAZY = {
    ".store": ("open_store",),
    ".sql.engine": ("Catalog", "parse_statement", "execute_statement", "render_result_set"),
}


def _bind(module: str) -> None:
    """Bind a layer's names here, keeping any this module already holds."""
    layer = importlib.import_module(module, __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(layer, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _parse_date_range(text: str) -> tuple[date, date]:
    from datetime import date  # here, so that sql, fetch and shell never import it
    start_text, sep, end_text = text.partition(":")
    if not sep:
        raise ValueError(f"date range {text!r} must look like YYYY-MM-DD:YYYY-MM-DD")
    try:
        start = date.fromisoformat(start_text)
        end = date.fromisoformat(end_text)
    except ValueError as exc:
        raise ValueError(f"bad date range {text!r}: {exc}") from None
    if start > end:
        raise ValueError(f"date range {text!r} runs backwards")
    return start, end


def import_columns_for_dates(start: date, end: date, family: str = "a") -> list[str]:
    """The column spec a dated load uses, as literal text entries."""
    from .dates import series_columns
    from .store import ROW_KEY

    return [ROW_KEY] + series_columns(start, end, family)


def _spec_from_columns(args, columns: list[str]) -> ImportSpec:
    from .store import ROW_KEY, ColumnCoord, ImportSpec

    return ImportSpec(
        columns=tuple(ROW_KEY if c == ROW_KEY else ColumnCoord.parse(c) for c in columns),
        separator=args.separator,
        skip_bad_lines=not args.no_skip_bad_lines,
        skip_empty_columns=not args.no_skip_empty_columns,
    )


# ------------------------------------------------------------------ commands


def cmd_fetch(args) -> int:
    data_dir = Path(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    urls = dict(args.url or [])
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
    _bind(".store")
    if args.dates:
        start, end = _parse_date_range(args.dates)
        columns = import_columns_for_dates(start, end, args.family)
    else:
        columns = [c.strip() for c in args.columns.split(",")]
    spec = _spec_from_columns(args, columns)
    with open_store(args.store_dir) as store:
        report = store.import_tsv(args.table, args.file, spec)
        print(f"loaded {report.loaded} row(s), skipped {report.skipped}")
        for line_no, message in report.errors:
            print(f"  line {line_no}: {message}", file=sys.stderr)
    if report.skipped and args.strict:
        return EXIT_DATA_ERROR
    return EXIT_OK


def cmd_sql(args) -> int:
    if args.file:
        try:
            text = Path(args.file).read_text(encoding="utf-8")
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

    _bind(".sql.engine")
    _bind(".store")
    rc = EXIT_OK
    with open_store(args.store_dir) as store:
        catalog = Catalog(store)
        for i, statement_text in enumerate(statements, 1):
            try:
                statement = parse_statement(statement_text)
                outcome = execute_statement(statement, catalog, store)
            except (SqlError, StoreError, OSError) as exc:
                print(f"statement {i}: error: {exc}", file=sys.stderr)
                rc = EXIT_USER_ERROR
                if not args.keep_going:
                    break
                continue
            if outcome.result is not None:
                print(render_result_set(outcome.result))
            if outcome.text is not None:
                print(outcome.text)
            if outcome.warning is not None:
                print(f"statement {i}: warning: {outcome.warning}", file=sys.stderr)
    return rc


def cmd_shell(args) -> int:
    from .shell import repl, run_script

    _bind(".store")
    with open_store(args.store_dir) as store:
        if args.script:
            errors = run_script(store, args.script)
            return EXIT_USER_ERROR if errors else EXIT_OK
        repl(store)
        return EXIT_OK


def cmd_schema_gen(args) -> int:
    from .ingest import generate_schema

    start, end = _parse_date_range(args.dates)
    store_table = args.store_table or args.table
    print(generate_schema(args.table, store_table, args.family, start, end))
    return EXIT_OK


# ------------------------------------------------------------------- parsing


def _series_name(text: str) -> str:
    # choices= would also validate the *default* list under nargs="*" and
    # reject it, so the per-item check lives here instead.
    if text not in SERIES_NAMES:
        raise argparse.ArgumentTypeError(
            f"invalid series {text!r} (choose from {', '.join(SERIES_NAMES)})"
        )
    return text


def _url_pair(text: str) -> tuple[str, str]:
    series, sep, url = text.partition("=")
    if not sep or series not in SERIES_NAMES:
        raise argparse.ArgumentTypeError(
            f"expected series=URL with series one of {', '.join(SERIES_NAMES)}"
        )
    return series, url


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covidstore",
        description="Sparse wide-column store and SQL layer for JHU COVID-19 time series.",
    )
    parser.add_argument(
        "--store-dir",
        default=os.environ.get("STORE_DIR", "store"),
        help="store directory (default: $STORE_DIR or ./store)",
    )
    parser.add_argument(
        "--data-dir",
        default=os.environ.get("DATA_DIR", "data"),
        help="raw and formatted CSV directory (default: $DATA_DIR or ./data)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download the raw CSVs")
    p.add_argument("series", nargs="*", default=list(DEFAULT_SERIES),
                   type=_series_name, metavar="SERIES")
    p.add_argument("--from-dir", help="copy from a local directory instead of the network")
    p.add_argument("--url", action="append", type=_url_pair, metavar="SERIES=URL",
                   help="override the download URL for one series")
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("ingest", help="format raw CSVs into the sparse layout")
    p.add_argument("series", nargs="*", default=list(DEFAULT_SERIES),
                   type=_series_name, metavar="SERIES")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("load", help="bulk-load a sparse CSV into a table")
    p.add_argument("table")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dates", metavar="START:END",
                       help="date range, generates the column spec")
    group.add_argument("--columns", help="explicit comma-separated column spec")
    p.add_argument("--family", default="a", help="column family for --dates (default: a)")
    p.add_argument("--separator", default=",")
    p.add_argument("--no-skip-bad-lines", action="store_true",
                   help="abort on a malformed line instead of skipping it")
    p.add_argument("--no-skip-empty-columns", action="store_true",
                   help="treat empty fields as malformed instead of omitting cells")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 if any line was skipped")
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("sql", help="run SQL statements")
    p.add_argument("statement", nargs="?", help="statement text (or use -f)")
    p.add_argument("-f", "--file", help="read statements from a file")
    p.add_argument("--keep-going", action="store_true",
                   help="continue past failed statements")
    p.set_defaults(func=cmd_sql)

    p = sub.add_parser("shell", help="interactive store shell")
    p.add_argument("--script", help="run commands from a file instead of stdin")
    p.set_defaults(func=cmd_shell)

    p = sub.add_parser("schema-gen", help="print the CREATE TABLE for a date range")
    p.add_argument("--table", required=True)
    p.add_argument("--store-table", help="backing table name (default: same as --table)")
    p.add_argument("--family", default="a")
    p.add_argument("--dates", required=True, metavar="START:END")
    p.set_defaults(func=cmd_schema_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "sql" and bool(args.statement) == bool(args.file):
        parser.error("sql needs exactly one of a statement argument or -f FILE")

    store_dir = Path(args.store_dir).resolve()
    data_dir = Path(args.data_dir).resolve()
    if store_dir == data_dir:
        print("error: --store-dir and --data-dir must differ", file=sys.stderr)
        return EXIT_USER_ERROR

    try:
        return args.func(args)
    except BrokenPipeError:
        # Reader went away (e.g. piped into head); suppress the shutdown noise.
        # This handler comes first: BrokenPipeError is an OSError.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (StoreError, SqlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


if __name__ == "__main__":
    sys.exit(main())
