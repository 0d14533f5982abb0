"""Command-line behavior: exit codes, output, and stage wiring."""

import functools
import http.server
import os
import shutil
import subprocess
import sys
import threading
from datetime import date

import pytest

import covidstore
from covidstore.cli import main, raw_file_name
from covidstore.dates import generate_schema, parse_range, series_columns
from covidstore.store import ROW_KEY, open_store

from conftest import FIXTURES, GOLDEN, TABLES, TESTS, WORKLOAD, child_env, workload_text


def run_cli(store_dir, data_dir, *argv):
    return main(["--store-dir", str(store_dir), "--data-dir", str(data_dir), *argv])


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "store", tmp_path / "data"


@pytest.fixture
def raw_data(dirs):
    store_dir, data_dir = dirs
    data_dir.mkdir()
    for series in ("confirmed", "deaths"):
        shutil.copy(FIXTURES / raw_file_name(series), data_dir)
    return store_dir, data_dir


# -------------------------------------------------------------------- fetch


def test_fetch_from_dir(dirs, capsys):
    store_dir, data_dir = dirs
    rc = run_cli(store_dir, data_dir, "fetch", "--from-dir", str(FIXTURES))
    assert rc == 0
    out = capsys.readouterr().out
    for series in ("confirmed", "deaths"):
        name = raw_file_name(series)
        assert (data_dir / name).read_bytes() == (FIXTURES / name).read_bytes()
        assert f"{series}: saved" in out


def test_fetch_from_dir_missing_source(dirs, tmp_path, capsys):
    store_dir, data_dir = dirs
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = run_cli(store_dir, data_dir, "fetch", "confirmed", "--from-dir", str(empty))
    assert rc == 1
    assert "error: confirmed:" in capsys.readouterr().err
    assert not (data_dir / raw_file_name("confirmed")).exists()


def test_fetch_over_http(dirs, capsys):
    store_dir, data_dir = dirs
    handler = functools.partial(
        http.server.SimpleHTTPRequestHandler, directory=str(FIXTURES)
    )
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        rc = run_cli(
            store_dir,
            data_dir,
            "fetch",
            "confirmed",
            "--url",
            f"confirmed={base}/{raw_file_name('confirmed')}",
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert rc == 0
    name = raw_file_name("confirmed")
    assert (data_dir / name).read_bytes() == (FIXTURES / name).read_bytes()


def test_cli_import_leaves_network_modules_unloaded():
    code = (
        "import sys, covidstore.cli; "
        "print(sorted({'urllib.request', 'http.client', 'dataclasses'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_LAYERS = {
    "covidstore.ingest",
    "covidstore.shell",
    "covidstore.sql.ddl",
    "covidstore.sql.lexer",
    "covidstore.sql.query",
    "covidstore.sql.engine",
    "urllib.request",
    "dataclasses",
}


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint(' '.join(sys.modules))"],
        capture_output=True,
        text=True,
        timeout=30,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _modules_after_command(tmp_path, *argv) -> set[str]:
    base = ["--store-dir", str(tmp_path / "store"), "--data-dir", str(tmp_path / "data")]
    loaded = _modules_after(
        "from covidstore.cli import main\n"
        f"assert main({base + list(argv)!r}) == 0"
    )
    # No command loads a parser library: argparse and getopt both load gettext.
    assert {"argparse", "gettext"} & loaded == set(), argv
    return loaded


def test_cli_import_leaves_every_layer_unloaded():
    assert _modules_after("import covidstore.cli") & _LAYERS == set()


def _package_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m == "covidstore" or m.startswith("covidstore.")}


def test_fetch_from_dir_loads_no_network_or_sql_modules(tmp_path):
    loaded = _modules_after_command(tmp_path, "fetch", "--from-dir", str(FIXTURES))
    assert {"urllib.request", "datetime"} & loaded == set()
    assert _package_modules(loaded) == {"covidstore", "covidstore.cli"}


def test_ingest_and_schema_gen_leave_the_store_and_the_parser_unloaded(tmp_path):
    assert run_cli(tmp_path / "store", tmp_path / "data", "fetch", "--from-dir", str(FIXTURES)) == 0
    ingest = _modules_after_command(tmp_path, "ingest")
    schema_gen = _modules_after_command(
        tmp_path, "schema-gen", "--table", "t", "--dates", "2020-01-22:2020-03-31"
    )
    assert _package_modules(ingest) == {
        "covidstore", "covidstore.cli", "covidstore.dates", "covidstore.ingest",
    }
    # schema-gen only writes text: the date naming, without ingest or csv.
    assert _package_modules(schema_gen) == {"covidstore", "covidstore.cli", "covidstore.dates"}
    assert "csv" not in schema_gen
    assert not (tmp_path / "store").exists()


_SQL_MODULES = {
    "covidstore", "covidstore.cli", "covidstore.sql", "covidstore.sql.ddl",
    "covidstore.sql.engine", "covidstore.sql.errors", "covidstore.sql.lexer",
    "covidstore.sql.query", "covidstore.store",
}


def test_sql_join_loads_the_engine_and_the_store_only(mapped_store):
    loaded = _modules_after_command(
        mapped_store[0].parent, "sql", workload_text("query_join_morocco.sql")
    )
    assert _package_modules(loaded) == _SQL_MODULES
    assert {"urllib.request", "dataclasses", "datetime"} & loaded == set()


def test_ddl_only_sql_file_loads_the_same_modules_as_a_query(tmp_path):
    loaded = _modules_after_command(tmp_path, "sql", "-f", str(WORKLOAD / "ddl_confirmed.sql"))
    assert _package_modules(loaded) == _SQL_MODULES
    assert {"urllib.request", "dataclasses", "datetime"} & loaded == set()


def test_shell_script_loads_the_store_and_the_shell_only(mapped_store):
    loaded = _modules_after_command(
        mapped_store[0].parent, "shell", "--script", str(WORKLOAD / "shell_get_by_region.txt")
    )
    assert _package_modules(loaded) == {
        "covidstore", "covidstore.cli", "covidstore.shell", "covidstore.store",
    }
    assert {"urllib.request", "dataclasses", "datetime"} & loaded == set()


def test_join_after_the_shell_drops_a_backing_table_names_the_mapping(mapped_store, capsys):
    store_dir, data_dir = mapped_store
    script = WORKLOAD / "shell_drop_confirmed.txt"
    assert run_cli(store_dir, data_dir, "shell", "--script", str(script)) == 0
    capsys.readouterr()
    assert run_cli(store_dir, data_dir, "sql", workload_text("query_join_morocco.sql")) == 1
    assert capsys.readouterr().err == (
        "statement 1: error: mapped table 'confirmed_covid19_cases': "
        "its backing table 'confirmed_covid19_cases' does not exist\n"
    )


def test_load_dates_loads_the_store_and_the_date_naming_only(tmp_path):
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("~Morocco,31.79,-7.09,5\n", encoding="utf-8")
    day = date(2020, 1, 22)
    schema = generate_schema("t", day, day)
    assert run_cli(tmp_path / "store", tmp_path / "data", "sql", schema) == 0
    loaded = _modules_after_command(
        tmp_path, "load", "t", str(sparse), "--dates", "2020-01-22:2020-01-22"
    )
    assert _package_modules(loaded) == {
        "covidstore", "covidstore.cli", "covidstore.dates", "covidstore.store",
    }
    assert {"csv", "urllib.request", "dataclasses"} & loaded == set()


def test_schema_gen_and_load_leave_engine_and_shell_unloaded(tmp_path):
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("~Morocco,31.79,-7.09,5\n", encoding="utf-8")
    runs = [
        ("schema-gen", "--table", "t", "--dates", "2020-01-22:2020-01-22"),
        ("load", "t", str(sparse), "--dates", "2020-01-22:2020-01-22"),
    ]
    day = date(2020, 1, 22)
    schema = generate_schema("t", day, day)
    assert run_cli(tmp_path / "store", tmp_path / "data", "sql", schema) == 0
    for argv in runs:
        loaded = _modules_after_command(tmp_path, *argv)
        assert {"covidstore.sql.engine", "covidstore.shell"} & loaded == set(), argv


def test_the_sql_package_imports_its_two_names_plainly():
    import covidstore.sql as sql
    from covidstore.sql import errors, lexer, query

    # Only for the benchmark: bench/harness.py imports split_statements from
    # the package, and bench/spans.py SelectQuery.  Everything else is
    # imported from the module that defines it.
    assert not hasattr(sql, "__getattr__")
    assert sql.__all__ == ["SelectQuery", "split_statements"]
    assert sql.split_statements is lexer.split_statements
    assert sql.SelectQuery is query.SelectQuery
    # The other commands catch SqlError from the package root.
    assert errors.SqlError is covidstore.SqlError


def test_the_oracle_imports_only_query_syntax_nodes_from_the_package():
    # query_oracle evaluates on its own and shares only the parsed query.
    import ast

    from covidstore.sql import query
    from covidstore.sql.lexer import Node

    tree = ast.parse((TESTS / "query_oracle.py").read_text(encoding="utf-8"))
    imported = [
        (getattr(node, "module", None) or alias.name, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    shared = [(module, name) for module, name in imported if module.startswith("covidstore")]
    assert shared and {module for module, _ in shared} == {"covidstore.sql.query"}
    for _, name in shared:
        assert issubclass(getattr(query, name), Node), name


def test_sql_command_calls_the_names_bound_on_the_cli_module(mapped_store, monkeypatch, capsys):
    import covidstore.cli as cli

    calls = []
    for name in ("parse_statement", "execute_statement", "render_result_set"):
        original = getattr(cli, name)

        def wrapper(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(cli, name, wrapper)
    rc = run_cli(*mapped_store, "sql", workload_text("query_join_morocco.sql"))
    assert rc == 0
    assert calls == ["parse_statement", "execute_statement", "render_result_set"]


def test_fetch_unreachable_url(dirs, capsys):
    store_dir, data_dir = dirs
    rc = run_cli(
        store_dir,
        data_dir,
        "fetch",
        "confirmed",
        "--url",
        "confirmed=http://127.0.0.1:1/nothing",
        "--timeout",
        "2",
    )
    assert rc == 1
    assert "error: confirmed:" in capsys.readouterr().err


def test_fetch_rejects_malformed_url_override(dirs, capsys):
    store_dir, data_dir = dirs
    with pytest.raises(SystemExit) as err:
        run_cli(store_dir, data_dir, "fetch", "--url", "nope")
    assert err.value.code == 2


@pytest.mark.parametrize("value", ["inf", "-1", "nan", "0"])
def test_fetch_timeout_must_be_a_positive_finite_number(dirs, capsys, value):
    # The socket takes 0 as non-blocking, and inf, nan and -1 fail in it.
    with pytest.raises(SystemExit) as err:
        run_cli(*dirs, "fetch", "confirmed", "--url", "confirmed=http://127.0.0.1:1/x",
                "--timeout", value)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: covidstore fetch ")
    assert f"error: argument --timeout: invalid value {value!r}" in stderr


# ------------------------------------------------------------------- ingest


def test_ingest_writes_both_layouts(raw_data, capsys):
    store_dir, data_dir = raw_data
    rc = run_cli(store_dir, data_dir, "ingest")
    assert rc == 0
    out = capsys.readouterr().out
    assert "confirmed: 215 rows, 0 errors" in out
    assert "deaths: 215 rows, 0 errors" in out
    for series in ("confirmed", "deaths"):
        stem = raw_file_name(series)[: -len(".csv")]
        headered = data_dir / f"{stem}-sparse-with-formatted-column-names.csv"
        headerless = data_dir / f"{stem}-sparse.csv"
        text = headered.read_text(encoding="utf-8")
        assert headerless.read_text(encoding="utf-8") == text.split("\n", 1)[1]


def test_ingest_rejects_a_row_whose_field_holds_a_line_break(dirs, capsys):
    # Written as is, the quoted line break would reach load as two lines,
    # and load would store a row "bei~China" that is not in the feed.
    store_dir, data_dir = dirs
    data_dir.mkdir()
    (data_dir / raw_file_name("confirmed")).write_text(
        "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20\n"
        ",Morocco,31.79,-7.09,5,6\n"
        '"Hu\nbei",China,30.9,112.2,1,2\n'
        ",Spain,40.4,-3.7,7,8\n",
        encoding="utf-8",
    )
    assert run_cli(store_dir, data_dir, "ingest", "confirmed") == 0
    captured = capsys.readouterr()
    assert "confirmed: 2 rows, 1 errors" in captured.out
    assert captured.err == "  line 3: field holds a line break\n"

    table = TABLES["confirmed"]
    schema = generate_schema(table, date(2020, 1, 22), date(2020, 1, 23))
    assert run_cli(store_dir, data_dir, "sql", schema) == 0
    stem = raw_file_name("confirmed")[: -len(".csv")]
    rc = run_cli(
        store_dir, data_dir, "load", table, str(data_dir / f"{stem}-sparse.csv"),
        "--dates", "2020-01-22:2020-01-23",
    )
    assert rc == 0
    capsys.readouterr()
    assert run_cli(store_dir, data_dir, "sql", f"SELECT key.Country_Region FROM {table}") == 0
    assert capsys.readouterr().out == "country_region\nMorocco\nSpain\n"


def test_ingest_reports_a_field_over_the_csv_limit(dirs, capsys):
    # csv's field_size_limit is 131,072 characters; the reader raises
    # csv.Error past it, which ingest reports like any bad input.
    store_dir, data_dir = dirs
    data_dir.mkdir()
    (data_dir / raw_file_name("confirmed")).write_text(
        "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20\n"
        ",Morocco,31.79,-7.09,5,6\n"
        f',"{"x" * 140_000}",30.9,112.2,1,2\n',
        encoding="utf-8",
    )
    assert run_cli(store_dir, data_dir, "ingest", "confirmed") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: confirmed: ")
    assert captured.err.endswith(": line 3: field larger than field limit (131072)\n")
    stem = raw_file_name("confirmed")[: -len(".csv")]
    assert not (data_dir / f"{stem}-sparse.csv").exists()


def test_ingest_missing_input(dirs, capsys):
    store_dir, data_dir = dirs
    data_dir.mkdir()
    rc = run_cli(store_dir, data_dir, "ingest", "deaths")
    assert rc == 1
    assert "error: deaths: cannot read" in capsys.readouterr().err


def test_failed_write_leaves_no_temp_file(raw_data, capsys):
    store_dir, data_dir = raw_data
    stem = raw_file_name("confirmed")[: -len(".csv")]
    (data_dir / f"{stem}-sparse.csv").mkdir()  # the replace onto it fails
    rc = run_cli(store_dir, data_dir, "ingest", "confirmed")
    assert rc == 1
    assert "error: " in capsys.readouterr().err
    assert sorted(p.name for p in data_dir.glob("*.tmp")) == []


# --------------------------------------------------------------------- load


def test_dated_column_spec_matches_literal_list():
    generated = [ROW_KEY, *series_columns(date(2020, 1, 22), date(2020, 3, 31))]
    literal = workload_text("import_columns.txt").strip().split(",")
    assert generated == literal


def test_load_into_missing_table(raw_data, capsys):
    store_dir, data_dir = raw_data
    sparse = data_dir / "tiny.csv"
    sparse.write_text("k~c,1\n", encoding="utf-8")
    rc = run_cli(
        store_dir, data_dir, "load", "nope", str(sparse),
        "--columns", "HBASE_ROW_KEY,a:lt",
    )
    assert rc == 1
    assert "error: table 'nope' not found" in capsys.readouterr().err


def test_load_strict_flags_skipped_lines(raw_data, capsys):
    store_dir, data_dir = raw_data
    sparse = data_dir / "tiny.csv"
    sparse.write_text("k~c,1,2,3,4\nonly,two\nm~c,1,2,,5\n", encoding="utf-8")
    table = TABLES["confirmed"]
    schema = generate_schema(table, date(2020, 1, 22), date(2020, 1, 23))
    assert run_cli(store_dir, data_dir, "sql", schema) == 0
    # In a process of its own, so the store is read back after it ends.
    proc = subprocess.run(
        [sys.executable, "-m", "covidstore", "--store-dir", str(store_dir),
         "--data-dir", str(data_dir), "load", table, str(sparse),
         "--dates", "2020-01-22:2020-01-23", "--strict"],
        capture_output=True,
        text=True,
        timeout=30,
        env=child_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == "loaded 2 row(s), skipped 1\n"
    assert proc.stderr == "  line 2: expected 5 fields, found 2\n"
    # A load is not transactional: the good lines on both sides of the bad
    # one stay loaded.
    with open_store(store_dir) as store:
        assert [row.key for row in store.scan(table)] == ["k~c", "m~c"]
        assert {str(c): v for c, v in store.get(table, "m~c")} == {
            "a:lt": "1", "a:lg": "2", "a:d123": "5",
        }
    # same load without --strict is only a report, not a failure
    capsys.readouterr()
    rc = run_cli(
        store_dir, data_dir, "load", table, str(sparse),
        "--dates", "2020-01-22:2020-01-23",
    )
    assert rc == 0
    assert capsys.readouterr().out == "loaded 2 row(s), skipped 1\n"


def test_load_not_utf8_after_the_first_chunk_keeps_the_lines_before(raw_data, capsys):
    # load is not transactional: it stops at the line holding the bad byte,
    # and closing the store flushes every line before it.
    store_dir, data_dir = raw_data
    sparse = data_dir / "tiny.csv"
    count = (1 << 16) // 15 + 1  # lines enough to run past several buffer refills
    good = b"".join(b"k%05d~c,1,2,3\n" % i for i in range(count))
    sparse.write_bytes(good + b"bad~c,1,\xff,3\nend~c,1,2,3\n")
    assert len(good) > 1 << 16
    table = TABLES["confirmed"]
    schema = generate_schema(table, date(2020, 1, 22), date(2020, 1, 22))
    assert run_cli(store_dir, data_dir, "sql", schema) == 0
    capsys.readouterr()
    rc = run_cli(
        store_dir, data_dir, "load", table, str(sparse), "--dates", "2020-01-22:2020-01-22"
    )
    assert rc == 1
    at = len(good) + len(b"bad~c,1,")
    assert capsys.readouterr().err == (
        f"error: cannot read {sparse}: 'utf-8' codec can't decode byte 0xff at byte {at}: "
        "invalid start byte\n"
    )
    with open_store(store_dir) as store:
        assert [row.key for row in store.scan(table)] == [
            f"k{i:05d}~c" for i in range(count)
        ]


def test_load_skips_a_byte_order_mark(dirs, capsys):
    # A BOM, as Windows editors write one, is no part of the first row key.
    store_dir, data_dir = dirs
    sparse = store_dir.parent / "bom.csv"
    sparse.write_bytes(b"\xef\xbb\xbf~Morocco,5\n~Spain,7\n")
    with open_store(store_dir) as store:
        store.create_table("t", {"a"})
    rc = run_cli(store_dir, data_dir, "load", "t", str(sparse), "--columns", f"{ROW_KEY},a:x")
    assert (rc, capsys.readouterr().out) == (0, "loaded 2 row(s), skipped 0\n")
    with open_store(store_dir) as store:
        assert [row.key for row in store.scan("t")] == ["~Morocco", "~Spain"]
        assert [value for _, value in store.get("t", "~Morocco")] == ["5"]


@pytest.mark.parametrize("dates, where", [
    ("2020-01-22:2020-03-31", ""),
    ("2020-01-23:2020-04-01", " (its column 4 is 01/22/2020, the date range's 01/23/2020)"),
], ids=["the-header-range", "shifted-a-day"])
def test_load_dates_refuses_a_file_that_starts_with_its_header(mapped_store, capsys, dates, where):
    store_dir, data_dir = mapped_store
    table = TABLES["confirmed"]
    headered = GOLDEN / f"{raw_file_name('confirmed')[:-4]}-sparse-with-formatted-column-names.csv"
    assert run_cli(store_dir, data_dir, "load", table, str(headered), "--dates", dates) == 1
    assert capsys.readouterr() == ("", (
        f"error: {headered} starts with a header line, not a row; load the file without it"
        f"{where}\n"
    ))
    with open_store(store_dir) as store:
        assert store.get(table, "Province/State~Country/Region") == []
        assert len(store.scan(table)) == 215


def test_load_with_empty_dates_reports_a_bad_date_range(raw_data, capsys):
    # The empty range is the one given, not a missing one: no fall back to --columns.
    rc = run_cli(*raw_data, "load", "t", "f.csv", "--dates", "")
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: date range '' must look like YYYY-MM-DD:YYYY-MM-DD\n"
    )


def test_load_rejects_bad_column_spec(raw_data, capsys):
    store_dir, data_dir = raw_data
    sparse = data_dir / "tiny.csv"
    sparse.write_text("k~c,1\n", encoding="utf-8")
    rc = run_cli(
        store_dir, data_dir, "load", "t", str(sparse), "--columns", "a:lt,a:lg"
    )
    assert rc == 1
    assert "exactly one" in capsys.readouterr().err
    rc = run_cli(
        store_dir, data_dir, "load", "t", str(sparse), "--columns", "HBASE_ROW_KEY,a:b:c"
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: invalid column coordinate 'a:b:c'\n"


# ---------------------------------------------------------------------- sql


@pytest.fixture
def mapped_store(populated_store_dir, tmp_path):
    store_dir = tmp_path / "store"
    shutil.copytree(populated_store_dir, store_dir)
    return store_dir, tmp_path / "data"


def test_sql_needs_exactly_one_source(dirs):
    store_dir, data_dir = dirs
    for argv in (["sql"], ["sql", "SELECT 1", "-f", "x.sql"]):
        with pytest.raises(SystemExit) as err:
            run_cli(store_dir, data_dir, *argv)
        assert err.value.code == 2


def test_sql_file_runs_statements_in_order(mapped_store, tmp_path, capsys):
    store_dir, data_dir = mapped_store
    script = tmp_path / "q.sql"
    script.write_text(
        f"DESCRIBE {TABLES['deaths']};\n" + workload_text("query_join_morocco.sql"),
        encoding="utf-8",
    )
    rc = run_cli(store_dir, data_dir, "sql", "-f", str(script))
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.split("\n")
    assert lines[0] == "key\tstruct<province_state:string,country_region:string>"
    assert len([l for l in lines if "\t" in l]) == 73 + 2
    assert lines[-2] == "Morocco\t617\t36"


def test_sql_file_skips_a_byte_order_mark(mapped_store, tmp_path, capsys):
    store_dir, data_dir = mapped_store
    script = tmp_path / "q.sql"
    script.write_bytes(b"\xef\xbb\xbf" + workload_text("query_join_morocco.sql").encode("utf-8"))
    assert run_cli(store_dir, data_dir, "sql", "-f", str(script)) == 0
    out, err = capsys.readouterr()
    assert (out.split("\n")[-2], err) == ("Morocco\t617\t36", "")


def test_sql_missing_file(dirs, capsys):
    store_dir, data_dir = dirs
    rc = run_cli(store_dir, data_dir, "sql", "-f", "does-not-exist.sql")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_sql_empty_input(dirs, capsys):
    store_dir, data_dir = dirs
    rc = run_cli(store_dir, data_dir, "sql", " ; ;")
    assert rc == 1
    assert "error: no statements to run" in capsys.readouterr().err


def test_sql_drop_unknown_warns_but_succeeds(mapped_store, capsys):
    store_dir, data_dir = mapped_store
    rc = run_cli(store_dir, data_dir, "sql", "DROP TABLE ghost")
    assert rc == 0
    err = capsys.readouterr().err
    assert err == "statement 1: warning: table 'ghost' does not exist, nothing dropped\n"


def test_sql_stops_at_first_error(mapped_store, tmp_path, capsys):
    store_dir, data_dir = mapped_store
    script = tmp_path / "q.sql"
    script.write_text(
        "SELECT FROM nowhere;\n"
        f"SELECT Lat FROM {TABLES['confirmed']} WHERE key.Country_Region = 'Morocco';\n",
        encoding="utf-8",
    )
    rc = run_cli(store_dir, data_dir, "sql", "-f", str(script))
    assert rc == 1
    captured = capsys.readouterr()
    assert "statement 1: error:" in captured.err
    assert captured.out == ""

    rc = run_cli(store_dir, data_dir, "sql", "--keep-going", "-f", str(script))
    assert rc == 1
    captured = capsys.readouterr()
    assert "statement 1: error:" in captured.err
    assert captured.out == "Lat\n31.7917\n"


def test_sql_keep_going_past_a_non_decimal_digit(mapped_store, capsys):
    # '²' is a digit to str.isdigit but no number: a syntax error, not a crash.
    store_dir, data_dir = mapped_store
    table = TABLES["confirmed"]
    rc = run_cli(
        store_dir, data_dir, "sql", "--keep-going",
        f"SELECT Lat FROM {table} WHERE Lat = ²; "
        f"SELECT Lat FROM {table} WHERE key.Country_Region = 'Morocco'",
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "statement 1: error:" in captured.err
    assert captured.out == "Lat\n31.7917\n"


def test_sql_keep_going_past_a_file_system_error(dirs, tmp_path, capsys):
    # A 300-character backing table name is too long for a file name.
    store_dir, data_dir = dirs
    create = (
        "CREATE TABLE {name} (key struct<P:string,C:string>, Lat float) "
        "ROW FORMAT DELIMITED COLLECTION ITEMS TERMINATED BY '~' "
        "STORED BY 'h' WITH SERDEPROPERTIES ("
        '"hbase.table.name" = "{backing}", "hbase.columns.mapping" = ":key,a:lt");\n'
    )
    script = tmp_path / "ddl.sql"
    script.write_text(
        create.format(name="long", backing="x" * 300) + create.format(name="t", backing="t"),
        encoding="utf-8",
    )
    rc = run_cli(store_dir, data_dir, "sql", "--keep-going", "-f", str(script))
    assert rc == 1
    assert capsys.readouterr().err.startswith("statement 1: error: ")
    rc = run_cli(store_dir, data_dir, "sql", "DESCRIBE t")
    assert rc == 0
    assert capsys.readouterr().out == "key\tstruct<p:string,c:string>\nlat\tfloat\n"


# -------------------------------------------------------------------- shell


def test_shell_script_exit_codes(mapped_store, tmp_path, capsys):
    store_dir, data_dir = mapped_store
    good = tmp_path / "good.txt"
    good.write_text("get 'confirmed_covid19_cases', '~Morocco', 'a:d331'\n", encoding="utf-8")
    assert run_cli(store_dir, data_dir, "shell", "--script", str(good)) == 0
    assert capsys.readouterr().out == "column=a:d331, value=617\n1 row(s)\n"

    bad = tmp_path / "bad.txt"
    bad.write_text("scan 'nothing_here'\n", encoding="utf-8")
    assert run_cli(store_dir, data_dir, "shell", "--script", str(bad)) == 1
    assert "ERROR: table 'nothing_here' not found" in capsys.readouterr().out


def test_non_utf8_input_file_is_named(dirs, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_bytes(b"SELECT 1\xff;\n")
    for argv in (("sql", "-f", str(path)), ("shell", "--script", str(path))):
        assert run_cli(*dirs, *argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode"), argv


# --------------------------------------------------------------- schema-gen


def test_schema_gen_prints_library_output(dirs, capsys):
    store_dir, data_dir = dirs
    rc = run_cli(
        store_dir, data_dir, "schema-gen",
        "--table", "t",
        "--dates", "2020-01-22:2020-01-24",
    )
    assert rc == 0
    expected = generate_schema("t", date(2020, 1, 22), date(2020, 1, 24))
    assert capsys.readouterr().out == expected + "\n"


def test_schema_gen_defaults_store_table_to_table(dirs, capsys):
    store_dir, data_dir = dirs
    rc = run_cli(store_dir, data_dir, "schema-gen", "--table", "t",
                 "--dates", "2020-01-22:2020-01-22")
    assert rc == 0
    assert '"hbase.table.name" = "t"' in capsys.readouterr().out


@pytest.mark.parametrize("table", ["bad name", "t;", "a-b", "a.b", ""])
def test_schema_gen_refuses_a_table_name_the_lexer_would_split(dirs, capsys, table):
    rc = run_cli(*dirs, "schema-gen", "--table", table, "--dates", "2020-01-22:2020-01-22")
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and repr(table) in captured.err


@pytest.mark.parametrize(
    "text, message",
    [
        ("2020-01-22", "must look like"),
        ("2020-03-31:2020-01-22", "runs backwards"),
        ("2020-13-01:2020-13-02", "bad date range"),
        ("2020-01-22:2021-01-22", "covers a month and day twice"),
        ("20200122:20200123", "bad date range"),
        ("2020-01-22:2020-W04-4", "bad date range"),
    ],
)
def test_bad_date_ranges(dirs, capsys, text, message):
    store_dir, data_dir = dirs
    rc = run_cli(store_dir, data_dir, "schema-gen", "--table", "t", "--dates", text)
    assert rc == 1
    assert message in capsys.readouterr().err


def test_one_mapping_spans_at_most_a_year(dirs, tmp_path, capsys):
    store_dir, data_dir = dirs
    # 366 days, 2020 being a leap year: every month and day once.
    assert run_cli(store_dir, data_dir, "schema-gen", "--table", "t",
                   "--dates", "2020-01-22:2021-01-21") == 0
    ddl = tmp_path / "t.sql"
    ddl.write_text(capsys.readouterr().out, encoding="utf-8")
    assert run_cli(store_dir, data_dir, "sql", "-f", str(ddl)) == 0
    sparse = tmp_path / "t.csv"
    sparse.write_text("~Morocco,31.8,-7.1," + ",".join(["5"] * 366) + "\n", encoding="utf-8")
    assert run_cli(store_dir, data_dir, "load", "t", str(sparse),
                   "--dates", "2020-01-22:2021-01-21") == 0
    assert "loaded 1 row(s), skipped 0" in capsys.readouterr().out

    # One more day would map 01_22_2021 onto a:d122 as well.
    longer = tmp_path / "longer.sql"
    longer.write_text(
        ddl.read_text(encoding="utf-8")
        .replace("CREATE TABLE t", "CREATE TABLE u")
        .replace("\n)\nROW FORMAT", ",\n01_22_2021 int\n)\nROW FORMAT")
        .replace('a:d121"', 'a:d121,a:d122"'),
        encoding="utf-8",
    )
    assert run_cli(store_dir, data_dir, "sql", "-f", str(longer)) == 1
    assert "column mapping names a:d122 twice" in capsys.readouterr().err
    assert run_cli(store_dir, data_dir, "load", "t", str(sparse),
                   "--dates", "2020-01-22:2021-01-22") == 1
    assert "covers a month and day twice" in capsys.readouterr().err


# ------------------------------------------------------------- command line

_GLOBALS = {"store_dir": "store", "data_dir": "data"}
_FETCH = {"command": "fetch", "series": ["confirmed", "deaths"], "from_dir": None,
          "url": None, "timeout": 30.0}
_LOAD = {"command": "load", "table": "t", "file": "f.csv", "dates": None, "columns": None,
         "strict": False}
_SQL = {"command": "sql", "statement": None, "file": None, "keep_going": False}
_SCHEMA_GEN = {"command": "schema-gen", "table": "t", "dates": "2020-01-22:2020-01-24"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["fetch"], _FETCH),
        (["ingest"], {"command": "ingest", "series": ["confirmed", "deaths"]}),
        (["--store-dir=s", "--data-dir", "d", "fetch", "--url", "confirmed=http://a/x",
          "recovered", "deaths", "--url=deaths=http://b/=y", "--timeout=2.5", "--from-dir",
          "raw"],
         {**_FETCH, "store_dir": "s", "data_dir": "d", "series": ["recovered", "deaths"],
          "from_dir": "raw", "url": [("confirmed", "http://a/x"), ("deaths", "http://b/=y")],
          "timeout": 2.5}),
        (["load", "t", "f.csv", "--dates", "2020-01-22:2020-01-23"],
         {**_LOAD, "dates": "2020-01-22:2020-01-23"}),
        (["load", "t", "--columns=HBASE_ROW_KEY,a:lt", "f.csv", "--strict"],
         {**_LOAD, "columns": "HBASE_ROW_KEY,a:lt", "strict": True}),
        (["sql", "SELECT 1"], {**_SQL, "statement": "SELECT 1"}),
        (["sql", "--keep-going", "-f", "q.sql"], {**_SQL, "file": "q.sql", "keep_going": True}),
        (["sql", "--file=q.sql"], {**_SQL, "file": "q.sql"}),
        (["sql", "-fq.sql"], {**_SQL, "file": "q.sql"}),
        (["sql", "--", "-x"], {**_SQL, "statement": "-x"}),
        (["sql", "-1"], {**_SQL, "statement": "-1"}),
        (["sql", "-x y"], {**_SQL, "statement": "-x y"}),
        (["shell"], {"command": "shell", "script": None}),
        (["shell", "--script", "s.txt"], {"command": "shell", "script": "s.txt"}),
        (["schema-gen", "--table", "t", "--dates", "2020-01-22:2020-01-24"], _SCHEMA_GEN),
        (["schema-gen", "--dates=2020-01-22:2020-01-24", "--table=t"], _SCHEMA_GEN),
    ],
)
def test_command_line_values_and_defaults(monkeypatch, tmp_path, argv, expected):
    import covidstore.cli as cli

    monkeypatch.chdir(tmp_path)  # where the default store would be
    monkeypatch.delenv("STORE_DIR", raising=False)
    monkeypatch.delenv("DATA_DIR", raising=False)
    seen = {}
    for name in ("fetch", "ingest", "load", "sql", "shell", "schema_gen"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.update(vars(args)) or 0)
    assert main(argv) == 0
    seen.pop("func", None)
    assert seen == {**_GLOBALS, **expected}


def test_store_and_data_dirs_default_to_the_environment(monkeypatch):
    import covidstore.cli as cli

    monkeypatch.setenv("STORE_DIR", "env-store")
    monkeypatch.setenv("DATA_DIR", "env-data")
    seen = {}
    monkeypatch.setattr(cli, "cmd_ingest", lambda args: seen.update(vars(args)) or 0)
    assert main(["ingest"]) == 0
    assert (seen["store_dir"], seen["data_dir"]) == ("env-store", "env-data")
    assert main(["--data-dir", "d", "ingest"]) == 0
    assert (seen["store_dir"], seen["data_dir"]) == ("env-store", "d")


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "command"),
        (["nope"], "'nope'"),
        (["ingest", "--bogus"], "--bogus"),
        (["load", "t", "f.csv", "--dates"], "--dates"),
        (["load", "t", "f.csv", "--dates", "--strict"], "--dates"),
        (["load", "t", "--dates", "2020-01-22:2020-01-22"], "file"),
        (["load", "t", "f.csv", "--dates", "2020-01-22:2020-01-22", "extra"], "extra"),
        (["load", "t", "f.csv"], "--dates"),
        (["load", "t", "f.csv", "--dates", "2020-01-22:2020-01-22", "--columns", "c"],
         "--columns"),
        (["load", "t", "f.csv", "--columns", "c", "--strict=yes"], "--strict"),
        (["schema-gen", "--dates", "2020-01-22:2020-01-22"], "--table"),
        (["schema-gen", "--table", "t"], "--dates"),
        (["ingest", "nope"], "'nope'"),
        (["fetch", "--url", "nope"], "--url"),
        (["fetch", "--url", "cases=http://a/x"], "--url"),
        (["fetch", "--timeout", "soon"], "--timeout"),
        (["shell", "--store-dir", "s"], "--store-dir"),
        (["sql", "SELECT 1", "--data-dir", "d"], "--data-dir"),
        (["sql"], "-f"),
        (["sql", "SELECT 1", "-f", "q.sql"], "-f"),
        # Option names must be given in full; argparse took a prefix.
        (["--store", "s", "ingest"], "--store"),
        (["load", "t", "f.csv", "--date", "2020-01-22:2020-01-22"], "--date"),
        # --url for a series this run does not download; --from-dir downloads none.
        (["fetch", "confirmed", "--url", "confirmed=http://127.0.0.1:1/x", "--from-dir", "raw"],
         "--url"),
        # Each series fetched has a URL of its own, so no default URL is tried.
        (["fetch", "confirmed", "--url", "confirmed=http://127.0.0.1:1/x",
          "--url", "deaths=http://127.0.0.1:1/y"], "--url"),
    ],
)
def test_usage_errors_exit_2_with_a_usage_line(monkeypatch, tmp_path, capsys, argv, named):
    monkeypatch.chdir(tmp_path)  # where the default store would be
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, message = captured.err.splitlines()[0], captured.err.splitlines()[-1]
    assert usage.startswith("usage: covidstore")
    assert message.startswith("covidstore") and ": error: " in message and named in message


_OPTIONS = {
    None: ["--store-dir", "--data-dir", "fetch", "ingest", "load", "sql", "shell", "schema-gen"],
    "fetch": ["--from-dir", "--url", "--timeout"],
    "ingest": [],
    "load": ["--dates", "--columns", "--strict"],
    "sql": ["-f", "--file", "--keep-going"],
    "shell": ["--script"],
    "schema-gen": ["--table", "--dates"],
}


@pytest.mark.parametrize("command", list(_OPTIONS))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_option(capsys, command, flag):
    with pytest.raises(SystemExit) as err:
        main([command, flag] if command else [flag])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: covidstore {command or ''}".rstrip() + " [-h]")
    for name in ["-h", "--help", *_OPTIONS[command]]:
        assert f" {name}" in out, name


# ------------------------------------------------------------------ plumbing


def test_file_system_error_is_reported_not_raised(tmp_path, capsys):
    # The store directory cannot be made inside a regular file.
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    rc = run_cli(blocker / "store", tmp_path / "data", "sql", "DESCRIBE t")
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_store_dir_must_differ_from_data_dir(tmp_path, capsys):
    rc = run_cli(tmp_path, tmp_path, "ingest")
    assert rc == 1
    assert "must differ" in capsys.readouterr().err


# ------------------------------------------------------------- process entry

DATES = "2020-01-22:2020-03-31"
MOROCCO = workload_text("query_join_morocco.sql")

needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                   reason="needs /proc/self/fd")


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def child_cli(store_dir, data_dir, *argv, stdout, stderr=subprocess.PIPE):
    """Run `python -m covidstore`, which ends through cli.run, on the given streams."""
    return subprocess.run(
        [sys.executable, "-m", "covidstore", "--store-dir", str(store_dir),
         "--data-dir", str(data_dir), *argv],
        stdout=stdout, stderr=stderr, env=child_env(), timeout=60,
    )


def drop_and_create(path, table):
    """An sql -f script that drops, then creates, table: the DROP warns if it does not exist."""
    ddl = generate_schema(table, *parse_range(DATES))
    path.write_text(f"DROP TABLE {table};\n{ddl}", encoding="utf-8")
    return path


def test_a_reader_gone_before_the_last_flush_gets_nothing_and_exit_0(mapped_store):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = child_cli(*mapped_store, "sql", MOROCCO, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_last_flush_is_an_error(mapped_store):
    with open("/dev/full", "wb") as full:
        proc = child_cli(*mapped_store, "sql", MOROCCO, stdout=full)
    assert proc.returncode == 1
    assert proc.stderr.decode().startswith("error: [Errno 28]"), proc.stderr


@needs_proc_fd
def test_a_broken_pipe_in_process_leaves_no_descriptor_open(dirs, monkeypatch):
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", buffering=1, encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        before = open_fds()
        assert run_cli(*dirs, "schema-gen", "--table", "t", "--dates", DATES) == 0
        assert open_fds() == before


@needs_proc_fd
def test_every_command_closes_what_it_opens(dirs, tmp_path, capsys):
    # run() ends the process with os._exit, so nothing left open is closed at exit.
    store_dir, data_dir = dirs
    confirmed = drop_and_create(tmp_path / "confirmed.sql", TABLES["confirmed"])
    sparse = "time_series_covid19_{}_global-sparse.csv"
    steps = [
        (0, "fetch", "--from-dir", str(FIXTURES)),
        (0, "ingest"),
        (0, "schema-gen", "--table", "t", "--dates", DATES),
        (0, "sql", "-f", str(confirmed)),
        (0, "sql", "-f", str(WORKLOAD / "ddl_deaths.sql")),
        *[(0, "load", table, str(data_dir / sparse.format(series)), "--dates", DATES)
          for series, table in TABLES.items()],
        (0, "sql", MOROCCO),
        (0, "shell", "--script", str(WORKLOAD / "shell_get_by_region.txt")),
        (1, "sql", "SELECT FROM nowhere"),
    ]
    for rc, *argv in steps:
        before = open_fds()
        assert run_cli(store_dir, data_dir, *argv) == rc, (argv, capsys.readouterr().err)
        assert open_fds() == before, argv
    assert "Morocco\t617\t36" in capsys.readouterr().out


def test_a_buffered_child_writes_what_main_writes(populated_store_dir, tmp_path, capsys):
    commands = {"select": ["sql", f"SELECT * FROM {TABLES['confirmed']}"],
                "drop": ["sql", "-f", str(drop_and_create(tmp_path / "drop.sql", "t"))]}
    for name, argv in commands.items():
        child, in_process = tmp_path / f"{name}-child", tmp_path / f"{name}-in-process"
        shutil.copytree(populated_store_dir, child)
        shutil.copytree(populated_store_dir, in_process)
        out, err = tmp_path / f"{name}.out", tmp_path / f"{name}.err"
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            proc = child_cli(child, tmp_path / "data", *argv, stdout=stdout, stderr=stderr)
        assert proc.returncode == run_cli(in_process, tmp_path / "data", *argv) == 0
        captured = capsys.readouterr()
        assert out.read_bytes() == captured.out.encode("utf-8"), name
        assert err.read_bytes() == captured.err.encode("utf-8"), name
    assert (tmp_path / "select.out").stat().st_size > 8192  # past the io buffer
    assert "warning" in (tmp_path / "drop.err").read_text(encoding="utf-8")


# ------------------------------------------- user input: one reader of bytes


def shell_child(store_dir, *argv, input=b"", env=None, closed_stdin=False):
    """Run `python -m covidstore shell` on store_dir with input as its standard input.

    env adds to child_env(); closed_stdin starts the child with descriptor 0 closed.
    """
    command = [sys.executable, "-m", "covidstore", "--store-dir", str(store_dir),
               "--data-dir", str(store_dir.parent / "data"), "shell", *argv]
    if closed_stdin:
        command, input = ["sh", "-c", 'exec "$@" <&-', "sh", *command], None
    return subprocess.run(command, input=input, capture_output=True,
                          env={**child_env(), **(env or {})}, timeout=60)


def store_files(store_dir):
    """Each file of a closed store but LOCK, which holds a pid, by name."""
    return {p.name: p.read_bytes() for p in sorted(store_dir.iterdir()) if p.name != "LOCK"}


def test_piped_shell_input_stops_at_a_byte_not_utf8_after_the_commands_before(tmp_path):
    # UTF-8 mode decodes a text stdin with surrogateescape; the shell reads
    # bytes, so the mode must make no difference.
    head = b"create 't', 'a'\nput 't', 'k1', 'a:q', '1'\nput 't', 'k"
    proc = shell_child(tmp_path / "kv", env={"PYTHONUTF8": "1"},
                       input=head + b"\xff', 'a:q', '2'\nput 't', 'k3', 'a:q', '3'\n")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == (
        f"error: cannot read standard input: 'utf-8' codec can't decode byte 0xff at byte "
        f"{len(head)}: invalid start byte\n"
    )
    with open_store(tmp_path / "kv") as store:
        assert [row.key for row in store.scan("t")] == ["k1"]


def test_piped_shell_input_skips_a_byte_order_mark(tmp_path):
    proc = shell_child(tmp_path / "kv", input=b"\xef\xbb\xbfcreate 't', 'a'\n"
                                              b"put 't', 'k', 'a:q', '1'\nget 't', 'k'\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, b"column=a:q, value=1\n1 row(s)\n", b"")


def test_piped_shell_input_is_utf8_whatever_the_stream_encoding(tmp_path):
    proc = shell_child(tmp_path / "kv", env={"PYTHONIOENCODING": "latin-1"},
                       input="create 't', 'a'\nput 't', 'Curaçao', 'a:q', '1'\n".encode())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    with open_store(tmp_path / "kv") as store:
        assert [(row.key, row.values) for row in store.scan("t")] == [("Curaçao", ("1",))]


def test_a_shell_without_standard_input_reads_nothing(tmp_path):
    proc = shell_child(tmp_path / "kv", closed_stdin=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")


def test_the_same_bytes_piped_or_as_a_script_give_the_same_output_and_store(tmp_path):
    commands = (b"\xef\xbb\xbfcreate 't', 'a', 'b'\r\nput 't', 'k', 'a:q', 'v'\r\n"
                b"put 't', 'j', 'b:r', 'w x'\r\nget 't', 'k'\r\nscan 't'\r\nbogus\r\n")
    script = tmp_path / "cmds.txt"
    script.write_bytes(commands)
    piped = shell_child(tmp_path / "piped", input=commands)
    scripted = shell_child(tmp_path / "scripted", "--script", str(script))
    assert piped.stdout == scripted.stdout == (
        b"column=a:q, value=v\n1 row(s)\nj  column=b:r, value=w x\nk  column=a:q, value=v\n"
        b"2 row(s)\nERROR: unknown command 'bogus'\n"
    )
    # The piped shell exits 0 after a failed command, as an interactive one does.
    assert (piped.returncode, scripted.returncode, piped.stderr, scripted.stderr) == (
        0, 1, b"", b"")
    assert store_files(tmp_path / "piped") == store_files(tmp_path / "scripted")
    assert sorted(store_files(tmp_path / "piped")) == ["MANIFEST", "t.dat"]


def test_sql_file_with_a_bom_and_crlf_reads_as_its_lf_copy(dirs, tmp_path):
    lf = drop_and_create(tmp_path / "lf.sql", "t")
    text = lf.read_bytes()
    crlf = tmp_path / "crlf.sql"
    crlf.write_bytes(b"\xef\xbb\xbf" + text.replace(b"\n", b"\r\n"))
    for path in (lf, crlf):
        proc = child_cli(tmp_path / path.stem, dirs[1], "sql", "-f", str(path),
                         stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, b"", b"statement 1: warning: table 't' does not exist, nothing dropped\n")
    assert store_files(tmp_path / "crlf") == store_files(tmp_path / "lf")
    assert sorted(store_files(tmp_path / "lf")) == ["CATALOG", "MANIFEST", "t.dat"]
    # A byte that is not UTF-8 is named by its offset in the file, as shell --script names it.
    bad = tmp_path / "bad.sql"
    bad.write_bytes(crlf.read_bytes() + b"SELECT 1\xff;\r\n")
    at = len(crlf.read_bytes()) + len(b"SELECT 1")
    for argv in (("sql", "-f", str(bad)), ("shell", "--script", str(bad))):
        proc = child_cli(tmp_path / "store-bad", dirs[1], *argv, stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stdout) == (1, b""), argv
        assert proc.stderr.decode() == (
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff at byte {at}: "
            "invalid start byte\n"
        ), argv
