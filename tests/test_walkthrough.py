"""The README walkthrough, each command a `python -m covidstore` process.

The children run in a temp directory outside the checkout, on the covidstore
this process imports: src/ under the Tier-1 command, and the installed
package when the module is run from another directory with no PYTHONPATH.
"""

import fcntl
import subprocess
import sys
import zlib

import pytest

from covidstore.store import open_store

from conftest import FIXTURES, GOLDEN, TABLES, TESTS, child_env

DATES = "2020-01-22:2020-03-31"
SPARSE = "cs-data/time_series_covid19_{}_global-sparse.csv"
GET_D331 = "get 'confirmed_covid19_cases', '~Morocco', 'a:d331'\n"
D331 = "column=a:d331, value=617"


def cli(cwd, *argv, stdin="", rc=0):
    """Run `python -m covidstore ARGV` in cwd, check its exit code; (stdout, stderr), CRs kept."""
    proc = subprocess.run([sys.executable, "-m", "covidstore", *argv], cwd=cwd, env=child_env(),
                          input=stdin.encode(), capture_output=True, timeout=60)
    assert proc.returncode == rc, (argv, proc.stderr.decode())
    return proc.stdout.decode(), proc.stderr.decode()


def store(name="store"):
    """The options of the store in cs-<name>, next to the walkthrough's data in cs-data."""
    return ("--data-dir", "cs-data", "--store-dir", f"cs-{name}")


@pytest.fixture(scope="module")
def cwd(tmp_path_factory):
    """The walkthrough's directory after fetch, ingest, and schema-gen, sql -f, load per series."""
    cwd = tmp_path_factory.mktemp("walkthrough")
    assert TESTS.parent not in cwd.resolve().parents
    cli(cwd, *store(), "fetch", "--from-dir", str(FIXTURES))
    cli(cwd, *store(), "ingest")
    for series, table in TABLES.items():
        ddl = cli(cwd, "schema-gen", "--table", table, "--dates", DATES)[0]
        (cwd / f"{series}.sql").write_text(ddl, encoding="utf-8")
        cli(cwd, *store(), "sql", "-f", f"{series}.sql")
        out = cli(cwd, *store(), "load", table, SPARSE.format(series), "--dates", DATES)[0]
        assert out == "loaded 215 row(s), skipped 0\n", series
    return cwd


def test_help_lists_every_command_and_the_options(tmp_path):
    out = cli(tmp_path, "--help")[0]
    for command in ("fetch", "ingest", "load", "sql", "shell", "schema-gen"):
        assert any(line.startswith(f"  {command} ") for line in out.split("\n")), command
    for command, options in (("load", ("--dates", "--columns", "--strict")),
                             ("schema-gen", ("--table", "--dates"))):
        out = cli(tmp_path, command, "--help")[0]
        assert all(f"  {option} " in out for option in options), (command, out)


def test_ingest_writes_the_golden_files_and_schema_gen_maps_the_table(cwd):
    for series in TABLES:
        for variant in ("sparse", "sparse-with-formatted-column-names"):
            name = f"time_series_covid19_{series}_global-{variant}.csv"
            assert (cwd / "cs-data" / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    ddl = (cwd / "confirmed.sql").read_text(encoding="utf-8")
    assert '"hbase.table.name" = "confirmed_covid19_cases"' in ddl


def test_manifest_sums_whole_data_files_with_a_header(cwd):
    # Each MANIFEST line has six fields; size and crc32 are the whole data
    # file's, named <name>.dat.  Line 1 of a data file is a tab and then its
    # coordinates; no row line has more fields than its key and one per coordinate.
    cs_store = cwd / "cs-store"
    lines = (cs_store / "MANIFEST").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2, lines
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 6, fields
        name, _, _, data_file, size, crc = fields
        assert data_file == name + ".dat", fields
        data = (cs_store / data_file).read_bytes()
        assert (int(size), int(crc)) == (len(data), zlib.crc32(data)), name
        header, *rows = data.decode("utf-8").splitlines()
        assert header.startswith("\t"), (name, header[:40])
        width = 1 + header.count("\t")
        assert rows and all(row.count("\t") < width for row in rows), name


def test_morocco_queries_and_a_syntax_error(cwd):
    out = cli(cwd, *store(), "sql", "SELECT key.Country_Region, 03_31_2020 FROM "
              "confirmed_covid19_cases WHERE key.Country_Region = 'Morocco'")[0]
    assert out == "country_region\t03_31_2020\nMorocco\t617\n"
    on_c = """SELECT c.key.Country_Region, c.03_31_2020, d.03_31_2020
    FROM confirmed_covid19_cases c JOIN deaths_covid19_cases d
    ON c.key.Province_State = d.key.Province_State
    AND c.key.Country_Region = d.key.Country_Region
    WHERE c.key.Country_Region = 'Morocco'"""
    # Bound on the second source: a predicate and the join's key tuples on one scan.
    on_d = """SELECT c.key.Country_Region, c.03_31_2020, d.03_31_2020
    FROM confirmed_covid19_cases c JOIN deaths_covid19_cases d
    ON c.key.Province_State = d.key.Province_State
    AND c.key.Country_Region = d.key.Country_Region
    WHERE d.key.Country_Region = 'Morocco'"""
    assert on_c != on_d
    for statement in (on_c, on_d):
        out = cli(cwd, *store(), "sql", statement)[0]
        assert out == "country_region\t03_31_2020\t03_31_2020\nMorocco\t617\t36\n", statement
    # Exit 1, and the parser's message and position, found again from the
    # statement text only on error.
    err = cli(cwd, *store(), "sql", "SELECT c.key.Country_Region FROM confirmed_covid19_cases c "
              "WHERE c.key.Country_Region IN ('Morocco' 'France')", rc=1)[1]
    assert err == "statement 1: error: expected ',' or ')', found 'France' (at position 100)\n"


def test_shell_put_then_stdin_then_a_free_lock(cwd):
    # A put adds a coordinate that sorts before every other cell of its row: a
    # whole-row get lists it first, in this process and, after a flush and a
    # lazy reopen, in the next.
    get_row = "get 'confirmed_covid19_cases', '~Morocco'\n"
    put = GET_D331 + "put 'confirmed_covid19_cases', '~Morocco', 'a:a0', '1'\n" + get_row
    (cwd / "put.txt").write_text(put, encoding="utf-8")
    lines = cli(cwd, *store(), "shell", "--script", "put.txt")[0].split("\n")
    assert (lines[0], lines[2]) == (D331, "column=a:a0, value=1")
    (cwd / "get.txt").write_text(get_row, encoding="utf-8")
    assert cli(cwd, *store(), "shell", "--script", "get.txt")[0].split("\n")[0] == lines[2]
    # No --script, stdin a pipe: no prompt, and exit stops before the scan.
    out, err = cli(cwd, *store(), "shell", stdin=GET_D331 + "exit\nscan 'nothing_here'\n")
    assert (out, err) == (D331 + "\n1 row(s)\n", "")
    # LOCK stays after the last command, and nothing holds its flock.
    with open(cwd / "cs-store" / "LOCK", "r+b") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    with open_store(cwd / "cs-store"):  # the next open takes the lock
        pass


def test_crlf_and_a_lone_cr_each_load_into_a_store_of_their_own(cwd):
    # CR LF ends a line as LF does: the same rows load, with no CR left in a
    # value.  This CREATE is given as the statement text, not with -f.
    sparse = (cwd / SPARSE.format("confirmed")).read_bytes()
    crlf = sparse.replace(b"\n", b"\r\n")
    assert crlf.count(b"\r\n") == 215
    (cwd / "crlf.csv").write_bytes(crlf)
    cli(cwd, *store("crlf"), "sql", (cwd / "confirmed.sql").read_text(encoding="utf-8"))
    out = cli(cwd, *store("crlf"), "load", TABLES["confirmed"], "crlf.csv", "--dates", DATES)[0]
    assert out == "loaded 215 row(s), skipped 0\n"
    (cwd / "crlf.txt").write_text(GET_D331, encoding="utf-8")
    assert cli(cwd, *store("crlf"), "shell", "--script", "crlf.txt")[0].split("\n")[0] == D331
    # A 1 MiB field ended by a lone CR and no LF is one line, read through the
    # file's buffer and refused; under --strict, in a fresh store, exit 2.
    (cwd / "longcr.csv").write_bytes(sparse + b"x" * 1048576 + b"\r")
    for name, strict, rc in (("longcr", (), 0), ("strict", ("--strict",), 2)):
        cli(cwd, *store(name), "sql", "-f", "confirmed.sql")
        out = cli(cwd, *store(name), "load", TABLES["confirmed"], "longcr.csv", "--dates", DATES,
                  *strict, rc=rc)[0]
        assert out == "loaded 215 row(s), skipped 1\n", name


def test_widest_legal_mapping_describes_in_full(cwd):
    # The widest legal mapping, 366 days (368 columns, 369 mapping entries):
    # DESCRIBE prints the key and 368 columns, a line each.  It loads a row, and
    # one day more is refused, in test_cli.py::test_one_mapping_spans_at_most_a_year.
    ddl = cli(cwd, "schema-gen", "--table", TABLES["confirmed"], "--dates", "2020-01-22:2021-01-21")
    (cwd / "wide.sql").write_text(ddl[0], encoding="utf-8")
    cli(cwd, *store("wide"), "sql", "-f", "wide.sql")
    out = cli(cwd, *store("wide"), "sql", f"DESCRIBE {TABLES['confirmed']}")[0]
    assert out.count("\n") == 369
