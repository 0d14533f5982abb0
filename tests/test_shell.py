"""Shell command grammar and execution output."""

import io
import os
import threading
import time

import pytest
from hypothesis import given, strategies as st

from covidstore.shell import (
    ShellCommand,
    ShellError,
    execute_command,
    parse_command,
    repl,
    run_script,
)
from covidstore.store import ColumnCoord, open_store

from conftest import TABLES, WORKLOAD, workload_text


@pytest.fixture
def store(tmp_path):
    with open_store(tmp_path / "kv") as s:
        yield s


def run(store, line):
    return execute_command(parse_command(line), store)


# ------------------------------------------------------------ parsing


def test_parse_get_with_three_args():
    cmd = parse_command("get 'confirmed_covid19_cases', '~Morocco', 'a:d331'")
    assert cmd == ShellCommand(
        "get", ("confirmed_covid19_cases", "~Morocco", "a:d331")
    )


def test_parse_spaces_inside_quotes():
    cmd = parse_command("get 'confirmed_covid19_cases', 'British Columbia~Canada', 'a:d331'")
    assert cmd.args[1] == "British Columbia~Canada"


def test_parse_doubled_quote_escape():
    cmd = parse_command("put 't', 'Cote d''Ivoire~x', 'a:q', '5'")
    assert cmd.args[1] == "Cote d'Ivoire~x"


def test_parse_no_argument_verbs():
    assert parse_command("exit") == ShellCommand("exit", ())
    assert parse_command("  exit  ") == ShellCommand("exit", ())


def test_parse_whole_command_corpus():
    for name in (
        "shell_get_by_region.txt",
        "shell_drop_confirmed.txt",
        "shell_drop_deaths.txt",
        "shell_scan_all.txt",
        "shell_get_four_countries.txt",
    ):
        for line in workload_text(name).splitlines():
            if line.strip():
                parse_command(line)


@pytest.mark.parametrize(
    "line, message",
    [
        ("", "empty command"),
        ("   ", "empty command"),
        ("frobnicate 't'", "unknown command 'frobnicate'"),
        ("GET 't', 'k'", "unknown command 'GET'"),
        ("scan t", "expected a quoted argument at position 5"),
        ("scan 't", "unbalanced quote in command"),
        ("scan 'a''", "unbalanced quote in command"),
        ("scan 't' extra", "unexpected text at position 9"),
        ("get 't',", "trailing comma without an argument"),
        ("scan", "scan expects 1 argument(s), got 0"),
        ("scan 'a', 'b'", "scan expects 1 argument(s), got 2"),
        ("put 't', 'k'", "put expects 4 argument(s), got 2"),
        ("get 't'", "get expects 2 or 3 argument(s), got 1"),
        ("create 't'", "create expects at least 2 argument(s), got 1"),
    ],
)
def test_parse_errors(line, message):
    with pytest.raises(ShellError) as err:
        parse_command(line)
    assert str(err.value) == message


_arg = st.text(
    st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=15
)


@given(args=st.lists(_arg, min_size=2, max_size=3))
def test_render_parse_round_trip(args):
    # Each argument quoted, with a quote inside it written as two.
    line = "get " + ", ".join("'" + a.replace("'", "''") + "'" for a in args)
    assert parse_command(line) == ShellCommand("get", tuple(args))


# ------------------------------------------------------------ execution


def test_create_put_get_cycle(store):
    assert run(store, "create 'cases', 'a'") == ""
    assert run(store, "put 'cases', '~Morocco', 'a:d331', '617'") == ""
    assert run(store, "get 'cases', '~Morocco', 'a:d331'") == (
        "column=a:d331, value=617\n1 row(s)"
    )
    assert run(store, "get 'cases', '~Morocco'") == (
        "column=a:d331, value=617\n1 row(s)"
    )
    assert run(store, "get 'cases', '~Nowhere'") == "0 row(s)"


def test_scan_output_format(store):
    run(store, "create 'cases', 'a'")
    run(store, "put 'cases', '~Morocco', 'a:d331', '617'")
    run(store, "put 'cases', '~Morocco', 'a:lt', '31.7917'")
    run(store, "put 'cases', 'Hubei~China', 'a:d331', '67801'")
    assert run(store, "scan 'cases'") == (
        "Hubei~China  column=a:d331, value=67801\n"
        "~Morocco  column=a:d331, value=617\n"
        "~Morocco  column=a:lt, value=31.7917\n"
        "2 row(s)"
    )


def test_scan_empty_table(store):
    run(store, "create 'cases', 'a'")
    assert run(store, "scan 'cases'") == "0 row(s)"


def test_errors_are_rendered_not_raised(store):
    assert run(store, "scan 'missing'") == "ERROR: table 'missing' not found"
    run(store, "create 'cases', 'a'")
    assert run(store, "drop 'cases'") == "ERROR: table must be disabled first"
    assert run(store, "put 'cases', 'k', 'nocolon', 'v'") == (
        "ERROR: invalid column coordinate 'nocolon'"
    )


def test_disable_then_drop(store):
    run(store, "create 'cases', 'a'")
    assert run(store, "disable 'cases'") == ""
    assert run(store, "drop 'cases'") == ""
    assert run(store, "scan 'cases'").startswith("ERROR: ")


def test_create_multiple_families(store):
    run(store, "create 't', 'a', 'b'")
    run(store, "put 't', 'k', 'b:x', '1'")
    assert run(store, "get 't', 'k', 'b:x'") == "column=b:x, value=1\n1 row(s)"


# ------------------------------------------------------------ scripts and repl


def test_run_script_executes_drop_sequence(store_copy):
    out = io.StringIO()
    with open_store(store_copy) as store:
        errors = run_script(store, WORKLOAD / "shell_drop_confirmed.txt", out)
        assert errors == 0
        assert not store.has_table(TABLES["confirmed"])
        assert store.has_table(TABLES["deaths"])
    assert out.getvalue() == ""


def test_run_script_counts_errors_and_continues(store, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text(
        "create 'cases', 'a'\n"
        "\n"
        "put 'cases', 'k', 'a:q', '1'\n"
        "drop 'cases'\n"
        "not-a-command\n"
        "get 'cases', 'k', 'a:q'\n",
        encoding="utf-8",
    )
    out = io.StringIO()
    errors = run_script(store, script, out)
    assert errors == 2
    assert out.getvalue() == (
        "ERROR: table must be disabled first\n"
        "ERROR: unknown command 'not-a-command'\n"
        "column=a:q, value=1\n"
        "1 row(s)\n"
    )


def test_run_script_failed_create_leaves_no_table(tmp_path):
    # NUL cannot be in a file name, so the first create must fail cleanly.
    script = tmp_path / "cmds.txt"
    script.write_text("create 'a\x00b', 'f'\ncreate 't', 'f'\n", encoding="utf-8")
    out = io.StringIO()
    with open_store(tmp_path / "kv") as store:
        assert run_script(store, script, out) == 1
        assert store.table_names() == ["t"]
    assert out.getvalue().count("ERROR:") == 1
    with open_store(tmp_path / "kv") as store:
        assert store.table_names() == ["t"]


def test_run_script_reports_a_file_system_error_and_continues(tmp_path):
    # A 300-character table name is too long for a file name: the store
    # raises OSError, which the shell renders like any other failure.
    script = tmp_path / "cmds.txt"
    script.write_text(f"create '{'x' * 300}', 'f'\ncreate 't', 'f'\n", encoding="utf-8")
    out = io.StringIO()
    with open_store(tmp_path / "kv") as store:
        assert run_script(store, script, out) == 1
        assert store.table_names() == ["t"]
        assert run(store, f"create '{'y' * 300}', 'f'").startswith("ERROR: ")
    assert out.getvalue().startswith("ERROR: ")
    assert out.getvalue().count("ERROR:") == 1


def test_run_script_stops_at_exit(store, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text("create 'one', 'a'\nexit\ncreate 'two', 'a'\n", encoding="utf-8")
    run_script(store, script, io.StringIO())
    assert store.has_table("one")
    assert not store.has_table("two")


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x85", "\v", "\f", "\u2028", "\u2029"])
def test_run_script_breaks_lines_only_at_newlines(tmp_path, sep):
    # str.splitlines() would also break at sep; the store accepts it in a value.
    value = f"a{sep}b"
    script = tmp_path / "cmds.txt"
    with open(script, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"create 't', 'f'\r\nput 't', 'k', 'f:q', '{value}'\n")
    out = io.StringIO()
    with open_store(tmp_path / "kv") as store:
        assert run_script(store, script, out) == 0
    assert out.getvalue() == ""
    with open_store(tmp_path / "kv") as store:
        assert store.get("t", "k") == [(ColumnCoord("f", "q"), value)]


def test_run_script_skips_a_byte_order_mark(tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_bytes(b"\xef\xbb\xbfcreate 't', 'f'\nput 't', 'k', 'f:q', 'v'\n")
    out = io.StringIO()
    with open_store(tmp_path / "kv") as store:
        assert run_script(store, script, out) == 0
        assert store.get("t", "k") == [(ColumnCoord("f", "q"), "v")]
    assert out.getvalue() == ""


def test_run_script_skips_a_byte_order_mark_a_pipe_delivers_in_pieces(tmp_path):
    # The first read of the pipe returns one byte of the mark, the next the rest.
    fifo = tmp_path / "cmds"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb", buffering=0) as fh:
            fh.write(b"\xef")
            time.sleep(0.2)
            fh.write(b"\xbb\xbfcreate 't', 'f'\n")

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    out = io.StringIO()
    try:
        with open_store(tmp_path / "kv") as store:
            assert run_script(store, fifo, out) == 0
            assert store.has_table("t")
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert out.getvalue() == ""


def test_run_script_not_utf8_after_the_first_chunk_runs_nothing(tmp_path):
    # Every line is read before any command runs, past several buffer refills.
    script = tmp_path / "cmds.txt"
    script.write_bytes(b"create 't', 'f'\n" + b"\n" * (1 << 16) + b"create 'u\xff', 'f'\n")
    at = len(b"create 't', 'f'\n") + (1 << 16) + len(b"create 'u")
    with open_store(tmp_path / "kv") as store:
        with pytest.raises(ValueError) as exc:
            run_script(store, script, io.StringIO())
        assert store.table_names() == []
    assert str(exc.value) == (
        f"cannot read {script}: 'utf-8' codec can't decode byte 0xff at byte {at}: "
        "invalid start byte"
    )


class _Terminal(io.BytesIO):
    def isatty(self):
        return True


def test_repl_prompts_before_each_line_on_a_tty(store):
    stdin = _Terminal(b"create 'cases', 'a'\nget 'cases', 'x'\n")
    out = io.StringIO()
    repl(store, stdin, out)
    # one prompt per line read, the last one answered by end of input
    assert out.getvalue() == "kv> kv> 0 row(s)\nkv> "


def test_repl_is_quiet_without_a_tty(store):
    stdin = io.BytesIO(b"create 'cases', 'a'\nbogus\nget 'cases', 'x'\nexit\nscan 'cases'\n")
    out = io.StringIO()
    repl(store, stdin, out)
    # no prompt when input is not a terminal; exit stops before the scan
    assert out.getvalue() == "ERROR: unknown command 'bogus'\n0 row(s)\n"
