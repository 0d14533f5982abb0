"""Table lifecycle, cell IO, persistence format, locking, and bulk import."""

import fcntl
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import zlib
import tempfile
import time
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import covidstore.store as store_module
from covidstore import write_atomic
from covidstore.dates import series_columns
from covidstore.ingest import write_formatted_files
from covidstore.shell import execute_command, parse_command
from covidstore.store import (
    ROW_KEY,
    CellValueError,
    ColumnCoord,
    CorruptStoreError,
    ImportSpec,
    LineReader,
    StoreError,
    StoreLockedError,
    TableEnabledError,
    TableExistsError,
    TableNotEnabledError,
    TableNotFoundError,
    UnknownFamilyError,
    _Table,
    open_store,
)

from conftest import SERIES, TABLES, child_env, import_spec, raw_fixture
from test_acceptance import budget

C = ColumnCoord.parse


@pytest.fixture
def store(tmp_path):
    with open_store(tmp_path / "kv") as s:
        yield s


# ------------------------------------------------------------ coordinates


def test_coordinate_parse_and_render():
    coord = C("a:d331")
    assert (coord.family, coord.qualifier) == ("a", "d331")
    assert str(coord) == "a:d331"


@pytest.mark.parametrize("bad", ["", "a", ":d331", "a:", "a:b:c", "a,b:q", "a:q,r"])
def test_coordinate_rejects_malformed_text(bad):
    with pytest.raises(CellValueError):
        C(bad)


def test_coordinates_sort_by_family_then_qualifier():
    coords = [C("b:x"), C("a:lt"), C("a:d122"), C("a:lg")]
    assert sorted(str(c) for c in coords) == [str(c) for c in sorted(coords)]
    # "a-:a" sorts before "a:z" as text, but family "a" comes before "a-".
    assert sorted([C("a-:a"), C("a:z"), C("a:b")]) == [C("a:b"), C("a:z"), C("a-:a")]


# ------------------------------------------------------------ tables and cells


def test_create_describe(store):
    desc = store.create_table("t", {"a"})
    assert desc.name == "t"
    assert desc.families == frozenset({"a"})
    assert desc.enabled
    assert store.has_table("t")
    assert store.table_names() == ["t"]


def test_create_duplicate_rejected(store):
    store.create_table("t", {"a"})
    with pytest.raises(TableExistsError):
        store.create_table("t", {"b"})


@pytest.mark.parametrize("families", [set(), {"a:b"}, {"a,b"}, {""}])
def test_create_rejects_bad_families(store, families):
    with pytest.raises(StoreError):
        store.create_table("t", families)


def test_create_rejects_path_like_names(store):
    with pytest.raises(StoreError):
        store.create_table("../evil", {"a"})


def test_create_whose_data_file_fails_registers_nothing(store):
    # 300 bytes is over the file name limit of common file systems.
    with pytest.raises(OSError):
        store.create_table("x" * 300, {"a"})
    assert store.table_names() == []


def test_put_get_cell(store):
    store.create_table("t", {"a"})
    store.put("t", "~Morocco", C("a:d331"), "617")
    assert store.get("t", "~Morocco", C("a:d331")) == [(C("a:d331"), "617")]
    assert store.get("t", "~Morocco", C("a:d122")) == []
    assert store.get("t", "~Nowhere") == []


def test_put_overwrites(store):
    store.create_table("t", {"a"})
    store.put("t", "k", C("a:q"), "1")
    store.put("t", "k", C("a:q"), "2")
    assert store.get("t", "k") == [(C("a:q"), "2")]


def test_get_whole_row_in_coordinate_order(store):
    store.create_table("t", {"a", "b"})
    store.put("t", "k", C("b:z"), "3")
    store.put("t", "k", C("a:lt"), "1")
    store.put("t", "k", C("a:d122"), "2")
    assert [str(c) for c, _ in store.get("t", "k")] == ["a:d122", "a:lt", "b:z"]


def test_put_validates(store):
    store.create_table("t", {"a"})
    with pytest.raises(UnknownFamilyError):
        store.put("t", "k", C("x:q"), "1")
    with pytest.raises(CellValueError):
        store.put("t", "", C("a:q"), "1")
    with pytest.raises(CellValueError):
        store.put("t", "k", C("a:q"), "")
    with pytest.raises(CellValueError):
        store.put("t", "k", C("a:q"), "tab\there")
    with pytest.raises(TableNotFoundError):
        store.put("missing", "k", C("a:q"), "1")


def test_text_utf8_cannot_encode_is_refused_before_flush(tmp_path):
    # A lone surrogate, as surrogateescape decodes byte 0xff, would fail the
    # flush, and with it every other write since the store was opened.
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
        for call in (lambda: s.put("t", "bad\udcff", C("a:q"), "2"),
                     lambda: s.put("t", "k", C("a:q"), "bad\udcff"),
                     lambda: s.put("t", "k", ColumnCoord("a", "q\udcff"), "2"),
                     lambda: s.create_table("u\udcff", {"a"}),
                     lambda: s.create_table("u", {"a\udcff"})):
            with pytest.raises(CellValueError):
                call()
        with pytest.raises(CellValueError):
            ImportSpec(columns=(ROW_KEY, C("a:q\udcff")))
        assert s.get("t", "k") == [(C("a:q"), "1")]
        assert s.put("t", "Curaçao", C("a:ç"), "1") is None  # any other non-ASCII text is fine
    with open_store(d) as s:
        assert s.table_names() == ["t"]
        assert [row.key for row in s.scan("t")] == ["Curaçao", "k"]


@pytest.mark.parametrize(
    "coord",
    [
        ColumnCoord("a", ""),
        ColumnCoord("a", "x:y"),
        ColumnCoord("a", "q,x"),
        ColumnCoord("a", "q\tx"),
        ColumnCoord("a", "q\nx"),
        ColumnCoord("a", "q\rx"),
    ],
    ids=["empty", "colon", "comma", "tab", "newline", "return"],
)
def test_coordinate_a_data_file_cannot_hold_is_refused(tmp_path, coord):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        with pytest.raises(CellValueError):
            s.put("t", "k", coord, "1")
        with pytest.raises(CellValueError):
            ImportSpec(columns=(ROW_KEY, coord))
        with pytest.raises(CellValueError):
            C(str(coord))
    with open_store(d) as s:
        assert s.scan("t") == []


def test_scan_is_in_byte_order(store):
    store.create_table("t", {"a"})
    # '~' (0x7e) sorts after every printable ASCII letter, so country-level
    # keys land after all province-level keys.
    for key in ("~Morocco", "British Columbia~Canada", "~France", "Alberta~Canada"):
        store.put("t", key, C("a:d331"), "1")
    rows = store.scan("t")
    assert [r.key for r in rows] == [
        "Alberta~Canada",
        "British Columbia~Canada",
        "~France",
        "~Morocco",
    ]


def test_scan_rows_carry_cells_in_order(store):
    store.create_table("t", {"a"})
    store.put("t", "k", C("a:lt"), "31.79")
    store.put("t", "k", C("a:d122"), "4")
    (row,) = store.scan("t")
    assert [str(c) for c in row.cells] == ["a:d122", "a:lt"]
    assert row.cells[C("a:lt")] == "31.79"


def test_scanned_cells_are_read_only(store):
    store.create_table("t", {"a"})
    store.put("t", "k", C("a:lt"), "31.79")
    (row,) = store.scan("t")
    with pytest.raises(TypeError):
        row.cells[C("a:lt")] = "0"
    with pytest.raises(TypeError):
        row.cells[C("a:d122")] = "4"
    assert store.get("t", "k") == [(C("a:lt"), "31.79")]


@pytest.mark.parametrize("reopen", [False, True], ids=["written", "line"])
def test_nothing_a_read_returns_changes_with_the_table(tmp_path, reopen):
    store = open_store(tmp_path / "kv")
    store.create_table("t", {"a"})
    store.put("t", "k", C("a:lt"), "31.79")
    store.put("t", "k", C("a:d122"), "4")
    if reopen:  # the row is read from its line
        store.close()
        store = open_store(tmp_path / "kv")
    with store:
        cells = [(C("a:d122"), "4"), (C("a:lt"), "31.79")]
        pairs, row, (scanned,) = store.get("t", "k"), store.get_row("t", "k"), store.scan("t")
        # What a read returns is the caller's to change, or cannot be changed ...
        pairs[0] = (C("a:d122"), "0")
        with pytest.raises(TypeError):
            row.values[0] = "0"  # type: ignore[index]
        with pytest.raises(TypeError):
            scanned.cells[C("a:lt")] = "0"  # type: ignore[index]
        scanned.values = row.coords = ()
        assert store.get("t", "k") == cells
        assert [(r.key, r.values, r.coords) for r in store.scan("t")] == [
            ("k", ("4", "31.79"), (C("a:d122"), C("a:lt")))
        ]
        # ... and a later write leaves it as it was read.
        (row,) = store.scan("t")
        view = row.cells
        store.put("t", "k", C("a:lt"), "0.5")
        store.put("t", "k", C("a:d0"), "1")
        assert row.values == ("4", "31.79")
        assert dict(view) == dict(row.cells) == dict(cells)


# ------------------------------------------------------------ lifecycle


def test_drop_requires_disable(store):
    store.create_table("t", {"a"})
    with pytest.raises(TableEnabledError, match="table must be disabled first"):
        store.drop_table("t")
    store.disable_table("t")
    store.drop_table("t")
    assert not store.has_table("t")
    with pytest.raises(TableNotFoundError):
        store.scan("t")


def test_disable_twice_is_noop(store):
    store.create_table("t", {"a"})
    store.disable_table("t")
    store.disable_table("t")
    assert not store.descriptor("t").enabled


def test_disabled_table_refuses_io(store):
    store.create_table("t", {"a"})
    store.put("t", "k", C("a:q"), "1")
    store.disable_table("t")
    for op in (
        lambda: store.put("t", "k", C("a:q"), "2"),
        lambda: store.get("t", "k"),
        lambda: store.scan("t"),
    ):
        with pytest.raises(TableNotEnabledError):
            op()


def test_lifecycle_ops_on_missing_table(store):
    with pytest.raises(TableNotFoundError):
        store.disable_table("nope")
    with pytest.raises(TableNotFoundError):
        store.drop_table("nope")


# ------------------------------------------------------------ persistence


def test_reopen_preserves_everything(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "~Morocco", C("a:d331"), "617")
        s.put("t", "~Morocco", C("a:lt"), "31.7917")
        s.create_table("off", {"a"})
        s.put("off", "k", C("a:q"), "1")
        s.disable_table("off")
    with open_store(d) as s:
        assert s.table_names() == ["off", "t"]
        assert s.get("t", "~Morocco") == [
            (C("a:d331"), "617"),
            (C("a:lt"), "31.7917"),
        ]
        assert not s.descriptor("off").enabled


def test_reopened_rows_share_one_object_per_coordinate(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a", "b"})
        for key in ("k1", "k2", "k3"):
            for coord in ("a:lt", "a:d122", "b:x"):
                s.put("t", key, C(coord), "1")
    with open_store(d) as s:
        coords = [c for row in s.scan("t") for c in row.cells]
    assert len(coords) == 9
    assert len({id(c) for c in coords}) == len(set(coords)) == 3


def test_data_file_is_sorted_tab_separated(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "zz", C("a:q"), "2")
        s.put("t", "aa", C("a:q"), "1")
    lines = (d / "t.dat").read_text().splitlines()
    assert lines == ["\ta:q", "aa\t1", "zz\t2"]
    assert lines == sorted(lines)  # the header's empty key sorts first


def test_drop_removes_data_file(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
        s.flush()
        assert (d / "t.dat").exists()
        s.disable_table("t")
        s.drop_table("t")
        assert not (d / "t.dat").exists()


def test_a_kill_inside_drop_leaves_the_table_whole_or_gone(tmp_path):
    # The child ends right after the first of drop's two file steps: the
    # MANIFEST rewrite or the data file's unlink, whichever comes first.
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
    before = (d / "t.dat").read_bytes()
    then = (
        "import pathlib\nimport covidstore.store as store\n"
        "def then_exit(step):\n"
        "    def run(*args):\n"
        "        step(*args)\n"
        "        os._exit(0)\n"
        "    return run\n"
        "s.disable_table('t')\n"
        "store.write_atomic = then_exit(store.write_atomic)\n"
        "pathlib.Path.unlink = then_exit(pathlib.Path.unlink)\n"
        "s.drop_table('t')\n"
        "os._exit(1)"
    )
    with _child_opening(d, then) as child:
        assert child.wait(timeout=60) == 0
    with open_store(d) as s:
        if s.has_table("t"):  # the old state: t disabled, with its row
            assert (d / "t.dat").is_file() and (d / "t.dat").read_bytes() == before
            return
        # The new state.  A data file may be left behind, named by nothing:
        # a new table of the name starts empty all the same.
        s.create_table("t", {"a"})
        assert s.scan("t") == []
    with open_store(d) as s:
        assert s.scan("t") == []


def test_a_failed_manifest_write_keeps_the_dropped_table(tmp_path, monkeypatch):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
        s.flush()
        s.disable_table("t")

        def refuse(*args):
            raise OSError("disk full")

        monkeypatch.setattr(store_module, "write_atomic", refuse)
        with pytest.raises(OSError, match="disk full"):
            s.drop_table("t")
        assert s.table_names() == ["t"]
        monkeypatch.undo()
        assert (d / "t.dat").read_bytes() == b"\ta:q\nk\t1\n"


def _lock_is_free(d: Path) -> bool:
    """Whether a fresh fd on d/LOCK takes its flock, as the next open would."""
    fd = os.open(d / "LOCK", os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    finally:
        os.close(fd)
    return True


def test_second_open_is_refused_while_open(tmp_path):
    d = tmp_path / "kv"
    with open_store(d):
        assert not _lock_is_free(d)
        with pytest.raises(StoreLockedError, match="already open"):
            open_store(d)
    # After close LOCK stays, with the last owner's pid, and is free.
    assert (d / "LOCK").read_text(encoding="ascii") == f"{os.getpid()}\n"
    assert _lock_is_free(d)
    with open_store(d):
        pass


def _child_opening(d, then: str) -> subprocess.Popen:
    """A Python process that opens the store at d, prints its pid, then runs `then`."""
    code = f"import os, signal, sys\nfrom covidstore.store import open_store\n" \
        f"s = open_store({str(d)!r})\nprint(os.getpid(), flush=True)\n{then}\n"
    return subprocess.Popen(
        [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, env=child_env(),
    )


def test_another_process_is_refused_while_one_holds_the_store(tmp_path):
    d = tmp_path / "kv"
    with _child_opening(d, "sys.stdin.read()\ns.close()") as child:
        pid = child.stdout.readline().strip()
        with pytest.raises(StoreLockedError, match=f"already open \\(process {pid} holds"):
            open_store(d)
        child.stdin.close()
        assert child.wait(timeout=60) == 0
    with open_store(d):
        pass
    assert _lock_is_free(d)


@pytest.mark.parametrize(
    "then, returncode",
    [("pass", 0), ("os.kill(os.getpid(), signal.SIGKILL)", -signal.SIGKILL)],
    ids=["exit-without-close", "sigkill"],
)
def test_the_lock_dies_with_its_process(tmp_path, then, returncode):
    d = tmp_path / "kv"
    with _child_opening(d, then) as child:
        pid = child.stdout.readline().strip()
        assert child.wait(timeout=60) == returncode
    assert (d / "LOCK").read_text(encoding="ascii") == f"{pid}\n"  # left behind, unlocked
    with open_store(d) as s:
        assert (d / "LOCK").read_text(encoding="ascii") == f"{os.getpid()}\n"
        assert s.table_names() == []
    assert _lock_is_free(d)


def test_close_is_idempotent(tmp_path):
    s = open_store(tmp_path / "kv")
    s.close()
    s.close()
    with pytest.raises(StoreError, match="closed"):
        s.table_names()


def test_a_close_whose_flush_fails_still_releases_the_lock(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
    s = open_store(d)
    s.put("t", "k", C("a:q"), "2")
    (d / "t.dat.tmp").mkdir()  # where flush writes the new data file
    with pytest.raises(IsADirectoryError):
        s.close()
    assert _lock_is_free(d)
    with pytest.raises(StoreError, match="closed"):
        s.table_names()
    with open_store(d) as again:
        assert again.get("t", "k") == [(C("a:q"), "1")]


def test_corrupt_manifest_reported_with_location(tmp_path):
    d = tmp_path / "kv"
    open_store(d).close()
    (d / "MANIFEST").write_text("only\ttwo\n", encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"corrupt manifest .*line 1"):
        open_store(d)
    assert _lock_is_free(d)  # a failed open must not keep the lock


def test_corrupt_data_file_reported_with_location(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
    data = d / "t.dat"
    data.write_text(data.read_text() + "broken line\n", encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"corrupt data file .*line 3"):
        open_store(d)


@pytest.mark.parametrize("name, where", [
    ("MANIFEST", "corrupt manifest .*line 1"), ("t.dat", "corrupt data file .*line 1"),
])
def test_a_byte_order_mark_flush_never_writes_is_corrupt(tmp_path, name, where):
    # Only a load input and a shell script may start with one.
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
    path = d / name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with pytest.raises(CorruptStoreError, match=where):
        open_store(d)


_HEADER = "expected a header: a tab, then tab-separated coordinates"
_NO_CELLS = "a row with no cells"
_HEADER_ORDER = "header coordinates repeat or are out of order"


# Each case of the coordinate/value pair layout keeps its id; the ones
# named after a field count are now rows with more values than the header.
@pytest.mark.parametrize(
    "text, line, why",
    [
        pytest.param("\ta:q\nk\t1\nk2\n", 3, _NO_CELLS, id="key-only"),
        pytest.param("\ta:q\nk\t1\nk2\t1\t2\n", 3, "2 values for a header of 1",
                     id="even-field-count"),
        pytest.param("\ta:q\ta:r\nk\t1\nk2\t1\t2\t3\n", 3, "3 values for a header of 2",
                     id="dangling-coordinate"),
        pytest.param("\ta:q\nk\t1\n\t1\n", 3, "empty row key", id="empty-key"),
        pytest.param("\ta:q\nk\t1\nk2\t\n", 3, _NO_CELLS, id="empty-value"),
        pytest.param("\taq\nk\t1\n", 1, _HEADER, id="bad-coordinate"),
        pytest.param("\ta:q:r\nk\t1\n", 1, _HEADER, id="colon-in-qualifier"),
        pytest.param("\t\nk\t1\n", 1, _HEADER, id="header-of-no-coordinates"),
        pytest.param("\ta:q\tx:q\nk\t1\n", 1, "unknown family 'x'", id="unknown-family"),
        pytest.param("\ta:q\nk\t1\nk\t2\n", 3, "row key 'k' repeated", id="repeated-key"),
        pytest.param("\ta:q\ta:q\nk\t1\t2\n", 1, _HEADER_ORDER,
                     id="repeated-coordinate"),
        pytest.param("\ta:r\ta:q\nk\t1\t2\n", 1, _HEADER_ORDER,
                     id="header-out-of-order"),
        pytest.param("\ta:q\nk\t1\n\ta:q\n", 3, "empty row key", id="second-header"),
        pytest.param("k\ta\tq\t1\n", 1, _HEADER, id="one-line-per-cell-layout"),
    ],
)
def test_corrupt_data_line_reported_with_location(tmp_path, text, line, why):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
    (d / "t.dat").write_text(text, encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=rf"corrupt data file .*t\.dat: line {line}: {why}"):
        open_store(d)
    assert _lock_is_free(d)


def test_non_utf8_data_file_is_corrupt_and_named(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
    (d / "t.dat").write_bytes(b"k\ta:q\t\xff\n")
    with pytest.raises(CorruptStoreError, match=r"corrupt data file .*t\.dat: 'utf-8' codec"):
        open_store(d)
    assert _lock_is_free(d)


def test_non_utf8_manifest_is_corrupt_and_named(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
    (d / "MANIFEST").write_bytes(b"t\ta\t1\tt\xff.dat\n")
    with pytest.raises(CorruptStoreError, match=r"corrupt manifest .*MANIFEST: 'utf-8' codec"):
        open_store(d)
    assert _lock_is_free(d)


def test_missing_data_file_is_empty_table(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
    os.unlink(d / "t.dat")
    with open_store(d) as s:
        assert s.scan("t") == []


def test_a_missing_data_file_that_held_rows_is_corrupt(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
    size = (d / "t.dat").stat().st_size
    os.unlink(d / "t.dat")
    with pytest.raises(CorruptStoreError) as exc:
        open_store(d)
    assert str(exc.value) == (
        f"corrupt data file {d / 't.dat'}: missing, but MANIFEST records {size} bytes"
    )
    assert _lock_is_free(d)


# ------------------------------------------------------------ bulk import

SPEC3 = ImportSpec(columns=(ROW_KEY, C("a:lt"), C("a:d122")))


def _imported(store, text, spec=SPEC3, tmp_path=None):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    store.create_table("t", {"a"})
    return store.import_tsv("t", path, spec)


def test_import_happy_path(store, tmp_path):
    report = _imported(store, "~Morocco,31.79,5\nHubei~China,30.97,444\n", tmp_path=tmp_path)
    assert (report.loaded, report.skipped) == (2, 0)
    assert store.get("t", "~Morocco") == [(C("a:d122"), "5"), (C("a:lt"), "31.79")]


def test_import_skips_empty_cells(store, tmp_path):
    report = _imported(store, "~Morocco,31.79,\n", tmp_path=tmp_path)
    assert report.loaded == 1
    assert store.get("t", "~Morocco") == [(C("a:lt"), "31.79")]


def test_import_skips_and_reports_bad_lines(store, tmp_path):
    text = "~Morocco,31.79,5\nshort,1\n,2,3\n~Fine,9,9\n,,\n"
    report = _imported(store, text, tmp_path=tmp_path)
    assert report.loaded == 2
    assert report.skipped == 3
    assert [line for line, _ in report.errors] == [2, 3, 5]
    assert report.errors[0][1] == "expected 3 fields, found 2"
    assert report.errors[1][1] == "empty row key"
    assert report.errors[2][1] == "empty row key"


def test_import_refuses_all_empty_values(store, tmp_path):
    # A line with a key but nothing to store must not create a ghost row.
    report = _imported(store, "onlykey,,\n", tmp_path=tmp_path)
    assert report.loaded == 0
    assert report.errors == [(1, "no values to write")]
    assert store.get("t", "onlykey") == []


def test_import_merges_duplicate_keys(store, tmp_path):
    report = _imported(store, "k,1,\nk,,7\n", tmp_path=tmp_path)
    assert report.loaded == 2
    assert store.get("t", "k") == [(C("a:d122"), "7"), (C("a:lt"), "1")]


def test_scan_after_an_import_of_new_rows_shows_them(store, tmp_path):
    store.create_table("t", {"a"})
    store.put("t", "k1", C("a:lt"), "1")
    assert [r.key for r in store.scan("t")] == ["k1"]
    path = tmp_path / "in.csv"
    path.write_text("k0,2,\nk2,,3\n", encoding="utf-8")
    assert store.import_tsv("t", path, SPEC3).loaded == 2
    assert _rows(store, "t") == [
        ("k0", [(C("a:lt"), "2")]),
        ("k1", [(C("a:lt"), "1")]),
        ("k2", [(C("a:d122"), "3")]),
    ]


def test_import_across_month_boundary_reads_in_coordinate_order(tmp_path):
    # d930 is written first but sorts last: qualifiers order as text.
    d = tmp_path / "kv"
    spec = ImportSpec(columns=(ROW_KEY, C("a:d930"), C("a:d1001"), C("a:d1002")))
    path = tmp_path / "in.csv"
    path.write_text("~Morocco,1,2,3\n", encoding="utf-8")
    expected = [(C("a:d1001"), "2"), (C("a:d1002"), "3"), (C("a:d930"), "1")]
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.import_tsv("t", path, spec)
        assert s.get("t", "~Morocco") == expected
        assert [list(r.cells.items()) for r in s.scan("t")] == [expected]
    with open_store(d) as s:
        assert s.get("t", "~Morocco") == expected
        assert [list(r.cells.items()) for r in s.scan("t")] == [expected]


def test_import_rejects_unknown_family_up_front(store, tmp_path):
    spec = ImportSpec(columns=(ROW_KEY, C("zz:x")))
    path = tmp_path / "in.csv"
    path.write_text("k,1\n", encoding="utf-8")
    store.create_table("t", {"a"})
    with pytest.raises(UnknownFamilyError):
        store.import_tsv("t", path, spec)


def test_import_into_missing_file(store):
    store.create_table("t", {"a"})
    with pytest.raises(StoreError, match="cannot read"):
        store.import_tsv("t", "/no/such/file.csv", SPEC3)


def test_import_lone_cr_stays_in_its_field(store, tmp_path):
    # Only LF and CRLF end a line: a lone CR is refused as a value on its
    # own line, and later lines keep their numbers.
    path = tmp_path / "in.csv"
    path.write_bytes(b"k1,1\r2,3\nk2,4,5\n")
    store.create_table("t", {"a"})
    report = store.import_tsv("t", path, SPEC3)
    assert report == (1, [(1, "value must not contain tab or newline characters")])
    assert [r.key for r in store.scan("t")] == ["k2"]


def test_import_non_utf8_file_is_named(store, tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"k1,1,\xff\n")
    store.create_table("t", {"a"})
    with pytest.raises(StoreError) as exc:
        store.import_tsv("t", path, SPEC3)
    assert str(exc.value).startswith(f"cannot read {path}: 'utf-8' codec can't decode")


_NEWLINE = "value must not contain tab or newline characters"
_COLS3 = (ROW_KEY, C("a:lt"), C("a:d122"))


@pytest.mark.parametrize(
    "columns, text, errors, rows",
    [
        pytest.param(
            # CRLF ends a line as LF does, so no value ever holds the CR.
            _COLS3, "k1,1,2\r\nk2,,4\r\n", [],
            {"k1": {"a:d122": "2", "a:lt": "1"}, "k2": {"a:d122": "4"}},
            id="crlf",
        ),
        pytest.param(
            # A lone CR at the end of the file stays in the last line.
            _COLS3, "k1,1,2\r\nk2,3,4\r", [(2, _NEWLINE)],
            {"k1": {"a:d122": "2", "a:lt": "1"}},
            id="lone-cr-at-the-end",
        ),
        pytest.param(
            _COLS3, "k1,1\t5,2\nk2,3,4\nk\t3,5,6\nk4,\t,\n",
            [(1, _NEWLINE), (3, "row key must not contain tab or newline characters"),
             (4, _NEWLINE)],
            {"k2": {"a:d122": "4", "a:lt": "3"}},
            id="tab-in-value-with-comma-separator",
        ),
        pytest.param(
            _COLS3, ",1,2\nk,3,4\n,,\n\t,5,6\n",
            [(1, "empty row key"), (3, "empty row key"),
             (4, "row key must not contain tab or newline characters")],
            {"k": {"a:d122": "4", "a:lt": "3"}},
            id="empty-key",
        ),
        pytest.param(
            (C("a:lt"), ROW_KEY), "1,k1\n,k2\n3\t,k3\n4,k4\n",
            [(2, "no values to write"), (3, _NEWLINE)],
            {"k1": {"a:lt": "1"}, "k4": {"a:lt": "4"}},
            id="one-value-column",
        ),
    ],
)
def test_import_errors_match_with_and_without_skipping(tmp_path, columns, text, errors, rows):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    with open_store(tmp_path / "kv") as s:
        s.create_table("t", {"a"})
        report = s.import_tsv("t", path, ImportSpec(columns))
        assert report == (len(text.splitlines()) - len(errors), errors)
        assert {r.key: {str(c): v for c, v in r.cells.items()} for r in s.scan("t")} == rows


def test_load_writes_the_bytes_that_put_per_cell_writes(tmp_path):
    spec = import_spec()
    data = tmp_path / "data"
    data.mkdir()
    with open_store(tmp_path / "loaded") as loaded, open_store(tmp_path / "put") as put:
        for series in SERIES:
            table = TABLES[series]
            _, sparse, _ = write_formatted_files(shutil.copy(raw_fixture(series), data))
            loaded.create_table(table, {"a"})
            assert loaded.import_tsv(table, sparse, spec).skipped == 0
            # A new row stays the line flush writes: no row was parsed.
            assert all(isinstance(row, str) for row in loaded._tables[table].rows.values())
            put.create_table(table, {"a"})
            lines = sparse.read_text(encoding="utf-8").splitlines()
            _put_each_cell(put, table, spec, lines)
            # A second load onto the loaded table, still lines: it changes
            # cells, adds a row, adds coordinates sorting before the header's
            # last (a:lt) and after it, and names one that no line fills.
            again = ImportSpec((C("a:d1"), ROW_KEY, C("a:zz"), C("a:d331"), C("a:d0")))
            lines = [
                *(f",{line.split(',')[0]},z{n},{n * 7 + 1},{'x' if n % 2 else ''}"
                  for n, line in enumerate(lines[::9])),
                ",New~Row,,5,y",
            ]
            source = data / f"again-{series}.csv"
            source.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            assert loaded.import_tsv(table, source, again).skipped == 0
            _put_each_cell(put, table, again, lines)
    for name in [*(f"{TABLES[series]}.dat" for series in SERIES), "MANIFEST"]:
        assert (tmp_path / "loaded" / name).read_bytes() == (tmp_path / "put" / name).read_bytes()
    with open_store(tmp_path / "loaded") as loaded:
        for n, line in enumerate(lines[:-1]):
            key = line.split(",")[1]
            assert loaded.get(table, key, C("a:d331")) == [(C("a:d331"), str(n * 7 + 1))]
        assert loaded.get(table, "New~Row") == [(C("a:d0"), "y"), (C("a:d331"), "5")]


def _put_each_cell(store, table, spec, lines):
    for line in lines:
        fields = line.split(",")
        key = fields[spec.key_index]
        for coord, value in zip(spec.columns, fields):
            if coord != ROW_KEY and value:
                store.put(table, key, coord, value)


def test_a_global_scale_table_round_trips_through_its_header(tmp_path):
    # The global feed's shape, 289 rows x 366 days, seeded: each row empty
    # up to its first case, never on day 1, so that column is empty, as the
    # JHU deaths' first days are; and some rows with no latitude or longitude.
    rng = random.Random(5)
    start = date(2020, 1, 22)
    coords = list(map(C, series_columns(start, start + timedelta(days=365))))
    expected: dict[str, dict[ColumnCoord, str]] = {}
    lines = []
    for i in range(289):
        key = f"Province {i}~Country {i % 190}"
        first, count = rng.randrange(3, len(coords)), 0
        fields = [str(round(rng.uniform(-90, 90), 4)) if i % 23 else "" for _ in "lg"]
        for _ in coords[2:first]:
            fields.append("")
        for _ in coords[first:]:
            count += rng.randrange(0, 40)
            fields.append(str(count))
        lines.append(",".join([key, *fields]) + "\n")
        expected[key] = {c: v for c, v in zip(coords, fields) if v}
    source = tmp_path / "global.csv"
    source.write_text("".join(lines), encoding="utf-8")
    d = tmp_path / "kv"

    def check(s):
        want = [(key, sorted(cells.items())) for key, cells in sorted(expected.items())]
        assert _rows(s, "t") == want
        assert [(key, s.get("t", key)) for key, _ in want] == want
        # The header names exactly the coordinates the rows hold.
        held = sorted({c for cells in expected.values() for c in cells})
        with open(d / "t.dat", encoding="utf-8") as f:
            assert f.readline() == "".join(f"\t{c}" for c in held) + "\n"

    with budget(5.0):
        with open_store(d) as s:
            s.create_table("t", {"a"})
            assert s.import_tsv("t", source, ImportSpec((ROW_KEY, *coords))) == (289, [])
        with open_store(d) as s:
            check(s)
        # One coordinate sorting after the header's last (a:lt), which the
        # lines are read against as they are, and one sorting before it.
        early, late = sorted(expected)[7], sorted(expected)[200]
        with open_store(d) as s:
            s.put("t", late, C("a:zz"), "late")
            assert all(isinstance(row, str) for key, row in s._tables["t"].rows.items()
                       if key != late)
            s.put("t", early, C("a:d0"), "early")
        expected[late][C("a:zz")] = "late"
        expected[early][C("a:d0")] = "early"
        with open_store(d) as s:
            check(s)


def test_import_spec_validation():
    with pytest.raises(ValueError, match="exactly one"):
        ImportSpec(columns=(C("a:x"),))
    with pytest.raises(ValueError, match="exactly one"):
        ImportSpec(columns=(ROW_KEY, ROW_KEY))
    with pytest.raises(ValueError, match="not a coordinate"):
        ImportSpec(columns=(ROW_KEY, "a:x"))
    with pytest.raises(ValueError, match="names column a:x twice"):
        ImportSpec(columns=(ROW_KEY, C("a:x"), C("a:y"), C("a:x")))
    assert ImportSpec(columns=(C("a:x"), ROW_KEY)).key_index == 1


# ------------------------------------------------------------ properties

_keys = st.text(
    st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
)
_values = _keys
_quals = st.text(st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789"), min_size=1, max_size=6)


@settings(max_examples=40)
@given(cells=st.dictionaries(st.tuples(_keys, _quals), _values, max_size=25))
def test_scan_order_and_reopen_round_trip(cells):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "kv"
        with open_store(d) as s:
            s.create_table("t", {"a"})
            for (key, qual), value in cells.items():
                s.put("t", key, ColumnCoord("a", qual), value)
            before = [(r.key, dict(r.cells)) for r in s.scan("t")]
        keys = [k for k, _ in before]
        assert keys == sorted(keys)
        with open_store(d) as s:
            after = [(r.key, dict(r.cells)) for r in s.scan("t")]
        assert after == before


_exotic = st.sampled_from([":", "\x85", "\u2028", "\x0c", "\x0b", "\x1c"])


def _texts_without(chars: str):
    return st.text(
        st.one_of(_exotic, st.characters(blacklist_characters=chars, blacklist_categories=("Cs",))),
        min_size=1,
        max_size=12,
    )


_texts = _texts_without("\t\n\r")
# What a load line's field can hold: no comma, which separates the fields.
_field_texts = _texts_without("\t\n\r,")
# Values that read like a header's coordinate texts or like numbers.
_lookalikes = st.sampled_from(["a:z", "b:0", "a:~", "0", "17", "-1.5"])
_values_texts = st.one_of(_texts, _lookalikes)
_value_fields = st.one_of(_field_texts, _lookalikes)
_coord_quals = st.text(
    st.sampled_from(["a", "z", "0", "~", "\x85", "\u2028", "\x0c"]), min_size=1, max_size=6
)
_cell_at = st.tuples(_texts, st.sampled_from("ab"), _coord_quals)


@settings(max_examples=60)
@given(
    cells=st.dictionaries(_cell_at, _values_texts, max_size=30),
    late=st.tuples(_cell_at, _values_texts),
)
# Rows with gaps before, between and after their cells; then a put whose
# coordinate sorts before the header's last while every row is a line.
@example(
    {("k1", "a", "a"): "1", ("k1", "a", "z"): "a:z", ("k2", "a", "0"): "17",
     ("k3", "a", "z"): "b:0", ("k4", "a", "0"): "0", ("k4", "a", "z"): "-1.5"},
    (("k2", "a", "m"), "a:~"),
)
def test_row_per_line_round_trip(cells, late):
    model: dict[str, dict[ColumnCoord, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "kv"
        with open_store(d) as s:
            s.create_table("t", {"a", "b"})
            for (key, family, qual), value in cells.items():
                s.put("t", key, ColumnCoord(family, qual), value)
                model.setdefault(key, {})[ColumnCoord(family, qual)] = value
            s.flush()
            before = [(r.key, list(r.cells.items())) for r in s.scan("t")]
        written = (d / "t.dat").read_bytes()
        assert written == _eager_bytes(model)
        with open_store(d) as s:
            assert [(r.key, list(r.cells.items())) for r in s.scan("t")] == before
            for (key, family, qual), value in list(cells.items())[:1]:
                s.put("t", key, ColumnCoord(family, qual), value)  # same cell: a rewrite
            s.flush()
        assert (d / "t.dat").read_bytes() == written
        (key, family, qual), value = late
        with open_store(d) as s:
            s.put("t", key, ColumnCoord(family, qual), value)
        model.setdefault(key, {})[ColumnCoord(family, qual)] = value
        assert (d / "t.dat").read_bytes() == _eager_bytes(model)
        with open_store(d) as s:
            assert _rows(s, "t") == _model_rows(model)


# ------------------------------------------------------- open-time contract


def _two_tables(d):
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.create_table("u", {"a"})
        for key in ("k1", "k2", "k3"):
            s.put("t", key, C("a:q"), key.upper())
            s.put("u", key, C("a:r"), "1")


def _rows(s, table):
    return [(r.key, list(r.cells.items())) for r in s.scan(table)]


def test_manifest_records_size_and_checksum(tmp_path):
    d = tmp_path / "kv"
    _two_tables(d)
    lines = (d / "MANIFEST").read_text(encoding="utf-8").splitlines()
    for line, table in zip(lines, ("t", "u")):
        data = (d / f"{table}.dat").read_bytes()
        assert line.split("\t")[4:] == [str(len(data)), str(zlib.crc32(data))]


def test_an_older_four_field_manifest_is_refused(tmp_path):
    # A store from before the sums is rebuilt, not read.
    d = tmp_path / "kv"
    _two_tables(d)
    manifest = d / "MANIFEST"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("".join("\t".join(l.split("\t")[:4]) + "\n" for l in lines))
    with pytest.raises(
        CorruptStoreError, match=r"MANIFEST: line 1: expected 6 fields .*rebuilt.*found 4"
    ):
        open_store(d)
    assert _lock_is_free(d)


@pytest.mark.parametrize("sums", ["matching", "stale"])
def test_an_older_data_file_of_coordinate_value_pairs_is_refused(tmp_path, sums):
    # Read against a header, its coordinate texts would be taken for values,
    # so a data file from before the header is rebuilt, never read, whether
    # or not its MANIFEST line sums it.
    d = tmp_path / "kv"
    _two_tables(d)
    old = b"k1\ta:q\tK1\nk2\ta:q\tK2\nk3\ta:q\tK3\n"
    (d / "t.dat").write_bytes(old)
    if sums == "matching":
        _set_checksum(d, old)
    manifest = (d / "MANIFEST").read_bytes()
    with pytest.raises(
        CorruptStoreError,
        match=r"t\.dat: line 1: expected a header: .*older store must be rebuilt: "
        r"re-run DROP/CREATE and load",
    ):
        open_store(d)
    assert (d / "t.dat").read_bytes() == old
    assert (d / "MANIFEST").read_bytes() == manifest
    assert _lock_is_free(d)


@pytest.mark.parametrize(
    "name, data_file, victim",
    [
        ("t", "../victim.txt", "victim.txt"),
        ("t", "t/../t.dat", "victim.txt"),
        ("../victim", "../victim.dat", "victim.dat"),
    ],
    ids=["data-file-outside", "data-file-not-name-dat", "name-with-slash"],
)
def test_a_manifest_line_naming_a_file_outside_the_store_is_refused(
    tmp_path, name, data_file, victim
):
    # Were such a line read, a put and close would write over the victim
    # with store lines, and DROP TABLE would delete it.
    d = tmp_path / "kv"
    _two_tables(d)
    victim = tmp_path / victim
    victim.write_bytes(b"")
    (d / "MANIFEST").write_text(f"{name}\ta\t1\t{data_file}\t0\t0\n", encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"corrupt manifest .*MANIFEST: line 1: "):
        with open_store(d) as s:
            s.put(name, "k", C("a:q"), "1")
    assert victim.read_bytes() == b""
    assert _lock_is_free(d)


def test_replaced_data_file_with_stale_checksum_opens_with_new_rows(tmp_path):
    # A kill between the data file's replace and the MANIFEST rewrite.
    d = tmp_path / "kv"
    _two_tables(d)
    (d / "t.dat").write_text("\ta:q\ta:z\nk9\tnine\tzed\n", encoding="utf-8")
    with open_store(d) as s:
        assert _rows(s, "t") == [("k9", [(C("a:q"), "nine"), (C("a:z"), "zed")])]
        assert s.get("t", "k1") == []


def test_a_crlf_manifest_opens_with_its_sums(tmp_path):
    # \r\n ends a line in every line file the store reads, also in a
    # MANIFEST that flush did not write.
    d = tmp_path / "kv"
    _two_tables(d)
    with open_store(d) as s:
        before = {t: _rows(s, t) for t in ("t", "u")}
    manifest = d / "MANIFEST"
    manifest.write_bytes(manifest.read_bytes().replace(b"\n", b"\r\n"))
    with open_store(d) as s:
        assert all(s._tables[t].checksum is not None for t in ("t", "u"))
        assert {t: _rows(s, t) for t in ("t", "u")} == before


def test_a_lone_cr_does_not_end_a_manifest_line(tmp_path):
    d = tmp_path / "kv"
    _two_tables(d)
    manifest = d / "MANIFEST"
    manifest.write_bytes(manifest.read_bytes().replace(b"\n", b"\r", 1))
    with pytest.raises(CorruptStoreError, match=r"line 1: expected 6 fields .*found 11"):
        open_store(d)


def _reopen_after_a_write_to_u(d: Path, before: list) -> None:
    """Open with t's data file mismatched, write only u, and reopen: t's
    sums as open read them are in MANIFEST, so t is indexed, not parsed."""
    with open_store(d) as s:
        assert _rows(s, "t") == before
        s.put("u", "k1", C("a:r"), "2")
    data = (d / "t.dat").read_bytes()
    line = (d / "MANIFEST").read_text(encoding="utf-8").splitlines()[0]
    assert line.split("\t")[4:] == [str(len(data)), str(zlib.crc32(data))]
    with open_store(d) as s:
        assert all(isinstance(row, str) for row in s._tables["t"].rows.values())
        assert _rows(s, "t") == before
        assert "" not in s._tables["t"].rows


def test_a_crlf_data_file_opens_through_the_strict_parser(tmp_path):
    # Its size no longer matches, so it is parsed, and no value keeps a \r.
    d = tmp_path / "kv"
    _two_tables(d)
    with open_store(d) as s:
        before = _rows(s, "t")
    data = d / "t.dat"
    data.write_bytes(data.read_bytes().replace(b"\n", b"\r\n"))
    _reopen_after_a_write_to_u(d, before)
    with open_store(d) as s:
        s.put("t", "k1", C("a:q"), "K1")
    assert b"\r" not in data.read_bytes()


def test_a_blank_line_in_a_mismatched_data_file_is_no_row(tmp_path):
    # The strict parse skips it, and so does the index once the sums of
    # the file as read are in MANIFEST.  Line 1 is the header, never blank.
    d = tmp_path / "kv"
    _two_tables(d)
    with open_store(d) as s:
        before = _rows(s, "t")
    data = d / "t.dat"
    data.write_bytes(data.read_bytes().replace(b"\nk", b"\n\nk") + b"\n")
    _reopen_after_a_write_to_u(d, before)


def test_a_mismatched_data_file_out_of_key_order_scans_in_key_order(tmp_path):
    # The strict parse sorts the keys, and so does the index once the sums
    # of the file as read are in MANIFEST; a put to a row already there
    # then rewrites the file in key order.
    d = tmp_path / "kv"
    _two_tables(d)
    with open_store(d) as s:
        before = _rows(s, "t")
    data = d / "t.dat"
    header, k1, k2, k3 = data.read_bytes().splitlines(keepends=True)
    data.write_bytes(header + k3 + k1 + k2)
    _reopen_after_a_write_to_u(d, before)
    with open_store(d) as s:
        by_part = s.scan("t", key_parts=("k", 2, (0,), {("",)}))
        assert [r.key for r in by_part] == ["k1", "k2", "k3"]
        s.put("t", "k3", C("a:q"), "K3")
    assert data.read_bytes() == header + k1 + k2 + k3


def test_bad_checksum_field_is_a_corrupt_manifest(tmp_path):
    d = tmp_path / "kv"
    _two_tables(d)
    manifest = d / "MANIFEST"
    manifest.write_text("t\ta\t1\tt.dat\t12\tabc\n", encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"corrupt manifest .*line 1: bad table entry"):
        open_store(d)
    assert _lock_is_free(d)


def test_writing_one_table_leaves_the_other_data_file_alone(tmp_path):
    d = tmp_path / "kv"
    _two_tables(d)
    other = d / "u.dat"
    before = other.read_bytes(), other.stat().st_mtime_ns
    source = tmp_path / "in.csv"
    source.write_text("k5,five\n", encoding="utf-8")
    with open_store(d) as s:
        report = s.import_tsv("t", source, ImportSpec(columns=(ROW_KEY, C("a:q"))))
        assert report.loaded == 1
    assert (other.read_bytes(), other.stat().st_mtime_ns) == before
    with open_store(d) as s:
        assert s.get("t", "k5") == [(C("a:q"), "five")]


def test_key_filtered_scan_parses_only_the_rows_it_keeps(tmp_path):
    d = tmp_path / "kv"
    _two_tables(d)
    # A bad line under a matching checksum is found only when its row is read.
    data = (d / "t.dat").read_bytes().replace(b"k2\tK2", b"k2\tK2\tx")
    (d / "t.dat").write_bytes(data)
    _set_checksum(d, data)
    with open_store(d) as s:
        kept = s.scan("t", ("~", 1, (0,), {("k1",), ("k3",)}))
        assert [(r.key, dict(r.cells)) for r in kept] == [
            ("k1", {C("a:q"): "K1"}),
            ("k3", {C("a:q"): "K3"}),
        ]
        assert s.get("t", "k3") == [(C("a:q"), "K3")]
        bad_row = r"t\.dat: row 'k2': 2 values for a header of 1"
        with pytest.raises(CorruptStoreError, match=bad_row):
            s.scan("t")
        # The line that failed stays a line: every read of it raises again,
        # and flush writes it back as it was.
        with pytest.raises(CorruptStoreError, match=bad_row):
            s.scan("t")
        with pytest.raises(CorruptStoreError, match=bad_row):
            s.get("t", "k2")
        s.put("t", "k1", C("a:q"), "new")
    assert (d / "t.dat").read_bytes() == b"\ta:q\nk1\tnew\nk2\tK2\tx\nk3\tK3\n"


def test_an_indexed_line_with_no_tab_is_keyed_whole(tmp_path):
    # Under a matching checksum the line is indexed by the text before its
    # first tab, which is the whole line, and reading it names that key.
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
    data = b"\ta:q\nk1\t1\nk2\n"
    (d / "t.dat").write_bytes(data)
    _set_checksum(d, data)
    with open_store(d) as s:
        assert list(s._tables["t"].rows) == ["k1", "k2"]
        assert s.get("t", "k1") == [(C("a:q"), "1")]
        with pytest.raises(CorruptStoreError, match=r"t\.dat: row 'k2': a row with no cells"):
            s.get("t", "k2")
        with pytest.raises(CorruptStoreError, match=r"row 'k2'"):
            s.scan("t")


def test_a_data_file_line_holding_a_cr_is_corrupt(tmp_path):
    # put and import_tsv refuse a \r, so a line that holds one was not
    # written by flush: a lone \r at the end of the file stays in its line.
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k1", C("a:q"), "one")
    data = d / "t.dat"
    data.write_bytes(data.read_bytes() + b"k9\tnine\r")
    with pytest.raises(
        CorruptStoreError, match=r"t\.dat: line 3: a line holds a carriage return"
    ):
        open_store(d)
    assert _lock_is_free(d)


# ------------------------------------------- open and flush of many blocks

# A block of the line files below: a power of two, so a multiple of any
# buffer size open() picks, and lines straddle the buffer's refills.
BLOCK = 1 << 16
# Where a read boundary falls in the line that reaches it: inside a
# character, so many bytes into it, or just after the line's newline.
_CUTS = [("😀", 1), ("€", 2), ("é", 1), ("😀", 3), (None, 0), ("€", 1)]
_CHUNKED_HEADER = b"\ta:q\n"


def _chunked_rows() -> list[tuple[str, str]]:
    """(key, value) rows, in key order, of a:q cells whose data file spans
    several blocks; each block boundary falls as _CUTS says, and one value,
    three blocks long, holds a block with no newline."""
    rows: list[tuple[str, str]] = []
    offset = len(_CHUNKED_HEADER)  # where the next line starts in the data file

    def add(value: str) -> None:
        nonlocal offset
        key = f"k{len(rows):05d}"
        rows.append((key, value))
        offset += len(f"{key}\t{value}\n".encode("utf-8"))

    prefix = len("k00000\t")
    for n, (char, into) in enumerate(_CUTS, 1):
        boundary = n * BLOCK
        while boundary - offset > 400:
            add("é€😀x" * 40)
        gap = boundary - offset
        if char is None:
            add("x" * (gap - prefix - 1))
        else:
            add("x" * (gap - prefix - into) + char + "é€😀")
        assert offset > boundary or (char is None and offset == boundary)
    add("€" * BLOCK)
    add("last")
    return rows


def _chunked_store(d: Path) -> tuple[list[tuple[str, str]], bytes]:
    rows = _chunked_rows()
    with open_store(d) as s:
        s.create_table("t", {"a"})
        for key, value in rows:
            s.put("t", key, C("a:q"), value)
    return rows, (d / "t.dat").read_bytes()


def _set_checksum(d: Path, data: bytes) -> None:
    """Make the first MANIFEST line, table t's, sum data."""
    manifest = d / "MANIFEST"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[0] = "\t".join(lines[0].split("\t")[:4] + [str(len(data)), str(zlib.crc32(data))])
    manifest.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_a_data_file_of_many_chunks_round_trips(tmp_path):
    d = tmp_path / "kv"
    rows, data = _chunked_store(d)
    assert data == _CHUNKED_HEADER + "".join(f"{key}\t{value}\n" for key, value in rows).encode()
    boundaries = range(BLOCK, len(data), BLOCK)
    assert len(boundaries) >= len(_CUTS) + 3
    # Inside a character: a continuation byte.  After a newline: a line's start.
    assert [0x80 <= data[b] < 0xC0 for b in boundaries[: len(_CUTS)]] == [
        char is not None for char, _ in _CUTS
    ]
    assert any(b"\n" not in data[b : b + BLOCK] for b in boundaries)
    manifest = (d / "MANIFEST").read_bytes()
    fields = manifest.decode("utf-8").rstrip("\n").split("\t")
    assert fields[4:] == [str(len(data)), str(zlib.crc32(data))]
    expected = [(key, [(C("a:q"), value)]) for key, value in rows]
    with open_store(d) as s:
        assert _rows(s, "t") == expected
        assert s.get("t", rows[-2][0]) == [(C("a:q"), rows[-2][1])]
    # Nothing was written, so the MANIFEST line keeps its six fields.
    assert (d / "MANIFEST").read_bytes() == manifest
    # A flush of rows both touched and still lines writes the same bytes.
    with open_store(d) as s:
        for key, value in rows[::50]:
            s.put("t", key, C("a:q"), value)
    assert (d / "t.dat").read_bytes() == data
    assert (d / "MANIFEST").read_bytes() == manifest


def test_a_matching_file_of_many_chunks_is_indexed_not_parsed(tmp_path):
    # A bad line in the last block, under a checksum that matches, is found
    # only when its row is read: open indexed the lines without parsing them.
    d = tmp_path / "kv"
    rows, data = _chunked_store(d)
    data = data.replace(b"\nk00001\t", b"\nk00001\tx\t")
    data = data.replace(f"\n{rows[-1][0]}\t".encode(), f"\n{rows[-1][0]}\tx\t".encode())
    (d / "t.dat").write_bytes(data)
    _set_checksum(d, data)
    with open_store(d) as s:
        assert s.get("t", rows[-2][0]) == [(C("a:q"), rows[-2][1])]
        bad_row = rf"row '{rows[-1][0]}': 2 values for a header of 1"
        with pytest.raises(CorruptStoreError, match=bad_row):
            s.get("t", rows[-1][0])


def test_a_mismatched_file_of_many_chunks_names_its_bad_line(tmp_path):
    # Same size, other bytes: only the crc32 tells, so the file is parsed
    # strictly, and the line is counted across the blocks before it.  The
    # bad line's key swallows its value: no tab is left in it.
    d = tmp_path / "kv"
    rows, data = _chunked_store(d)
    line = data.count(b"\n", 0, 3 * BLOCK) + 1  # the first to start in block 4
    key = rows[line - 2][0]  # line 1 is the header
    (d / "t.dat").write_bytes(data.replace(f"\n{key}\t".encode(), f"\n{key}x".encode()))
    with pytest.raises(CorruptStoreError, match=rf"t\.dat: line {line}: a row with no cells"):
        open_store(d)


def test_a_data_file_not_utf8_in_a_later_chunk_is_named(tmp_path):
    d = tmp_path / "kv"
    _, data = _chunked_store(d)
    at = data.index(b"x", 2 * BLOCK)
    data = data[:at] + b"\xff" + data[at + 1 :]
    (d / "t.dat").write_bytes(data)
    _set_checksum(d, data)
    with pytest.raises(
        CorruptStoreError, match=rf"t\.dat: 'utf-8' codec can't decode byte 0xff at byte {at}"
    ):
        open_store(d)


def test_a_write_that_fails_mid_stream_keeps_the_old_file(tmp_path):
    path = tmp_path / "f.dat"
    path.write_bytes(b"old\n")

    def chunks():
        yield b"new\n" * BLOCK
        raise RuntimeError("no more")

    with pytest.raises(RuntimeError, match="no more"):
        write_atomic(path, chunks())
    assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.dat"]


def test_a_flush_that_fails_mid_stream_keeps_the_old_data_file(tmp_path, monkeypatch):
    # The last row is the one rendered from cells, after several blocks of
    # lines went out; rendering it fails.
    d = tmp_path / "kv"
    rows, data = _chunked_store(d)
    manifest = (d / "MANIFEST").read_bytes()
    with open_store(d) as s:
        s.put("t", rows[-1][0], C("a:z"), "new")
        line = _Table.line
        with monkeypatch.context() as m:
            m.setattr(_Table, "line", lambda t, key: 1 / 0 if key == rows[-1][0] else line(t, key))
            with pytest.raises(ZeroDivisionError):
                s.flush()
        assert (d / "t.dat").read_bytes() == data
        assert (d / "MANIFEST").read_bytes() == manifest
        assert sorted(p.name for p in d.iterdir()) == ["LOCK", "MANIFEST", "t.dat"]
    with open_store(d) as s:
        assert s.get("t", rows[-1][0]) == [(C("a:q"), rows[-1][1]), (C("a:z"), "new")]


def _wide_table(d: Path, tmp_path: Path) -> "Store":
    """An open store whose table t, 800 rows of 368 cells of 13 digits,
    about 4.1 MB on disk, was just imported and not yet flushed."""
    coords = [f"a:d{n:04d}" for n in range(368)]
    source = tmp_path / "wide.csv"
    source.write_text(
        "".join(f"k{i:04d}," + ",".join(str(10**12 + 1000 * i + n) for n in range(368)) + "\n"
                for i in range(800)),
        encoding="utf-8",
    )
    s = open_store(d)
    s.create_table("t", {"a"})
    s.import_tsv("t", source, ImportSpec(columns=(ROW_KEY, *map(C, coords))))
    return s


def _traced(call):
    """What call returned, and tracemalloc's (current, peak) bytes across it."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_flush_holds_no_copy_of_the_table(tmp_path):
    # The peak counts only what flush allocates: the table was there before.
    d = tmp_path / "kv"
    s = _wide_table(d, tmp_path)
    try:
        _, (_, peak) = _traced(s.flush)
    finally:
        s.close()
    size = (d / "t.dat").stat().st_size
    assert size > 4_000_000
    # A line or two, and the file's buffer: never a copy of the table.
    assert peak < 64 * 1024, f"flush peaked {peak} bytes above the store, file is {size}"


def test_open_holds_the_table_once(tmp_path):
    d = tmp_path / "kv"
    _wide_table(d, tmp_path).close()
    s, (current, peak) = _traced(lambda: open_store(d))
    s.close()
    size = (d / "t.dat").stat().st_size
    assert current > size  # the table's lines
    # A line or two above what it holds: never the file as bytes or text.
    assert peak - current < 24 * 1024, f"open peaked {peak - current} bytes above {current}"


# ------------------------------------------------------ load of many blocks


def _load_input(*pieces: tuple[int, bytes]) -> bytes:
    """A load file for SPEC3 with each piece starting at its byte offset.

    Filler lines, each keyed by its own offset, come before every piece,
    and one line ends the file.
    """
    data = b""
    for offset, piece in pieces:
        while offset - len(data) > 40:
            data += f"f{len(data):07d},1,2\n".encode()
        head = f"f{len(data):07d},1,"
        data += (head + "2" * (offset - len(data) - len(head) - 1) + "\n").encode()
        assert len(data) == offset
        data += piece
    return data + b"end,1,2\n"


def _line_rule(text: str) -> list[str]:
    """The lines of a whole file's text: LF and CR LF end a line."""
    lines = text.replace("\r\n", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(st.sampled_from("ab\t\r\n\u20ac\U0001f600"), max_size=40),
    chunk=st.integers(1, 9),
    bad=st.integers(0, 40),
)
def test_line_reader_matches_the_whole_file_rule(text, chunk, bad):
    # Read through a buffer of a few bytes, the lines are those of the whole text;
    # a byte that is not UTF-8 comes after every whole line before it.
    data = text.encode("utf-8")
    head = text[:bad]
    broken = head.encode("utf-8") + b"\xff" + text[bad:].encode("utf-8")
    reader = LineReader(io.BufferedReader(io.BytesIO(data), buffer_size=chunk))
    assert list(reader) == _line_rule(text)
    assert (reader.size, reader.crc) == (len(data), zlib.crc32(data))
    lines = []
    with pytest.raises(UnicodeError, match=f"byte 0xff at byte {len(head.encode())}: "):
        lines.extend(LineReader(io.BufferedReader(io.BytesIO(broken), buffer_size=chunk)))
    assert lines == _line_rule(head[: head.rfind("\n") + 1])


def _best_read(path: Path) -> tuple[float, list[str]]:
    """The fastest of three reads of path through a LineReader, and its lines."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with open(path, "rb") as f:
            lines = list(LineReader(f))
        times.append(time.perf_counter() - start)
    return min(times), lines


def test_a_long_line_reads_in_linear_time(tmp_path):
    # One 32 MiB line, ended by a lone CR, costs about what the same bytes
    # cut into 64 KiB lines cost: no part of a line is copied once per block.
    size = 32 << 20
    one = tmp_path / "one.txt"
    one.write_bytes(b"x" * (size - 1) + b"\r")
    many = tmp_path / "many.txt"
    many.write_bytes((b"x" * (BLOCK - 1) + b"\n") * (size // BLOCK))
    many_time, lines = _best_read(many)
    assert len(lines) == size // BLOCK
    del lines
    one_time, lines = _best_read(one)
    assert len(lines) == 1 and len(lines[0]) == size and lines[0].endswith("x\r")
    assert one_time < 8 * many_time, f"{one_time:.3f} s for one line, {many_time:.3f} s for many"


def _cells(s, key):
    return {str(c): v for c, v in s.get("t", key)}


def test_a_load_file_is_read_across_chunk_boundaries(store, tmp_path):
    # A \r\n whose \r ends block 1, and a character cut by block 2's end.
    path = tmp_path / "in.csv"
    data = _load_input(
        (BLOCK - len(b"kcr,1,2\r"), b"kcr,1,2\r\n"),
        (2 * BLOCK - len(b"kmb,1,") - 1, "kmb,1,\u20ac\r\n".encode()),
    )
    assert data[BLOCK - 1 : BLOCK + 1] == b"\r\n"
    assert data[2 * BLOCK - 1 : 2 * BLOCK + 2] == "\u20ac".encode()
    path.write_bytes(data)
    store.create_table("t", {"a"})
    assert store.import_tsv("t", path, SPEC3) == (data.count(b"\n"), [])
    assert _cells(store, "kcr") == {"a:d122": "2", "a:lt": "1"}
    assert _cells(store, "kmb") == {"a:d122": "\u20ac", "a:lt": "1"}
    assert _cells(store, "end") == {"a:d122": "2", "a:lt": "1"}


def test_a_load_error_in_a_later_chunk_names_its_line(tmp_path):
    path = tmp_path / "in.csv"
    data = _load_input((2 * BLOCK + 100, b"bad,1\n"))
    line = data.count(b"\n", 0, 2 * BLOCK + 100) + 1
    path.write_bytes(data)
    with open_store(tmp_path / "kv") as s:
        s.create_table("t", {"a"})
        report = s.import_tsv("t", path, SPEC3)
        assert report == (line, [(line, "expected 3 fields, found 2")])


def test_a_load_file_not_utf8_in_a_later_chunk_is_named(store, tmp_path):
    # The load is not transactional: it stops at the line holding the bad
    # byte with every line before it applied, as at a refused line.
    path = tmp_path / "in.csv"
    at = 2 * BLOCK + 100 + len(b"bad,1,")
    data = _load_input((2 * BLOCK + 100, b"bad,1,\xff\n"))
    path.write_bytes(data)
    store.create_table("t", {"a"})
    with pytest.raises(StoreError) as exc:
        store.import_tsv("t", path, SPEC3)
    assert str(exc.value) == (
        f"cannot read {path}: 'utf-8' codec can't decode byte 0xff at byte {at}: "
        "invalid start byte"
    )
    assert len(store.scan("t")) == data.count(b"\n", 0, 2 * BLOCK + 100)
    assert store.get("t", "end") == []


def test_load_holds_no_copy_of_its_input(tmp_path):
    # The peak counts only what import_tsv allocates above what it holds
    # after: a line and its fields, never the whole input as text or lines.
    source = tmp_path / "wide.csv"
    source.write_text(
        "".join(f"k{i:04d}," + ",".join(str(100_000 + i + n) for n in range(368)) + "\n"
                for i in range(700)),
        encoding="utf-8",
    )
    size = source.stat().st_size
    assert 1_700_000 < size < 1_900_000
    spec = ImportSpec(columns=(ROW_KEY, *(C(f"a:d{n:04d}") for n in range(368))))
    with open_store(tmp_path / "kv") as s:
        s.create_table("t", {"a"})
        report, (current, peak) = _traced(lambda: s.import_tsv("t", source, spec))
    assert report == (700, [])
    assert peak - current < 128 * 1024, f"load peaked {peak - current} bytes above {current}"


_KEY_PART = st.text("ab~", max_size=3)
# A bound: part positions, repeats allowed, and allowed tuples of part texts.
_KEY_BOUND = st.lists(st.integers(0, 2), min_size=1, max_size=3).flatmap(
    lambda positions: st.tuples(
        st.just(tuple(positions)),
        st.frozensets(st.tuples(*[_KEY_PART] * len(positions)), max_size=3),
    )
)
_LANDS = {"~Aland", "Num~Land", "a~b~c", "solo", "x~Land", "x~Lan"}


@settings(max_examples=80, deadline=None)
@given(
    keys=st.sets(st.text("ab~", min_size=1, max_size=5), max_size=40),
    count=st.integers(1, 3),
    bound=_KEY_BOUND,
    added=st.lists(st.text("ab~", min_size=1, max_size=5), max_size=6),
)
# A part holding the terminator past the last split, and a key of one part.
@example(_LANDS, 2, ((1,), frozenset({("Land",), ("b~c",)})), ["y~Land"])
def test_key_part_scans_match_a_brute_force_filter(keys, count, bound, added):
    positions, allowed = bound

    def expected(every):
        out = []
        for key in sorted(every):
            parts = key.split("~", count - 1)
            if max(positions) < len(parts) and tuple(parts[p] for p in positions) in allowed:
                out.append(key)
        return out

    def check(s, every):
        rows = s.scan("t", ("~", count, *bound))
        assert [r.key for r in rows] == expected(every)

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "kv"
        with open_store(d) as s:
            s.create_table("t", {"a"})
            for key in keys:
                s.put("t", key, C("a:q"), "v")
            check(s, keys)
            # New keys after the index was built: half put, half imported.
            half = len(added) // 2
            for key in added[:half]:
                s.put("t", key, C("a:q"), "w")
            source = Path(tmp) / "in.csv"
            source.write_text("".join(f"{key},w\n" for key in added[half:]), encoding="utf-8")
            s.import_tsv("t", source, ImportSpec((ROW_KEY, C("a:q"))))
            every = keys | set(added)
            check(s, every)
        with open_store(d) as s:
            check(s, every)
            # Only the rows returned were parsed.
            rows = s._table("t").rows
            unparsed = [key for key, row in rows.items() if isinstance(row, str)]
            assert sorted(unparsed) == sorted(every - set(expected(every)))


# ------------------------------------------- lazy reads against an eager model

_FAMILY_COORDS = st.builds(ColumnCoord, st.sampled_from("ab"), _coord_quals)
_maybe_texts = st.one_of(st.just(""), _value_fields)
_index = st.integers(0, 5)
_op = st.one_of(
    st.tuples(st.just("scan")),
    st.tuples(st.just("put"), _index, _FAMILY_COORDS, _values_texts),
    # The spec's coordinates (y, x, and one no line fills), and its lines.
    st.tuples(
        st.just("import"),
        st.lists(_FAMILY_COORDS, min_size=3, max_size=3, unique=True),
        st.lists(st.tuples(_index, _maybe_texts, _maybe_texts), min_size=1, max_size=6),
    ),
    st.tuples(st.just("flush")),
)
# What is read after a step, if anything: one row, whole and at one
# coordinate, and a scan bound on a set of keys.  A step that reads nothing
# leaves its rows as they were, lines or values, for the steps after it.
_probe = st.one_of(st.none(), st.tuples(_index, _FAMILY_COORDS, st.frozensets(_index)))


def _model_rows(model, keys=None):
    return [
        (key, sorted(model[key].items()))
        for key in sorted(model)
        if keys is None or key in keys
    ]


def _eager_bytes(model) -> bytes:
    """The data file of model: a header of every coordinate a row holds,
    then each row's values at the header's places, up to its last cell."""
    if not model:
        return b""
    coords = sorted({c for cells in model.values() for c in cells})
    lines = ["\t".join(["", *map(str, coords)])]
    for key in sorted(model):
        lines.append("\t".join([key, *(model[key].get(c, "") for c in coords)]).rstrip("\t"))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _shell(s, line):
    return execute_command(parse_command(line), s)


@settings(max_examples=100, deadline=None)
@given(
    pool=st.lists(_field_texts, min_size=1, max_size=6, unique=True),
    cells=st.dictionaries(st.tuples(_index, _FAMILY_COORDS), _values_texts, max_size=30),
    steps=st.lists(st.tuples(_op, _probe), max_size=20),
)
# Reads of a line (k2), of a row a re-import merged into a value list (k1),
# and of a line laid out again by a put whose coordinate sorts before the
# header's last (k3); the first import appends to the header, with columns
# no line fills.
@example(
    ["k1", "k2", "k3"],
    {(0, C("a:a")): "1", (0, C("a:z")): "2", (1, C("a:m")): "a:z"},
    [
        (("flush",), (1, C("a:m"), frozenset({1}))),
        (
            ("import", [C("b:y"), C("b:z"), C("b:x")], [(0, "", "7"), (1, "", ""), (2, "", "0")]),
            (0, C("a:z"), frozenset({0})),
        ),
        (("put", 1, C("a:0"), "b:0"), (2, C("b:y"), frozenset({2}))),
        (
            ("import", [C("b:a"), C("a:b"), C("a:n")], [(2, "17", ""), (0, "", "a:~")]),
            (1, C("a:0"), frozenset({0, 1, 2})),
        ),
        (("flush",), (0, C("b:a"), frozenset({0, 2}))),
        (("scan",), (2, C("a:z"), frozenset({1}))),
    ],
)
# Values that equal coordinate texts, so a read that searched a line for a
# coordinate's text instead of counting its place would find the wrong cell.
@example(
    ["k1", "k2", "k3"],
    {(0, C("a:d1")): "a:d2", (0, C("a:d3")): "a:d1", (1, C("a:d2")): "a:d3"},
    [
        (("flush",), (1, C("a:d2"), frozenset({0}))),
        (("put", 1, C("a:d0"), "a:d1"), (0, C("a:d1"), frozenset({0, 1}))),
        (
            ("import", [C("a:d4"), C("a:d1"), C("b:d1")], [(0, "a:d4", "a:d1"), (2, "b:d1", "")]),
            (2, C("a:d4"), frozenset({0, 2})),
        ),
        (("scan",), (0, C("a:d3"), frozenset({0, 1, 2}))),
    ],
)
# Rows that end before the header does: a put appends b:z after every row
# was split, and a flush writes k1 and k2 so.  An import then adds a:0
# before the header's last, laying every row out again, and a last import
# appends again, dropping the coordinates its line leaves unfilled from rows
# that still end early.
@example(
    ["k1", "k2", "k3"],
    {(0, C("a:a")): "1", (1, C("a:b")): "2"},
    [
        (("scan",), None),
        (("put", 2, C("b:z"), "9"), None),
        (("flush",), (1, C("a:b"), frozenset({1}))),
        (
            ("import", [C("b:y"), C("a:0"), C("a:c")], [(0, "5", "")]),
            (0, C("a:0"), frozenset({0, 1, 2})),
        ),
        (("import", [C("b:zz"), C("b:zy"), C("b:zzz")], [(1, "", "6")]), None),
        (("scan",), (0, C("b:zz"), frozenset({0, 2}))),
    ],
)
def test_lazy_reads_match_an_eager_model(pool, cells, steps):
    def key_of(i):
        return pool[i % len(pool)]

    def check(s, i, coord, indexes):
        key = key_of(i)
        want = sorted(model.get(key, {}).items())
        value = model.get(key, {}).get(coord)
        assert s.get("t", key) == want
        assert s.get("t", key, coord) == ([] if value is None else [(coord, value)])
        quoted = key.replace("'", "''")
        lines = [f"column={c}, value={v}" for c, v in want]
        lines.append(f"{1 if want else 0} row(s)")
        assert _shell(s, f"get 't', '{quoted}'") == "\n".join(lines)
        lines = [] if value is None else [f"column={coord}, value={value}"]
        lines.append(f"{len(lines)} row(s)")
        assert _shell(s, f"get 't', '{quoted}', '{coord}'") == "\n".join(lines)
        keys = {key_of(j) for j in indexes}
        rows = s.scan("t", ("~", 1, (0,), {(key,) for key in keys}))
        assert [(r.key, list(r.cells.items())) for r in rows] == _model_rows(model, keys)
        # The one coordinate's cell of each row, read as a query reads it:
        # by its place in the row's header.
        assert [r.values[r.coords.index(coord)] if coord in r.coords else "" for r in rows] == [
            model[r.key].get(coord, "") for r in rows
        ]

    model: dict[str, dict[ColumnCoord, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "kv"
        with open_store(d) as s:
            s.create_table("t", {"a", "b"})
            for (i, coord), value in cells.items():
                s.put("t", key_of(i), coord, value)
                model.setdefault(key_of(i), {})[coord] = value
        with open_store(d) as s:
            for op, probe in steps:
                kind = op[0]
                if kind == "scan":
                    assert _rows(s, "t") == _model_rows(model)
                elif kind == "put":
                    key, coord, value = key_of(op[1]), op[2], op[3]
                    s.put("t", key, coord, value)
                    model.setdefault(key, {})[coord] = value
                elif kind == "import":
                    # New keys, keys repeated in the file, and keys whose rows
                    # are still unparsed lines; flushed at once, so the bytes
                    # show how each was written.  Fields out of coordinate
                    # order, the key second; a line with no value is skipped.
                    cy, cx, empty = op[1]
                    spec = ImportSpec(columns=(cy, ROW_KEY, cx, empty))
                    source = Path(tmp) / "in.csv"
                    source.write_text(
                        "".join(f"{y},{key_of(i)},{x},\n" for i, x, y in op[2]), encoding="utf-8"
                    )
                    written = [(i, x, y) for i, x, y in op[2] if x or y]
                    assert s.import_tsv("t", source, spec).loaded == len(written)
                    for i, x, y in written:
                        row = model.setdefault(key_of(i), {})
                        for coord, value in ((cx, x), (cy, y)):
                            if value:
                                row[coord] = value
                    s.flush()
                    assert (d / "t.dat").read_bytes() == _eager_bytes(model)
                else:
                    s.flush()
                    assert (d / "t.dat").read_bytes() == _eager_bytes(model)
                if probe is not None:
                    check(s, *probe)
        assert (d / "t.dat").read_bytes() == _eager_bytes(model)
        with open_store(d) as s:
            assert _rows(s, "t") == _model_rows(model)
