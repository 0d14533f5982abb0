"""Table lifecycle, cell IO, persistence format, locking, and bulk import."""

import os
import zlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from covidstore.ingest import write_formatted_files
from covidstore.store import (
    ROW_KEY,
    CellValueError,
    ColumnCoord,
    CorruptStoreError,
    ImportSpec,
    StoreError,
    StoreLockedError,
    TableEnabledError,
    TableExistsError,
    TableNotEnabledError,
    TableNotFoundError,
    UnknownFamilyError,
    open_store,
)

from conftest import SERIES, TABLES, import_spec, raw_fixture

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
    assert lines == ["aa\ta:q\t1", "zz\ta:q\t2"]
    assert lines == sorted(lines)


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


def test_second_open_is_refused_while_open(tmp_path):
    d = tmp_path / "kv"
    with open_store(d):
        with pytest.raises(StoreLockedError, match="already open"):
            open_store(d)
    # after close the lock is gone
    with open_store(d):
        pass


def test_close_is_idempotent(tmp_path):
    s = open_store(tmp_path / "kv")
    s.close()
    s.close()
    with pytest.raises(StoreError, match="closed"):
        s.table_names()


def test_corrupt_manifest_reported_with_location(tmp_path):
    d = tmp_path / "kv"
    open_store(d).close()
    (d / "MANIFEST").write_text("only\ttwo\n", encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"corrupt manifest .*line 1"):
        open_store(d)
    assert not (d / "LOCK").exists()  # failed open must not leave the lock


def test_corrupt_data_file_reported_with_location(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
    data = d / "t.dat"
    data.write_text(data.read_text() + "broken line\n", encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"corrupt data file .*line 2"):
        open_store(d)


_SHAPE = "expected a key and coordinate/value pairs"


@pytest.mark.parametrize(
    "line, why",
    [
        pytest.param("k2", _SHAPE, id="key-only"),
        pytest.param("k2\ta:q", _SHAPE, id="even-field-count"),
        pytest.param("k2\ta:q\t1\ta:r", _SHAPE, id="dangling-coordinate"),
        pytest.param("\ta:q\t1", _SHAPE, id="empty-key"),
        pytest.param("k2\ta:q\t", _SHAPE, id="empty-value"),
        pytest.param("k2\taq\t1", "invalid column coordinate 'aq'", id="bad-coordinate"),
        pytest.param("k2\ta:q:r\t1", "invalid column coordinate", id="colon-in-qualifier"),
        pytest.param("k2\tx:q\t1", "unknown family 'x'", id="unknown-family"),
        pytest.param("k\ta:r\t2", "row key 'k' repeated", id="repeated-key"),
        pytest.param("k2\ta:q\t1\ta:q\t2", "a coordinate repeats", id="repeated-coordinate"),
        pytest.param("k2\ta\tq\t1", _SHAPE, id="one-line-per-cell-layout"),
    ],
)
def test_corrupt_data_line_reported_with_location(tmp_path, line, why):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
    data = d / "t.dat"
    data.write_text(data.read_text() + line + "\n", encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=rf"corrupt data file .*t\.dat: line 2: {why}"):
        open_store(d)
    assert not (d / "LOCK").exists()


def test_non_utf8_data_file_is_corrupt_and_named(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
        s.put("t", "k", C("a:q"), "1")
    (d / "t.dat").write_bytes(b"k\ta:q\t\xff\n")
    with pytest.raises(CorruptStoreError, match=r"corrupt data file .*t\.dat: 'utf-8' codec"):
        open_store(d)
    assert not (d / "LOCK").exists()


def test_non_utf8_manifest_is_corrupt_and_named(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
    (d / "MANIFEST").write_bytes(b"t\ta\t1\tt\xff.dat\n")
    with pytest.raises(CorruptStoreError, match=r"corrupt manifest .*MANIFEST: 'utf-8' codec"):
        open_store(d)
    assert not (d / "LOCK").exists()


def test_missing_data_file_is_empty_table(tmp_path):
    d = tmp_path / "kv"
    with open_store(d) as s:
        s.create_table("t", {"a"})
    os.unlink(d / "t.dat")
    with open_store(d) as s:
        assert s.scan("t") == []


# ------------------------------------------------------------ bulk import

SPEC3 = ImportSpec(
    columns=(ROW_KEY, C("a:lt"), C("a:d122")),
    separator=",",
    skip_bad_lines=True,
    skip_empty_columns=True,
)


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


def test_import_strict_mode_aborts_at_first_bad_line(store, tmp_path):
    spec = ImportSpec(
        columns=(ROW_KEY, C("a:lt"), C("a:d122")),
        separator=",",
        skip_bad_lines=False,
        skip_empty_columns=True,
    )
    path = tmp_path / "in.csv"
    path.write_text("good,1,2\nbad\n", encoding="utf-8")
    store.create_table("t", {"a"})
    with pytest.raises(StoreError, match=r"line 2: expected 3 fields, found 1"):
        store.import_tsv("t", path, spec)
    # lines before the failure stay applied; the import is not transactional
    assert store.get("t", "good", C("a:lt")) == [(C("a:lt"), "1")]


def test_import_strict_empty_cell_is_an_error(store, tmp_path):
    spec = ImportSpec(columns=(ROW_KEY, C("a:lt")), separator=",")
    path = tmp_path / "in.csv"
    path.write_text("k,\n", encoding="utf-8")
    store.create_table("t", {"a"})
    with pytest.raises(StoreError, match="empty value in column a:lt"):
        store.import_tsv("t", path, spec)


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
    spec = ImportSpec(
        columns=(ROW_KEY, C("a:d930"), C("a:d1001"), C("a:d1002")), separator=","
    )
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
    spec = ImportSpec(columns=(ROW_KEY, C("zz:x")), separator=",")
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
    "columns, skip_empty, text, errors, rows",
    [
        pytest.param(
            # CRLF ends a line as LF does, so no value ever holds the CR.
            _COLS3, True, "k1,1,2\r\nk2,,4\r\n", [],
            {"k1": {"a:d122": "2", "a:lt": "1"}, "k2": {"a:d122": "4"}},
            id="crlf",
        ),
        pytest.param(
            _COLS3, True, "k1,1\t5,2\nk2,3,4\nk\t3,5,6\nk4,\t,\n",
            [(1, _NEWLINE), (3, "row key must not contain tab or newline characters"),
             (4, _NEWLINE)],
            {"k2": {"a:d122": "4", "a:lt": "3"}},
            id="tab-in-value-with-comma-separator",
        ),
        pytest.param(
            _COLS3, False, "k1,1,\nk2,,4\nk3,5,6\nk4,,\r\n",
            [(1, "empty value in column a:d122"), (2, "empty value in column a:lt"),
             (4, "empty value in column a:lt")],
            {"k3": {"a:d122": "6", "a:lt": "5"}},
            id="empty-field-not-skipped",
        ),
        pytest.param(
            _COLS3, True, ",1,2\nk,3,4\n,,\n\t,5,6\n",
            [(1, "empty row key"), (3, "empty row key"),
             (4, "row key must not contain tab or newline characters")],
            {"k": {"a:d122": "4", "a:lt": "3"}},
            id="empty-key",
        ),
        pytest.param(
            (C("a:lt"), ROW_KEY), True, "1,k1\n,k2\n3\t,k3\n4,k4\n",
            [(2, "no values to write"), (3, _NEWLINE)],
            {"k1": {"a:lt": "1"}, "k4": {"a:lt": "4"}},
            id="one-value-column",
        ),
    ],
)
def test_import_errors_match_with_and_without_skipping(
    tmp_path, columns, skip_empty, text, errors, rows
):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    for skip in (True, False):
        spec = ImportSpec(
            columns, separator=",", skip_bad_lines=skip, skip_empty_columns=skip_empty
        )
        with open_store(tmp_path / f"kv-{skip}") as s:
            s.create_table("t", {"a"})
            if skip or not errors:
                report = s.import_tsv("t", path, spec)
                assert report == (len(text.splitlines()) - len(errors), errors)
                assert {r.key: {str(c): v for c, v in r.cells.items()} for r in s.scan("t")} == rows
            else:
                line_no, message = errors[0]
                with pytest.raises(StoreError) as exc:
                    s.import_tsv("t", path, spec)
                assert str(exc.value) == f"{path}: line {line_no}: {message}"


def test_load_writes_the_bytes_that_put_per_cell_writes(tmp_path):
    spec = import_spec()
    data = tmp_path / "data"
    data.mkdir()
    with open_store(tmp_path / "loaded") as loaded, open_store(tmp_path / "put") as put:
        for series in SERIES:
            table = TABLES[series]
            _, sparse, _ = write_formatted_files(raw_fixture(series), data)
            loaded.create_table(table, {"a"})
            assert loaded.import_tsv(table, sparse, spec).skipped == 0
            # A new row stays the line flush writes: no row was parsed.
            assert loaded._tables[table].rows == {}
            put.create_table(table, {"a"})
            for line in sparse.read_text(encoding="utf-8").splitlines():
                fields = line.split(",")
                key = fields[spec.key_index]
                for coord, value in zip(spec.columns, fields):
                    if coord != ROW_KEY and value:
                        put.put(table, key, coord, value)
    for name in [*(f"{TABLES[series]}.dat" for series in SERIES), "MANIFEST"]:
        assert (tmp_path / "loaded" / name).read_bytes() == (tmp_path / "put" / name).read_bytes()


def test_import_spec_validation():
    with pytest.raises(ValueError, match="exactly one"):
        ImportSpec(columns=(C("a:x"),))
    with pytest.raises(ValueError, match="exactly one"):
        ImportSpec(columns=(ROW_KEY, ROW_KEY))
    with pytest.raises(ValueError, match="one character"):
        ImportSpec(columns=(ROW_KEY, C("a:x")), separator=",,")
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
_texts = st.text(
    st.one_of(
        _exotic, st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",))
    ),
    min_size=1,
    max_size=12,
)
_coord_quals = st.text(
    st.sampled_from(["a", "z", "0", "~", "\x85", "\u2028", "\x0c"]), min_size=1, max_size=6
)


@settings(max_examples=60)
@given(
    cells=st.dictionaries(
        st.tuples(_texts, st.sampled_from("ab"), _coord_quals), _texts, max_size=30
    )
)
def test_row_per_line_round_trip(cells):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "kv"
        with open_store(d) as s:
            s.create_table("t", {"a", "b"})
            for (key, family, qual), value in cells.items():
                s.put("t", key, ColumnCoord(family, qual), value)
            s.flush()
            before = [(r.key, list(r.cells.items())) for r in s.scan("t")]
        written = (d / "t.dat").read_bytes()
        with open_store(d) as s:
            assert [(r.key, list(r.cells.items())) for r in s.scan("t")] == before
            for (key, family, qual), value in list(cells.items())[:1]:
                s.put("t", key, ColumnCoord(family, qual), value)  # same cell: a rewrite
            s.flush()
        assert (d / "t.dat").read_bytes() == written


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


def test_older_four_field_manifest_opens_through_the_strict_parser(tmp_path):
    d = tmp_path / "kv"
    _two_tables(d)
    with open_store(d) as s:
        before = {t: _rows(s, t) for t in ("t", "u")}
    manifest = d / "MANIFEST"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("".join("\t".join(l.split("\t")[:4]) + "\n" for l in lines))
    with open_store(d) as s:
        assert {t: _rows(s, t) for t in ("t", "u")} == before
        s.put("t", "k4", C("a:q"), "K4")
    # Flush gives the rewritten table a checksum; the other keeps four fields.
    fields = [l.split("\t") for l in manifest.read_text(encoding="utf-8").splitlines()]
    assert [len(f) for f in fields] == [6, 4]
    with open_store(d) as s:
        assert _rows(s, "t") == before["t"] + [("k4", [(C("a:q"), "K4")])]


def test_replaced_data_file_with_stale_checksum_opens_with_new_rows(tmp_path):
    # A kill between the data file's replace and the MANIFEST rewrite.
    d = tmp_path / "kv"
    _two_tables(d)
    (d / "t.dat").write_text("k9\ta:q\tnine\ta:z\tzed\n", encoding="utf-8")
    with open_store(d) as s:
        assert _rows(s, "t") == [("k9", [(C("a:q"), "nine"), (C("a:z"), "zed")])]
        assert s.get("t", "k1") == []


def test_bad_checksum_field_is_a_corrupt_manifest(tmp_path):
    d = tmp_path / "kv"
    _two_tables(d)
    manifest = d / "MANIFEST"
    manifest.write_text("t\ta\t1\tt.dat\t12\tabc\n", encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"corrupt manifest .*line 1: bad table entry"):
        open_store(d)
    assert not (d / "LOCK").exists()


def test_writing_one_table_leaves_the_other_data_file_alone(tmp_path):
    d = tmp_path / "kv"
    _two_tables(d)
    other = d / "u.dat"
    before = other.read_bytes(), other.stat().st_mtime_ns
    source = tmp_path / "in.tsv"
    source.write_text("k5\tfive\n", encoding="utf-8")
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
    data = (d / "t.dat").read_bytes().replace(b"k2\ta:q\tK2", b"k2\taq\tK2")
    (d / "t.dat").write_bytes(data)
    manifest = d / "MANIFEST"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[0] = "\t".join(lines[0].split("\t")[:4] + [str(len(data)), str(zlib.crc32(data))])
    manifest.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    with open_store(d) as s:
        kept = s.scan("t", keep=lambda key: key != "k2")
        assert [(r.key, dict(r.cells)) for r in kept] == [
            ("k1", {C("a:q"): "K1"}),
            ("k3", {C("a:q"): "K3"}),
        ]
        assert s.get("t", "k3") == [(C("a:q"), "K3")]
        with pytest.raises(CorruptStoreError, match=r"t\.dat: row 'k2': invalid column coordinate"):
            s.scan("t")


def test_a_key_bound_scan_calls_keep_on_candidate_keys_only(store):
    store.create_table("t", {"a"})
    for key in ("~Aland", "Num~Land", "a~b~c", "solo", "x~Land", "x~Lan"):
        store.put("t", key, C("a:q"), "v")
    seen = []

    def keep(key):
        seen.append(key)
        return key != "x~Land"

    rows = store.scan("t", keep=keep, key_parts=("~", 2, {1: {"Land", "b~c"}}))
    assert [r.key for r in rows] == ["Num~Land", "a~b~c"]
    assert seen == ["Num~Land", "a~b~c", "x~Land"]
    # Two bound positions, and a key of one part, which has no second part.
    seen.clear()
    rows = store.scan("t", keep=keep, key_parts=("~", 2, {0: {"x", "solo"}, 1: {"Land"}}))
    assert seen == ["x~Land"] and rows == []
    # A row put after the index was built is found by the next bound scan.
    store.put("t", "y~Land", C("a:q"), "v")
    rows = store.scan("t", key_parts=("~", 2, {1: {"Land"}}))
    assert [r.key for r in rows] == ["Num~Land", "x~Land", "y~Land"]


@settings(max_examples=80, deadline=None)
@given(
    keys=st.sets(st.text("ab~", min_size=1, max_size=5), max_size=40),
    count=st.integers(1, 3),
    allowed=st.dictionaries(
        st.integers(0, 2), st.frozensets(st.text("ab~", max_size=3), max_size=3), max_size=3
    ),
    added=st.lists(st.text("ab~", min_size=1, max_size=5), max_size=6),
)
def test_key_part_scans_match_a_brute_force_filter(keys, count, allowed, added):
    allowed = {p: texts for p, texts in allowed.items() if p < count}

    def expected(every):
        out = []
        for key in sorted(every):
            parts = key.split("~", count - 1)
            if all(p < len(parts) and parts[p] in texts for p, texts in allowed.items()):
                out.append(key)
        return out

    def check(s, every):
        seen = []

        def keep(key):
            seen.append(key)
            return True

        rows = s.scan("t", keep=keep, key_parts=("~", count, allowed))
        assert [r.key for r in rows] == seen == expected(every)

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
            source = Path(tmp) / "in.tsv"
            source.write_text("".join(f"{key}\tw\n" for key in added[half:]), encoding="utf-8")
            s.import_tsv("t", source, ImportSpec((ROW_KEY, C("a:q"))))
            every = keys | set(added)
            check(s, every)
        with open_store(d) as s:
            check(s, every)


# ------------------------------------------- lazy reads against an eager model

_FAMILY_COORDS = st.builds(ColumnCoord, st.sampled_from("ab"), _coord_quals)
# Fields out of coordinate order, the key in the middle; a line whose fields
# are both empty is skipped.
_IMPORT_SPEC = ImportSpec(
    columns=(C("b:y"), ROW_KEY, C("a:x")), skip_bad_lines=True, skip_empty_columns=True
)
_maybe_texts = st.one_of(st.just(""), _texts)
_index = st.integers(0, 5)
_op = st.one_of(
    st.tuples(st.just("get"), _index),
    st.tuples(st.just("cell"), _index, _FAMILY_COORDS),
    st.tuples(st.just("keep"), st.frozensets(_index)),
    st.tuples(st.just("scan")),
    st.tuples(st.just("put"), _index, _FAMILY_COORDS, _texts),
    st.tuples(
        st.just("import"),
        st.lists(st.tuples(_index, _maybe_texts, _maybe_texts), min_size=1, max_size=6),
    ),
    st.tuples(st.just("flush")),
)


def _model_rows(model, keys=None):
    return [
        (key, sorted(model[key].items()))
        for key in sorted(model)
        if keys is None or key in keys
    ]


def _eager_bytes(model) -> bytes:
    return "".join(
        "\t".join([key, *(f"{c}\t{v}" for c, v in cells)]) + "\n"
        for key, cells in _model_rows(model)
    ).encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(
    pool=st.lists(_texts, min_size=1, max_size=6, unique=True),
    cells=st.dictionaries(st.tuples(_index, _FAMILY_COORDS), _texts, max_size=30),
    ops=st.lists(_op, max_size=20),
)
def test_lazy_reads_match_an_eager_model(pool, cells, ops):
    def key_of(i):
        return pool[i % len(pool)]

    model: dict[str, dict[ColumnCoord, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "kv"
        with open_store(d) as s:
            s.create_table("t", {"a", "b"})
            for (i, coord), value in cells.items():
                s.put("t", key_of(i), coord, value)
                model.setdefault(key_of(i), {})[coord] = value
        with open_store(d) as s:
            for op in ops:
                kind = op[0]
                if kind == "get":
                    key = key_of(op[1])
                    assert s.get("t", key) == sorted(model.get(key, {}).items())
                elif kind == "cell":
                    key, coord = key_of(op[1]), op[2]
                    value = model.get(key, {}).get(coord)
                    assert s.get("t", key, coord) == ([] if value is None else [(coord, value)])
                elif kind == "keep":
                    keys = {key_of(i) for i in op[1]}
                    rows = s.scan("t", keep=keys.__contains__)
                    assert [(r.key, list(r.cells.items())) for r in rows] == _model_rows(model, keys)
                elif kind == "scan":
                    assert _rows(s, "t") == _model_rows(model)
                elif kind == "put":
                    key, coord, value = key_of(op[1]), op[2], op[3]
                    s.put("t", key, coord, value)
                    model.setdefault(key, {})[coord] = value
                elif kind == "import":
                    # New keys, keys repeated in the file, and keys whose rows
                    # are still unparsed lines; flushed at once, so the bytes
                    # show how each was written.
                    source = Path(tmp) / "in.tsv"
                    source.write_text(
                        "".join(f"{y}\t{key_of(i)}\t{x}\n" for i, x, y in op[1]), encoding="utf-8"
                    )
                    written = [(i, x, y) for i, x, y in op[1] if x or y]
                    assert s.import_tsv("t", source, _IMPORT_SPEC).loaded == len(written)
                    for i, x, y in written:
                        row = model.setdefault(key_of(i), {})
                        for coord, value in ((C("a:x"), x), (C("b:y"), y)):
                            if value:
                                row[coord] = value
                    s.flush()
                    assert (d / "t.dat").read_bytes() == _eager_bytes(model)
                else:
                    s.flush()
                    assert (d / "t.dat").read_bytes() == _eager_bytes(model)
        assert (d / "t.dat").read_bytes() == _eager_bytes(model)
        with open_store(d) as s:
            assert _rows(s, "t") == _model_rows(model)
