"""Catalog lifecycle and SELECT execution semantics."""

import random
import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from covidstore.shell import execute_command, parse_command
from covidstore.sql.ddl import CreateTable, DescribeTable, DropTable, parse_ddl
from covidstore.sql.engine import (
    Catalog,
    ResultSet,
    execute_query,
    execute_statement,
    parse_statement,
    render_result_set,
)
from covidstore.sql.errors import CatalogError, SqlError, TypeDecodeError
from covidstore.sql.query import SelectQuery, parse_query
from covidstore.dates import generate_schema, series_columns
from covidstore.ingest import write_formatted_files
from covidstore.store import ROW_KEY, ColumnCoord, ImportSpec, Store, StoreError, open_store

import query_oracle
from conftest import TABLES, workload_text

CASES_DDL = """
CREATE TABLE cases (
key struct<P:string,C:string>,
Lat float,
01_22_2020 int,
01_23_2020 int
)
ROW FORMAT DELIMITED
COLLECTION ITEMS TERMINATED BY '~'
STORED BY 'handler.Class'
WITH SERDEPROPERTIES (
"hbase.table.name" = "cases_backing",
"hbase.columns.mapping" = ":key,a:lt,a:d122,a:d123")
"""

EXTRA_DDL = """
CREATE TABLE extra (
key struct<P:string,C:string>,
01_22_2020 int
)
ROW FORMAT DELIMITED
COLLECTION ITEMS TERMINATED BY '~'
STORED BY 'handler.Class'
WITH SERDEPROPERTIES (
"hbase.table.name" = "extra_backing",
"hbase.columns.mapping" = ":key,b:d122")
"""


@pytest.fixture
def store(tmp_path):
    with open_store(tmp_path / "store") as s:
        yield s


@pytest.fixture
def catalog(store):
    return Catalog(store)


def put_cells(store, table, key, cells):
    for coord, value in cells.items():
        store.put(table, key, ColumnCoord.parse(coord), value)


def run(sql, catalog, store):
    return execute_query(parse_query(sql), catalog, store)


# ------------------------------------------------------------------ catalog


def test_create_registers_and_creates_backing(store, catalog):
    catalog.create_mapped_table(parse_ddl(CASES_DDL))
    assert store.has_table("cases_backing")
    assert store.descriptor("cases_backing").families == {"a"}
    assert catalog.has("CASES")
    assert not catalog.has("cases_backing")


def test_create_duplicate_rejected(store, catalog):
    catalog.create_mapped_table(parse_ddl(CASES_DDL))
    with pytest.raises(CatalogError, match="table 'cases' already exists in catalog"):
        catalog.create_mapped_table(parse_ddl(CASES_DDL))


def test_catalog_survives_reopen(tmp_path):
    directory = tmp_path / "store"
    with open_store(directory) as store:
        catalog = Catalog(store)
        catalog.create_mapped_table(parse_ddl(CASES_DDL))
        catalog.create_mapped_table(parse_ddl(EXTRA_DDL))
        put_cells(store, "cases_backing", "~Aland", {"a:d122": "5"})
    # definitions are stored verbatim, one statement per entry
    text = (directory / "CATALOG").read_text(encoding="utf-8")
    assert CASES_DDL.strip() + ";" in text
    assert EXTRA_DDL.strip() + ";" in text
    with open_store(directory) as store:
        reloaded = Catalog(store)
        assert reloaded.has("cases") and reloaded.has("extra")
        rs = run("SELECT 01_22_2020 FROM cases", reloaded, store)
        assert rs.rows == [(5,)]


def test_attach_existing_backing_table(store, catalog):
    store.create_table("cases_backing", {"a"})
    put_cells(store, "cases_backing", "~Aland", {"a:d122": "5"})
    catalog.create_mapped_table(parse_ddl(CASES_DDL))
    rs = run("SELECT 01_22_2020 FROM cases", catalog, store)
    assert rs.rows == [(5,)]


def test_attach_disabled_backing_rejected(store, catalog):
    store.create_table("cases_backing", {"a"})
    store.disable_table("cases_backing")
    with pytest.raises(
        CatalogError, match="backing table 'cases_backing' exists but is disabled"
    ):
        catalog.create_mapped_table(parse_ddl(CASES_DDL))


def test_attach_backing_missing_family_rejected(store, catalog):
    store.create_table("cases_backing", {"b"})
    with pytest.raises(CatalogError) as err:
        catalog.create_mapped_table(parse_ddl(CASES_DDL))
    assert str(err.value) == (
        "backing table 'cases_backing' lacks column families ['a'] used by the mapping"
    )


def test_get_unknown_table(catalog):
    with pytest.raises(CatalogError, match="table 'nope' not found in catalog"):
        catalog.get("nope")


def test_drop_removes_definition_and_backing(store, catalog):
    catalog.create_mapped_table(parse_ddl(CASES_DDL))
    assert catalog.drop_mapped_table("cases") is True
    assert not store.has_table("cases_backing")
    assert not catalog.has("cases")
    # unknown afterwards: a warning-level no, not an exception
    assert catalog.drop_mapped_table("cases") is False
    assert (store.directory / "CATALOG").read_text(encoding="utf-8") == ""


def test_drop_keeps_a_backing_table_another_definition_maps(store, catalog):
    for name in ("m1", "m2"):
        catalog.create_mapped_table(parse_ddl(
            f"CREATE TABLE {name} (key struct<P:string,C:string>, x int) "
            "ROW FORMAT DELIMITED COLLECTION ITEMS TERMINATED BY '~' STORED BY 'h' "
            'WITH SERDEPROPERTIES ("hbase.table.name" = "backing", '
            '"hbase.columns.mapping" = ":key,a:x")'
        ))
    store.put("backing", "P~C", ColumnCoord("a", "x"), "5")
    assert catalog.drop_mapped_table("m1") is True
    assert not catalog.has("m1")
    assert run("SELECT x FROM m2", catalog, store).rows == [(5,)]
    # The last definition that maps it takes the backing table with it.
    assert catalog.drop_mapped_table("m2") is True
    assert not store.has_table("backing")


def test_failed_backing_drop_keeps_definition(store, catalog, monkeypatch):
    catalog.create_mapped_table(parse_ddl(CASES_DDL))

    def refuse(name):
        raise StoreError("drop refused")

    monkeypatch.setattr(store, "drop_table", refuse)
    with pytest.raises(StoreError, match="drop refused"):
        catalog.drop_mapped_table("cases")
    assert catalog.has("cases")
    assert "CREATE TABLE cases" in (store.directory / "CATALOG").read_text(encoding="utf-8")


def test_describe_lists_key_struct_then_columns(store, catalog):
    catalog.create_mapped_table(parse_ddl(CASES_DDL))
    assert catalog.describe("cases") == (
        "key\tstruct<p:string,c:string>\n"
        "lat\tfloat\n"
        "01_22_2020\tint\n"
        "01_23_2020\tint"
    )


def test_corrupt_catalog_file(tmp_path):
    directory = tmp_path / "store"
    with open_store(directory):
        pass
    (directory / "CATALOG").write_text("CREATE TABLE (", encoding="utf-8")
    with open_store(directory) as store:
        with pytest.raises(CatalogError, match="corrupt catalog"):
            Catalog(store)


def test_non_utf8_catalog_is_corrupt_and_named(tmp_path):
    directory = tmp_path / "store"
    with open_store(directory):
        pass
    (directory / "CATALOG").write_bytes(b"CREATE TABLE \xff")
    with open_store(directory) as store:
        with pytest.raises(CatalogError, match=r"corrupt catalog .*CATALOG: 'utf-8' codec"):
            Catalog(store)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("01_22_2020 int", "01_22_2020", "expected a name, found ')'"),
        ("01_22_2020 int", "01_22_2020 int 7", "expected ',' or ')', found '7'"),
        (":key,b:d122", ":key,b:", "invalid column coordinate 'b:'"),
        (":key,b:d122", ":key,b\\td122", "invalid column coordinate 'b\\td122'"),
    ],
)
def test_catalog_refuses_a_bad_second_entry_and_names_the_file(tmp_path, old, new, message):
    directory = tmp_path / "store"
    with open_store(directory):
        pass
    text = f"{CASES_DDL.strip()};\n{EXTRA_DDL.strip().replace(old, new)};\n"
    (directory / "CATALOG").write_text(text, encoding="utf-8")
    with open_store(directory) as store:
        with pytest.raises(CatalogError) as err:
            Catalog(store)
    assert str(err.value).startswith(f"corrupt catalog {directory / 'CATALOG'}: {message}")


# ---------------------------------------------------------------- execution


def _fill(store):
    catalog = Catalog(store)
    catalog.create_mapped_table(parse_ddl(CASES_DDL))
    catalog.create_mapped_table(parse_ddl(EXTRA_DDL))
    put_cells(store, "cases_backing", "~Aland", {"a:lt": "60.1", "a:d122": "5"})
    put_cells(store, "cases_backing", "Num~Land", {"a:lt": "60.0", "a:d122": "60"})
    put_cells(store, "cases_backing", "a~b~c", {"a:d122": "1"})
    put_cells(store, "cases_backing", "solo", {"a:lt": "1.5"})
    put_cells(store, "extra_backing", "~Aland", {"b:d122": "7"})
    put_cells(store, "extra_backing", "Num~Land", {"b:d122": "9"})
    put_cells(store, "extra_backing", "alone", {"b:d122": "3"})
    return catalog, store


@pytest.fixture
def loaded(store):
    return _fill(store)


def test_star_headers_and_null_for_absent_cells(loaded):
    rs = run("SELECT * FROM cases", *loaded)
    assert rs.columns == ["key", "Lat", "01_22_2020", "01_23_2020"]
    assert rs.rows == [
        ("Num~Land", 60.0, 60, None),
        ("a~b~c", None, 1, None),
        ("solo", 1.5, None, None),
        ("~Aland", 60.1, 5, None),
    ]


def test_key_splits_on_first_terminator_only(loaded):
    rs = run("SELECT key.P, key.C FROM cases", *loaded)
    assert rs.columns == ["p", "c"]
    assert dict(rs.rows) == {"Num": "Land", "a": "b~c", "solo": None, "": "Aland"}


def test_projection_headers_use_declared_spelling(loaded):
    rs = run("SELECT key.P, Lat, 01_22_2020 FROM cases", *loaded)
    assert rs.columns == ["p", "Lat", "01_22_2020"]


def test_predicates_never_match_null(loaded):
    assert run("SELECT key.C FROM cases WHERE 01_23_2020 = 0", *loaded).rows == []
    # "solo" has no terminator, so its second key field is NULL
    rs = run("SELECT * FROM cases WHERE key.C = 'b~c'", *loaded)
    assert [r[0] for r in rs.rows] == ["a~b~c"]


def test_empty_string_key_field_is_a_value_not_null(loaded):
    rs = run("SELECT key.C FROM cases WHERE key.P = ''", *loaded)
    assert rs.rows == [("Aland",)]


def test_int_literal_matches_float_cell(loaded):
    rs = run("SELECT key.P FROM cases WHERE Lat = 60", *loaded)
    assert rs.rows == [("Num",)]


def test_number_never_equals_its_decimal_text(loaded):
    assert run("SELECT key.P FROM cases WHERE 01_22_2020 = '60'", *loaded).rows == []


def test_in_list(loaded):
    rs = run("SELECT key.C FROM cases WHERE key.C IN ('Land', 'b~c')", *loaded)
    assert sorted(rs.rows) == [("Land",), ("b~c",)]


def test_conjunctive_where(loaded):
    rs = run("SELECT key.P FROM cases WHERE Lat = 60.1 AND 01_22_2020 = 5", *loaded)
    assert rs.rows == [("",)]


def test_join_on_key_field(loaded):
    rs = run(
        "SELECT t.key.C, t.01_22_2020, u.01_22_2020 "
        "FROM cases t JOIN extra u ON t.key.C = u.key.C",
        *loaded,
    )
    assert rs.columns == ["c", "01_22_2020", "01_22_2020"]
    # output order follows the scan order of the first table
    assert rs.rows == [("Land", 60, 9), ("Aland", 5, 7)]


def test_join_projection_may_interleave_the_sources(loaded):
    rs = run(
        "SELECT u.01_22_2020, t.key.P, u.key.C, t.01_22_2020 "
        "FROM cases t JOIN extra u ON t.key.C = u.key.C",
        *loaded,
    )
    assert rs.rows == [(9, "Num", "Land", 60), (7, "", "Aland", 5)]
    rs = run("SELECT u.key.P FROM cases t JOIN extra u ON t.key.C = u.key.C", *loaded)
    assert rs.rows == [("Num",), ("",)]


def test_join_rejects_null_on_either_side(loaded):
    # "solo" and "alone" both decode key.C as NULL; NULL joins nothing,
    # not even another NULL
    rs = run("SELECT t.key.P FROM cases t JOIN extra u ON t.key.C = u.key.C", *loaded)
    assert ("solo",) not in rs.rows
    assert all(row != ("alone",) for row in rs.rows)


def test_join_star_concatenates_both_sources(loaded):
    rs = run("SELECT * FROM cases t JOIN extra u ON t.key.C = u.key.C", *loaded)
    assert rs.columns == ["key", "Lat", "01_22_2020", "01_23_2020", "key", "01_22_2020"]
    assert rs.rows[0] == ("Num~Land", 60.0, 60, None, "Num~Land", 9)


def test_two_sources_need_distinct_names(loaded):
    # Both sources would bind to the first one and yield a cross product.
    for text, name in (
        ("SELECT * FROM cases JOIN cases ON cases.key.C = cases.key.C", "cases"),
        ("SELECT t.key.P FROM cases t JOIN extra T ON t.key.C = T.key.C", "T"),
    ):
        with pytest.raises(SqlError) as err:
            run(text, *loaded)
        assert str(err.value) == (
            f"both sources are named {name!r}; give them distinct aliases"
        )
    rs = run("SELECT a.key.P, b.Lat FROM cases a JOIN cases b ON a.key.C = b.key.C", *loaded)
    assert rs.rows == [("Num", 60.0), ("a", None), ("", 60.1)]


def test_nan_never_joins_not_even_itself(loaded):
    catalog, store = loaded
    put_cells(store, "cases_backing", "Nan~Land", {"a:lt": "nan"})
    rs = run("SELECT a.key.P, b.key.P FROM cases a JOIN cases b ON a.Lat = b.Lat", *loaded)
    # "a~b~c" has no Lat, so it is NULL and joins nothing either
    assert rs.rows == [("Num", "Num"), ("solo", "solo"), ("", "")]


def test_same_source_conditions_filter_a_cross_product(loaded):
    rs = run(
        "SELECT t.key.P, u.key.P FROM cases t JOIN extra u "
        "ON t.Lat = t.Lat AND u.01_22_2020 = u.01_22_2020",
        *loaded,
    )
    # every cases row with a Lat, each paired with every extra row in key order
    assert rs.rows == [
        (first, second)
        for first in ("Num", "solo", "")
        for second in ("Num", "alone", "")
    ]


def test_join_condition_sides_may_come_in_either_order(loaded):
    expected = [("Num", 9), ("", 7)]
    for on in (
        "u.key.C = t.key.C AND u.key.P = t.key.P",
        "t.key.C = u.key.C AND t.key.P = u.key.P",
        "u.key.C = t.key.C AND t.key.P = u.key.P",
    ):
        rs = run(f"SELECT t.key.P, u.01_22_2020 FROM cases t JOIN extra u ON {on}", *loaded)
        assert rs.rows == expected, on


def test_join_matches_int_column_to_float_column(loaded):
    catalog, store = loaded
    put_cells(store, "cases_backing", "x~y", {"a:lt": "9.0"})
    rs = run(
        "SELECT t.key.P, t.Lat, u.01_22_2020 FROM cases t JOIN extra u "
        "ON t.Lat = u.01_22_2020",
        *loaded,
    )
    assert rs.rows == [("x", 9.0, 9)]


def test_join_never_matches_text_to_number(loaded):
    catalog, store = loaded
    # key.P is the text '7'; extra's "~Aland" row holds the number 7
    put_cells(store, "cases_backing", "7~z", {"a:d122": "1"})
    for on in ("t.key.P = u.01_22_2020", "u.01_22_2020 = t.key.P"):
        rs = run(f"SELECT t.key.P FROM cases t JOIN extra u ON {on}", *loaded)
        assert rs.rows == [], on


def test_join_never_matches_a_number_to_key_field_text(loaded):
    catalog, store = loaded
    put_cells(store, "cases_backing", "x~y", {"a:d122": "7"})
    put_cells(store, "extra_backing", "7~z", {"b:d122": "1"})
    for on in ("t.01_22_2020 = u.key.P", "u.key.P = t.01_22_2020"):
        rs = run(f"SELECT t.key.P, u.key.P FROM cases t JOIN extra u ON {on}", *loaded)
        assert rs.rows == [], on


def test_join_whose_first_source_keeps_no_rows(loaded):
    for on in ("t.key.C = u.key.C", "t.Lat = u.01_22_2020"):
        rs = run(
            f"SELECT t.key.P, u.key.P FROM cases t JOIN extra u ON {on} "
            "WHERE t.key.C = 'Nowhere'",
            *loaded,
        )
        assert rs.rows == [], on


def test_join_on_a_key_field_and_a_column_together(loaded):
    catalog, store = loaded
    put_cells(store, "cases_backing", "Two~Land", {"a:d122": "9"})
    put_cells(store, "extra_backing", "Other~Land", {"b:d122": "60"})
    rs = run(
        "SELECT t.key.P, u.key.P, u.01_22_2020 FROM cases t JOIN extra u "
        "ON t.key.C = u.key.C AND t.01_22_2020 = u.01_22_2020",
        *loaded,
    )
    assert rs.rows == [("Num", "Other", 60), ("Two", "Num", 9)]


def test_second_source_bad_cell_raises_only_in_a_row_that_can_join(loaded):
    # The join's key-field conditions run inside the second scan, so a row
    # whose key fields match no first-source row is never decoded; a NULL
    # key field matches nothing, not even the NULL of "solo".
    catalog, store = loaded
    put_cells(store, "extra_backing", "Bad~Row", {"b:d122": "abc"})
    put_cells(store, "extra_backing", "Lone", {"b:d122": "abc"})
    text = "SELECT t.key.P, u.01_22_2020 FROM cases t JOIN extra u ON t.key.C = u.key.C"
    assert run(text, *loaded).rows == [("Num", 9), ("", 7)]
    put_cells(store, "cases_backing", "Good~Row", {"a:lt": "1"})
    with pytest.raises(TypeDecodeError) as err:
        run(text, *loaded)
    assert str(err.value) == "row 'Bad~Row' column 01_22_2020: cannot decode 'abc' as int"


def test_key_bound_join_parses_only_the_second_table_rows_it_can_match(tmp_path):
    directory = tmp_path / "store"
    with open_store(directory) as store:
        _fill(store)
    with open_store(directory) as store:
        rs = run(
            "SELECT t.key.P, u.01_22_2020 FROM cases t JOIN extra u "
            "ON t.key.P = u.key.P AND t.key.C = u.key.C WHERE t.key.C = 'Land'",
            Catalog(store),
            store,
        )
        assert rs.rows == [("Num", 9)]
        # Only the rows still held as their lines were never parsed.
        for table, unparsed in [("cases_backing", ["a~b~c", "solo", "~Aland"]),
                                ("extra_backing", ["alone", "~Aland"])]:
            rows = store._table(table).rows
            assert sorted(k for k, v in rows.items() if isinstance(v, str)) == unparsed


def test_a_join_on_two_key_fields_parses_only_the_tuples_it_can_match(store, catalog):
    # The first source yields the tuples (A, X) and (B, Y).  A~Y holds an
    # allowed text at each key field, but not an allowed tuple, so its bad
    # cell is never decoded.
    catalog.create_mapped_table(parse_ddl(CASES_DDL))
    catalog.create_mapped_table(parse_ddl(EXTRA_DDL))
    put_cells(store, "cases_backing", "A~X", {"a:lt": "1"})
    put_cells(store, "cases_backing", "B~Y", {"a:lt": "2"})
    put_cells(store, "extra_backing", "A~X", {"b:d122": "10"})
    put_cells(store, "extra_backing", "A~Y", {"b:d122": "abc"})
    rs = run(
        "SELECT t.key.P, u.01_22_2020 FROM cases t JOIN extra u "
        "ON t.key.P = u.key.P AND t.key.C = u.key.C WHERE t.key.C IN ('X', 'Y')",
        catalog,
        store,
    )
    assert rs.rows == [("A", 10)]


def test_key_bound_scans_pass_their_key_texts_to_the_store(loaded, monkeypatch):
    catalog, store = loaded
    bounds = []
    scan = Store.scan

    def recording(self, table, key_parts=None):
        bounds.append((table, key_parts))
        return scan(self, table, key_parts)

    monkeypatch.setattr(Store, "scan", recording)
    rs = run(
        "SELECT t.key.P, u.01_22_2020 FROM cases t JOIN extra u "
        "ON t.key.P = u.key.P AND t.key.C = u.key.C "
        "WHERE t.key.C IN ('Land', 'Aland', 2) AND t.key.P = 'Num'",
        catalog,
        store,
    )
    assert rs.rows == [("Num", 9)]
    # One bound per scan, text literals only: a key field never equals a
    # number.  Predicates on two fields bound the product of their texts,
    # and the join's key fields bound its tuples.
    assert bounds == [
        ("cases_backing", ("~", 2, (0, 1), {("Num", "Land"), ("Num", "Aland")})),
        ("extra_backing", ("~", 2, (0, 1), {("Num", "Land")})),
    ]
    bounds.clear()
    run("SELECT * FROM cases WHERE cases.01_22_2020 = 5", catalog, store)
    assert bounds == [("cases_backing", None)]


_JOIN_ON_C = "SELECT t.key.P, u.01_22_2020 FROM cases t JOIN extra u ON t.key.C = u.key.C"


def test_query_on_a_mapping_whose_backing_table_is_gone_names_both(loaded):
    catalog, store = loaded
    store.disable_table("extra_backing")
    store.drop_table("extra_backing")
    assert catalog.has("extra")
    with pytest.raises(CatalogError) as err:
        run(_JOIN_ON_C, *loaded)
    assert str(err.value) == (
        "mapped table 'extra': its backing table 'extra_backing' does not exist"
    )


def test_query_on_a_mapping_whose_backing_table_is_disabled_names_both(loaded):
    catalog, store = loaded
    store.disable_table("cases_backing")
    with pytest.raises(CatalogError) as err:
        run(_JOIN_ON_C, *loaded)
    assert str(err.value) == (
        "mapped table 'cases': its backing table 'cases_backing' is disabled"
    )


def test_unqualified_column_resolves_when_unique(loaded):
    rs = run("SELECT Lat FROM cases t JOIN extra u ON t.key.C = u.key.C", *loaded)
    assert rs.columns == ["Lat"]


def test_ambiguous_column_requires_alias(loaded):
    with pytest.raises(SqlError) as err:
        run("SELECT 01_22_2020 FROM cases t JOIN extra u ON t.key.C = u.key.C", *loaded)
    assert str(err.value) == "ambiguous column '01_22_2020'; qualify it with an alias"


def test_ambiguous_key_field_requires_alias(loaded):
    with pytest.raises(SqlError) as err:
        run("SELECT key.C FROM cases t JOIN extra u ON t.key.C = u.key.C", *loaded)
    assert str(err.value) == "ambiguous key field 'C'; qualify it with an alias"


def test_unknown_column_messages(loaded):
    with pytest.raises(SqlError, match="unknown column 'Nope'$"):
        run("SELECT Nope FROM cases", *loaded)
    with pytest.raises(SqlError, match="unknown column 'Nope' in table 'cases'"):
        run("SELECT t.Nope FROM cases t", *loaded)
    with pytest.raises(SqlError, match="unknown key field 'X' in table 'cases'"):
        run("SELECT t.key.X FROM cases t", *loaded)


def test_unknown_alias(loaded):
    with pytest.raises(SqlError, match="unknown table or alias 'x'"):
        run("SELECT x.Lat FROM cases t", *loaded)


def test_unknown_table(loaded):
    with pytest.raises(CatalogError, match="table 'ghost' not found in catalog"):
        run("SELECT * FROM ghost", *loaded)


def test_alias_and_table_names_case_insensitive(loaded):
    rs = run("SELECT T.Lat FROM CASES t WHERE t.key.p = 'Num'", *loaded)
    assert rs.rows == [(60.0,)]


def test_type_decode_error_names_row_and_column(loaded):
    catalog, store = loaded
    put_cells(store, "cases_backing", "Bad~Row", {"a:d122": "abc"})
    with pytest.raises(TypeDecodeError) as err:
        run("SELECT * FROM cases", catalog, store)
    assert str(err.value) == (
        "row 'Bad~Row' column 01_22_2020: cannot decode 'abc' as int"
    )


def test_unreferenced_bad_cell_is_never_decoded(loaded):
    # Decode on read: a bad cell raises only when the query references its
    # column and its row passes that source's key-field predicates.
    catalog, store = loaded
    put_cells(store, "cases_backing", "Bad~Row", {"a:d123": "abc"})
    assert len(run("SELECT key.P, Lat, 01_22_2020 FROM cases", *loaded).rows) == 5
    rs = run("SELECT * FROM cases WHERE key.C = 'Land'", *loaded)
    assert rs.rows == [("Num~Land", 60.0, 60, None)]
    assert run("SELECT key.P FROM cases WHERE key.C = 'Row' AND Lat = 1", *loaded).rows == []
    rs = run(
        "SELECT t.key.P, u.01_22_2020 FROM cases t JOIN extra u ON t.key.C = u.key.C",
        *loaded,
    )
    assert rs.rows == [("Num", 9), ("", 7)]


def test_referenced_bad_cell_raises_before_any_column_predicate(loaded):
    catalog, store = loaded
    put_cells(store, "cases_backing", "Bad~Row", {"a:d123": "abc"})
    message = "row 'Bad~Row' column 01_23_2020: cannot decode 'abc' as int"
    for text in (
        # referenced only by WHERE
        "SELECT key.P FROM cases WHERE 01_23_2020 = 1",
        # a column predicate that drops the row does not hide the cell
        "SELECT 01_23_2020 FROM cases WHERE Lat = 60.1",
        "SELECT 01_23_2020 FROM cases WHERE key.C = 'Row' AND Lat = 1",
        # referenced only by ON
        "SELECT t.key.P FROM cases t JOIN extra u ON t.01_23_2020 = u.01_22_2020",
    ):
        with pytest.raises(TypeDecodeError) as err:
            run(text, *loaded)
        assert str(err.value) == message, text


def test_two_bad_cells_name_the_first_column_in_declaration_order(loaded):
    # Declared Lat, 01_22_2020, 01_23_2020; stored a:d122 < a:d123 < a:lt.
    catalog, store = loaded
    put_cells(store, "cases_backing", "Bad~Row", {"a:lt": "north", "a:d123": "abc"})
    for text in ("SELECT * FROM cases", "SELECT 01_23_2020, Lat FROM cases"):
        with pytest.raises(TypeDecodeError) as err:
            run(text, catalog, store)
        assert str(err.value) == "row 'Bad~Row' column Lat: cannot decode 'north' as float"
    with pytest.raises(TypeDecodeError) as err:
        run("SELECT 01_23_2020, 01_22_2020 FROM cases", catalog, store)
    assert str(err.value) == "row 'Bad~Row' column 01_23_2020: cannot decode 'abc' as int"


_STAR_JOIN = "SELECT * FROM cases t JOIN extra u ON t.key.C = u.key.C WHERE u.key.C = 'Aland'"


def test_drop_and_create_under_one_catalog_rebinds_every_query(loaded):
    catalog, store = loaded
    assert run("SELECT * FROM cases", *loaded).columns == ["key", "Lat", "01_22_2020", "01_23_2020"]
    assert run(_STAR_JOIN, *loaded).rows == [("~Aland", 60.1, 5, None, "~Aland", 7)]
    for statement in (
        "DROP TABLE cases",
        "CREATE TABLE cases (key struct<P:string,C:string>, Deaths int, Long float) "
        "ROW FORMAT DELIMITED COLLECTION ITEMS TERMINATED BY '~' STORED BY 'h' "
        'WITH SERDEPROPERTIES ("hbase.table.name" = "cases_backing", '
        '"hbase.columns.mapping" = ":key,z:dt,z:lg")',
    ):
        execute_statement(parse_statement(statement), catalog, store)
    put_cells(store, "cases_backing", "~Aland", {"z:dt": "3", "z:lg": "2.5"})
    put_cells(store, "cases_backing", "Num~Land", {"z:lg": "-1"})
    rs = run("SELECT * FROM cases", *loaded)
    assert rs.columns == ["key", "Deaths", "Long"]
    assert rs.rows == [("Num~Land", None, -1.0), ("~Aland", 3, 2.5)]
    rs = run(_STAR_JOIN, *loaded)
    assert rs.columns == ["key", "Deaths", "Long", "key", "01_22_2020"]
    assert rs.rows == [("~Aland", 3, 2.5, "~Aland", 7)]
    with pytest.raises(SqlError, match="unknown column 'Lat'"):
        run("SELECT Lat FROM cases", *loaded)


# ------------------------------------------------------ one catalog, many runs


def select(text, catalog, store):
    return execute_statement(parse_statement(text), catalog, store).result


def test_one_catalog_sees_the_shell_change_the_store_between_runs(store_copy):
    # A catalog keeps each table's plan, never rows, headers or whether
    # the backing table is there: those are read on each run.
    text = workload_text("query_join_morocco.sql")
    table = TABLES["confirmed"]
    with open_store(store_copy) as store:
        catalog = Catalog(store)
        assert select(text, catalog, store).rows == [("Morocco", 617, 36)]
        put = f"put '{table}', '~Morocco', 'a:d331', '618'"
        assert execute_command(parse_command(put), store) == ""
        assert select(text, catalog, store).rows == [("Morocco", 618, 36)]
        for command in (f"disable '{table}'", f"drop '{table}'"):
            execute_command(parse_command(command), store)
        with pytest.raises(CatalogError) as err:
            select(text, catalog, store)
    assert str(err.value) == (
        f"mapped table '{table}': its backing table '{table}' does not exist"
    )


# ---------------------------------------------------------------- rendering


_VALUES = st.one_of(
    st.none(),
    st.integers(),
    st.text(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324]),
)


def _reference_value(value):
    # The dialect's text of one value: repr gives the shortest text that
    # reads back as the same float.
    if value is None:
        return "NULL"
    return repr(value) if isinstance(value, float) else str(value)


@given(rows=st.lists(st.lists(_VALUES, min_size=1, max_size=6), max_size=5))
def test_render_result_set_renders_each_value_as_the_reference(rows):
    width = max(map(len, rows), default=1)
    rows = [tuple(row + [None] * (width - len(row))) for row in rows]
    columns = [f"c{i}" for i in range(width)]
    expected = "\n".join(
        ["\t".join(columns)] + ["\t".join(map(_reference_value, row)) for row in rows]
    )
    assert render_result_set(ResultSet(columns, rows)) == expected


def test_render_result_set_is_tsv_without_trailing_newline():
    rs = ResultSet(
        columns=["a", "b"], rows=[("x", None), (1, 2.5), ("x~y", 31.7917), (617, 2.0)]
    )
    assert render_result_set(rs) == "a\tb\nx\tNULL\n1\t2.5\nx~y\t31.7917\n617\t2.0"


# ------------------------------------------------------------ statement API


def test_parse_statement_dispatch():
    assert isinstance(parse_statement("select * from t"), SelectQuery)
    assert isinstance(parse_statement("SELECT* FROM t"), SelectQuery)
    assert isinstance(parse_statement("DROP TABLE t"), DropTable)
    assert isinstance(parse_statement("describe t"), DescribeTable)
    assert isinstance(parse_statement(CASES_DDL), CreateTable)


def test_execute_statement_round_trip(store):
    catalog = Catalog(store)
    outcome = execute_statement(parse_statement(CASES_DDL), catalog, store)
    assert outcome.result is None and outcome.warning is None
    put_cells(store, "cases_backing", "~Aland", {"a:d122": "5"})
    outcome = execute_statement(parse_statement("SELECT * FROM cases"), catalog, store)
    assert outcome.result is not None and len(outcome.result.rows) == 1
    outcome = execute_statement(parse_statement("DESCRIBE cases"), catalog, store)
    assert outcome.text.startswith("key\tstruct<")
    outcome = execute_statement(parse_statement("DROP TABLE cases"), catalog, store)
    assert outcome.warning is None
    outcome = execute_statement(parse_statement("DROP TABLE ghost"), catalog, store)
    assert outcome.warning == "table 'ghost' does not exist, nothing dropped"


# ------------------------------------------------- bundled dataset spot checks


@pytest.fixture(scope="module")
def dataset(populated_store_dir):
    with open_store(populated_store_dir) as store:
        yield Catalog(store), store


def test_dataset_single_country_row(dataset):
    rs = run(
        "SELECT key.Province_State, key.Country_Region, 03_31_2020 "
        f"FROM {TABLES['confirmed']} WHERE key.Country_Region = 'Morocco'",
        *dataset,
    )
    assert rs.columns == ["province_state", "country_region", "03_31_2020"]
    assert rs.rows == [("", "Morocco", 617)]


def test_dataset_join_single_country(dataset):
    rs = run(
        "SELECT c.key.Country_Region, c.03_31_2020, d.03_31_2020 "
        f"FROM {TABLES['confirmed']} c JOIN {TABLES['deaths']} d "
        "ON c.key.Province_State = d.key.Province_State "
        "AND c.key.Country_Region = d.key.Country_Region "
        "WHERE c.key.Country_Region = 'Morocco'",
        *dataset,
    )
    assert rs.rows == [("Morocco", 617, 36)]


def test_dataset_coordinates_decode_as_floats(dataset):
    rs = run(
        f"SELECT Lat, Long FROM {TABLES['confirmed']} "
        "WHERE key.Country_Region = 'Morocco'",
        *dataset,
    )
    assert rs.rows == [(31.7917, -7.0926)]


def _raw_series(path: Path, days: list[date], rng: random.Random) -> None:
    """A raw JHU-style CSV: a few locations, one count column per day."""
    locations = ["Ontario,Canada,51.2,-85.3", ",Morocco,31.7917,-7.0926",
                 ',"Korea, South",35.9078,127.7669', ",Nowhere,,", "Yukon,Canada,64.3,-135.0"]
    lines = ["Province/State,Country/Region,Lat,Long," + ",".join(
        f"{d.month}/{d.day}/{d:%y}" for d in days)]
    for location in locations:
        counts, total = [], 0
        for _ in days:
            total = 0 if rng.random() < 0.2 else total + rng.randint(0, 50)
            counts.append(str(total))
        lines.append(location + "," + ",".join(counts))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_full_width_star_queries_match_the_oracle(tmp_path):
    # 366 dated columns, the width of a year-long mapping, through ingest and load.
    start = date(2020, 1, 22)
    end = start + timedelta(days=365)
    days = [start + timedelta(days=i) for i in range(366)]
    rng = random.Random(366)
    spec = ImportSpec(
        tuple(ROW_KEY if c == ROW_KEY else ColumnCoord.parse(c)
              for c in [ROW_KEY, *series_columns(start, end)])
    )
    oracle = {}
    with open_store(tmp_path / "store") as store:
        catalog = Catalog(store)
        for series, table in TABLES.items():
            raw = tmp_path / f"time_series_covid19_{series}_global.csv"
            _raw_series(raw, days, rng)
            _, sparse, result = write_formatted_files(raw)
            assert not result.errors
            # Both table properties name a distinct backing table.
            ddl = generate_schema(table, start, end).replace(
                f'" = "{table}"', f'" = "{table}_backing"'
            )
            catalog.create_mapped_table(parse_ddl(ddl))
            assert store.import_tsv(f"{table}_backing", sparse, spec).skipped == 0
            oracle[table] = query_oracle.OracleTable(raw)
        confirmed, deaths = TABLES["confirmed"], TABLES["deaths"]
        for text in (
            f"SELECT * FROM {confirmed}",
            f"SELECT * FROM {deaths} WHERE key.Country_Region = 'Morocco'",
            f"SELECT * FROM {confirmed} WHERE key.Country_Region IN ('Canada', 'Korea-South')",
            f"SELECT * FROM {confirmed} c JOIN {deaths} d "
            "ON c.key.Province_State = d.key.Province_State "
            "AND c.key.Country_Region = d.key.Country_Region "
            "WHERE c.key.Country_Region = 'Canada'",
        ):
            ast = parse_query(text)
            rs = execute_query(ast, catalog, store)
            header, rows = query_oracle.evaluate(ast, oracle)
            assert len(header) in (369, 738) and rows, text
            assert (rs.columns, rs.rows) == (header, rows), text


# ------------------------------------- index-narrowed queries, brute-forced

# Each table draws up to 1500 keys from these pools, which hold 1293
# distinct keys: up to about 900 rows, several times the fixture's 215.
_PROVINCES = ["", "1", "a"] + [f"P{i}" for i in range(40)]
# A country may hold the terminator, or read "1", which the number 1 never matches.
_COUNTRIES = ["", "1", "~", "a~b", "Land"] + [f"C{i}" for i in range(25)]
# Keys of one part: their country field reads NULL.
_SOLOS = ["solo", "P1", "Land"]
_LITERALS = st.one_of(
    st.sampled_from(["", "1", "P1", "P2", "a", "C1", "C2", "Land", "~", "a~b", "b", "solo", "zz"]),
    st.sampled_from([1, 0, 2.5]),
)
_PREDICATE = st.tuples(
    st.sampled_from("tu"), st.sampled_from("PC"), st.lists(_LITERALS, min_size=1, max_size=3)
)
_QUERY = st.tuples(
    st.sampled_from([None, ("P", "C"), ("C",), ("P",)]),  # None: no join, else its ON fields
    st.lists(_PREDICATE, max_size=3),
)


def _mapped_ddl(name: str, column: str, coord: str) -> str:
    return (
        f"CREATE TABLE {name} (key struct<P:string,C:string>, {column} int) "
        "ROW FORMAT DELIMITED COLLECTION ITEMS TERMINATED BY '~' STORED BY 'h' "
        f'WITH SERDEPROPERTIES ("hbase.table.name" = "{name}_backing", '
        f'"hbase.columns.mapping" = ":key,{coord}")'
    )


def _draw_keys(rng, n: int) -> set[str]:
    keys = set()
    for _ in range(n):
        if rng.random() < 0.05:
            keys.add(rng.choice(_SOLOS))
        else:
            keys.add(f"{rng.choice(_PROVINCES)}~{rng.choice(_COUNTRIES)}")
    return keys


def _key_fields(key: str) -> dict[str, object]:
    province, sep, country = key.partition("~")
    return {"P": province, "C": country if sep else None}


def _brute_passes(key: str, predicates) -> bool:
    fields = _key_fields(key)
    return all(
        fields[f] is not None and any(isinstance(v, str) and v == fields[f] for v in values)
        for f, values in predicates
    )


def _sql_literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


def _query_text(on, predicates) -> str:
    where = []
    for source, field, values in predicates:
        if on is None and source == "u":
            continue
        ref = f"{source}.key.{field}"
        if len(values) == 1:
            where.append(f"{ref} = {_sql_literal(values[0])}")
        else:
            where.append(f"{ref} IN ({', '.join(map(_sql_literal, values))})")
    if on is None:
        text = "SELECT t.key.P, t.key.C, t.v FROM tt t"
    else:
        conditions = " AND ".join(f"t.key.{f} = u.key.{f}" for f in on)
        text = f"SELECT t.key.P, u.key.C, t.v, u.w FROM tt t JOIN uu u ON {conditions}"
    return text + (" WHERE " + " AND ".join(where) if where else "")


def _brute_answer(model, on, predicates) -> list[tuple]:
    """The query's rows, by splitting and testing every key of the model.

    Second-table rows are matched through a dict on their ON fields, in
    key order; a NULL field matches nothing.
    """
    first = [(f, v) for s, f, v in predicates if s == "t"]
    second = [(f, v) for s, f, v in predicates if s == "u"]
    matches: dict[tuple, list[tuple]] = {}
    for ku in sorted(model["uu"]) if on is not None else ():
        fu = _key_fields(ku)
        if _brute_passes(ku, second):
            matches.setdefault(tuple(fu[f] for f in on), []).append((fu["C"], model["uu"][ku]))
    out = []
    for kt in sorted(model["tt"]):
        if not _brute_passes(kt, first):
            continue
        ft = _key_fields(kt)
        if on is None:
            out.append((ft["P"], ft["C"], model["tt"][kt]))
        elif all(ft[f] is not None for f in on):
            for country, w in matches.get(tuple(ft[f] for f in on), ()):
                out.append((ft["P"], country, model["tt"][kt], w))
    return out


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 1500),
    queries=st.lists(_QUERY, min_size=1, max_size=4),
)
# Predicates on both key fields, which keys of one part pass only halfway;
# and a join whose tuples one field's texts filter and the other's multiply.
@example(7, 1500, [
    (None, [("t", "P", ["P1", "solo"]), ("t", "C", ["Land"])]),
    (("P",), [("u", "P", ["P1", "P2", "a"]), ("u", "C", ["Land", 1]), ("u", "C", ["C1", "Land"])]),
])
def test_index_narrowed_queries_match_a_brute_force_filter(seed, size, queries):
    rng = random.Random(seed)
    specs = {
        "tt": ImportSpec((ROW_KEY, ColumnCoord("a", "v"))),
        "uu": ImportSpec((ROW_KEY, ColumnCoord("b", "w"))),
    }
    model: dict[str, dict[str, int]] = {"tt": {}, "uu": {}}

    def load(store, name, keys, source):
        rows = {key: rng.randint(1, 999) for key in sorted(keys)}
        source.write_text("".join(f"{k},{v}\n" for k, v in rows.items()), encoding="utf-8")
        assert store.import_tsv(f"{name}_backing", source, specs[name]).skipped == 0
        model[name].update(rows)

    def check(catalog, store, phase, queries=queries):
        for on, predicates in queries:
            text = _query_text(on, predicates)
            assert run(text, catalog, store).rows == _brute_answer(model, on, predicates), (
                phase, text,
            )

    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "rows.csv"
        with open_store(Path(tmp) / "store") as store:
            catalog = Catalog(store)
            catalog.create_mapped_table(parse_ddl(_mapped_ddl("tt", "v", "a:v")))
            catalog.create_mapped_table(parse_ddl(_mapped_ddl("uu", "w", "b:w")))
            load(store, "tt", _draw_keys(rng, size), source)
            load(store, "uu", _draw_keys(rng, size), source)
            check(catalog, store, "loaded")
            # Writes after the queries built each table's index of key parts.
            new = sorted(_draw_keys(rng, 20) - model["tt"].keys())[:3] or ["P1~new"]
            for key in new:
                store.put("tt_backing", key, ColumnCoord("a", "v"), "7")
                model["tt"][key] = 7
            check(catalog, store, "put")
            load(store, "uu", _draw_keys(rng, 40), source)
            check(catalog, store, "import_tsv")
            for statement in ("DROP TABLE uu", _mapped_ddl("uu", "w", "b:w")):
                execute_statement(parse_statement(statement), catalog, store)
            model["uu"] = {}
            load(store, "uu", _draw_keys(rng, size // 2), source)
            check(catalog, store, "DROP/CREATE and load")
        for on, predicates in queries:
            with open_store(Path(tmp) / "store") as store:
                check(Catalog(store), store, "reopened", [(on, predicates)])
                # On a fresh open, only the rows of tt that the scan's one
                # bound allows were parsed: those passing t's key predicates.
                rows = store._table("tt_backing").rows
                parsed = sorted(key for key, row in rows.items() if not isinstance(row, str))
                first = [(f, v) for s, f, v in predicates if s == "t"]
                assert parsed == [k for k in sorted(model["tt"]) if _brute_passes(k, first)]
