"""DDL parsing, schema generation, and their agreement with each other."""

import re
from datetime import date

import pytest

from covidstore.sql import (
    CreateTable,
    DescribeTable,
    DropTable,
    SqlError,
    SqlSyntaxError,
    generate_schema,
    parse_ddl,
    parse_ddl_statement,
    split_statements,
)

from conftest import workload_text


def corpus_create(series="confirmed") -> CreateTable:
    statements = split_statements(workload_text(f"ddl_{series}.sql"))
    return parse_ddl(statements[1])


MINIMAL = """
CREATE TABLE t (
key struct<P : string,C : string>,
Lat float,
01_22_2020 int
)
ROW FORMAT DELIMITED
COLLECTION ITEMS TERMINATED BY '~'
STORED BY 'handler.Class'
WITH SERDEPROPERTIES (
"hbase.table.name" = "t",
"hbase.columns.mapping" = ":key,a:lt,a:d122")
"""


# ------------------------------------------------------------ parsing


def test_corpus_statement_kinds():
    for series in ("confirmed", "deaths"):
        kinds = [
            type(parse_ddl_statement(s))
            for s in split_statements(workload_text(f"ddl_{series}.sql"))
        ]
        assert kinds == [DropTable, CreateTable, DescribeTable]


def test_corpus_create_shape():
    ddl = corpus_create()
    schema = ddl.schema
    assert schema.table_name == "confirmed_covid19_cases"
    assert schema.key_fields == ("Province_State", "Country_Region")
    assert len(schema.columns) == 72
    assert [c.name for c in schema.columns[:3]] == ["Lat", "Long", "01_22_2020"]
    assert schema.columns[-1].name == "03_31_2020"
    assert [c.ctype for c in schema.columns[:2]] == ["float", "float"]
    assert all(c.ctype == "int" for c in schema.columns[2:])
    # the terminator is written with a backslash in the source; it still
    # means a plain tilde
    assert schema.collection_terminator == "~"


def test_corpus_create_mapping():
    ddl = corpus_create("deaths")
    assert ddl.mapping.store_table == "deaths_covid19_cases"
    coords = [str(c) for c in ddl.mapping.coords]
    assert len(coords) == 72
    assert coords[:3] == ["a:lt", "a:lg", "a:d122"]
    assert coords[-1] == "a:d331"
    assert ddl.mapping.families() == {"a"}
    assert ddl.mapping.entries()[0] == ":key"
    assert ddl.stored_by == "org.apache.hadoop.hive.hbase.HBaseStorageHandler"
    assert (
        ddl.properties["hbase.composite.key.factory"]
        == "org.apache.hadoop.hive.hbase.SampleHBaseKeyFactory2"
    )


def test_minimal_create():
    ddl = parse_ddl(MINIMAL)
    assert ddl.schema.key_fields == ("P", "C")
    assert [str(c) for c in ddl.mapping.coords] == ["a:lt", "a:d122"]
    assert ddl.raw == MINIMAL.strip()


def test_escaped_and_plain_terminator_agree():
    plain = parse_ddl(MINIMAL)
    escaped = parse_ddl(MINIMAL.replace("BY '~'", r"BY '\~'"))
    assert escaped.schema.collection_terminator == plain.schema.collection_terminator


def test_drop_and_describe_forms():
    assert parse_ddl_statement("DROP TABLE t;") == DropTable("t")
    assert parse_ddl_statement("describe t") == DescribeTable("t")
    with pytest.raises(SqlSyntaxError):
        parse_ddl_statement("DROP t")
    with pytest.raises(SqlSyntaxError, match="expected CREATE, DROP, or DESCRIBE"):
        parse_ddl_statement("TRUNCATE TABLE t")


def test_case_insensitive_keywords():
    lowered = MINIMAL.replace("CREATE TABLE", "create table").replace(
        "ROW FORMAT DELIMITED", "row format delimited"
    )
    assert parse_ddl(lowered).schema.table_name == "t"


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda s: s.replace('"hbase.table.name" = "t",\n', ""), "missing required property 'hbase.table.name'"),
        (lambda s: s.replace(":key,a:lt,a:d122", "a:rk,a:lt,a:d122"), "first mapping entry must be ':key'"),
        (lambda s: s.replace(":key,a:lt,a:d122", ":key,a:lt"), "column mapping has 2 entries for 2 columns"),
        (lambda s: s.replace("Lat float", "Lat decimal"), "unknown column type 'decimal'"),
        (lambda s: s.replace("01_22_2020 int", "Lat int"), "duplicate column 'Lat'"),
        (lambda s: s.replace("C : string", "P : string"), "duplicate key field 'P'"),
        (lambda s: s.replace("P : string", "P : int"), "unknown key field type 'int'"),
        (lambda s: s + " AND MORE", "unexpected text"),
        (lambda s: s.replace("key struct<P : string,C : string>", "id int"), "first column must be the struct key"),
        (
            lambda s: s.replace('"hbase.table.name" = "t",', '"hbase.table.name" = "t", "hbase.table.name" = "t",'),
            "duplicate property 'hbase.table.name'",
        ),
        (lambda s: s.replace("TERMINATED BY '~'", "TERMINATED BY '~~'"), "terminator must be one character"),
        (lambda s: s.replace(":key,a:lt,a:d122", ":key,a:lt,a:lt"), "column mapping names a:lt twice"),
    ],
)
def test_malformed_create_statements(mangle, message):
    with pytest.raises(SqlError, match=re.escape(message)):
        parse_ddl(mangle(MINIMAL))


def test_syntax_error_carries_position():
    with pytest.raises(SqlSyntaxError, match=r"at position \d+"):
        parse_ddl("CREATE TABLE (")


def test_statement_splitting_respects_quotes():
    parts = split_statements("DROP TABLE a; DESCRIBE b ; SELECT ';' FROM c")
    assert parts == ["DROP TABLE a", "DESCRIBE b", "SELECT ';' FROM c"]


# ------------------------------------------------------------ generation


def test_generated_schema_round_trips():
    text = generate_schema(
        "confirmed_covid19_cases",
        "confirmed_covid19_cases",
        "a",
        date(2020, 1, 22),
        date(2020, 3, 31),
    )
    ddl = parse_ddl(text)
    assert len(ddl.schema.columns) == 72
    assert ddl.schema.columns[2].name == "01_22_2020"
    assert ddl.schema.columns[-1].name == "03_31_2020"
    assert str(ddl.mapping.coords[-1]) == "a:d331"


def test_generated_schema_matches_corpus_modulo_whitespace():
    generated = parse_ddl(
        generate_schema(
            "confirmed_covid19_cases",
            "confirmed_covid19_cases",
            "a",
            date(2020, 1, 22),
            date(2020, 3, 31),
        )
    )
    reference = corpus_create()
    assert [
        (c.name, c.ctype) for c in generated.schema.columns
    ] == [(c.name, c.ctype) for c in reference.schema.columns]
    assert generated.mapping.coords == reference.mapping.coords
    assert generated.schema.key_fields == reference.schema.key_fields


def test_generated_schema_for_other_ranges():
    ddl = parse_ddl(
        generate_schema("t", "t", "fam", date(2020, 9, 28), date(2020, 10, 2))
    )
    assert [c.name for c in ddl.schema.columns[2:]] == [
        "09_28_2020",
        "09_29_2020",
        "09_30_2020",
        "10_01_2020",
        "10_02_2020",
    ]
    assert [str(c) for c in ddl.mapping.coords[2:]] == [
        "fam:d928",
        "fam:d929",
        "fam:d930",
        "fam:d1001",
        "fam:d1002",
    ]
