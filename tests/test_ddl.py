"""DDL parsing, schema generation, and their agreement with each other."""

import re
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from covidstore.dates import generate_schema
from covidstore.sql.ddl import (
    ColumnDef,
    ColumnMapping,
    CreateTable,
    DescribeTable,
    DropTable,
    RelationalSchema,
    parse_ddl,
    parse_ddl_statement,
)
from covidstore.sql.errors import SqlError, SqlSyntaxError
from covidstore.sql.lexer import split_statements
from covidstore.store import ColumnCoord

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
    assert ddl.properties["hbase.columns.mapping"].startswith(":key,a:lt,")
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
        generate_schema("t", date(2020, 9, 28), date(2020, 10, 2))
    )
    assert [c.name for c in ddl.schema.columns[2:]] == [
        "09_28_2020",
        "09_29_2020",
        "09_30_2020",
        "10_01_2020",
        "10_02_2020",
    ]
    assert [str(c) for c in ddl.mapping.coords[2:]] == [
        "a:d928",
        "a:d929",
        "a:d930",
        "a:d1001",
        "a:d1002",
    ]


# ------------------------------------------------------------ the column list

_HEAD = "CREATE TABLE t (key struct<P:string>"
_TAIL = (
    ")\nROW FORMAT DELIMITED COLLECTION ITEMS TERMINATED BY '\\~'\n"
    "STORED BY 'h.C' WITH SERDEPROPERTIES (\"hbase.table.name\" = \"t\", "
    '"hbase.columns.mapping" = "{}")'
)


def _create(columns: str, mapping: str = ":key,a:x,a:y") -> str:
    return _HEAD + columns + _TAIL.format(mapping)


# Each message is pinned with its position, an offset into _create(columns)
# (len(_HEAD) is 36), or into the whole text where it is given alone.
@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(_create(", x, y int"), "expected a name, found ',' (at position 39)", id="missing-type"),
        pytest.param(_create(", x int y int"), "expected ',' or ')', found 'y' (at position 44)", id="missing-comma"),
        pytest.param(_create(", x int, -y int"), "expected a name, found '-' (at position 45)", id="minus"),
        # The quote opens a string that closes at the terminator's quote, so
        # the backslash after it is outside any string.
        pytest.param(_create(", x int, 'y int"), "unexpected character '\\\\' (at position 106)", id="single-quote"),
        pytest.param(_create(', x int, "y int'), "unterminated string literal (at position 213)", id="double-quote"),
        pytest.param(_create(", x int; y int"), "expected ',' or ')', found ';' (at position 43)", id="semicolon"),
        pytest.param(_create(", x int, y int #"), "unexpected character '#' (at position 51)", id="bad-character"),
        pytest.param(_create(", x int, y.z int"), "expected a name, found '.' (at position 46)", id="dot"),
        pytest.param(_HEAD, "unexpected end of statement (at position 36)", id="end-after-key"),
        pytest.param(_HEAD + ",", "expected a name, found 'end of statement' (at position 37)", id="end-after-comma"),
        pytest.param(_HEAD + ", x", "expected a name, found 'end of statement' (at position 39)", id="end-after-name"),
        pytest.param(_HEAD + ", x int", "unexpected end of statement (at position 43)", id="end-after-type"),
        pytest.param("CREATE TABLE t ()", "expected a column name, found ')' (at position 16)", id="empty-list"),
        pytest.param(_create(", x int, y int,"), "expected a name, found ')' (at position 51)", id="trailing-comma"),
        pytest.param(_create(", x int, y int,,"), "expected a name, found ',' (at position 51)", id="double-comma"),
        pytest.param(_create(", x int, y int,\n"), "expected a name, found ')' (at position 52)", id="trailing-comma-newline"),
        pytest.param(_create(", x int\x1cy int"), "expected ',' or ')', found 'y' (at position 44)", id="file-separator"),
        pytest.param(_create(", x int\u2028y\u2028int x"), "expected ',' or ')', found 'y' (at position 44)", id="line-separator"),
        pytest.param(_create(", x int,\ty"), "expected a name, found ')' (at position 46)", id="tab"),
        pytest.param(_create(", x int, été"), "expected a name, found ')' (at position 48)", id="non-ascii-name"),
        pytest.param(_create(", x int, y int)"), "expected ROW, found ')' (at position 51)", id="extra-paren"),
        pytest.param(_create(", é int, É float"), "duplicate column 'É'", id="duplicate-non-ascii"),
        pytest.param(_create(", x int, X int"), "duplicate column 'X'", id="duplicate-case"),
        pytest.param(_create(", KEY int, y int"), "duplicate column 'KEY'", id="duplicate-key"),
        pytest.param(_create(", x INT, y Decimal"), "unknown column type 'decimal' for column 'y'", id="bad-type"),
        # The type is read before the '-' after it.
        pytest.param(_create(", x int, y in-t"), "unknown column type 'in' for column 'y'", id="type-before-minus"),
        pytest.param(_create(", x int, y int", ":key,:x,a:y"), "invalid column coordinate ':x'", id="empty-family"),
        pytest.param(_create(", x int, y int", ":key,a:,a:y"), "invalid column coordinate 'a:'", id="empty-qualifier"),
        pytest.param(_create(", x int, y int", ":key,a:x,a:\\ty"), "invalid column coordinate 'a:\\ty'", id="tab-in-qualifier"),
        pytest.param(_create(", x int, y int", ":key,a\tx,a:y"), "invalid column coordinate 'a\\tx'", id="tab-for-colon"),
        pytest.param(_create(", x int, y int", ":key,a:x:z,a:y"), "invalid column coordinate 'a:x:z'", id="two-colons"),
        pytest.param(_create(", x int, y int", ":key, ,a:y"), "invalid column coordinate ''", id="blank-entry"),
        pytest.param(_create(", x int, y int", ":key,a:x,a:x"), "column mapping names a:x twice", id="coordinate-twice"),
    ],
)
def test_malformed_column_lists_pin_message_and_position(text, message):
    with pytest.raises(Exception) as err:
        parse_ddl(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "columns, mapping, expected",
    [
        (", x INT, y Float", ":key,a:x,a:y", [("x", "int"), ("y", "float")]),
        (",x int,y int", ":key,a:x,a:y", [("x", "int"), ("y", "int")]),
        ("\x1c,\u2028x\x1cint\t,\u3000y\u2029int\x85", ":key,a:x,a:y", [("x", "int"), ("y", "int")]),
        (", été int, 東京 float, ٣x int", ":key,a:x,a:y,b:z", [("été", "int"), ("東京", "float"), ("٣x", "int")]),
        ("", ":key", []),
        (", x int, y int", ":key,\ta:x , a:y\u2028", [("x", "int"), ("y", "int")]),
    ],
)
def test_accepted_column_lists(columns, mapping, expected):
    ddl = parse_ddl(_create(columns, mapping))
    assert [(c.name, c.ctype) for c in ddl.schema.columns] == expected
    assert [str(c) for c in ddl.mapping.coords] == [e.strip() for e in mapping.split(",")[1:]]


# Every character the lexer skips between tokens.
_WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())


@settings(max_examples=40, deadline=None)
@given(days=st.integers(1, 366), rng=st.randoms(use_true_random=False))
def test_generated_schema_parses_however_it_is_spaced(days, rng):
    start = date(2020, 1, 22)
    end = start + timedelta(days=days - 1)
    text = generate_schema("t", start, end)

    def run(minimum: int) -> str:
        return "".join(rng.choice(_WHITESPACE) for _ in range(rng.randint(minimum, 3)))

    # Outside string literals, each run of whitespace becomes another run,
    # and punctuation gains runs, possibly empty, on either side.
    parts = re.split(r"""('[^']*'|"[^"]*")""", text)
    for i in range(0, len(parts), 2):
        parts[i] = re.sub(r"\s+", lambda m: run(1), parts[i])
        parts[i] = re.sub(r"[,()<>:=;]", lambda m: run(0) + m[0] + run(0), parts[i])
    spaced = "".join(parts)

    day_list = [start + timedelta(days=i) for i in range(days)]
    columns = (ColumnDef("Lat", "float"), ColumnDef("Long", "float")) + tuple(
        ColumnDef(d.strftime("%m_%d_%Y"), "int") for d in day_list
    )
    coords = (ColumnCoord("a", "lt"), ColumnCoord("a", "lg")) + tuple(
        ColumnCoord("a", f"d{d.month}{d.day:02d}") for d in day_list
    )
    mapping = ",".join([":key"] + [str(c) for c in coords])
    expected = CreateTable(
        RelationalSchema("t", ("Province_State", "Country_Region"), columns, "~"),
        ColumnMapping("t", coords),
        {
            "hbase.table.name": "t",
            "hbase.mapred.output.outputtable": "t",
            "hbase.columns.mapping": mapping,
            "hbase.composite.key.factory": "org.apache.hadoop.hive.hbase.SampleHBaseKeyFactory2",
        },
        "org.apache.hadoop.hive.hbase.HBaseStorageHandler",
        "",
    )
    assert parse_ddl(spaced)._replace(raw="") == expected
