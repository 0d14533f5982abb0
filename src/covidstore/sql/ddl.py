"""Hive-flavored DDL: parsing CREATE/DROP/DESCRIBE.

A mapped table declares a struct-typed key column named "key" first, then
plain int or float columns.  The SERDEPROPERTIES block carries the name of
the backing store table and a column mapping whose entries line up with the
declared columns, ":key" standing for the row key itself.  The STORED BY
class and any extra properties are recorded verbatim and otherwise ignored;
they matter to the cluster software this replaces, not to this engine.
The CREATE text for a time-series table comes from ingest.generate_schema,
which only writes text; the DDL tests parse its output here.
"""

from __future__ import annotations

from typing import NamedTuple

from ..store import ColumnCoord
from .errors import SqlError, SqlSyntaxError
from .lexer import ATOM, DQSTRING, STRING, Cursor, Node

COLUMN_TYPES = ("int", "float")

PROP_TABLE_NAME = "hbase.table.name"
PROP_MAPPING = "hbase.columns.mapping"
_REQUIRED_PROPS = (PROP_TABLE_NAME, PROP_MAPPING)

_KEY_MARKER = ":key"


class ColumnDef(NamedTuple):
    name: str
    ctype: str  # "int" or "float"


class RelationalSchema(NamedTuple):
    """Declared shape of a mapped table."""

    table_name: str
    key_fields: tuple[str, ...]
    columns: tuple[ColumnDef, ...]
    collection_terminator: str


class ColumnMapping(NamedTuple):
    """Where each declared column lives in the store.

    coords is parallel to the schema's columns; the key itself is implied
    as the first mapping entry.
    """

    store_table: str
    coords: tuple[ColumnCoord, ...]

    def entries(self) -> list[str]:
        return [_KEY_MARKER] + [str(c) for c in self.coords]

    def families(self) -> frozenset[str]:
        return frozenset(c.family for c in self.coords)


class CreateTable(NamedTuple):
    schema: RelationalSchema
    mapping: ColumnMapping
    properties: dict[str, str]
    stored_by: str
    raw: str


class DropTable(Node):
    __slots__ = ("name",)
    name: str


class DescribeTable(Node):
    __slots__ = ("name",)
    name: str


def parse_ddl_statement(text: str) -> CreateTable | DropTable | DescribeTable:
    """Parse one DDL statement: CREATE TABLE, DROP TABLE, or DESCRIBE."""
    p = Cursor(text)
    if p.take_keyword("CREATE"):
        return _parse_create(p)
    if p.take_keyword("DROP"):
        p.expect_keyword("TABLE")
        name = p.expect_name()
        p.finish()
        return DropTable(name)
    if p.take_keyword("DESCRIBE"):
        name = p.expect_name()
        p.finish()
        return DescribeTable(name)
    p.fail("CREATE, DROP, or DESCRIBE")


def parse_ddl(text: str) -> CreateTable:
    """Parse a CREATE TABLE statement, validating schema against mapping."""
    parsed = parse_ddl_statement(text)
    if not isinstance(parsed, CreateTable):
        raise SqlError("expected a CREATE TABLE statement")
    return parsed


def _parse_create(p: Cursor) -> CreateTable:
    p.expect_keyword("TABLE")
    table_name = p.expect_name()
    p.expect("LPAREN", "'('")

    key_tok = p.expect(ATOM, "a column name")
    key_name = key_tok.text
    if key_name.lower() != "key":
        raise SqlSyntaxError(
            f"first column must be the struct key, found {key_name!r}", key_tok.pos
        )
    p.expect_keyword("STRUCT")
    p.expect("LT", "'<'")
    key_fields: list[str] = []
    while True:
        fname = p.expect_name()
        p.expect("COLON", "':'")
        ftype = p.expect_name()
        if ftype.lower() != "string":
            raise SqlError(f"unknown key field type {ftype!r}, only string is supported")
        if any(f.lower() == fname.lower() for f in key_fields):
            raise SqlError(f"duplicate key field {fname!r}")
        key_fields.append(fname)
        if p.list_ends(">"):
            break

    columns: list[ColumnDef] = []
    seen = {key_name.lower()}
    while not p.list_ends(")"):
        name = p.expect_name()
        ctype = p.expect_name().lower()
        if ctype not in COLUMN_TYPES:
            raise SqlError(f"unknown column type {ctype!r} for column {name!r}")
        if name.lower() in seen:
            raise SqlError(f"duplicate column {name!r}")
        seen.add(name.lower())
        columns.append(ColumnDef(name, ctype))

    p.expect_keyword("ROW")
    p.expect_keyword("FORMAT")
    p.expect_keyword("DELIMITED")
    p.expect_keyword("COLLECTION")
    p.expect_keyword("ITEMS")
    p.expect_keyword("TERMINATED")
    p.expect_keyword("BY")
    term_tok = p.expect(STRING, "a quoted terminator")
    if len(term_tok.text) != 1:
        raise SqlError(
            f"collection terminator must be one character, got {term_tok.text!r}"
        )

    p.expect_keyword("STORED")
    p.expect_keyword("BY")
    stored_by = p.expect(STRING, "a quoted storage handler class").text

    p.expect_keyword("WITH")
    p.expect_keyword("SERDEPROPERTIES")
    p.expect("LPAREN", "'('")
    properties: dict[str, str] = {}
    while True:
        key_tok = p.expect(DQSTRING, "a quoted property name")
        p.expect("EQ", "'='")
        value_tok = p.expect(DQSTRING, "a quoted property value")
        if key_tok.text in properties:
            raise SqlError(f"duplicate property {key_tok.text!r}")
        properties[key_tok.text] = value_tok.text
        if p.list_ends(")"):
            break
    p.finish()

    for prop in _REQUIRED_PROPS:
        if prop not in properties:
            raise SqlError(f"missing required property {prop!r}")

    entries = [e.strip() for e in properties[PROP_MAPPING].split(",")]
    if len(entries) != len(columns) + 1:
        raise SqlError(
            f"column mapping has {len(entries)} entries for {len(columns)} "
            "columns; expected one per column plus the key"
        )
    if entries[0] != _KEY_MARKER:
        raise SqlError(f"first mapping entry must be {_KEY_MARKER!r}, got {entries[0]!r}")
    coords = tuple(ColumnCoord.parse(e) for e in entries[1:])
    seen: set[ColumnCoord] = set()
    for coord in coords:
        if coord in seen:
            raise SqlError(f"column mapping names {coord} twice")
        seen.add(coord)

    schema = RelationalSchema(table_name, tuple(key_fields), tuple(columns), term_tok.text)
    mapping = ColumnMapping(properties[PROP_TABLE_NAME], coords)
    return CreateTable(schema, mapping, properties, stored_by, p.text.strip())

