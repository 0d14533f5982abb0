"""Hive-flavored DDL: parsing CREATE/DROP/DESCRIBE.

A mapped table declares a struct-typed key column named "key" first, then
plain int or float columns.  The SERDEPROPERTIES block carries the name of
the backing store table and a column mapping whose entries line up with the
declared columns, ":key" standing for the row key itself.  The STORED BY
class and any extra properties are recorded verbatim and otherwise ignored;
they matter to the cluster software this replaces, not to this engine.
The CREATE text for a time-series table comes from dates.generate_schema,
which only writes text; the DDL tests parse its output here.

A CREATE is read token by token, but its column list (a column a day) and
mapping by a compiled pattern each, up to the first token or entry at fault.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import NamedTuple

from ..store import COORD_PATTERN, ColumnCoord
from .errors import SqlError
from .lexer import Cursor, Node

COLUMN_TYPES = ("int", "float")

PROP_TABLE_NAME = "hbase.table.name"
PROP_MAPPING = "hbase.columns.mapping"
_REQUIRED_PROPS = (PROP_TABLE_NAME, PROP_MAPPING)

_KEY_MARKER = ":key"

# The column list after the key as far as it is ", name type", in the lexer's \w and \s.
_COLUMNS = re.compile(r"(?:\s*,\s*\w+\s+\w+)*\s*")
# A mapping entry after the first, as family and qualifier.
_ENTRY = re.compile(rf",{COORD_PATTERN}(?=,|\Z)")


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
    # A CREATE is lexed up to its key's '>', if no string can hide one
    # before it, and read on from there by pattern.
    head = text.find(">") + 1
    p = Cursor(text, head if head and "'" not in text[:head] and '"' not in text[:head] else None)
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
    p.expect("(", "'('")

    key_name = p.expect_name("a column name")
    if key_name.lower() != "key":
        raise p.error(f"first column must be the struct key, found {key_name!r}", p.i - 1)
    p.expect_keyword("STRUCT")
    p.expect("<", "'<'")
    key_fields: list[str] = []
    while True:
        fname = p.expect_name()
        p.expect(":", "':'")
        ftype = p.expect_name()
        if ftype.lower() != "string":
            raise SqlError(f"unknown key field type {ftype!r}, only string is supported")
        if any(f.lower() == fname.lower() for f in key_fields):
            raise SqlError(f"duplicate key field {fname!r}")
        key_fields.append(fname)
        if p.list_ends(">"):
            break

    # Up to where the list stops being ", name type"; there, if not at its
    # ')', the tokens raise the error the first of them makes.
    listed = p.scan(_COLUMNS)[0].replace(",", " ").split()
    names, types = listed[0::2], [t.lower() for t in listed[1::2]]
    lowered = [key_name.lower(), *map(str.lower, names)]
    if not set(types) <= set(COLUMN_TYPES) or len(set(lowered)) < len(lowered):
        for i, ctype in enumerate(types):
            if ctype not in COLUMN_TYPES:
                raise SqlError(f"unknown column type {ctype!r} for column {names[i]!r}")
            if lowered[i + 1] in lowered[: i + 1]:
                raise SqlError(f"duplicate column {names[i]!r}")
    columns = tuple(map(tuple.__new__, repeat(ColumnDef), zip(names, types)))
    if not p.list_ends(")"):
        p.expect_name()
        p.expect_name()

    p.expect_keyword("ROW FORMAT DELIMITED COLLECTION ITEMS TERMINATED BY")
    terminator = p.expect_quoted("'", "a quoted terminator")
    if len(terminator) != 1:
        raise SqlError(f"collection terminator must be one character, got {terminator!r}")

    p.expect_keyword("STORED BY")
    stored_by = p.expect_quoted("'", "a quoted storage handler class")

    p.expect_keyword("WITH SERDEPROPERTIES")
    p.expect("(", "'('")
    properties: dict[str, str] = {}
    while True:
        name = p.expect_quoted('"', "a quoted property name")
        p.expect("=", "'='")
        value = p.expect_quoted('"', "a quoted property value")
        if name in properties:
            raise SqlError(f"duplicate property {name!r}")
        properties[name] = value
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
    pairs = _ENTRY.findall(",".join(entries))  # a match per valid entry: none holds a comma
    if len(pairs) < len(columns):
        list(map(ColumnCoord.parse, entries[1:]))  # raises for the first invalid entry
    coords = tuple(map(tuple.__new__, repeat(ColumnCoord), pairs))
    if len(set(coords)) < len(coords):
        twice = next(c for i, c in enumerate(coords) if c in coords[:i])
        raise SqlError(f"column mapping names {twice} twice")

    schema = RelationalSchema(table_name, tuple(key_fields), columns, terminator)
    mapping = ColumnMapping(properties[PROP_TABLE_NAME], coords)
    return CreateTable(schema, mapping, properties, stored_by, p.text.strip())

