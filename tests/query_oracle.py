"""Brute-force reference evaluation for cross-checking the query engine.

Everything in this module works directly on the raw CSV files.  Field
splitting, cleaning, date handling, and row decoding are all written here
from scratch; in particular the two name fields are read straight from the
file, never recovered by splitting a composite key.  When the engine and
this evaluator agree on a query, they got there by different routes.

Only the parsed query AST is shared with the package, since the tests that
use this module generate queries as text and both sides must agree on what
was asked.
"""

from __future__ import annotations

from datetime import datetime
from pathlib import Path
from typing import Callable, Union

from covidstore.sql.query import (
    ColumnRef,
    Comparison,
    InList,
    KeyFieldRef,
    SelectQuery,
)

Value = Union[str, int, float, None]

KEY_FIELDS = ("province_state", "country_region")


def split_quoted(line: str) -> list[str]:
    """Split one CSV line on commas, honouring double-quoted fields."""
    fields: list[str] = []
    buf: list[str] = []
    in_quotes = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_quotes:
            if ch == '"':
                if i + 1 < len(line) and line[i + 1] == '"':
                    buf.append('"')
                    i += 2
                    continue
                in_quotes = False
            else:
                buf.append(ch)
            i += 1
            continue
        if ch == '"':
            in_quotes = True
        elif ch == ",":
            fields.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        i += 1
    fields.append("".join(buf))
    return fields


def clean(field: str) -> str:
    field = field.replace('"', "").replace("*", "")
    field = field.replace(", ", "-")
    return field.replace(",", "-")


def date_column_name(header_token: str) -> str:
    return datetime.strptime(header_token, "%m/%d/%y").strftime("%m_%d_%Y")


def date_qualifier(header_token: str) -> str:
    d = datetime.strptime(header_token, "%m/%d/%y")
    return f"d{d.month}{d.day:02d}"


class OracleTable:
    """A raw CSV decoded to typed relational rows.

    columns maps lowercase name to declared spelling; each row is a dict
    keyed by lowercase column name plus the two key fields and "__key",
    the recomposed store row key.  Rows are sorted by "__key", which is
    the order a store scan returns them in.
    """

    def __init__(self, csv_path: str | Path):
        lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
        header = split_quoted(lines[0])
        declared = ["Lat", "Long"] + [date_column_name(t) for t in header[4:]]
        self.declared_columns = declared
        self.columns = {name.lower(): name for name in declared}
        self.rows: list[dict[str, Value]] = []
        for line in lines[1:]:
            fields = [clean(f) for f in split_quoted(line)]
            row: dict[str, Value] = {
                "province_state": fields[0],
                "country_region": fields[1],
                "__key": fields[0] + "~" + fields[1],
                "lat": float(fields[2]) if fields[2] != "" else None,
                "long": float(fields[3]) if fields[3] != "" else None,
            }
            for name, raw in zip(declared[2:], fields[4:]):
                row[name.lower()] = None if raw in ("", "0") else int(raw)
            self.rows.append(row)
        self.rows.sort(key=lambda row: row["__key"])


def raw_cells(
    csv_path: str | Path,
) -> tuple[dict[tuple[str, str], str], set[tuple[str, str]]]:
    """Expected store contents: (row key, family:qualifier) -> raw value.

    Returns the cells a loaded store must hold verbatim, and the set of
    coordinates that must be absent because the raw cell was zero or empty.
    """
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    header = split_quoted(lines[0])
    quals = ["a:lt", "a:lg"] + ["a:" + date_qualifier(t) for t in header[4:]]
    present: dict[tuple[str, str], str] = {}
    absent: set[tuple[str, str]] = set()
    for line in lines[1:]:
        fields = [clean(f) for f in split_quoted(line)]
        key = fields[0] + "~" + fields[1]
        for qual, raw in zip(quals, fields[2:]):
            is_date = qual not in ("a:lt", "a:lg")
            if raw == "" or (is_date and raw == "0"):
                absent.add((key, qual))
            else:
                present[(key, qual)] = raw
    return present, absent


def _typed_eq(a: Value, b: Value) -> bool:
    if a is None or b is None:
        return False
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return False


class _Tables:
    def __init__(self, ast: SelectQuery, tables: dict[str, OracleTable]):
        def lookup(name: str) -> OracleTable:
            for k, v in tables.items():
                if k.lower() == name.lower():
                    return v
            raise KeyError(name)

        self.names: list[str] = []
        self.tables: list[OracleTable] = []
        sources = [ast.source] + ([ast.join.source] if ast.join else [])
        for src in sources:
            self.names.append((src.alias or src.table).lower())
            self.tables.append(lookup(src.table))

    def resolve(self, ref) -> tuple[Callable[[tuple], Value], str]:
        """Map a reference to (row-tuple accessor, output column name)."""
        if isinstance(ref, KeyFieldRef):
            field = ref.field.lower()
            assert field in KEY_FIELDS, field
            idx = self._source_index(ref.alias, lambda t: True)
            return (lambda env, i=idx: env[i][field]), field
        assert isinstance(ref, ColumnRef)
        name = ref.name.lower()
        idx = self._source_index(ref.alias, lambda t: name in t.columns)
        declared = self.tables[idx].columns[name]
        return (lambda env, i=idx: env[i][name]), declared

    def _source_index(self, alias, has) -> int:
        if alias is not None:
            for i, n in enumerate(self.names):
                if n == alias.lower():
                    return i
            raise KeyError(alias)
        candidates = [i for i, t in enumerate(self.tables) if has(t)]
        assert len(candidates) == 1, "reference must resolve uniquely"
        return candidates[0]


def evaluate(
    ast: SelectQuery, tables: dict[str, OracleTable]
) -> tuple[list[str], list[tuple[Value, ...]]]:
    """Run the query by nested loops over the decoded CSV rows."""
    bound = _Tables(ast, tables)

    if ast.join:
        eqs = [
            (bound.resolve(left)[0], bound.resolve(right)[0])
            for left, right in ast.join.conditions
        ]
        envs = [
            (r1, r2)
            for r1 in bound.tables[0].rows
            for r2 in bound.tables[1].rows
            if all(_typed_eq(l((r1, r2)), r((r1, r2))) for l, r in eqs)
        ]
    else:
        envs = [(r,) for r in bound.tables[0].rows]

    for pred in ast.where:
        if isinstance(pred, Comparison):
            acc = bound.resolve(pred.ref)[0]
            envs = [e for e in envs if _typed_eq(acc(e), pred.value)]
        else:
            assert isinstance(pred, InList)
            acc = bound.resolve(pred.ref)[0]
            envs = [
                e for e in envs if any(_typed_eq(acc(e), v) for v in pred.values)
            ]

    if ast.select_all:
        header: list[str] = []
        parts: list[tuple[int, str]] = []
        for i, table in enumerate(bound.tables):
            header.append("key")
            header.extend(table.declared_columns)
            parts.append((i, "__key"))
            parts.extend((i, name.lower()) for name in table.declared_columns)
        rows = [tuple(env[i][name] for i, name in parts) for env in envs]
        return header, rows

    accessors = []
    header = []
    for ref in ast.projections:
        acc, name = bound.resolve(ref)
        accessors.append(acc)
        header.append(name)
    return header, [tuple(acc(env) for acc in accessors) for env in envs]
