"""Catalog of mapped tables and the SELECT executor over the store.

Rows come out of the store as raw text cells.  The executor splits the row
key on the schema's collection terminator (first occurrence only, so the
country part may themselves contain the character), decodes each mapped
cell by its declared type, and treats an absent cell as NULL.  A stored
zero was dropped before loading, so it reads back as NULL, never 0; that
conflation is inherent to the sparse format, not a decoding choice.

Predicates never match NULL, and join conditions reject rows with NULL on
either side, which is ordinary inner-join behavior.  An empty string is a
value, not NULL: province-less rows join and filter on "".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..store import Store, write_atomic
from .ddl import (
    CreateTable,
    DescribeTable,
    DropTable,
    parse_ddl,
    parse_ddl_statement,
)
from .errors import CatalogError, SqlError, TypeDecodeError
from .lexer import split_statements
from .query import (
    ColumnRef,
    Comparison,
    InList,
    KeyFieldRef,
    Predicate,
    Ref,
    SelectQuery,
    parse_query,
)

CATALOG_NAME = "CATALOG"

Value = Union[str, int, float, None]


@dataclass
class ResultSet:
    columns: list[str]
    rows: list[tuple[Value, ...]]


def render_value(value: Value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        # repr gives the shortest text that reads back as the same float.
        return repr(value)
    return str(value)


def render_result_set(rs: ResultSet) -> str:
    lines = ["\t".join(rs.columns)]
    for row in rs.rows:
        lines.append("\t".join(render_value(v) for v in row))
    return "\n".join(lines)


class Catalog:
    """Mapped-table definitions, persisted beside the store's own files.

    The CATALOG file holds each CREATE statement verbatim and is replayed
    when the store directory is opened again, so a definition survives in
    exactly the form it was issued.
    """

    def __init__(self, store: Store) -> None:
        self._store = store
        self._path = store.directory / CATALOG_NAME
        self._entries: dict[str, CreateTable] = {}
        if self._path.exists():
            text = self._path.read_text(encoding="utf-8")
            for statement in split_statements(text):
                try:
                    parsed = parse_ddl(statement)
                except SqlError as exc:
                    raise CatalogError(f"corrupt catalog {self._path}: {exc}") from exc
                self._entries[parsed.schema.table_name.lower()] = parsed

    # ---------------------------------------------------------------- lookup

    def names(self) -> list[str]:
        return sorted(e.schema.table_name for e in self._entries.values())

    def get(self, name: str) -> CreateTable:
        entry = self._entries.get(name.lower())
        if entry is None:
            raise CatalogError(f"table {name!r} not found in catalog")
        return entry

    def has(self, name: str) -> bool:
        return name.lower() in self._entries

    # ------------------------------------------------------------- mutations

    def create_mapped_table(self, ddl: CreateTable) -> None:
        """Register a mapped table, creating its backing table if needed.

        An existing backing table is attached as-is (its data shows through
        immediately), but it must be enabled and must already have every
        family the mapping uses.
        """
        name = ddl.schema.table_name
        if self.has(name):
            raise CatalogError(f"table {name!r} already exists in catalog")
        backing = ddl.mapping.store_table
        needed = ddl.mapping.families()
        if self._store.has_table(backing):
            descriptor = self._store.descriptor(backing)
            if not descriptor.enabled:
                raise CatalogError(
                    f"backing table {backing!r} exists but is disabled"
                )
            missing = needed - descriptor.families
            if missing:
                raise CatalogError(
                    f"backing table {backing!r} lacks column families "
                    f"{sorted(missing)} used by the mapping"
                )
        else:
            self._store.create_table(backing, needed)
        self._entries[name.lower()] = ddl
        self._persist()

    def drop_mapped_table(self, name: str) -> bool:
        """Remove a definition and its backing table.

        Returns False (a warning, not an error) when the name is unknown,
        so scripted drop-then-create sequences run clean on a fresh store.
        """
        key = name.lower()
        entry = self._entries.get(key)
        if entry is None:
            return False
        backing = entry.mapping.store_table
        if self._store.has_table(backing):
            # The store insists on disable-then-drop; do both here, since
            # from this layer the two-step is an implementation detail.
            self._store.disable_table(backing)
            self._store.drop_table(backing)
        del self._entries[key]
        self._persist()
        return True

    def describe(self, name: str) -> str:
        """Render the declared columns of a mapped table, one per line."""
        entry = self.get(name)
        fields = ",".join(f"{f.lower()}:string" for f in entry.schema.key_fields)
        lines = [f"key\tstruct<{fields}>"]
        for col in entry.schema.columns:
            lines.append(f"{col.name.lower()}\t{col.ctype}")
        return "\n".join(lines)

    def _persist(self) -> None:
        statements = []
        for key in sorted(self._entries):
            raw = self._entries[key].raw
            statements.append(raw if raw.endswith(";") else raw + ";")
        write_atomic(self._path, "\n".join(statements) + ("\n" if statements else ""))


# ---------------------------------------------------------------- execution


@dataclass
class _DecodedRow:
    key: str
    key_fields: dict[str, Optional[str]]
    columns: dict[str, Value]


@dataclass
class _Source:
    index: int
    qualifier: str  # alias if declared, else the table name
    entry: CreateTable
    rows: list[_DecodedRow]


def _decode_value(raw: str, ctype: str, row_key: str, column: str) -> Value:
    try:
        if ctype == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        raise TypeDecodeError(
            f"row {row_key!r} column {column}: cannot decode {raw!r} as {ctype}"
        ) from None


def _decode_table(entry: CreateTable, store: Store) -> list[_DecodedRow]:
    schema = entry.schema
    mapping = entry.mapping
    terminator = schema.collection_terminator
    nfields = len(schema.key_fields)
    out: list[_DecodedRow] = []
    for row in store.scan(mapping.store_table):
        parts = row.key.split(terminator, nfields - 1)
        key_fields: dict[str, Optional[str]] = {}
        for i, fname in enumerate(schema.key_fields):
            key_fields[fname.lower()] = parts[i] if i < len(parts) else None
        columns: dict[str, Value] = {}
        for col, coord in zip(schema.columns, mapping.coords):
            raw = row.cells.get(coord)
            if raw is None:
                columns[col.name.lower()] = None
            else:
                columns[col.name.lower()] = _decode_value(raw, col.ctype, row.key, col.name)
        out.append(_DecodedRow(row.key, key_fields, columns))
    return out


def _typed_eq(a: Value, b: Value) -> bool:
    # NULL equals nothing; numbers compare across int/float; a number never
    # silently equals its decimal text.
    if a is None or b is None:
        return False
    a_num = isinstance(a, (int, float))
    b_num = isinstance(b, (int, float))
    if a_num and b_num:
        return a == b
    if not a_num and not b_num:
        return a == b
    return False


class _Resolver:
    """Binds references in one query to its sources."""

    def __init__(self, sources: list[_Source]) -> None:
        self.sources = sources

    def _by_alias(self, alias: str) -> _Source:
        lowered = alias.lower()
        for src in self.sources:
            if src.qualifier.lower() == lowered:
                return src
        raise SqlError(f"unknown table or alias {alias!r}")

    def resolve(self, ref: Ref) -> tuple[int, Callable[[_DecodedRow], Value], str]:
        """Return (source index, row accessor, output column name)."""
        if isinstance(ref, KeyFieldRef):
            candidates = (
                [self._by_alias(ref.alias)] if ref.alias else self._key_candidates(ref)
            )
            src = candidates[0]
            declared = src.entry.schema.key_field_named(ref.field)
            if declared is None:
                raise SqlError(
                    f"unknown key field {ref.field!r} in table {src.entry.schema.table_name!r}"
                )
            lowered = declared.lower()
            return (src.index, lambda row: row.key_fields[lowered], declared.lower())
        candidates = (
            [self._by_alias(ref.alias)] if ref.alias else self._column_candidates(ref)
        )
        src = candidates[0]
        column = src.entry.schema.column_named(ref.name)
        if column is None:
            raise SqlError(
                f"unknown column {ref.name!r} in table {src.entry.schema.table_name!r}"
            )
        lowered = column.name.lower()
        return (src.index, lambda row: row.columns[lowered], column.name)

    def _key_candidates(self, ref: KeyFieldRef) -> list[_Source]:
        matches = [
            s for s in self.sources if s.entry.schema.key_field_named(ref.field)
        ]
        if not matches:
            raise SqlError(f"unknown key field {ref.field!r}")
        if len(matches) > 1:
            raise SqlError(f"ambiguous key field {ref.field!r}; qualify it with an alias")
        return matches

    def _column_candidates(self, ref: ColumnRef) -> list[_Source]:
        matches = [s for s in self.sources if s.entry.schema.column_named(ref.name)]
        if not matches:
            raise SqlError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            raise SqlError(f"ambiguous column {ref.name!r}; qualify it with an alias")
        return matches


def execute_query(ast: SelectQuery, catalog: Catalog, store: Store) -> ResultSet:
    """Run a parsed SELECT and return its result table.

    Join evaluation is a nested loop in declared order, so output order is
    the scan order of the first table, which is deterministic.
    """
    sources = [_make_source(ast.source, catalog, store, 0)]
    if ast.join is not None:
        sources.append(_make_source(ast.join.source, catalog, store, 1))
    resolver = _Resolver(sources)

    if ast.select_all:
        headers: list[str] = []
        extractors: list[tuple[int, Callable[[_DecodedRow], Value]]] = []
        for idx, src in enumerate(sources):
            headers.append("key")
            extractors.append((idx, lambda row: row.key))
            for col in src.entry.schema.columns:
                lowered = col.name.lower()
                headers.append(col.name)
                extractors.append(
                    (idx, lambda row, _n=lowered: row.columns[_n])
                )
    else:
        headers = []
        extractors = []
        for ref in ast.projections:
            idx, accessor, name = resolver.resolve(ref)
            headers.append(name)
            extractors.append((idx, accessor))

    join_conditions = []
    if ast.join is not None:
        for left_ref, right_ref in ast.join.conditions:
            join_conditions.append((resolver.resolve(left_ref), resolver.resolve(right_ref)))

    predicates = [_compile_predicate(p, resolver) for p in ast.where]

    rows: list[tuple[Value, ...]] = []
    for env in _row_envs(sources, join_conditions):
        if all(pred(env) for pred in predicates):
            rows.append(tuple(accessor(env[idx]) for idx, accessor in extractors))
    return ResultSet(columns=headers, rows=rows)


def _make_source(source_ast, catalog: Catalog, store: Store, index: int) -> _Source:
    entry = catalog.get(source_ast.table)
    qualifier = source_ast.alias if source_ast.alias else source_ast.table
    return _Source(index, qualifier, entry, _decode_table(entry, store))


def _row_envs(sources: list[_Source], join_conditions) -> "list[tuple[_DecodedRow, ...]]":
    if len(sources) == 1:
        return [(row,) for row in sources[0].rows]
    out = []
    for left in sources[0].rows:
        for right in sources[1].rows:
            env = (left, right)
            ok = True
            for (li, lacc, _), (ri, racc, _) in join_conditions:
                if not _typed_eq(lacc(env[li]), racc(env[ri])):
                    ok = False
                    break
            if ok:
                out.append(env)
    return out


def _compile_predicate(pred: Predicate, resolver: _Resolver):
    if isinstance(pred, Comparison):
        idx, accessor, _ = resolver.resolve(pred.ref)
        value = pred.value
        return lambda env: _typed_eq(accessor(env[idx]), value)
    if isinstance(pred, InList):
        idx, accessor, _ = resolver.resolve(pred.ref)
        values = pred.values
        return lambda env: any(_typed_eq(accessor(env[idx]), v) for v in values)
    raise SqlError(f"unsupported predicate {pred!r}")


# ------------------------------------------------------------- statement API


Statement = Union[SelectQuery, CreateTable, DropTable, DescribeTable]


def parse_statement(text: str) -> Statement:
    """Parse one statement, SELECT or DDL, chosen by its first keyword."""
    stripped = text.lstrip()
    first = stripped.split(None, 1)[0].upper() if stripped else ""
    if first == "SELECT":
        return parse_query(text)
    return parse_ddl_statement(text)


@dataclass
class StatementOutcome:
    """What executing one statement produced, if anything printable."""

    statement: Statement
    result: Optional[ResultSet] = None
    text: Optional[str] = None
    warning: Optional[str] = None


def execute_statement(statement: Statement, catalog: Catalog, store: Store) -> StatementOutcome:
    """Execute any parsed statement against a catalog and its store."""
    if isinstance(statement, SelectQuery):
        return StatementOutcome(statement, result=execute_query(statement, catalog, store))
    if isinstance(statement, CreateTable):
        catalog.create_mapped_table(statement)
        return StatementOutcome(statement)
    if isinstance(statement, DropTable):
        if not catalog.drop_mapped_table(statement.name):
            return StatementOutcome(
                statement, warning=f"table {statement.name!r} does not exist, nothing dropped"
            )
        return StatementOutcome(statement)
    if isinstance(statement, DescribeTable):
        return StatementOutcome(statement, text=catalog.describe(statement.name))
    raise SqlError(f"unsupported statement {statement!r}")
