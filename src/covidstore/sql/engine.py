"""Catalog of mapped tables and the SELECT executor over the store.

Rows come out of the store as raw text cells.  The executor splits the row
key on the schema's collection terminator (first occurrence only, so the
country part may themselves contain the character), decodes each mapped
cell by its declared type, and treats an absent cell as NULL.  A stored
zero was dropped before loading, so it reads back as NULL, never 0; that
conflation is inherent to the sparse format, not a decoding choice.

A row's positions are the row key, then each key field (None when the key
has too few parts), then each declared column in declaration order.  Every
reference in a query is bound once, to a source and one of those
positions.  A source decodes only the columns its query references and
leaves the others None.

Decode on read: a cell that does not decode as its declared type raises
TypeDecodeError only when the query references its column and its row
passes that source's key-field predicates.  In a join, a second-source row
must also pass the join's key filter: when an ON condition between the
sources names a key field of the second source, a second-source row whose
key fields match no first-source row is never parsed, so a bad cell in it
raises nothing.  Every referenced column of a row that passes is decoded
before any column predicate can drop the row, so a predicate never hides a
bad cell.

Predicates never match NULL, and join conditions reject rows with NULL (or
NaN) on either side, which is ordinary inner-join behavior.  An empty
string is a value, not NULL: province-less rows join and filter on "".

The records returned here, ResultSet and StatementOutcome, are immutable
tuples.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Union

from .. import write_atomic
from ..store import Store, TableNotEnabledError, TableNotFoundError
from .ddl import (
    CreateTable,
    DescribeTable,
    DropTable,
    parse_ddl,
    parse_ddl_statement,
)
from .errors import CatalogError, SqlError, TypeDecodeError
from .lexer import split_statements
from .query import Comparison, KeyFieldRef, Literal, Ref, SelectQuery, parse_query

CATALOG_NAME = "CATALOG"

Value = Union[str, int, float, None]
# (is key field, lowered name) -> (position in a row, output header)
Positions = dict[tuple[bool, str], tuple[int, str]]


class ResultSet(NamedTuple):
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
        self._positions: dict[str, Positions] = {}
        if self._path.exists():
            try:
                text = self._path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise CatalogError(f"corrupt catalog {self._path}: {exc}") from None
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

    def positions(self, name: str) -> tuple[CreateTable, Positions]:
        """A table's definition and its name-to-position map, built once per entry."""
        entry = self.get(name)
        names = self._positions.get(name.lower())
        if names is None:
            schema = entry.schema
            names = {
                (True, f.lower()): (1 + i, f.lower()) for i, f in enumerate(schema.key_fields)
            }
            first = 1 + len(schema.key_fields)
            for i, col in enumerate(schema.columns):
                names[(False, col.name.lower())] = (first + i, col.name)
            self._positions[name.lower()] = names
        return entry, names

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
        self._positions.pop(key, None)
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
        text = "\n".join(statements) + ("\n" if statements else "")
        write_atomic(self._path, text.encode("utf-8"))


# ---------------------------------------------------------------- execution


class _Source(NamedTuple):
    qualifier: str  # alias if declared, else the table name
    entry: CreateTable
    names: Positions


def _decode(
    source: _Source,
    store: Store,
    referenced: set[int],
    predicates: list[tuple[int, frozenset[Literal]]],
    conditions: list[tuple[int, int]],
    key_in: Optional[tuple[list[int], set[tuple[Value, ...]]]],
) -> list[list[Value]]:
    """Each row of the source that passes its filters, decoded where referenced.

    A row holds every position, with None at a column the query does not
    reference.  Predicates on key fields run inside the store's scan, on
    the split row key, so a row they drop is never parsed.  key_in, when
    given, is (key-field positions, allowed value tuples): after those
    predicates, the scan also drops a row whose values at the positions
    are not one of the tuples.  Then every referenced column of a kept row
    is decoded, and only then do column predicates and same-source
    conditions drop the row.

    The scan looks its rows up rather than testing every key: each bound
    key field gets the texts it may hold, those of its = and IN
    predicates and those its key_in tuples hold at it, and the store's
    index of key parts yields the keys whose parts are among them.  keep
    then decides on those keys alone, so the index only narrows.
    """
    entry = source.entry
    schema = entry.schema
    terminator = schema.collection_terminator
    nfields = len(schema.key_fields)
    first = 1 + nfields
    key_predicates = [(p, values) for p, values in predicates if p < first]
    column_predicates = [(p, values) for p, values in predicates if p >= first]
    declared, coords = schema.columns, entry.mapping.coords
    columns = []
    for p in sorted(referenced | {p for p, _ in column_predicates}):
        if p >= first:
            name, ctype = declared[p - first]
            decode = int if ctype == "int" else float
            columns.append((p, name, ctype, decode, coords[p - first]))
    blank = [None] * len(schema.columns)

    def split_key(key: str) -> list[Value]:
        parts = key.split(terminator, nfields - 1)
        return [key, *parts, *[None] * (nfields - len(parts))]

    pick, joined = (_picker(key_in[0]), key_in[1]) if key_in is not None else (None, set())

    def keep(key: str) -> bool:
        # A loop, not all() over a generator: this runs once per candidate key.
        values = split_key(key)
        for p, allowed in key_predicates:
            if values[p] not in allowed:
                return False
        return pick is None or pick(values) in joined

    # The texts each bound key field may hold, by its part position in the
    # key.  key_in gives each of its positions the values its tuples hold
    # there, a superset that keep narrows to the tuples.  A key field holds
    # text, so a number never matches it.
    texts: dict[int, set[str]] = {}
    bounds = list(key_predicates)
    if key_in is not None:
        positions, tuples = key_in
        bounds += zip(positions, map(set, zip(*tuples)) if tuples else repeat(set()))
    for p, values in bounds:
        allowed = {v for v in values if isinstance(v, str)}
        texts[p - 1] = texts[p - 1] & allowed if p - 1 in texts else allowed
    filtered = key_predicates or key_in is not None
    backing = entry.mapping.store_table
    try:
        rows = store.scan(
            backing,
            keep=keep if filtered else None,
            key_parts=(terminator, nfields, texts) if texts else None,
        )
    except (TableNotFoundError, TableNotEnabledError) as exc:
        state = "does not exist" if isinstance(exc, TableNotFoundError) else "is disabled"
        raise CatalogError(
            f"mapped table {schema.table_name!r}: its backing table {backing!r} {state}"
        ) from None
    out: list[list[Value]] = []
    for row in rows:
        values = split_key(row.key) + blank
        for p, name, ctype, decode, coord in columns:
            raw = row.cells.get(coord)
            if raw is not None:
                try:
                    values[p] = decode(raw)
                except ValueError:
                    raise TypeDecodeError(
                        f"row {row.key!r} column {name}: cannot decode {raw!r} as {ctype}"
                    ) from None
        if all(values[p] in allowed for p, allowed in column_predicates) and all(
            _typed_eq(values[a], values[b]) for a, b in conditions
        ):
            out.append(values)
    return out


def _typed_eq(a: Value, b: Value) -> bool:
    # NULL equals nothing and NaN not even itself; numbers compare across
    # int/float; a number never equals its decimal text.
    return a is not None and a == b


def _make_source(source_ast, catalog: Catalog) -> _Source:
    entry, names = catalog.positions(source_ast.table)
    return _Source(source_ast.alias or source_ast.table, entry, names)


def _resolve(sources: list[_Source], ref: Ref) -> tuple[int, int, str]:
    """Bind a reference to (source index, position in its rows, output header)."""
    is_key = isinstance(ref, KeyFieldRef)
    name = ref.field if is_key else ref.name
    kind = "key field" if is_key else "column"
    wanted = (is_key, name.lower())
    if ref.alias:
        matches = [
            i for i, s in enumerate(sources) if s.qualifier.lower() == ref.alias.lower()
        ]
        if not matches:
            raise SqlError(f"unknown table or alias {ref.alias!r}")
        if wanted not in sources[matches[0]].names:
            table = sources[matches[0]].entry.schema.table_name
            raise SqlError(f"unknown {kind} {name!r} in table {table!r}")
    else:
        matches = [i for i, s in enumerate(sources) if wanted in s.names]
        if not matches:
            raise SqlError(f"unknown {kind} {name!r}")
        if len(matches) > 1:
            raise SqlError(f"ambiguous {kind} {name!r}; qualify it with an alias")
    return (matches[0], *sources[matches[0]].names[wanted])


def execute_query(ast: SelectQuery, catalog: Catalog, store: Store) -> ResultSet:
    """Run a parsed SELECT and return its result table.

    Each source scans its table once and decodes only the columns that the
    projection, the ON clause and the WHERE clause reference (every column
    for SELECT *).  A WHERE predicate, or an ON condition whose two sides
    name one source, filters that source as it is decoded.  Predicates on
    key fields run inside the store's scan, on the split row key, so the
    store parses only the rows whose key passes them.  Their = and IN
    texts are looked up in the store's index of row-key parts, so the
    scan tests only the keys that hold them, not every key of the table.

    The first source is decoded before the second.  An ON condition
    between the sources whose second-source side is a key field also runs
    inside the second scan: that scan parses only the rows whose key
    fields hold values some decoded first-source row holds at the other
    sides, so a bad cell in a row that joins nothing is never decoded.
    That filter is a lookup too: the values at each such key field select
    the candidate keys, and only those are tested against the tuples.

    A source whose mapping names a backing table the store no longer
    holds, or holds disabled, raises CatalogError naming both tables.

    A join is a hash join: the second source's rows are hashed on their
    values of the conditions between the sources, then probed with the
    first source's rows in scan order.  Output order is the scan order of
    the first table, then the second table's scan order within each match,
    which is deterministic.  A condition value that is NULL or NaN matches
    nothing.
    """
    if ast.join is not None:
        first = ast.source.alias or ast.source.table
        second = ast.join.source.alias or ast.join.source.table
        if first.lower() == second.lower():
            raise SqlError(
                f"both sources are named {second!r}; give them distinct aliases"
            )
    sources = [_make_source(ast.source, catalog)]
    if ast.join is not None:
        sources.append(_make_source(ast.join.source, catalog))

    # Every reference becomes (source index, position in that source's rows).
    if ast.select_all:
        bound = []
        for idx, src in enumerate(sources):
            bound.append((idx, 0, "key"))
            bound.extend((idx, *v) for (is_key, _), v in src.names.items() if not is_key)
    else:
        bound = [_resolve(sources, ref) for ref in ast.projections]
    outputs = [(idx, position) for idx, position, _ in bound]
    conditions = [
        (_resolve(sources, left)[:2], _resolve(sources, right)[:2])
        for left, right in (ast.join.conditions if ast.join is not None else ())
    ]
    # A Comparison is an IN list of one value.  Python equality on decoded
    # values is the dialect's: 2 matches 2.0, and '2' matches no number.
    predicates = [
        (
            *_resolve(sources, p.ref)[:2],
            frozenset((p.value,) if isinstance(p, Comparison) else p.values),
        )
        for p in ast.where
    ]

    # Each condition between the sources, as (first-source position,
    # second-source position) whichever side it was written on.
    pairs = [(a, b) if i == 0 else (b, a) for (i, a), (j, b) in conditions if i != j]
    rows = []
    key_in = None
    for idx, src in enumerate(sources):
        referenced = {p for i, p in outputs if i == idx}
        referenced.update(p for sides in conditions for i, p in sides if i == idx)
        rows.append(
            _decode(
                src,
                store,
                referenced,
                [(p, values) for i, p, values in predicates if i == idx],
                [(a, b) for (i, a), (j, b) in conditions if i == j == idx],
                key_in,
            )
        )
        if idx == 0 and len(sources) == 2:
            key_in = _join_keys(rows[0], pairs, sources[1])
    if len(sources) == 1:
        envs = [(row,) for row in rows[0]]
    else:
        envs = _hash_join(rows[0], rows[1], pairs)
    out = [tuple(env[idx][position] for idx, position in outputs) for env in envs]
    return ResultSet([header for _, _, header in bound], out)


def _join_keys(
    left: list[list[Value]], pairs: list[tuple[int, int]], right: _Source
) -> Optional[tuple[list[int], set[tuple[Value, ...]]]]:
    """What the second scan may keep, as _decode's key_in; None if nothing.

    Of the conditions between the sources, those whose second-source side
    is a key field bind that source's row key: a second-source row can
    match only if its key fields hold a tuple that some first-source row
    holds at the other sides (a semi-join).  A tuple holding NULL or NaN
    is left out, since the hash join would never match it.
    """
    on_key = [(a, b) for a, b in pairs if b <= len(right.entry.schema.key_fields)]
    if not on_key:
        return None
    keys = set(map(_picker([a for a, _ in on_key]), left))
    return [b for _, b in on_key], {k for k in keys if all(_typed_eq(v, v) for v in k)}


def _picker(positions: list[int]) -> Callable[[list[Value]], tuple[Value, ...]]:
    """A function from a row to the tuple of its values at positions."""
    if len(positions) > 1:
        return itemgetter(*positions)
    # itemgetter of one position returns no tuple, and of none is an error.
    return lambda row: tuple([row[p] for p in positions])


def _hash_join(
    left: list[list[Value]], right: list[list[Value]], pairs: list[tuple[int, int]]
) -> list[tuple[list[Value], list[Value]]]:
    """Every (left, right) row pair whose values agree at each pair of positions.

    Pairs come in left order, then right order within a left row.  A key
    holding NULL or NaN is neither inserted nor probed, since it equals
    nothing; with no pairs, every key is () and this is a cross product.
    """
    left_key = _picker([a for a, _ in pairs])
    right_key = _picker([b for _, b in pairs])
    table: dict[tuple[Value, ...], list[list[Value]]] = {}
    for row in right:
        key = right_key(row)
        if all(_typed_eq(v, v) for v in key):
            table.setdefault(key, []).append(row)
    out = []
    for row in left:
        key = left_key(row)
        if all(_typed_eq(v, v) for v in key):
            out.extend((row, match) for match in table.get(key, ()))
    return out


# ------------------------------------------------------------- statement API


Statement = Union[SelectQuery, CreateTable, DropTable, DescribeTable]


def parse_statement(text: str) -> Statement:
    """Parse one statement, SELECT or DDL, chosen by its first keyword."""
    stripped = text.lstrip()
    first = stripped.split(None, 1)[0].upper() if stripped else ""
    if first == "SELECT":
        return parse_query(text)
    return parse_ddl_statement(text)


class StatementOutcome(NamedTuple):
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
