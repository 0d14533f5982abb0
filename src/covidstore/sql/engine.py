"""Catalog of mapped tables and the SELECT executor over the store.

Rows come out of the store as raw text values, one per coordinate of the
table's header.  The executor splits the row key on the schema's collection
terminator (first occurrence only, so the country part may themselves
contain the character), takes each referenced cell by its place in the
header, decodes it by its declared type, and treats an absent cell as
NULL.  A stored zero was dropped before loading, so it reads back as NULL,
never 0; that conflation is inherent to the sparse format, not a decoding
choice.

A row's positions are the row key, then each key field (None when the key
has too few parts), then each declared column in declaration order.  Every
reference in a query is bound once, to a source and one of those
positions.  A source decodes only the columns its query references and
leaves the others None.  What queries need of a mapped table (each name's
position, each column's cell and decoder, SELECT *'s outputs and headers)
is built on its first query and kept with its catalog entry until DROP
TABLE removes the entry; store writes never change it.  The pickers that
take a query's cells from a row are kept there too, once per header.
Nothing is kept per statement: each run of a SELECT text parses it and
binds its names again, as a sql process runs each statement once.

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

from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .. import write_atomic
from ..store import CellValueError, ColumnCoord, Store, TableNotEnabledError, TableNotFoundError
from .ddl import CreateTable, DescribeTable, DropTable, parse_ddl, parse_ddl_statement
from .errors import CatalogError, SqlError, TypeDecodeError
from .lexer import TOKEN, split_statements
from .query import Comparison, KeyFieldRef, Literal, Ref, SelectQuery, parse_query

CATALOG_NAME = "CATALOG"

Value = Union[str, int, float, None]


class ResultSet(NamedTuple):
    columns: list[str]
    rows: list[tuple[Value, ...]]


def render_result_set(rs: ResultSet) -> str:
    """Tab-separated, header line first; NULL for None, and str of a float is its repr."""
    lines = ["\t".join(rs.columns)]
    for row in rs.rows:
        lines.append("\t".join(["NULL" if v is None else str(v) for v in row]))
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
        self._plans: dict[str, _Plan] = {}
        if self._path.exists():
            try:
                text = self._path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise CatalogError(f"corrupt catalog {self._path}: {exc}") from None
            for statement in split_statements(text):
                try:
                    parsed = parse_ddl(statement)
                except (SqlError, CellValueError) as exc:
                    raise CatalogError(f"corrupt catalog {self._path}: {exc}") from exc
                self._entries[parsed.schema.table_name.lower()] = parsed

    # ---------------------------------------------------------------- lookup

    def get(self, name: str) -> CreateTable:
        entry = self._entries.get(name.lower())
        if entry is None:
            raise CatalogError(f"table {name!r} not found in catalog")
        return entry

    def has(self, name: str) -> bool:
        return name.lower() in self._entries

    def plan(self, name: str) -> _Plan:
        """A table's definition and what its queries need, built once per entry."""
        plan = self._plans.get(name.lower())
        if plan is None:
            entry = self.get(name)
            fields, columns = entry.schema.key_fields, entry.schema.columns
            names = {(True, f.lower()): (1 + i, f.lower()) for i, f in enumerate(fields)}
            first = 1 + len(fields)
            for i, col in enumerate(columns):
                names[(False, col.name.lower())] = (first + i, col.name)
            plan = self._plans[name.lower()] = _Plan(
                entry,
                names,
                entry.mapping.coords,
                tuple([int if c.ctype == "int" else float for c in columns]),
                _picker([0, *range(first, first + len(columns))]),
                ["key", *[c.name for c in columns]],
                {},
            )
        return plan

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
        """Remove a definition, and its backing table unless another definition maps it.

        Returns False (a warning, not an error) when the name is unknown,
        so scripted drop-then-create sequences run clean on a fresh store.
        """
        key = name.lower()
        entry = self._entries.get(key)
        if entry is None:
            return False
        backing = entry.mapping.store_table
        mapped = [k for k, e in self._entries.items() if e.mapping.store_table == backing]
        if mapped == [key] and self._store.has_table(backing):
            # The store insists on disable-then-drop; do both here, since
            # from this layer the two-step is an implementation detail.
            self._store.disable_table(backing)
            self._store.drop_table(backing)
        del self._entries[key]
        self._plans.pop(key, None)
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
        raws = [self._entries[key].raw for key in sorted(self._entries)]
        statements = [raw if raw.endswith(";") else raw + ";" for raw in raws]
        text = "\n".join(statements) + ("\n" if statements else "")
        write_atomic(self._path, text.encode("utf-8"))


# ---------------------------------------------------------------- execution


class _Plan(NamedTuple):
    """What queries need of one catalog entry; Catalog.plan builds it once."""

    entry: CreateTable
    names: dict[tuple[bool, str], tuple[int, str]]  # (is key, lowered name) -> (position, header)
    coords: tuple[ColumnCoord, ...]  # each declared column's cell, in declaration order
    decoders: tuple[Callable[[str], Value], ...]  # int or float, likewise
    picker: Callable[[list[Value]], tuple[Value, ...]]  # a row's SELECT * outputs
    headers: list[str]  # and their headers
    readers: dict[Optional[tuple[int, ...]], tuple]  # see _reader


def _decode(
    plan: _Plan,
    store: Store,
    referenced: Optional[set[int]],
    predicates: list[tuple[int, frozenset[Literal]]],
    conditions: list[tuple[int, int]],
    key_in: Optional[tuple[list[int], set[tuple[str, ...]]]],
) -> list[list[Value]]:
    """Each row of the table that passes its filters, decoded where referenced.

    A row holds every position, with None at a column the query does not
    reference; referenced None means every column.  Predicates on key
    fields run inside the store's scan, on the split row key, so a row they
    drop is never parsed.  key_in, when given, is (key-field positions,
    allowed text tuples): the scan also drops a row whose key fields at the
    positions hold none of the tuples.  Then every referenced column of a
    kept row is taken from the row's values by its place in the header and
    decoded, in position order, and only then do column predicates and
    same-source conditions drop the row.
    """
    schema = plan.entry.schema
    terminator = schema.collection_terminator
    nfields = len(schema.key_fields)
    first = 1 + nfields
    # The scan's one bound: each key field's = and IN texts (a key field
    # holds text, so a number never matches it; a field named twice keeps
    # the texts both lists hold) filter key_in's tuples where they cover
    # the field, and multiply them by the field's texts where they do not.
    texts: dict[int, set[str]] = {}
    column_predicates = []
    for p, values in predicates:
        if p >= first:
            column_predicates.append((p, values))
            continue
        allowed = {v for v in values if type(v) is str}
        texts[p] = texts[p] & allowed if p in texts else allowed
    positions, tuples = key_in if key_in is not None else ([], {()})
    for p in sorted(texts):
        allowed = texts[p]
        if p in positions:
            tuples = {t for t in tuples
                      if all(v in allowed for q, v in zip(positions, t) if q == p)}
        else:
            tuples = {(*t, v) for t in tuples for v in allowed}
            positions = [*positions, p]
    backing = plan.entry.mapping.store_table
    try:
        rows = store.scan(
            backing,
            (terminator, nfields, tuple([p - 1 for p in positions]), tuples) if positions else None,
        )
    except (TableNotFoundError, TableNotEnabledError) as exc:
        state = "does not exist" if isinstance(exc, TableNotFoundError) else "is disabled"
        raise CatalogError(
            f"mapped table {schema.table_name!r}: its backing table {backing!r} {state}"
        ) from None
    if not rows:
        return []
    columns = None if referenced is None else tuple(sorted([p for p in referenced if p >= first]))
    wanted, decoders, pick = _reader(plan, rows[0].places, first, columns)
    # A row ends at the last position the query reads.
    width = first + len(plan.coords) if columns is None else columns[-1] + 1 if columns else first
    blank = [None] * width
    out: list[list[Value]] = []
    unfiltered = not (column_predicates or conditions)
    for row in rows:
        values = blank.copy()
        parts = row.key.split(terminator, nfields - 1)
        values[0] = row.key
        values[1 : 1 + len(parts)] = parts
        try:
            for p, decode, raw in zip(wanted, decoders, pick(row.values)):
                if raw:
                    values[p] = decode(raw)
        except ValueError:
            name, ctype = schema.columns[p - first]
            raise TypeDecodeError(
                f"row {row.key!r} column {name}: cannot decode {raw!r} as {ctype}"
            ) from None
        # NULL equals nothing and NaN not even itself; numbers compare across
        # int/float; a number never equals its decimal text.
        if unfiltered or all(values[p] in allowed for p, allowed in column_predicates) and all(
            values[a] is not None and values[a] == values[b] for a, b in conditions
        ):
            out.append(values)
    return out


def _reader(
    plan: _Plan, places: Mapping[ColumnCoord, int], first: int, columns: Optional[tuple[int, ...]]
) -> tuple[list[int], list[Callable[[str], Value]], Callable[[Sequence[str]], tuple[str, ...]]]:
    """(positions, decoders, picker of their cells from a row's values) of the
    referenced column positions, None for all, leaving out each column whose
    coordinate the header lacks.  Built once per header, by the identity of
    its places, and kept on the plan."""
    reader = plan.readers.get(columns)
    if reader is None or reader[0] is not places:
        held: list[int] = []
        decoders, at = [], []
        for p in range(first, first + len(plan.coords)) if columns is None else columns:
            place = places.get(plan.coords[p - first])
            if place is not None:
                held.append(p)
                decoders.append(plan.decoders[p - first])
                at.append(place)
        reader = plan.readers[columns] = (places, held, decoders, _picker(at))
    return reader[1:]


def _matchable(key: tuple[Value, ...]) -> bool:
    # No NULL and no NaN, in a loop: a tuple compares NaN equal to itself by identity.
    for v in key:
        if v is None or v != v:
            return False
    return True


def _resolve(plans: list[_Plan], qualifiers: dict[str, int], ref: Ref) -> tuple[int, int, str]:
    """Bind a reference to (source index, position in its rows, output header).

    qualifiers maps each source's alias, or its table name if it has none,
    in lower case, to its index.
    """
    is_key = type(ref) is KeyFieldRef
    name = ref.field if is_key else ref.name
    wanted = (is_key, name.lower())
    kind = "key field" if is_key else "column"
    if ref.alias:
        i = qualifiers.get(ref.alias.lower())
        if i is None:
            raise SqlError(f"unknown table or alias {ref.alias!r}")
        at = plans[i].names.get(wanted)
        if at is None:
            raise SqlError(f"unknown {kind} {name!r} in table {plans[i].entry.schema.table_name!r}")
        return i, *at
    found = [(i, *plan.names[wanted]) for i, plan in enumerate(plans) if wanted in plan.names]
    if not found:
        raise SqlError(f"unknown {kind} {name!r}")
    if len(found) > 1:
        raise SqlError(f"ambiguous {kind} {name!r}; qualify it with an alias")
    return found[0]


def execute_query(ast: SelectQuery, catalog: Catalog, store: Store) -> ResultSet:
    """Run a parsed SELECT and return its result table.

    Each source scans its table once and decodes only the columns that the
    projection, the ON clause and the WHERE clause reference (every column
    for SELECT *).  A WHERE predicate, or an ON condition whose two sides
    name one source, filters that source as it is decoded.  Predicates on
    key fields run inside the store's scan, on the split row key, so the
    store parses only the rows whose key passes them.  The scan looks
    their = and IN texts up in the store's index of row-key parts rather
    than testing every key of the table.  Names bind against each table's
    plan, built once per catalog entry (Catalog.plan).

    The first source is decoded before the second.  An ON condition
    between the sources whose second-source side is a key field also runs
    inside the second scan: that scan parses only the rows whose key
    fields hold a tuple of values some decoded first-source row holds at
    the other sides, so a bad cell in a row that joins nothing is never
    decoded.  That filter and the source's key predicates make one bound,
    so each scan is one lookup in that index.

    A source whose mapping names a backing table the store no longer
    holds, or holds disabled, raises CatalogError naming both tables.

    A join is a hash join: the second source's rows are hashed on their
    values of the conditions between the sources, then probed with the
    first source's rows in scan order.  Output order is the scan order of
    the first table, then the second table's scan order within each match,
    which is deterministic.  A condition value that is NULL or NaN matches
    nothing.
    """
    source, join = ast.source, ast.join
    first = source.alias or source.table
    qualifiers = {first.lower(): 0}
    if join is not None:
        second = join.source.alias or join.source.table
        if second.lower() in qualifiers:
            raise SqlError(f"both sources are named {second!r}; give them distinct aliases")
        qualifiers[second.lower()] = 1
    plans = [catalog.plan(source.table)]
    if join is not None:
        plans.append(catalog.plan(join.source.table))

    # Every reference becomes (source index, position in that source's
    # rows), and each source gathers what filters it: its ON conditions
    # whose two sides it holds (same) and its WHERE predicates (own).  Each
    # condition between the sources becomes a pair of (first-source
    # position, second-source position), whichever side it was written on.
    same: tuple[list[tuple[int, int]], ...] = ([], [])
    own: tuple[list[tuple[int, frozenset[Literal]]], ...] = ([], [])
    pairs = []
    used: list[Optional[set[int]]] = [set(), set()]
    for left, right in join.conditions if join is not None else ():
        i, a, _ = _resolve(plans, qualifiers, left)
        j, b, _ = _resolve(plans, qualifiers, right)
        if i == j:
            same[i].append((a, b))
        else:
            pairs.append((a, b) if i == 0 else (b, a))
        used[i].add(a)
        used[j].add(b)
    # A Comparison is an IN list of one value.  Python equality on decoded
    # values is the dialect's: 2 matches 2.0, and '2' matches no number.
    for p in ast.where:
        i, at, _ = _resolve(plans, qualifiers, p.ref)
        own[i].append((at, frozenset((p.value,) if type(p) is Comparison else p.values)))
        used[i].add(at)
    if ast.select_all:
        used = [None, None]
        pickers = [plan.picker for plan in plans]
        headers = list(chain.from_iterable(plan.headers for plan in plans))
        sides = []
    else:
        outputs: tuple[list[int], ...] = ([], [])
        headers, sides = [], []
        for ref in ast.projections:
            i, at, header = _resolve(plans, qualifiers, ref)
            outputs[i].append(at)
            used[i].add(at)
            headers.append(header)
            sides.append(i)
        pickers = list(map(_picker, outputs))

    rows = _decode(plans[0], store, used[0], own[0], same[0], None)
    if join is None:
        return ResultSet(headers, list(map(pickers[0], rows)))
    key_in = _join_keys(rows, pairs, plans[1])
    # The join yields the first source's outputs, then the second's.
    out = _hash_join(rows, _decode(plans[1], store, used[1], own[1], same[1], key_in),
                     pairs, *pickers)
    if sides != sorted(sides):  # the projection interleaves the sources
        joined = sorted(range(len(sides)), key=sides.__getitem__)
        out = list(map(_picker([joined.index(k) for k in range(len(sides))]), out))
    return ResultSet(headers, out)


def _join_keys(
    left: list[list[Value]], pairs: list[tuple[int, int]], right: _Plan
) -> Optional[tuple[list[int], set[tuple[str, ...]]]]:
    """What the second scan may keep, as _decode's key_in; None if nothing.

    Of the conditions between the sources, those whose second-source side
    is a key field bind that source's row key: a second-source row can
    match only if its key fields hold a tuple that some first-source row
    holds at the other sides (a semi-join).  A key field holds text, so
    only the tuples of text are kept: one holding NULL, NaN or a number
    would never match.
    """
    on_key = [(a, b) for a, b in pairs if b <= len(right.entry.schema.key_fields)]
    if not on_key:
        return None
    keys = set(map(_picker([a for a, _ in on_key]), left))
    return [b for _, b in on_key], {k for k in keys if all(map(isinstance, k, repeat(str)))}


def _picker(positions: list[int]) -> Callable[[list[Value]], tuple[Value, ...]]:
    """A function from a row to the tuple of its values at positions."""
    if len(positions) > 1:
        return itemgetter(*positions)
    # itemgetter of one position returns no tuple, and of none is an error.
    if positions:
        (p,) = positions
        return lambda row: (row[p],)
    return lambda row: ()


def _hash_join(
    left: list[list[Value]],
    right: list[list[Value]],
    pairs: list[tuple[int, int]],
    left_out: Callable[[list[Value]], tuple[Value, ...]],
    right_out: Callable[[list[Value]], tuple[Value, ...]],
) -> list[tuple[Value, ...]]:
    """left_out(l) + right_out(r) for every row pair whose values agree at each pair of positions.

    Pairs come in left order, then right order within a left row.  A left
    key holding NULL or NaN is never probed, since it equals nothing.  A
    right key holding one is inserted unchecked: it could equal only a key
    holding the same None or NaN object, which is never probed.  With no
    pairs, every key is () and this is a cross product.  Each row's
    outputs are picked once, however many rows it matches.
    """
    left_key = _picker([a for a, _ in pairs])
    right_key = _picker([b for _, b in pairs])
    table: dict[tuple[Value, ...], list[tuple[Value, ...]]] = {}
    for row in right:
        table.setdefault(right_key(row), []).append(right_out(row))
    out: list[tuple[Value, ...]] = []
    for row in left:
        key = left_key(row)
        if _matchable(key):
            matches = table.get(key)
            if matches:
                out += map(left_out(row).__add__, matches)
    return out


# ------------------------------------------------------------- statement API


Statement = Union[SelectQuery, CreateTable, DropTable, DescribeTable]


def parse_statement(text: str) -> Statement:
    """Parse one statement, SELECT or DDL, chosen by its first token."""
    first = TOKEN.search(text)
    if first is not None and first[0].upper() == "SELECT":
        return parse_query(text)
    return parse_ddl_statement(text)


class StatementOutcome(NamedTuple):
    """What executing one statement produced, if anything printable."""

    result: Optional[ResultSet] = None
    text: Optional[str] = None
    warning: Optional[str] = None


def execute_statement(statement: Statement, catalog: Catalog, store: Store) -> StatementOutcome:
    """Execute any parsed statement against a catalog and its store."""
    if isinstance(statement, SelectQuery):
        return StatementOutcome(result=execute_query(statement, catalog, store))
    if isinstance(statement, CreateTable):
        catalog.create_mapped_table(statement)
        return StatementOutcome()
    if isinstance(statement, DropTable):
        if not catalog.drop_mapped_table(statement.name):
            return StatementOutcome(
                warning=f"table {statement.name!r} does not exist, nothing dropped"
            )
        return StatementOutcome()
    if isinstance(statement, DescribeTable):
        return StatementOutcome(text=catalog.describe(statement.name))
    raise SqlError(f"unsupported statement {statement!r}")
