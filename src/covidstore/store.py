"""Embedded wide-column store in the HBase mold.

Tables hold sparse rows addressed by a string row key.  Each cell lives at a
family:qualifier coordinate; families are fixed at table creation, qualifiers
are free-form.  Rows and cells come back in byte order, writes are
last-write-wins upserts, and there is no cell versioning.

Each row's cells are kept in coordinate order: a data file holds them in
that order, put and import_tsv build a new row in it, and a row that a
later write adds to is sorted once, before the next read or flush.  Reads
hand out read-only views of the table's own rows instead of sorted copies.

A store is a directory.  MANIFEST lists the tables, one tab-separated line
each:

    <name> TAB <families> TAB <enabled 0|1> TAB <data file> TAB <bytes> TAB <crc32>

Every table keeps its cells in a <name>.dat file, rewritten on flush
with one line per row, rows in key order:

    <row key> TAB <family>:<qualifier> TAB <value> [TAB <family>:<qualifier> TAB <value> ...]

with the pairs in coordinate order.  Flush writes the data files first and
MANIFEST after them, with each file's byte size and zlib.crc32.  A LOCK
file keeps a second process out while the store is open.  Keys,
coordinates and values are UTF-8 text without tabs or newlines, and a
family or qualifier holds no colon or comma, which is what keeps the
on-disk format trivial.

Open reads every data file in full and checks its size and checksum.  A
file that matches was written by flush, so open only indexes its lines by
row key; a row is parsed the first time get, scan, put or import_tsv
touches it, and a table nothing touches is neither parsed nor rewritten.
import_tsv keeps a new row in the same form, the line flush would write,
built from the input fields (HBase's bulk load: write the storage format,
not each cell).  A file that does not match, or whose MANIFEST line has
the four fields of an older store, is parsed in full at open and refused
as corrupt at its first bad line.  One that parses cleanly is accepted
(a crash between a data file's replace and the MANIFEST rewrite leaves
exactly that), and its MANIFEST line keeps four fields until flush
rewrites the file.  A data file in the older one-line-per-cell layout has
four fields a line, so it is refused as corrupt; rebuild such a store by
re-running DROP/CREATE and load.

A scan bound on row-key parts (Store.scan's key_parts) looks its keys up
instead of testing every key.  Each table keeps an in-memory index of its
row keys' parts: for each terminator and part count a bound scan asks
for, built on the first such scan with one split per key, it maps each
position's part text to the keys holding it, in key order.  Only keys are
indexed, so a write to an existing row keeps the index; whatever can add
a row key drops it (put or import_tsv of a new key, and the full parse at
open), and the next bound scan builds it again.  The index lives only in
memory and is never written.

Table removal follows the HBase two-step: disable first, then drop.  Unlike
HBase, disabling an already disabled table is a no-op rather than an error;
nothing in the workflows here needs the stricter behavior.
"""

from __future__ import annotations

import os
import zlib
from collections import defaultdict
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import AbstractSet, Callable, Final, Mapping, NamedTuple, Optional, Sequence, Union

from . import StoreError, write_atomic

# Marker used in import column specs for the field that becomes the row key.
ROW_KEY: Final = "HBASE_ROW_KEY"

_FORBIDDEN = ("\t", "\n", "\r")
_COORD_FORBIDDEN = (":", ",") + _FORBIDDEN

# A scan's bound on row-key parts: (terminator, part count, allowed texts by
# part position); see Store.scan.
KeyParts = tuple[str, int, Mapping[int, AbstractSet[str]]]


class TableNotFoundError(StoreError):
    pass


class TableExistsError(StoreError):
    pass


class TableNotEnabledError(StoreError):
    pass


class TableEnabledError(StoreError):
    """Drop attempted on a table that has not been disabled."""


class UnknownFamilyError(StoreError):
    pass


class CellValueError(StoreError):
    """A key, coordinate, or value that the cell format cannot hold."""


class StoreLockedError(StoreError):
    pass


class CorruptStoreError(StoreError):
    """An on-disk file failed to parse; the message names the file."""


def _check_text(text: str, what: str) -> None:
    if not text:
        raise CellValueError(f"empty {what} not allowed")
    for ch in _FORBIDDEN:
        if ch in text:
            raise CellValueError(f"{what} must not contain tab or newline characters")


class ColumnCoord(NamedTuple):
    """A cell coordinate, rendered family:qualifier; ordered by family, then qualifier."""

    family: str
    qualifier: str

    def __str__(self) -> str:
        return f"{self.family}:{self.qualifier}"

    def check(self) -> "ColumnCoord":
        """Return the coordinate if a data file can hold it, else raise CellValueError.

        Family and qualifier are non-empty and hold no colon, comma, tab or
        newline, so the rendered text parses back to the same coordinate.
        """
        family, qualifier = self
        if not family or not qualifier or any(
            ch in family or ch in qualifier for ch in _COORD_FORBIDDEN
        ):
            raise CellValueError(f"invalid column coordinate {str(self)!r}")
        return self

    @classmethod
    def parse(cls, text: str) -> "ColumnCoord":
        family, sep, qualifier = text.partition(":")
        if not sep:
            raise CellValueError(f"invalid column coordinate {text!r}")
        return cls(family, qualifier).check()


class _CoordTexts(dict):
    """Each coordinate's family:qualifier text, built on its first lookup."""

    def __missing__(self, coord: ColumnCoord) -> str:
        text = self[coord] = str(coord)
        return text


class TableDescriptor(NamedTuple):
    name: str
    families: frozenset[str]
    enabled: bool


class Row:
    """One scanned row; cells are keyed by coordinate, in coordinate order.

    cells is a read-only view of the table's own row, valid until the next
    write to that table.  A slots class rather than a NamedTuple: queries
    read both fields of every row, and CPython reads a slot about twice as
    fast as a NamedTuple field.
    """

    __slots__ = ("key", "cells")

    def __init__(self, key: str, cells: Mapping[ColumnCoord, str]) -> None:
        self.key = key
        self.cells = cells


class ImportSpec:
    """Shape of a delimited file for bulk import.

    columns names every field of the line in order; exactly one entry must
    be the ROW_KEY marker.  skip_bad_lines turns malformed lines into skips
    instead of aborting; skip_empty_columns silently omits cells for empty
    fields rather than treating the line as malformed.
    """

    __slots__ = ("columns", "separator", "skip_bad_lines", "skip_empty_columns")

    def __init__(
        self,
        columns: tuple[Union[str, ColumnCoord], ...],
        separator: str = "\t",
        skip_bad_lines: bool = False,
        skip_empty_columns: bool = False,
    ) -> None:
        if len(separator) != 1:
            raise ValueError(f"separator must be one character, got {separator!r}")
        markers = [c for c in columns if c == ROW_KEY]
        if len(markers) != 1:
            raise ValueError(f"import spec needs exactly one {ROW_KEY} column")
        seen: set[ColumnCoord] = set()
        for c in columns:
            if c == ROW_KEY:
                continue
            if not isinstance(c, ColumnCoord):
                raise ValueError(f"import spec column {c!r} is not a coordinate")
            c.check()
            if c in seen:
                raise ValueError(f"import spec names column {c} twice")
            seen.add(c)
        self.columns = columns
        self.separator = separator
        self.skip_bad_lines = skip_bad_lines
        self.skip_empty_columns = skip_empty_columns

    @property
    def key_index(self) -> int:
        return self.columns.index(ROW_KEY)


class ImportReport(NamedTuple):
    """What a bulk import did: rows written, and each skipped line with why."""

    loaded: int
    errors: list[tuple[int, str]]

    @property
    def skipped(self) -> int:
        return len(self.errors)


class _Table:
    __slots__ = (
        "descriptor", "data_file", "checksum", "rows", "lines", "coords", "keys",
        "parts", "dirty", "unsorted", "view",
    )

    def __init__(self, descriptor: TableDescriptor, data_file: str) -> None:
        self.descriptor = descriptor
        self.data_file = data_file
        # (bytes, crc32) of the data file as flush wrote it; None when the
        # file on disk was not written by flush, so the next open parses it
        # in full.
        self.checksum: Optional[tuple[int, int]] = (0, 0)
        self.rows: dict[str, dict[ColumnCoord, str]] = {}
        # Rows not parsed yet, by row key: lines of a checked data file and
        # new rows import_tsv added.  Each is exactly the line flush would
        # write for its row.
        self.lines: dict[str, str] = {}
        # Each coordinate text is checked once and maps to one shared object.
        self.coords: dict[str, ColumnCoord] = {}
        # Every row key in order; None once a write may have added one.
        self.keys: Optional[list[str]] = []
        # The row keys by key part, built on the first scan bound on parts:
        # (terminator, part count, position) -> part text -> keys in key
        # order.  Dropped, with keys, whenever a row key may have been added.
        self.parts: dict[tuple[str, int, int], dict[str, list[str]]] = {}
        self.dirty = False
        # Keys of rows whose cells may be out of coordinate order.
        self.unsorted: set[str] = set()
        # What a full scan hands out, in key order; None once a write may have changed it.
        self.view: Optional[list[Row]] = None

    def parse(self, line: str) -> tuple[str, dict[ColumnCoord, str]]:
        """Key and cells of one data file line; raises CellValueError."""
        fields = line.split("\t")
        key, names, values = fields[0], fields[1::2], fields[2::2]
        if not key or len(names) != len(values) or not values or "" in values:
            raise CellValueError("expected a key and coordinate/value pairs, none empty")
        coords = self.coords
        try:
            row = dict(zip(map(coords.__getitem__, names), values))
        except KeyError:
            for name in names:
                if name not in coords:
                    coord = ColumnCoord.parse(name)
                    if coord.family not in self.descriptor.families:
                        raise CellValueError(f"unknown family {coord.family!r}") from None
                    coords[name] = coord
            row = dict(zip(map(coords.__getitem__, names), values))
        if len(row) != len(values):
            raise CellValueError("a coordinate repeats")
        return key, row

    def row(self, key: str) -> Optional[dict[ColumnCoord, str]]:
        """The row at key, parsed on first touch; None if there is none."""
        row = self.rows.get(key)
        if row is None and key in self.lines:
            line = self.lines.pop(key)
            try:
                row = self.rows[key] = self.parse(line)[1]
            except CellValueError as exc:
                raise CorruptStoreError(
                    f"corrupt data file {self.data_file}: row {key!r}: {exc}"
                ) from None
        return row

    def ordered_keys(self) -> list[str]:
        if self.keys is None:
            self.keys = sorted([*self.rows, *self.lines])
        return self.keys

    def forget_keys(self) -> None:
        """Drop what was derived from the key set, which a new row changes."""
        self.keys = self.view = None
        self.parts.clear()

    def part_index(self, terminator: str, count: int, position: int) -> dict[str, list[str]]:
        """The row keys by their part at position, each key split into at most count parts.

        One split of each key indexes every position of (terminator, count).
        """
        index = self.parts.get((terminator, count, position))
        if index is None:
            keys = self.ordered_keys()
            split = [key.split(terminator, count - 1) for key in keys]
            for p in range(count):
                by_part: defaultdict[str, list[str]] = defaultdict(list)
                for key, parts in zip(keys, split):
                    if len(parts) > p:
                        by_part[parts[p]].append(key)
                self.parts[(terminator, count, p)] = by_part
            index = self.parts[(terminator, count, position)]
        return index

    def candidates(
        self, terminator: str, count: int, allowed: Mapping[int, AbstractSet[str]]
    ) -> list[str]:
        """The keys, in order, whose part at each position of allowed is one of its texts.

        Each key is split at its first count - 1 terminators; a key with
        fewer parts than a position has no part there, so it is never a
        candidate.  The keys of the position that allows the fewest are
        looked up, then checked at the other positions.
        """
        keys = self.ordered_keys()
        bounds = []
        for position, texts in allowed.items():
            index = self.part_index(terminator, count, position)
            hits = [index[text] for text in texts if text in index]
            bounds.append((sum(map(len, hits)), position, texts, hits))
        bounds.sort(key=itemgetter(0))
        if not bounds or bounds[0][0] == len(keys):
            return keys  # every bound position allows every key
        _, _, _, hits = bounds[0]
        found = hits[0] if len(hits) == 1 else sorted(chain.from_iterable(hits))
        others = [(p, texts) for n, p, texts, _ in bounds[1:] if n < len(keys)]
        if not others:
            return found
        out = []
        for key in found:
            parts = key.split(terminator, count - 1)
            if all(p < len(parts) and parts[p] in texts for p, texts in others):
                out.append(key)
        return out

    def write(self, key: str, cells: list[tuple[ColumnCoord, str]]) -> None:
        """Upsert cells, given in coordinate order, into a row."""
        self.dirty = True
        self.view = None
        row = self.row(key)
        if row is None:
            self.rows[key] = dict(cells)
            self.forget_keys()
        else:
            row.update(cells)
            self.unsorted.add(key)

    def sort(self) -> None:
        """Put the cells of every row a write added to back in coordinate order."""
        rows = self.rows
        for key in self.unsorted:
            cells = rows[key]
            rows[key] = {c: cells[c] for c in sorted(cells)}
        self.unsorted.clear()

    def scan(
        self, keep: Optional[Callable[[str], bool]] = None, key_parts: Optional[KeyParts] = None
    ) -> list[Row]:
        """Rows in key order: the candidates of key_parts if given, then those keep passes."""
        if key_parts is None and self.view is not None:
            return self.view if keep is None else [r for r in self.view if keep(r.key)]
        self.sort()
        keys = self.ordered_keys() if key_parts is None else self.candidates(*key_parts)
        row = self.row
        rows = [
            Row(key, MappingProxyType(row(key)))  # type: ignore[arg-type]
            for key in (keys if keep is None else filter(keep, keys))
        ]
        if keep is None and key_parts is None:
            self.view = rows
        return rows


MANIFEST_NAME: Final = "MANIFEST"
LOCK_NAME: Final = "LOCK"


def open_store(directory: str | Path) -> "Store":
    """Open (creating if needed) the store in the given directory."""
    return Store(directory)


class Store:
    """A directory-backed collection of wide-column tables.

    One process at a time, kept to that by the LOCK file; there is no
    in-process locking, because no thread shares a Store.  Readers get back
    read-only views of the table's own cells, valid until the next write to
    that table; the lists holding them are the caller's.  The other records
    it returns, TableDescriptor and ImportReport, are immutable tuples, and
    a failed write to the store directory raises OSError.  Mutations become
    durable on flush (close flushes too), except that table creation,
    disabling, and dropping persist immediately.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._closed = False
        self._lock_path = self.directory / LOCK_NAME
        self._acquire_lock()
        try:
            self._tables: dict[str, _Table] = {}
            self._load()
        except BaseException:
            self._release_lock()
            raise

    # ------------------------------------------------------------------ setup

    def _acquire_lock(self) -> None:
        try:
            fd = os.open(self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreLockedError(
                f"store {self.directory} is already open (lock file {self._lock_path}; "
                "remove it if no other process is using the store)"
            ) from None
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")

    def _release_lock(self) -> None:
        try:
            self._lock_path.unlink()
        except FileNotFoundError:
            pass

    def _load(self) -> None:
        manifest = self.directory / MANIFEST_NAME
        if not manifest.exists():
            return
        try:
            text = manifest.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptStoreError(f"corrupt manifest {manifest}: {exc}") from None
        # Split on newline only: values may hold exotic line separators that
        # splitlines() would treat as record breaks.
        for i, line in enumerate(text.split("\n"), 1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (4, 6):
                raise CorruptStoreError(
                    f"corrupt manifest {manifest}: line {i}: "
                    f"expected 6 fields (4 in an older store), found {len(parts)}"
                )
            name, families_text, flag, data_file = parts[:4]
            if not name or name in self._tables:
                raise CorruptStoreError(
                    f"corrupt manifest {manifest}: line {i}: bad table name {name!r}"
                )
            families = frozenset(f for f in families_text.split(",") if f)
            sums = parts[4:]
            if (
                not families
                or flag not in ("0", "1")
                or not all(n.isascii() and n.isdigit() for n in sums)
            ):
                raise CorruptStoreError(
                    f"corrupt manifest {manifest}: line {i}: bad table entry"
                )
            table = _Table(TableDescriptor(name, families, flag == "1"), data_file)
            self._read_data(table, (int(sums[0]), int(sums[1])) if sums else None)
            self._tables[name] = table

    def _read_data(self, table: _Table, checksum: Optional[tuple[int, int]]) -> None:
        """Index the data file's lines by row key, or parse it in full.

        Only a file whose size and crc32 match its MANIFEST line is indexed;
        any other is parsed strictly, line by line, and its table keeps no
        checksum until flush rewrites the file.
        """
        path = self.directory / table.data_file
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            # A crash between manifest write and first flush leaves no data
            # file; that is an empty table, not corruption.
            return
        try:
            lines = data.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise CorruptStoreError(f"corrupt data file {path}: {exc}") from None
        if (len(data), zlib.crc32(data)) == checksum:
            table.checksum = checksum
            lines.pop()  # the empty text after the last newline
            table.lines = {line[: line.find("\t")]: line for line in lines}
            table.keys = list(table.lines)
            return
        table.checksum = None
        table.forget_keys()
        try:
            for i, line in enumerate(lines, 1):
                if not line:
                    continue
                key, row = table.parse(line)
                if table.rows.setdefault(key, row) is not row:
                    raise CellValueError(f"row key {key!r} repeated")
        except CellValueError as exc:
            raise CorruptStoreError(f"corrupt data file {path}: line {i}: {exc}") from None

    # ------------------------------------------------------------- persistence

    def _write_manifest(self) -> None:
        lines = []
        for name in sorted(self._tables):
            t = self._tables[name]
            d = t.descriptor
            fields = [d.name, ",".join(sorted(d.families)), "1" if d.enabled else "0", t.data_file]
            if t.checksum is not None:
                fields += map(str, t.checksum)
            lines.append("\t".join(fields) + "\n")
        write_atomic(self.directory / MANIFEST_NAME, "".join(lines).encode("utf-8"))

    def _write_table(self, table: _Table) -> None:
        """Rewrite the data file; a row nothing touched keeps its line as read."""
        table.sort()
        text = _CoordTexts().__getitem__
        out = []
        for key in table.ordered_keys():
            line = table.lines.get(key)
            if line is None:
                row = table.rows[key]
                line = "\t".join([key, *chain.from_iterable(zip(map(text, row), row.values()))])
            out.append(line + "\n")
        data = "".join(out).encode("utf-8")
        write_atomic(self.directory / table.data_file, data)
        table.checksum = (len(data), zlib.crc32(data))
        table.dirty = False

    def flush(self) -> None:
        """Write every pending mutation to disk: data files first, then MANIFEST."""
        self._ensure_open()
        dirty = [table for table in self._tables.values() if table.dirty]
        for table in dirty:
            self._write_table(table)
        if dirty:
            self._write_manifest()

    def close(self) -> None:
        """Flush, then release the store directory for other processes."""
        if self._closed:
            return
        self.flush()
        self._release_lock()
        self._closed = True

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------------- helpers

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    def _table(self, name: str) -> _Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"table {name!r} not found") from None

    def _enabled_table(self, name: str) -> _Table:
        table = self._table(name)
        if not table.descriptor.enabled:
            raise TableNotEnabledError(f"table {name!r} is disabled")
        return table

    # ------------------------------------------------------------- public API

    def table_names(self) -> list[str]:
        self._ensure_open()
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        self._ensure_open()
        return name in self._tables

    def descriptor(self, name: str) -> TableDescriptor:
        self._ensure_open()
        return self._table(name).descriptor

    def create_table(self, name: str, families: Sequence[str] | set[str]) -> TableDescriptor:
        """Create an enabled table with the given column families."""
        self._ensure_open()
        _check_text(name, "table name")
        if "/" in name or "\\" in name or "\0" in name:
            raise StoreError(f"table name {name!r} must not contain path separators or NUL")
        if name in self._tables:
            raise TableExistsError(f"table {name!r} already exists")
        family_set = frozenset(families)
        if not family_set:
            raise StoreError("a table needs at least one column family")
        for fam in family_set:
            _check_text(fam, "family name")
            if ":" in fam or "," in fam:
                raise StoreError(f"invalid family name {fam!r}")
        table = _Table(TableDescriptor(name, family_set, True), f"{name}.dat")
        self._write_table(table)
        self._tables[name] = table  # only once its data file exists
        self._write_manifest()
        return table.descriptor

    def disable_table(self, name: str) -> None:
        """Take a table out of service; disabling twice is a no-op."""
        self._ensure_open()
        table = self._table(name)
        if table.descriptor.enabled:
            table.descriptor = table.descriptor._replace(enabled=False)
            self._write_manifest()

    def drop_table(self, name: str) -> None:
        """Remove a disabled table and its data for good."""
        self._ensure_open()
        table = self._table(name)
        if table.descriptor.enabled:
            raise TableEnabledError("table must be disabled first")
        del self._tables[name]
        try:
            (self.directory / table.data_file).unlink()
        except FileNotFoundError:
            pass
        self._write_manifest()

    def put(self, table: str, row_key: str, coord: ColumnCoord, value: str) -> None:
        """Write one cell; an existing cell at the coordinate is replaced."""
        self._ensure_open()
        t = self._enabled_table(table)
        _check_text(row_key, "row key")
        _check_text(value, "value")
        coord.check()
        if coord.family not in t.descriptor.families:
            raise UnknownFamilyError(
                f"unknown column family {coord.family!r} for table {table!r}"
            )
        t.write(row_key, [(coord, value)])

    def get(
        self, table: str, row_key: str, coord: Optional[ColumnCoord] = None
    ) -> list[tuple[ColumnCoord, str]]:
        """Read one row, or one cell of it.

        A missing row or cell is an empty result, not an error.  Without a
        coordinate, every cell of the row comes back in coordinate order.
        """
        self._ensure_open()
        t = self._enabled_table(table)
        row = t.row(row_key)
        if not row:
            return []
        if coord is not None:
            value = row.get(coord)
            return [(coord, value)] if value is not None else []
        t.sort()
        return list(t.rows[row_key].items())

    def scan(
        self,
        table: str,
        keep: Optional[Callable[[str], bool]] = None,
        key_parts: Optional[KeyParts] = None,
    ) -> list[Row]:
        """Every row of the table, keys ascending, cells in coordinate order.

        With key_parts, (terminator, count, allowed), only the candidate
        keys: split at their first count - 1 terminators, their part at
        each position of allowed is one of its texts.  The table's index
        of key parts finds them without testing every key.  With keep, only
        the rows (of the candidates, if any) whose key keep returns true
        for; keep sees no other key.  Only the rows returned are parsed.
        The list is the caller's; each row's cells are a read-only view,
        valid until the next write to the table.
        """
        self._ensure_open()
        return list(self._enabled_table(table).scan(keep, key_parts))

    def import_tsv(self, table: str, file: str | Path, spec: ImportSpec) -> ImportReport:
        """Bulk-load a delimited file, one row per line.

        Returns a report of rows written and lines skipped; the caller
        decides what to print.  Re-importing merges cell by cell, newest
        write winning, same as put.
        """
        self._ensure_open()
        t = self._enabled_table(table)
        for col in spec.columns:
            if isinstance(col, ColumnCoord) and col.family not in t.descriptor.families:
                raise UnknownFamilyError(
                    f"unknown column family {col.family!r} for table {table!r}"
                )
        path = Path(file)
        try:
            # newline="": only \n and \r\n end a line, so a lone \r stays in
            # its field, where the value check refuses it.
            with open(path, encoding="utf-8", newline="") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise StoreError(f"cannot read {path}: {exc}") from exc
        if "\r" in text:  # a replace that finds nothing still costs a copy's time
            text = text.replace("\r\n", "\n")

        columns = spec.columns
        key_index = spec.key_index
        value_indexes = [i for i in range(len(columns)) if i != key_index]
        # Value fields in coordinate order: coordinates (the table's shared
        # objects), texts, and a picker (itemgetter of one index is no tuple).
        in_order = sorted((columns[i], i) for i in value_indexes)
        texts = [str(coord) for coord, _ in in_order]
        coords = [t.coords.setdefault(text, c) for text, (c, _) in zip(texts, in_order)]
        order = [i for _, i in in_order]
        pick = itemgetter(*order) if len(order) > 1 else lambda f: tuple(map(f.__getitem__, order))
        # Only a line holding one of these, or an empty field where that is
        # refused, can fail a value check.
        forbidden = [ch for ch in _FORBIDDEN if ch != spec.separator]
        check_empty = not spec.skip_empty_columns
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()  # trailing newline, not an empty record
        loaded = 0
        errors: list[tuple[int, str]] = []
        for line_no, line in enumerate(lines, 1):
            fields = line.split(spec.separator)
            try:
                if len(fields) != len(columns):
                    raise CellValueError(f"expected {len(columns)} fields, found {len(fields)}")
                key = fields[key_index]
                if not key:
                    raise CellValueError("empty row key")
                if any(map(line.__contains__, forbidden)) or (check_empty and "" in fields):
                    for i in value_indexes:
                        if fields[i]:
                            _check_text(fields[i], "value")
                        elif check_empty:
                            raise CellValueError(f"empty value in column {columns[i]}")
                values = pick(fields)
                if not any(values):
                    # A row with no cells does not exist; refuse the line
                    # rather than fabricate one.
                    raise CellValueError("no values to write")
                _check_text(key, "row key")
            except CellValueError as exc:
                if not spec.skip_bad_lines:
                    raise StoreError(f"{path}: line {line_no}: {exc}") from None
                errors.append((line_no, str(exc)))
                continue
            if key in t.rows or key in t.lines:
                t.write(key, list(compress(zip(coords, values), values)))
            else:
                t.lines[key] = "\t".join(
                    [key, *chain.from_iterable(compress(zip(texts, values), values))]
                )
                t.forget_keys()
                t.dirty = True
            loaded += 1
        return ImportReport(loaded, errors)
