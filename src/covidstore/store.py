"""Embedded wide-column store in the HBase mold.

Tables hold sparse rows addressed by a string row key.  Each cell lives at a
family:qualifier coordinate; families are fixed at table creation, qualifiers
are free-form.  Rows and cells come back in byte order, writes are
last-write-wins upserts, and there is no cell versioning.

Rows are positional, as Hive's hbase.columns.mapping reads HBase's rows:
a table's header names once, in order, each coordinate a row holds, and a
row's n-th value is its cell at the header's n-th coordinate, empty if
absent, up to its last cell.  A read finds a cell by its place in the
header, never by hashing its coordinate, and hands out the table's own
immutable values instead of copies.

A store is a directory of LOCK, MANIFEST and one data file per table.
MANIFEST lists the tables, one tab-separated line of six fields each:

    <name> TAB <families> TAB <enabled 0|1> TAB <name>.dat TAB <bytes> TAB <crc32>

A table keeps its cells in <name>.dat, and in no other file, rewritten on
flush as a header line, then one line per row, rows in key order:

    TAB <family>:<qualifier> [TAB <family>:<qualifier> ...]
    <row key> TAB <value> [TAB <value> ...]

The header's empty key sets it apart from every row line.  An absent cell
before a row's last costs a tab, dear only in a very wide, very sparse
table.  Flush writes the data files first and MANIFEST after them, with
each file's size and zlib.crc32, writing, encoding and summing a data file
one line at a time through the file's own buffer.  An flock on LOCK keeps
a second process out while the store is open, and the kernel drops it
when the process ends, however it ends.  LOCK stays, with its last
owner's pid: only the flock counts (LevelDB's rule).  Keys, coordinates
and values are UTF-8 text without tabs, newlines or carriage returns, and
a family or qualifier holds no colon or comma, which keeps the on-disk
format trivial.

Open and import_tsv read MANIFEST, the data files and the load input
through one LineReader, one line at a time through the file's own
buffer, so open, flush and load hold a table's data once, as its rows,
never beside a whole-file copy of it or of the input.  A data file whose
size and checksum match was written by flush, so open checks its header
and only indexes its rows by key; a row is split into its values the
first time get, scan, put or import_tsv touches it, and a table nothing
touches is neither parsed nor rewritten.  import_tsv keeps a new row in
the same form, the line flush would write, built from the input fields
(HBase's bulk load: write the storage format, not each cell).  A file
that does not match is parsed in full at open and refused as corrupt at
its first bad line.  One that parses cleanly is accepted (a crash between
a data file's replace and the MANIFEST rewrite leaves exactly that), and
the next MANIFEST write records the sums open read.  Either reading skips
blank lines.  An older store, with four-field MANIFEST
lines or coordinate and value pairs in its rows, is refused as corrupt;
rebuild it by re-running DROP/CREATE and load.

A scan takes at most one bound on row-key parts (Store.scan's key_parts),
into which the caller folds every constraint on the key, and looks its
tuples up in an index of the table's row-key parts (see _Table.parts).
Only keys are indexed, so a write to an existing row keeps the index;
whatever can add a row key drops it.  The index lives only in memory, and
flush, an unbound scan and an index build each sort the keys themselves.

Table removal follows the HBase two-step: disable first, then drop.  Unlike
HBase, disabling an already disabled table is a no-op rather than an error;
nothing in the workflows here needs the stricter behavior.
"""

from __future__ import annotations

import fcntl
import os
import re
import zlib
from itertools import chain, compress, islice, repeat
from operator import ge, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import AbstractSet, Final, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from . import LineReader, StoreError, write_atomic

# Marker used in import column specs for the field that becomes the row key.
ROW_KEY: Final = "HBASE_ROW_KEY"

_FORBIDDEN = ("\t", "\n", "\r")
# family:qualifier, a group each, neither empty nor holding : , \t \n or \r.
COORD_PATTERN = r"([^:,\t\n\r]+):([^:,\t\n\r]+)"
_COORD = re.compile(COORD_PATTERN)
# A data file's header line: a tab before each coordinate.
_HEADER = re.compile(f"(?:\t{COORD_PATTERN})+")

# A scan's bound on row-key parts: (terminator, part count, part
# positions, allowed tuples of the part texts at them); see Store.scan.
KeyParts = tuple[str, int, tuple[int, ...], AbstractSet[tuple[str, ...]]]


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
    if not (text.isascii() or _encodable(text)):
        raise CellValueError(f"{what} {text!r} is not text UTF-8 can encode")


def _encodable(text: str) -> bool:
    """Whether UTF-8 can encode text, which a lone surrogate prevents.

    surrogateescape makes one of a byte that is not UTF-8; a write is
    refused for it, not the flush after it, which would lose every write.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_table_name(name: str) -> None:
    """Raise StoreError unless name makes a data file <name>.dat inside the store."""
    _check_text(name, "table name")
    if "/" in name or "\\" in name or "\0" in name:
        raise StoreError(f"table name {name!r} must not contain path separators or NUL")


class ColumnCoord(NamedTuple):
    """A cell coordinate, rendered family:qualifier; ordered by family, then qualifier."""

    family: str
    qualifier: str

    def __str__(self) -> str:
        return f"{self.family}:{self.qualifier}"

    def check(self) -> "ColumnCoord":
        """Return the coordinate if a data file can hold it, else raise CellValueError.

        Family and qualifier are non-empty UTF-8 text and hold no colon,
        comma, tab or newline, so the rendered text parses back to the same
        coordinate.
        """
        ColumnCoord.parse(f"{self.family}:{self.qualifier}")
        return self

    @classmethod
    def parse(cls, text: str) -> "ColumnCoord":
        m = _COORD.fullmatch(text)
        if m is None or not _encodable(text):
            raise CellValueError(f"invalid column coordinate {text!r}")
        return cls._make(m.groups())


class TableDescriptor(NamedTuple):
    name: str
    families: frozenset[str]
    enabled: bool


class Row:
    """One row read: values[i] is its cell at coords[i], "" if absent.

    values, coords (the header) and places (each coordinate's index in
    coords, read-only by contract) are the table's own objects, which a
    write replaces but never changes, so a Row stays as it was read.  The
    header and its places are one object each until the header changes, so
    a reader may key what it derives from them on their identity.  A slots
    class rather than a NamedTuple: queries read several fields of every
    row, and CPython reads a slot about twice as fast as a NamedTuple field.
    """

    __slots__ = ("key", "values", "coords", "places")

    def __init__(
        self, key: str, values: tuple[str, ...], coords: tuple[ColumnCoord, ...],
        places: Mapping[ColumnCoord, int],
    ) -> None:
        self.key = key
        self.values = values
        self.coords = coords
        self.places = places

    @property
    def cells(self) -> Mapping[ColumnCoord, str]:
        """The cells by coordinate, in coordinate order: a read-only mapping built on access."""
        return MappingProxyType(dict(compress(zip(self.coords, self.values), self.values)))


class ImportSpec:
    """Shape of a sparse CSV line for bulk import.

    columns names every comma-separated field of the line in order;
    exactly one entry must be the ROW_KEY marker.  An empty field is an
    absent cell.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: tuple[Union[str, ColumnCoord], ...]) -> None:
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
        "descriptor", "data_file", "checksum", "rows", "coords", "places", "parts", "dirty",
    )

    def __init__(self, descriptor: TableDescriptor) -> None:
        self.descriptor = descriptor
        self.data_file = f"{descriptor.name}.dat"
        # (bytes, crc32) of the data file as flush wrote it or open read it.
        self.checksum = (0, 0)
        # Every row by key.  A row nothing has touched yet (a row line of a
        # checked data file, or a new row import_tsv added) is its line,
        # exactly as flush would write it; a touched row is its values, one
        # per coordinate of coords, and may end before coords does, as a
        # line may, once admit appends to coords (row() pads it).  Either
        # way the n-th value is the cell at coords[n - 1].
        self.rows: dict[str, Union[str, tuple[str, ...]]] = {}
        # The header: each coordinate a row holds, in order, one shared
        # object each, and its places, each coordinate's index in it.  Both
        # are replaced, never changed in place (see Row).
        self.coords: tuple[ColumnCoord, ...] = ()
        self.places: dict[ColumnCoord, int] = {}
        # The row keys by key parts, built on the first scan bound on them:
        # (terminator, part count, positions) -> part texts -> keys in key
        # order.  Dropped whenever a row key may have been added.
        self.parts: dict[tuple[str, int, tuple[int, ...]], dict[tuple[str, ...], list[str]]] = {}
        self.dirty = False

    def read_header(self, line: str) -> None:
        """Take coords from a data file's header line; raises CellValueError."""
        if not _HEADER.fullmatch(line):
            raise CellValueError("expected a header: a tab, then tab-separated coordinates "
                                 "(an older store must be rebuilt: re-run DROP/CREATE and load)")
        coords = tuple([ColumnCoord._make(m.groups()) for m in _COORD.finditer(line)])
        if unknown := {coord.family for coord in coords} - self.descriptor.families:
            raise CellValueError(f"unknown family {min(unknown)!r}")
        if any(map(ge, coords, islice(coords, 1, None))):
            raise CellValueError("header coordinates repeat or are out of order")
        self.set_header(coords)

    def parse(self, line: str) -> tuple[str, tuple[str, ...]]:
        """Key and values of one row line, read against coords; raises CellValueError."""
        if "\r" in line:
            raise CellValueError("a line holds a carriage return")
        key, _, rest = line.partition("\t")
        values = rest.split("\t")
        if len(values) > len(self.coords):
            raise CellValueError(f"{len(values)} values for a header of {len(self.coords)}")
        if not key:
            raise CellValueError("empty row key")
        if not any(values):
            raise CellValueError("a row with no cells")
        return key, (*values, *repeat("", len(self.coords) - len(values)))

    def row(self, key: str) -> Optional[tuple[str, ...]]:
        """The values of the row at key, one per coordinate of coords; None if there is none.

        A line is split on first touch, and a touched row that ends before
        coords does is padded with "".  A line that fails to parse stays a
        line, so every read of it raises.
        """
        row = self.rows.get(key)
        if isinstance(row, str):
            try:
                row = self.rows[key] = self.parse(row)[1]
            except CellValueError as exc:
                raise CorruptStoreError(
                    f"corrupt data file {self.data_file}: row {key!r}: {exc}"
                ) from None
        elif row is not None and len(row) < len(self.coords):
            row = self.rows[key] = (*row, *repeat("", len(self.coords) - len(row)))
        return row

    def part_index(
        self, terminator: str, count: int, positions: tuple[int, ...]
    ) -> dict[tuple[str, ...], list[str]]:
        """The row keys by their parts at positions, each key split into at most count parts.

        A key with too few parts to hold every position is in no entry.
        """
        index = self.parts.get((terminator, count, positions))
        if index is None:
            index = self.parts[(terminator, count, positions)] = {}
            last = max(positions)
            for key in sorted(self.rows):
                parts = key.split(terminator, count - 1)
                if len(parts) > last:
                    index.setdefault(tuple([parts[p] for p in positions]), []).append(key)
        return index

    def candidates(self, terminator: str, count: int, positions: tuple[int, ...],
                   allowed: AbstractSet[tuple[str, ...]]) -> list[str]:
        """The keys, in order, whose parts at positions are one of the allowed tuples.

        Each key is split at its first count - 1 terminators; a key with
        too few parts for the positions holds none of the tuples.
        """
        index = self.part_index(terminator, count, positions)
        hits = [index[texts] for texts in allowed if texts in index]
        # A key is in one entry at most, so one entry is already in key order.
        return hits[0] if len(hits) == 1 else sorted(chain.from_iterable(hits))

    def admit(self, coords: Sequence[ColumnCoord]) -> AbstractSet[ColumnCoord]:
        """Add to coords, in order, each of these it lacks; return those added.

        Added after the last, they leave every row as it is, ending before
        coords does.  One sorting before the last shifts the places after
        it, so every row is split first (a bad line raises, coords kept),
        then laid out again onto the new header.
        """
        added = set(coords).difference(self.coords)
        if added and self.coords and min(added) < self.coords[-1]:
            for key in self.rows:
                self.row(key)
            header = tuple(sorted([*self.coords, *added]))
            pick = itemgetter(*map(self.places.get, header, repeat(len(self.coords))))
            for key, row in self.rows.items():
                self.rows[key] = pick((*row, ""))
            self.set_header(header)
        elif added:
            self.set_header((*self.coords, *sorted(added)))
        return added

    def drop(self, unheld: AbstractSet[ColumnCoord]) -> None:
        """Take coordinates no row holds out of coords, and their empty values out of each row."""
        keep = [coord not in unheld for coord in self.coords]
        for key, row in self.rows.items():
            if isinstance(row, str):
                self.rows[key] = "\t".join(compress(row.split("\t"), [True, *keep]))
            else:
                self.rows[key] = tuple(compress(row, keep))
        self.set_header(tuple(compress(self.coords, keep)))

    def set_header(self, coords: tuple[ColumnCoord, ...]) -> None:
        self.coords = coords
        self.places = dict(zip(coords, range(len(coords))))

    def write(self, key: str, values: Sequence[str]) -> None:
        """Merge values, one per coordinate of coords, "" where none, into the row at key.

        Merging into a row ignores values past the last coordinate."""
        self.dirty = True
        row = self.row(key)
        if row is None:
            self.rows[key] = tuple(values)
            self.parts.clear()
        else:
            self.rows[key] = tuple([new or old for new, old in zip(values, row)])

    def line(self, key: str) -> str:
        """The row at key as flush writes it: its line, or its values joined."""
        row = self.rows[key]
        if isinstance(row, str):
            return row
        return "\t".join([key, *row]).rstrip("\t")

    def scan(self, key_parts: Optional[KeyParts] = None) -> list[Row]:
        """Rows in key order, only the candidates of key_parts if given."""
        keys = sorted(self.rows) if key_parts is None else self.candidates(*key_parts)
        row, coords, places = self.row, self.coords, self.places
        return [Row(key, row(key), coords, places) for key in keys]  # type: ignore[arg-type]


MANIFEST_NAME: Final = "MANIFEST"
LOCK_NAME: Final = "LOCK"


def open_store(directory: str | Path) -> "Store":
    """Open (creating if needed) the store in the given directory."""
    return Store(directory)


class Store:
    """A directory-backed collection of wide-column tables.

    One process at a time, kept to that by an flock on LOCK, a file that
    stays after close with the last owner's pid; there is no in-process
    locking, because no thread shares a Store.  Each table's data file is
    <name>.dat, and each MANIFEST line has six fields.  Readers get back
    Rows holding the table's own immutable values, or fresh pairs, in lists
    that are the caller's.  The other records it returns, TableDescriptor
    and ImportReport, are immutable tuples, and a failed write to the store
    directory raises OSError.  Mutations become durable on flush (close
    flushes too), except that table creation, disabling, and dropping
    persist immediately.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._closed = False
        self._lock_path = self.directory / LOCK_NAME
        self._lock_fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            self._acquire_lock()
            self._tables: dict[str, _Table] = {}
            self._load()
        except BaseException:
            os.close(self._lock_fd)
            raise

    # ------------------------------------------------------------------ setup

    def _acquire_lock(self) -> None:
        """Take the flock on LOCK and write this pid into it; LOCK is never removed."""
        try:
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.read(self._lock_fd, 32).decode("ascii", "replace").strip() or "unknown"
            raise StoreLockedError(
                f"store {self.directory} is already open "
                f"(process {holder} holds {self._lock_path})"
            ) from None
        os.ftruncate(self._lock_fd, 0)
        os.write(self._lock_fd, f"{os.getpid()}\n".encode("ascii"))

    def _load(self) -> None:
        manifest = self.directory / MANIFEST_NAME
        try:
            with open(manifest, "rb") as f:
                lines = list(LineReader(f))
        except FileNotFoundError:
            return
        except UnicodeError as exc:
            raise CorruptStoreError(f"corrupt manifest {manifest}: {exc}") from None
        for i, line in enumerate(lines, 1):
            if not line:
                continue
            where = f"corrupt manifest {manifest}: line {i}"
            parts = line.split("\t")
            if len(parts) != 6:
                raise CorruptStoreError(
                    f"{where}: expected 6 fields (an older store with 4 must be rebuilt: "
                    f"re-run DROP/CREATE and load), found {len(parts)}"
                )
            name, families_text, flag, data_file, size, crc = parts
            try:
                _check_table_name(name)
            except StoreError as exc:
                raise CorruptStoreError(f"{where}: {exc}") from None
            if name in self._tables:
                raise CorruptStoreError(f"{where}: table {name!r} repeated")
            if data_file != f"{name}.dat":
                raise CorruptStoreError(f"{where}: data file {data_file!r} is not {name}.dat")
            families = frozenset(f for f in families_text.split(",") if f)
            if not families or flag not in ("0", "1") or not all(
                n.isascii() and n.isdigit() for n in (size, crc)
            ):
                raise CorruptStoreError(f"{where}: bad table entry")
            table = _Table(TableDescriptor(name, families, flag == "1"))
            self._read_data(table, (int(size), int(crc)))
            self._tables[name] = table

    def _read_data(self, table: _Table, checksum: tuple[int, int]) -> None:
        """Check the data file's header, then index its row lines by row key, or parse them.

        The file is read through a LineReader, which sums its size and
        crc32.  Only a file whose size and crc32 match its MANIFEST line is
        indexed; any other is parsed strictly, line by line, and its table
        takes the size and crc32 read, which the next MANIFEST write records.
        """
        path = self.directory / table.data_file
        try:
            with open(path, "rb") as f:
                reader = LineReader(f)
                lines = list(reader)
        except FileNotFoundError:
            # A data file is written before MANIFEST names it and removed
            # after, so one gone that held bytes is lost data, not a crash.
            if checksum[0]:
                raise CorruptStoreError(
                    f"corrupt data file {path}: missing, but MANIFEST records {checksum[0]} bytes"
                ) from None
            return
        except UnicodeError as exc:
            raise CorruptStoreError(f"corrupt data file {path}: {exc}") from None
        table.checksum = (reader.size, reader.crc)
        if not lines:
            return
        i = 1
        try:
            table.read_header(lines[0])
            rows = islice(lines, 1, None)
            if table.checksum == checksum:
                table.rows = {line.partition("\t")[0]: line for line in rows if line}
                return
            for i, line in enumerate(rows, 2):
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
            fields = [d.name, ",".join(sorted(d.families)), "1" if d.enabled else "0",
                      t.data_file, *map(str, t.checksum)]
            lines.append("\t".join(fields) + "\n")
        write_atomic(self.directory / MANIFEST_NAME, "".join(lines).encode("utf-8"))

    def _write_table(self, table: _Table) -> None:
        """Rewrite the data file; a row nothing touched keeps its line as read.

        The header, then the rows in key order, go out one line at a time
        through the file's own buffer, each encoded on its own and summed
        into the size and crc32 as it is written, so flush holds no copy of
        the table beside its rows.
        """
        size = crc = 0

        def lines() -> Iterator[bytes]:
            nonlocal size, crc
            keys = sorted(table.rows)
            header = ["\t".join(["", *map(str, table.coords)])] if keys else []
            for text in chain(header, map(table.line, keys)):
                line = f"{text}\n".encode("utf-8")
                size += len(line)
                crc = zlib.crc32(line, crc)
                yield line

        write_atomic(self.directory / table.data_file, lines())
        table.checksum = (size, crc)
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
        """Flush, then release the store directory for other processes, even if flush raises."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True
            os.close(self._lock_fd)

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
        _check_table_name(name)
        if name in self._tables:
            raise TableExistsError(f"table {name!r} already exists")
        family_set = frozenset(families)
        if not family_set:
            raise StoreError("a table needs at least one column family")
        for fam in family_set:
            _check_text(fam, "family name")
            if ":" in fam or "," in fam:
                raise StoreError(f"invalid family name {fam!r}")
        table = _Table(TableDescriptor(name, family_set, True))
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
        """Remove a disabled table and its data for good: MANIFEST first, then the data file.

        A crash between the two leaves a file nothing names, which create_table replaces.
        """
        self._ensure_open()
        table = self._table(name)
        if table.descriptor.enabled:
            raise TableEnabledError("table must be disabled first")
        del self._tables[name]
        try:
            self._write_manifest()
        except BaseException:
            self._tables[name] = table
            raise
        try:
            (self.directory / table.data_file).unlink()
        except FileNotFoundError:
            pass

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
        t.row(row_key)  # a line that fails to parse raises before coords grows
        t.admit([coord])
        values = [""] * len(t.coords)
        values[t.places[coord]] = value
        t.write(row_key, values)

    def get(
        self, table: str, row_key: str, coord: Optional[ColumnCoord] = None
    ) -> list[tuple[ColumnCoord, str]]:
        """Read one row, or one cell of it.

        A missing row or cell is an empty result, not an error.  Without a
        coordinate, every cell of the row comes back in coordinate order.
        """
        row = self.get_row(table, row_key)
        if row is None:
            return []
        if coord is None:
            return list(compress(zip(row.coords, row.values), row.values))
        i = row.places.get(coord)
        return [(coord, row.values[i])] if i is not None and row.values[i] else []

    def get_row(self, table: str, row_key: str) -> Optional[Row]:
        """Read one row as a Row, or None if there is none."""
        self._ensure_open()
        t = self._enabled_table(table)
        values = t.row(row_key)
        return None if values is None else Row(row_key, values, t.coords, t.places)

    def scan(self, table: str, key_parts: Optional[KeyParts] = None) -> list[Row]:
        """Every row of the table, keys ascending, each with one value per header coordinate.

        With key_parts, (terminator, count, positions, allowed), only the
        rows whose key, split at its first count - 1 terminators, holds one
        of the allowed tuples of part texts at the positions: one bound,
        into which the caller folds every constraint on the key.  The
        table's index of key parts finds them without testing every key,
        and only the rows returned are split.  The list is the caller's;
        see Row for its rows.
        """
        self._ensure_open()
        return self._enabled_table(table).scan(key_parts)

    def import_tsv(self, table: str, file: str | Path, spec: ImportSpec) -> ImportReport:
        """Bulk-load a sparse CSV file, one row per line.

        Fields are comma-separated, as spec.columns names them, and an
        empty field is an absent cell.  A line that cannot be loaded is
        skipped and reported with its number and why; the lines before
        and after it are loaded all the same.  A file that cannot be read
        or decoded raises StoreError, every line before the failure
        applied.  Returns a report of rows written and lines skipped;
        the caller decides what to print.  Re-importing merges cell by
        cell, newest write winning, same as put.  A byte order mark that
        starts the file is skipped.
        """
        self._ensure_open()
        t = self._enabled_table(table)
        for col in spec.columns:
            if isinstance(col, ColumnCoord) and col.family not in t.descriptor.families:
                raise UnknownFamilyError(
                    f"unknown column family {col.family!r} for table {table!r}"
                )
        columns = spec.columns
        width = len(columns)
        key_index = spec.key_index
        value_indexes = [i for i in range(width) if i != key_index]
        added = t.admit([columns[i] for i in value_indexes])
        # A line's values in the order of coords, then one "" more (so that
        # itemgetter always makes a tuple): each one's field, or the "" that
        # is appended to every line.  Added coordinates no line fills leave
        # the header again at the end.
        field = dict(zip(columns, range(width)))
        coords = t.coords
        pick = itemgetter(*map(field.get, coords, repeat(width)), width)
        unfilled = [i for i, coord in enumerate(coords) if coord in added]
        loaded = 0
        errors: list[tuple[int, str]] = []
        path = Path(file)
        try:
            with open(path, "rb") as f:
                for line_no, line in enumerate(LineReader(f, bom=True), 1):
                    fields = line.split(",")
                    try:
                        if len(fields) != width:
                            raise CellValueError(f"expected {width} fields, found {len(fields)}")
                        key = fields[key_index]
                        if not key:
                            raise CellValueError("empty row key")
                        # Only a line holding one of these can fail a value check.
                        if any(map(line.__contains__, _FORBIDDEN)):
                            for i in value_indexes:
                                if fields[i]:
                                    _check_text(fields[i], "value")
                        fields.append("")
                        values = pick(fields)
                        if not any(values):
                            # A row with no cells does not exist; refuse the
                            # line rather than fabricate one.
                            raise CellValueError("no values to write")
                        _check_text(key, "row key")
                    except CellValueError as exc:
                        errors.append((line_no, str(exc)))
                        continue
                    unfilled = [p for p in unfilled if not values[p]]
                    if key in t.rows:
                        t.write(key, values)
                    else:
                        t.rows[key] = key + "\t" + "\t".join(values).rstrip("\t")
                        t.parts.clear()
                        t.dirty = True
                    loaded += 1
        except (OSError, UnicodeError) as exc:
            raise StoreError(f"cannot read {path}: {exc}") from exc
        finally:
            if unfilled:
                t.drop({coords[p] for p in unfilled})
        return ImportReport(loaded, errors)
