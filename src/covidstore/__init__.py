"""Sparse wide-column storage and SQL querying for JHU COVID-19 time series.

The package is four layers, usable separately:

* ingest: reshape the raw daily CSVs into a sparse, key-merged form
* store: an embedded wide-column table store with bulk loading
* shell: an HBase-style command shell over the store
* sql: Hive-style DDL, a catalog, and a small SELECT engine on top

write_atomic, LineReader, StoreError and SqlError live here, so a command
that never opens a store does not import it, and one that runs no SQL does
not import the sql package.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Iterable, Iterator

__version__ = "0.1.0"


class StoreError(Exception):
    """Base class for all store failures."""


class SqlError(Exception):
    """Base class for everything the SQL layer can raise."""


def write_atomic(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Replace path with data, so a reader finds the old file or the new one.

    data is one bytes object or an iterable of byte chunks, written in
    order.  If anything fails, the iterable included, the temp file is
    removed and path is left as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


class LineReader:
    """The lines of UTF-8 bytes, one at a time: the one decoder of every line a user supplies.

    file is a binary file, standard input's buffer included, or any iterator
    of byte lines.  LF and CR LF end a line; a lone CR stays in its line.
    Each line is read through the file's own buffer, summed into size and
    crc, and decoded on its own, whatever the locale.  A byte that is not
    UTF-8 raises UnicodeError with its offset, after the lines before it.
    With bom, a UTF-8 byte order mark that starts the file is skipped, as
    Windows editors write one; flush never writes one, so MANIFEST and the
    data files are read without.
    """

    def __init__(self, file: Iterator[bytes], bom: bool = False) -> None:
        self.file = file
        self.size = self.crc = 0
        self.bom = bom

    def __iter__(self) -> Iterator[str]:
        # The mark is looked for in the first line, which is read whole:
        # a pipe may deliver its three bytes in pieces.
        bom = self.bom
        for raw in self.file:
            self.size += len(raw)
            self.crc = zlib.crc32(raw, self.crc)
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise UnicodeError(
                    f"'utf-8' codec can't decode byte 0x{raw[exc.start]:02x} at byte "
                    f"{self.size - len(raw) + exc.start}: {exc.reason}"
                ) from None
            if line.endswith("\n"):
                line = line[:-2] if line.endswith("\r\n") else line[:-1]
            if bom:
                line, bom = line.removeprefix("\ufeff"), False
            yield line
