"""Sparse wide-column storage and SQL querying for JHU COVID-19 time series.

The package is four layers, usable separately:

* ingest: reshape the raw daily CSVs into a sparse, key-merged form
* store: an embedded wide-column table store with bulk loading
* shell: an HBase-style command shell over the store
* sql: Hive-style DDL, a catalog, and a small SELECT engine on top

write_atomic and StoreError live here, so a command that never opens a
store does not import it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

__version__ = "0.1.0"


class StoreError(Exception):
    """Base class for all store failures."""


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
