"""Sparse wide-column storage and SQL querying for JHU COVID-19 time series.

The package is four layers, usable separately:

* ingest: reshape the raw daily CSVs into a sparse, key-merged form
* store: an embedded wide-column table store with bulk loading
* shell: an HBase-style command shell over the store
* sql: Hive-style DDL, a catalog, and a small SELECT engine on top

write_atomic and StoreError live here, so a command that never opens a
store does not import it.
"""

import os
from pathlib import Path

__version__ = "0.1.0"


class StoreError(Exception):
    """Base class for all store failures."""


def write_atomic(path: Path, data: bytes) -> None:
    """Replace path with data, so a reader finds the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
