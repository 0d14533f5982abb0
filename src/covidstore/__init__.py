"""Sparse wide-column storage and SQL querying for JHU COVID-19 time series.

The package is four layers, usable separately:

* ingest: reshape the raw daily CSVs into a sparse, key-merged form
* store: an embedded wide-column table store with bulk loading
* shell: an HBase-style command shell over the store
* sql: Hive-style DDL, a catalog, and a small SELECT engine on top
"""

__version__ = "0.1.0"
