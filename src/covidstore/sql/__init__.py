"""SQL layer: DDL, catalog, query parsing, and execution over the store.

Import each name from the module that defines it: ddl, engine, errors,
lexer or query.  The package itself holds split_statements and
SelectQuery, because the benchmark imports them from here
(bench/harness.py and bench/spans.py).  Only the sql command loads this
package: SqlError, which the other commands catch, is in the package root.
"""

from .lexer import split_statements
from .query import SelectQuery

__all__ = ["SelectQuery", "split_statements"]
