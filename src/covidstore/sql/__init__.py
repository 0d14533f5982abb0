"""SQL layer: DDL, catalog, query parsing, and execution over the store.

Import each name from the module that defines it: ddl, engine, errors,
lexer or query.  The package itself resolves only split_statements and
SelectQuery, on first use (a module __getattr__), because the benchmark
imports them from here (bench/harness.py and bench/spans.py); importing
sql.errors for its exception types leaves the parser unloaded.
"""

import importlib

_HOME = {"SelectQuery": ".query", "split_statements": ".lexer"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module, __name__), name)
    return value
