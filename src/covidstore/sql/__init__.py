"""SQL layer: DDL, catalog, query parsing, and execution over the store.

Each name below resolves on first use (a module __getattr__), importing
only the module that defines it, so importing sql.errors for its
exception types, or generate_schema (defined in ingest, which needs no
parser to write a CREATE statement), leaves the engine unloaded.
"""

import importlib

_HOMES = {
    ".ddl": ("CreateTable", "DescribeTable", "DropTable", "parse_ddl", "parse_ddl_statement"),
    ".engine": (
        "Catalog", "ResultSet", "execute_query", "execute_statement", "parse_statement",
        "render_result_set", "render_value",
    ),
    ".errors": (
        "CatalogError", "SqlError", "SqlSyntaxError", "TypeDecodeError",
        "UnsupportedClauseError",
    ),
    "..ingest": ("generate_schema",),
    ".lexer": ("split_statements",),
    ".query": ("ColumnRef", "Comparison", "InList", "KeyFieldRef", "SelectQuery", "parse_query"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module, __name__), name)
    return value
