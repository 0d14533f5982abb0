"""SQL layer: DDL, catalog, query parsing, and execution over the store."""

from .ddl import (
    CreateTable,
    DescribeTable,
    DropTable,
    generate_schema,
    parse_ddl,
    parse_ddl_statement,
)
from .engine import (
    Catalog,
    ResultSet,
    execute_query,
    execute_statement,
    parse_statement,
    render_result_set,
    render_value,
)
from .errors import (
    CatalogError,
    SqlError,
    SqlSyntaxError,
    TypeDecodeError,
    UnsupportedClauseError,
)
from .lexer import split_statements
from .query import (
    ColumnRef,
    Comparison,
    InList,
    KeyFieldRef,
    SelectQuery,
    parse_query,
)

__all__ = [
    "Catalog",
    "CatalogError",
    "ColumnRef",
    "Comparison",
    "CreateTable",
    "DescribeTable",
    "DropTable",
    "InList",
    "KeyFieldRef",
    "ResultSet",
    "SelectQuery",
    "SqlError",
    "SqlSyntaxError",
    "TypeDecodeError",
    "UnsupportedClauseError",
    "execute_query",
    "execute_statement",
    "generate_schema",
    "parse_ddl",
    "parse_ddl_statement",
    "parse_query",
    "parse_statement",
    "render_result_set",
    "render_value",
    "split_statements",
]
