"""Failure types shared across the SQL layer, on SqlError from the package root."""

from __future__ import annotations

from .. import SqlError


class SqlSyntaxError(SqlError):
    """Malformed statement text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedClauseError(SqlError):
    """A recognizable construct that this dialect deliberately leaves out."""

    def __init__(self, clause: str) -> None:
        super().__init__(f"unsupported clause: {clause}")
        self.clause = clause


class CatalogError(SqlError):
    """Catalog bookkeeping failure: duplicates, missing tables, bad backing."""


class TypeDecodeError(SqlError):
    """Stored bytes did not decode as the declared column type."""
