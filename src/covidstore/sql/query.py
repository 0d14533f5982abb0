"""Parser for the supported SELECT subset.

The dialect covers exactly what the mapped tables need: projections of key
struct fields and plain columns, one optional inner JOIN with an AND list of
equality conditions, and a WHERE conjunction of equality and IN predicates
against literals.  Keywords are case-insensitive; identifiers may start
with digits, so 03_31_2020 is an ordinary column name.  Anything from the
wider language (GROUP BY, ORDER BY, and friends) is rejected by name so the
caller knows it hit a deliberate boundary, not a bug.
"""

from __future__ import annotations

from typing import Optional, Union

from .errors import SqlSyntaxError, UnsupportedClauseError
from .lexer import ATOM, STRING, Cursor, Node

Literal = Union[str, int, float]


class KeyFieldRef(Node):
    """A struct field of the row key, as in key.Country_Region."""

    __slots__ = ("alias", "field")
    alias: Optional[str]
    field: str


class ColumnRef(Node):
    """A plain declared column, as in c.03_31_2020 or Lat."""

    __slots__ = ("alias", "name")
    alias: Optional[str]
    name: str


Ref = Union[KeyFieldRef, ColumnRef]


class Comparison(Node):
    __slots__ = ("ref", "value")
    ref: Ref
    value: Literal


class InList(Node):
    __slots__ = ("ref", "values")
    ref: Ref
    values: tuple[Literal, ...]


Predicate = Union[Comparison, InList]


class TableSource(Node):
    __slots__ = ("table", "alias")
    table: str
    alias: Optional[str]


class JoinClause(Node):
    __slots__ = ("source", "conditions")
    source: TableSource
    conditions: tuple[tuple[Ref, Ref], ...]


class SelectQuery(Node):
    __slots__ = ("select_all", "projections", "source", "join", "where")
    select_all: bool
    projections: tuple[Ref, ...]
    source: TableSource
    join: Optional[JoinClause]
    where: tuple[Predicate, ...]


_KEYWORDS = {
    "SELECT",
    "FROM",
    "JOIN",
    "ON",
    "WHERE",
    "AND",
    "IN",
}

# Constructs we recognize only to refuse them by name.
_UNSUPPORTED = {
    "GROUP": "GROUP BY",
    "ORDER": "ORDER BY",
    "HAVING": "HAVING",
    "LIMIT": "LIMIT",
    "UNION": "UNION",
    "DISTINCT": "DISTINCT",
    "LEFT": "LEFT JOIN",
    "RIGHT": "RIGHT JOIN",
    "FULL": "FULL JOIN",
    "OUTER": "OUTER JOIN",
    "CROSS": "CROSS JOIN",
    "INNER": "INNER JOIN",
    "OR": "OR",
}


class _QueryParser(Cursor):
    """The SELECT grammar; names may not be reserved keywords."""

    def _check_unsupported(self) -> None:
        tok = self.peek()
        if tok is not None and tok.kind == ATOM:
            clause = _UNSUPPORTED.get(tok.text.upper())
            if clause is not None:
                raise UnsupportedClauseError(clause)

    def expect_name(self, what: str = "a name") -> str:
        tok = self.peek()
        if tok is not None and tok.kind == ATOM and tok.text.upper() in _KEYWORDS:
            raise SqlSyntaxError(f"expected {what}, found keyword {tok.text!r}", tok.pos)
        return super().expect_name(what)

    # --------------------------------------------------------------- grammar

    def parse(self) -> SelectQuery:
        self.expect_keyword("SELECT")
        self._check_unsupported()

        projections: list[Ref] = []
        select_all = self.take("STAR")
        if not select_all:
            projections.append(self._ref())
            while self.take("COMMA"):
                projections.append(self._ref())

        self.expect_keyword("FROM")
        source = self._table_source()

        join: Optional[JoinClause] = None
        self._check_unsupported()
        if self.take_keyword("JOIN"):
            join_source = self._table_source()
            self.expect_keyword("ON")
            conditions = [self._join_condition()]
            while self.take_keyword("AND"):
                conditions.append(self._join_condition())
            join = JoinClause(join_source, tuple(conditions))
            self._check_unsupported()

        where: list[Predicate] = []
        if self.take_keyword("WHERE"):
            where.append(self._predicate())
            while self.take_keyword("AND"):
                where.append(self._predicate())
        self._check_unsupported()
        self.finish()

        return SelectQuery(select_all, tuple(projections), source, join, tuple(where))

    def _table_source(self) -> TableSource:
        table = self.expect_name("a table name")
        alias = None
        tok = self.peek()
        if (
            tok is not None
            and tok.kind == ATOM
            and tok.text.upper() not in _KEYWORDS
            and tok.text.upper() not in _UNSUPPORTED
        ):
            alias = self.next().text
        return TableSource(table, alias)

    def _ref(self) -> Ref:
        self._check_unsupported()
        first = self.expect_name("a column reference")
        if not self.take("DOT"):
            return ColumnRef(None, first)
        second = self.expect_name("a column reference")
        if second.lower() == "key" and self.take("DOT"):
            third = self.expect_name("a key field name")
            return KeyFieldRef(first, third)
        if first.lower() == "key":
            return KeyFieldRef(None, second)
        return ColumnRef(first, second)

    def _join_condition(self) -> tuple[Ref, Ref]:
        left = self._ref()
        self.expect("EQ", "'='")
        right = self._ref()
        return (left, right)

    def _predicate(self) -> Predicate:
        ref = self._ref()
        if self.take("EQ"):
            return Comparison(ref, self._literal())
        if self.take_keyword("IN"):
            self.expect("LPAREN", "'('")
            values = [self._literal()]
            while not self.list_ends(")"):
                values.append(self._literal())
            return InList(ref, tuple(values))
        self.fail("'=' or IN")

    def _literal(self) -> Literal:
        tok = self.next()
        if tok.kind == STRING:
            return tok.text
        negative = False
        if tok.kind == "MINUS":
            negative = True
            tok = self.next()
        if tok.kind == ATOM and tok.text.isdecimal():
            # A dotted pair of digit runs is a float literal; anything else
            # after the dot is a malformed reference, not a number.
            mark = self.pos
            if self.take("DOT"):
                frac = self.peek()
                if frac is not None and frac.kind == ATOM and frac.text.isdecimal():
                    self.next()
                    value = float(f"{tok.text}.{frac.text}")
                    return -value if negative else value
                self.pos = mark
            return -int(tok.text) if negative else int(tok.text)
        raise SqlSyntaxError(f"expected a literal, found {tok.text!r}", tok.pos)


def parse_query(text: str) -> SelectQuery:
    """Parse one SELECT statement into its syntax tree."""
    return _QueryParser(text).parse()
