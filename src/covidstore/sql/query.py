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

from .errors import UnsupportedClauseError
from .lexer import NOT_NAME, Cursor, Node, unquote

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


_KEYWORDS = {"SELECT", "FROM", "JOIN", "ON", "WHERE", "AND", "IN"}

# Constructs we recognize only to refuse them by name.
_UNSUPPORTED = {
    "GROUP": "GROUP BY", "ORDER": "ORDER BY", "HAVING": "HAVING", "LIMIT": "LIMIT",
    "UNION": "UNION", "DISTINCT": "DISTINCT", "LEFT": "LEFT JOIN", "RIGHT": "RIGHT JOIN",
    "FULL": "FULL JOIN", "OUTER": "OUTER JOIN", "CROSS": "CROSS JOIN", "INNER": "INNER JOIN",
    "OR": "OR",
}
# A name's upper-case text -> the clause it refuses (None for a keyword).
_RESERVED = {**dict.fromkeys(_KEYWORDS), **_UNSUPPORTED}


class _QueryParser(Cursor):
    """The SELECT grammar; names may not be reserved keywords."""

    def _check_unsupported(self) -> None:
        clause = _UNSUPPORTED.get(self.toks[self.i].upper())
        if clause is not None:
            raise UnsupportedClauseError(clause)

    def expect_name(self, what: str = "a name") -> str:
        tok = self.toks[self.i]
        if tok.upper() in _KEYWORDS:
            raise self.error(f"expected {what}, found keyword {tok!r}", self.i)
        return super().expect_name(what)

    # --------------------------------------------------------------- grammar

    def parse(self) -> SelectQuery:
        # An unsupported word is refused where a reference would start
        # (_ref) and where the statement should end: the clauses before
        # never consume one, so it reaches one of the two.
        self.expect_keyword("SELECT")
        projections: list[Ref] = []
        select_all = self.take("*")
        if not select_all:
            projections.append(self._ref())
            while self.take(","):
                projections.append(self._ref())

        self.expect_keyword("FROM")
        source = self._table_source()

        join: Optional[JoinClause] = None
        if self.take_keyword("JOIN"):
            join_source = self._table_source()
            self.expect_keyword("ON")
            conditions = [self._join_condition()]
            while self.take_keyword("AND"):
                conditions.append(self._join_condition())
            join = JoinClause(join_source, tuple(conditions))

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
        tok = self.toks[self.i]
        if tok[:1] in NOT_NAME or tok.upper() in _RESERVED:
            return TableSource(table, None)
        self.i += 1
        return TableSource(table, tok)

    def _ref(self) -> Ref:
        # Reads ahead by index; on a name it refuses, expect_name raises
        # the error the token makes.
        toks, i = self.toks, self.i
        first = toks[i]
        if first[:1] in NOT_NAME or first.upper() in _RESERVED:
            self._check_unsupported()
            self.expect_name("a column reference")
        if toks[i + 1] != ".":
            self.i = i + 1
            return ColumnRef(None, first)
        self.i = i + 2
        second = toks[i + 2]
        if second[:1] in NOT_NAME or second.upper() in _KEYWORDS:
            self.expect_name("a column reference")
        if toks[i + 3] == "." and second.lower() == "key":
            self.i = i + 4
            third = toks[i + 4]
            if third[:1] in NOT_NAME or third.upper() in _KEYWORDS:
                self.expect_name("a key field name")
            self.i = i + 5
            return KeyFieldRef(first, third)
        self.i = i + 3
        if first.lower() == "key":
            return KeyFieldRef(None, second)
        return ColumnRef(first, second)

    def _join_condition(self) -> tuple[Ref, Ref]:
        left = self._ref()
        self.expect("=", "'='")
        return (left, self._ref())

    def _predicate(self) -> Predicate:
        ref = self._ref()
        if self.take("="):
            return Comparison(ref, self._literal())
        if self.take_keyword("IN"):
            self.expect("(", "'('")
            values = [self._literal()]
            while not self.list_ends(")"):
                values.append(self._literal())
            return InList(ref, tuple(values))
        self.fail("'=' or IN")

    def _literal(self) -> Literal:
        tok = self.next()
        if tok[0] == "'":
            return unquote(tok)
        negative = tok == "-"
        if negative:
            tok = self.next()
        if tok.isdecimal():
            # A dotted pair of digit runs is a float literal; anything else
            # after the dot is a malformed reference, not a number.
            toks, i = self.toks, self.i
            if toks[i] == "." and toks[i + 1].isdecimal():
                self.i += 2
                number: Literal = float(f"{tok}.{toks[i + 1]}")
            else:
                number = int(tok)
            return -number if negative else number
        raise self.error(f"expected a literal, found {unquote(tok)!r}", self.i - 1)


def parse_query(text: str) -> SelectQuery:
    """Parse one SELECT statement into its syntax tree."""
    return _QueryParser(text).parse()
