"""The feed's daily columns, the names each one goes by, and date ranges.

Generated names follow one convention, owned here: family a, qualifiers
lt, lg and d<month><day>, and the CREATE TABLE that maps them.  A dated
load and schema-gen need this module, not ingest.
"""

from __future__ import annotations

import re
from datetime import date, timedelta
from typing import NamedTuple

_DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{2}|\d{4})$")
_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class FormatError(ValueError):
    """Raised when an input file or header cannot be processed at all."""


class DateColumn(NamedTuple):
    """One daily column, with its three naming conventions.

    header_form is the zero-padded MM/DD/YYYY header text, column_name the
    MM_DD_YYYY identifier used by the relational layer, and qualifier the
    compact store coordinate: "d", month without leading zero, then the
    two-digit day (March 31 -> d331, October 1 -> d1001).  The tuple is
    (year, month, day), so columns sort in date order.
    """

    year: int
    month: int
    day: int

    @classmethod
    def from_header(cls, raw: str) -> "DateColumn":
        """Parse a raw header token such as "3/2/20"; a two-digit year is 2000 + yy."""
        m = _DATE_RE.match(raw.strip())
        if not m:
            raise FormatError(f"unrecognized date column {raw!r}")
        month, day, year = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if year < 100:
            year += 2000
        try:
            return cls.from_date(date(year, month, day))
        except ValueError:
            raise FormatError(f"unrecognized date column {raw!r}") from None

    @classmethod
    def from_date(cls, d: date) -> "DateColumn":
        return cls(d.year, d.month, d.day)

    @property
    def header_form(self) -> str:
        return f"{self.month:02d}/{self.day:02d}/{self.year:04d}"

    @property
    def column_name(self) -> str:
        return f"{self.month:02d}_{self.day:02d}_{self.year:04d}"

    @property
    def qualifier(self) -> str:
        return f"d{self.month}{self.day:02d}"


def parse_range(text: str) -> tuple[date, date]:
    """START:END as two dates, each YYYY-MM-DD; date_columns_between checks the range."""
    start_text, sep, end_text = text.partition(":")
    if not sep:
        raise ValueError(f"date range {text!r} must look like YYYY-MM-DD:YYYY-MM-DD")
    try:
        if not all(map(_ISO_DATE_RE.fullmatch, (start_text, end_text))):
            raise ValueError("each date must be YYYY-MM-DD")
        return date.fromisoformat(start_text), date.fromisoformat(end_text)
    except ValueError as exc:
        raise ValueError(f"bad date range {text!r}: {exc}") from None


def date_columns_between(start: date, end: date) -> list[DateColumn]:
    """All daily columns from start to end inclusive, in order: a year of them at most."""
    if start > end:
        raise ValueError(f"date range {start}:{end} runs backwards")
    dates = [DateColumn.from_date(start + timedelta(n)) for n in range((end - start).days + 1)]
    if len({d.qualifier for d in dates}) < len(dates):
        raise ValueError(
            f"date range {start}:{end} covers a month and day twice, "
            "and date qualifiers carry no year; one mapping spans at most a year"
        )
    return dates


def series_columns(start: date, end: date) -> list[str]:
    """The store columns of a time-series table: a:lt, a:lg, then a:d<month><day> per date."""
    return ["a:lt", "a:lg"] + [f"a:{d.qualifier}" for d in date_columns_between(start, end)]


def generate_schema(table: str, start: date, end: date) -> str:
    """Emit the CREATE TABLE statement for a time-series table.

    One int column per day from start to end inclusive, named MM_DD_YYYY and
    mapped to d<month><two-digit day> qualifiers in family a after the key,
    latitude and longitude, onto the store table of the same name.  It only
    writes text, which sql.ddl.parse_ddl parses unchanged.
    """
    mapping = ",".join([":key"] + series_columns(start, end))
    decls = [f"{d.column_name} int" for d in date_columns_between(start, end)]
    date_block = ",\n".join(", ".join(decls[i : i + 3]) for i in range(0, len(decls), 3))
    return (
        f"CREATE TABLE {table} (\n"
        "key struct<Province_State : string,Country_Region : string>,\n"
        "Lat float,\n"
        "Long float,\n"
        f"{date_block}\n"
        ")\n"
        "ROW FORMAT DELIMITED\n"
        "COLLECTION ITEMS TERMINATED BY '~'\n"
        "STORED BY 'org.apache.hadoop.hive.hbase.HBaseStorageHandler'\n"
        "WITH SERDEPROPERTIES (\n"
        f'"hbase.table.name" = "{table}",\n'
        f'"hbase.mapred.output.outputtable" = "{table}",\n'
        f'"hbase.columns.mapping" = "{mapping}",\n'
        '"hbase.composite.key.factory" = '
        '"org.apache.hadoop.hive.hbase.SampleHBaseKeyFactory2");'
    )
