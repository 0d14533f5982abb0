"""The feed's daily columns, the names each one goes by, and date ranges.

Generated names follow one convention, owned here: family a, qualifiers
lt, lg and d<month><day>.  A dated load needs this module, not ingest.
"""

from __future__ import annotations

import re
from datetime import date, timedelta
from typing import NamedTuple

_DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{2}|\d{4})$")


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
