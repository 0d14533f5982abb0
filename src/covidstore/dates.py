"""The feed's daily columns and the three names each one goes by.

A dated load names its store columns with this module alone, without the
CSV transform in ingest, which imports the names it uses from here.
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


def date_columns_between(start: date, end: date) -> list[DateColumn]:
    """All daily columns from start to end inclusive, in order."""
    if start > end:
        raise ValueError(f"start date {start} is after end date {end}")
    return [DateColumn.from_date(start + timedelta(n)) for n in range((end - start).days + 1)]


def series_columns(start: date, end: date, family: str) -> list[str]:
    """The store columns of a time-series table, as family:qualifier text.

    Latitude (lt) and longitude (lg) come first, then one d<month><day>
    qualifier per date from start to end inclusive.
    """
    dates = date_columns_between(start, end)
    return [f"{family}:lt", f"{family}:lg"] + [f"{family}:{d.qualifier}" for d in dates]
