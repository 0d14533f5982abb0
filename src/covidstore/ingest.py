"""Turn raw JHU CSSE global time-series CSVs into the sparse loading format.

The raw files carry four fixed columns (Province/State, Country/Region, Lat,
Long) followed by one column per day in unpadded m/d/yy form.  The transform
applied here:

* strips double quotes and asterisks from every field and turns embedded
  commas into hyphens, so no field ever needs CSV quoting again
* merges province and country into one composite key separated by "~",
  which drops the overall column count by exactly one
* rewrites the date headers as zero-padded MM/DD/YYYY
* blanks daily cells that are empty or "0", leaving the matrix sparse

Latitude and longitude are never blanked; a coordinate of 0 is a real
location while a count of 0 is the absence of data.  Each input file yields
two sibling outputs, one with the normalized header row and one without it
(the headerless variant is what the bulk loader consumes).
"""

from __future__ import annotations

import csv
import re
from datetime import date, timedelta
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .store import write_atomic

KEY_SEPARATOR = "~"

# Number of fixed leading columns in the raw layout: province, country, lat, long.
FIXED_COLUMNS = 4

_DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{2}|\d{4})$")

_DAYS_IN_MONTH = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


class FormatError(ValueError):
    """Raised when an input file or header cannot be processed at all."""


def sanitize_field(raw: str) -> str:
    """Strip quoting artifacts and commas from one field.

    Double quotes and asterisks are removed outright.  A comma followed by a
    space collapses to a single hyphen ("Korea, South" -> "Korea-South"); any
    comma left after that becomes a hyphen on its own.  The result never
    contains a character that would force CSV quoting.
    """
    cleaned = raw.replace('"', "").replace("*", "")
    cleaned = cleaned.replace(", ", "-")
    return cleaned.replace(",", "-")


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
        m = _DATE_RE.match(raw.strip())
        if not m:
            raise FormatError(f"unrecognized date column {raw!r}")
        month, day, year = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if year < 100:
            year += 2000
        if not 1 <= month <= 12 or not 1 <= day <= _DAYS_IN_MONTH[month - 1]:
            raise FormatError(f"unrecognized date column {raw!r}")
        return cls(year, month, day)

    @classmethod
    def from_date(cls, d: date) -> "DateColumn":
        return cls(d.year, d.month, d.day)

    def as_date(self) -> date:
        return date(self.year, self.month, self.day)

    @property
    def header_form(self) -> str:
        return f"{self.month:02d}/{self.day:02d}/{self.year:04d}"

    @property
    def column_name(self) -> str:
        return f"{self.month:02d}_{self.day:02d}_{self.year:04d}"

    @property
    def qualifier(self) -> str:
        return f"d{self.month}{self.day:02d}"


def normalize_date(raw: str) -> DateColumn:
    """Parse one raw date header token such as "3/2/20".

    Two-digit years are taken as 2000 + yy.  Raises FormatError naming the
    token when it does not look like a month/day/year date.
    """
    return DateColumn.from_header(raw)


def date_columns_between(start: date, end: date) -> list[DateColumn]:
    """All daily columns from start to end inclusive, in order."""
    if start > end:
        raise ValueError(f"start date {start} is after end date {end}")
    out = []
    d = start
    while d <= end:
        out.append(DateColumn.from_date(d))
        d += timedelta(days=1)
    return out


def series_columns(start: date, end: date, family: str) -> list[str]:
    """The store columns of a time-series table, as family:qualifier text.

    Latitude (lt) and longitude (lg) come first, then one d<month><day>
    qualifier per date from start to end inclusive.
    """
    dates = date_columns_between(start, end)
    return [f"{family}:lt", f"{family}:lg"] + [f"{family}:{d.qualifier}" for d in dates]


class RowKey(NamedTuple):
    """Composite row key: province and country joined by a tilde.

    The province may be empty, which puts the tilde first and makes
    country-level rows sort after every province-level row in the byte
    order of the store.
    """

    province_state: str
    country_region: str

    def serialized(self) -> str:
        return f"{self.province_state}{KEY_SEPARATOR}{self.country_region}"

    @classmethod
    def parse(cls, text: str) -> "RowKey":
        # The inverse splits at the first tilde only; later tildes would
        # belong to the country part, though sanitized data never has them.
        province, sep, country = text.partition(KEY_SEPARATOR)
        if not sep:
            raise ValueError(f"row key {text!r} has no {KEY_SEPARATOR!r} separator")
        return cls(province, country)


def build_row_key(province_state: str, country_region: str) -> RowKey:
    """Combine sanitized province and country fields into a RowKey."""
    if not country_region:
        raise ValueError("record has an empty country field")
    for part in (province_state, country_region):
        if KEY_SEPARATOR in part:
            raise ValueError(f"field {part!r} contains the key separator {KEY_SEPARATOR!r}")
    return RowKey(province_state, country_region)


def sparsify(values: Sequence[str]) -> list[Optional[str]]:
    """Blank the slots that carry no information.

    A cell is absent (None) exactly when its text is "" or "0"; anything
    else passes through untouched.
    """
    return [None if v in ("", "0") else v for v in values]


class FormattedRecord(NamedTuple):
    """One output row: composite key, coordinates, sparse daily values."""

    row_key: RowKey
    lat: str
    long: str
    values: tuple[Optional[str], ...]

    def to_line(self) -> str:
        tail = ",".join(v if v is not None else "" for v in self.values)
        return f"{self.row_key.serialized()},{self.lat},{self.long},{tail}"


class RowError(NamedTuple):
    line_number: int
    message: str


class FormatResult(NamedTuple):
    """Outcome of formatting one file.

    text is the finished CSV, header line first, records the parsed rows in
    input order, and errors the rows that were rejected, by input line
    number.  A rejected row is reported and skipped; it never aborts the
    rest of the file.
    """

    text: str
    records: list[FormattedRecord]
    dates: list[DateColumn]
    errors: list[RowError]


def format_file(input_path: str | Path) -> FormatResult:
    """Format one raw time-series CSV into the sparse representation.

    The header must have at least the four fixed columns plus one date.
    Quoted fields are handled by a real CSV parse, not textual substitution,
    so an embedded quoted comma cannot shift later columns.
    """
    input_path = Path(input_path)
    try:
        # utf-8-sig tolerates a BOM on files that passed through Windows tools.
        fh = open(input_path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise FormatError(f"cannot read {input_path}: {exc}") from exc

    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{input_path}: empty file, expected a header row") from None

        if len(header) < FIXED_COLUMNS + 1:
            raise FormatError(
                f"{input_path}: header has {len(header)} columns, "
                f"expected at least {FIXED_COLUMNS + 1}"
            )
        dates = [normalize_date(tok) for tok in header[FIXED_COLUMNS:]]
        width = len(header)

        merged = f"{sanitize_field(header[0])}{KEY_SEPARATOR}{sanitize_field(header[1])}"
        fixed = [merged] + [sanitize_field(h) for h in header[2:FIXED_COLUMNS]]
        lines = [",".join(fixed + [d.header_form for d in dates])]

        records: list[FormattedRecord] = []
        errors: list[RowError] = []
        for row in reader:
            line_no = reader.line_num
            if len(row) != width:
                errors.append(
                    RowError(line_no, f"expected {width} fields, found {len(row)}")
                )
                continue
            clean = [sanitize_field(f) for f in row]
            try:
                key = build_row_key(clean[0], clean[1])
            except ValueError as exc:
                errors.append(RowError(line_no, str(exc)))
                continue
            values = tuple(sparsify(clean[FIXED_COLUMNS:]))
            record = FormattedRecord(key, clean[2], clean[3], values)
            records.append(record)
            lines.append(record.to_line())

    return FormatResult("\n".join(lines) + "\n", records, dates, errors)


def output_paths(input_path: str | Path, output_dir: str | Path | None = None) -> tuple[Path, Path]:
    """Derive the two output file paths for one input file."""
    input_path = Path(input_path)
    out_dir = Path(output_dir) if output_dir is not None else input_path.parent
    stem = input_path.name
    if stem.endswith(".csv"):
        stem = stem[: -len(".csv")]
    with_names = out_dir / f"{stem}-sparse-with-formatted-column-names.csv"
    sparse = out_dir / f"{stem}-sparse.csv"
    return with_names, sparse


def write_formatted_files(
    input_path: str | Path, output_dir: str | Path | None = None
) -> tuple[Path, Path, FormatResult]:
    """Write both output variants for one input file.

    The headerless file is byte for byte the headered file minus its first
    line.  Output is UTF-8 with a single trailing newline and no BOM.  Each
    file is replaced atomically, so a crash never leaves a truncated file
    for load to import.
    """
    result = format_file(input_path)
    with_names, sparse = output_paths(input_path, output_dir)
    data = result.text.encode("utf-8")
    write_atomic(with_names, data)
    write_atomic(sparse, data[data.index(b"\n") + 1 :])
    return with_names, sparse, result
