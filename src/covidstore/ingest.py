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
from datetime import date
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import write_atomic
from .dates import DateColumn, FormatError, date_columns_between, series_columns
from .sql.errors import SqlError

KEY_SEPARATOR = "~"

# Number of fixed leading columns in the raw layout: province, country, lat, long.
FIXED_COLUMNS = 4


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


def generate_schema(table: str, store_table: str, family: str, start: date, end: date) -> str:
    """Emit the CREATE TABLE statement for a time-series table.

    One int column per day from start to end inclusive, named MM_DD_YYYY and
    mapped to d<month><two-digit day> qualifiers after the key, latitude and
    longitude.  It only writes text, which sql.ddl.parse_ddl parses unchanged.
    """
    dates = date_columns_between(start, end)
    if len({d.qualifier for d in dates}) < len(dates):
        raise SqlError(
            f"date range {start}:{end} covers a month and day twice, "
            "and date qualifiers carry no year; one mapping spans at most a year"
        )
    decls = [f"{d.column_name} int" for d in dates]
    date_block = ",\n".join(", ".join(decls[i : i + 3]) for i in range(0, len(decls), 3))
    mapping = ",".join([":key"] + series_columns(start, end, family))
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
        f'"hbase.table.name" = "{store_table}",\n'
        f'"hbase.mapred.output.outputtable" = "{store_table}",\n'
        f'"hbase.columns.mapping" = "{mapping}",\n'
        '"hbase.composite.key.factory" = '
        '"org.apache.hadoop.hive.hbase.SampleHBaseKeyFactory2");'
    )


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
    """One output row's composite key and coordinates."""

    row_key: RowKey
    lat: str
    long: str


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
    so an embedded quoted comma cannot shift later columns.  A row whose
    daily fields hold no quote, asterisk or comma is already clean, so its
    daily fields are joined once and only the "0" fields blanked; any other
    row goes through sanitize_field and sparsify field by field.
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
        dates = [DateColumn.from_header(tok) for tok in header[FIXED_COLUMNS:]]
        width = len(header)
        commas = len(dates) - 1  # in the joined daily fields when none holds one

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
            province, country, lat, long = map(sanitize_field, row[:FIXED_COLUMNS])
            try:
                key = build_row_key(province, country)
            except ValueError as exc:
                errors.append(RowError(line_no, str(exc)))
                continue
            daily = ",".join(row[FIXED_COLUMNS:])
            if '"' in daily or "*" in daily or daily.count(",") != commas:
                values = sparsify([sanitize_field(f) for f in row[FIXED_COLUMNS:]])
                daily = ",".join(v or "" for v in values)
            else:
                # Each pass blanks every other field of a run of "0" fields.
                daily = f",{daily},".replace(",0,", ",,").replace(",0,", ",,")[1:-1]
            records.append(FormattedRecord(key, lat, long))
            lines.append(f"{key.serialized()},{lat},{long},{daily}")

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
