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
* rejects a row whose field holds a line break, which would split it in two

Latitude and longitude are never blanked; a coordinate of 0 is a real
location while a count of 0 is the absence of data.  Each input file yields
two sibling outputs, one with the normalized header row and one without it
(the headerless variant is what the bulk loader consumes).
"""

from __future__ import annotations

import csv
from datetime import date
from pathlib import Path
from typing import Iterator, NamedTuple

from . import write_atomic
from .dates import DateColumn, FormatError, date_columns_between, series_columns

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


def build_row_key(province_state: str, country_region: str) -> str:
    """Join sanitized province and country fields into a composite row key.

    The province may be empty, which puts the tilde first and makes
    country-level rows sort after every province-level row in the byte
    order of the store.
    """
    if not country_region:
        raise ValueError("record has an empty country field")
    for part in (province_state, country_region):
        if KEY_SEPARATOR in part:
            raise ValueError(f"field {part!r} contains the key separator {KEY_SEPARATOR!r}")
    return f"{province_state}{KEY_SEPARATOR}{country_region}"


class RowError(NamedTuple):
    line_number: int
    message: str


class FormatResult(NamedTuple):
    """Outcome of formatting one file.

    text is the finished CSV, header line first, records the row keys
    written, in input order, and errors the rows that were rejected, by the
    input line each starts on.  A rejected row is reported and skipped; it
    never aborts the rest of the file.
    """

    text: str
    records: list[str]
    errors: list[RowError]


def _rows(reader, path: Path) -> Iterator[list[str]]:
    """The reader's rows; a csv.Error becomes a FormatError naming path and the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None


def format_file(input_path: str | Path) -> FormatResult:
    """Format one raw time-series CSV into the sparse representation.

    The header must have at least the four fixed columns plus one date,
    and the dates must be consecutive days.
    Quoted fields are handled by a real CSV parse, not textual substitution,
    so an embedded quoted comma cannot shift later columns.  Every row takes
    one path: its daily fields are joined once, cleaned field by field with
    sanitize_field only if the comma count shows that a field holds a comma
    (else the joined text loses its quotes and asterisks), and then the "0"
    fields are blanked.  A row whose field holds a line break is rejected,
    since a loader reads each line as one row.
    """
    input_path = Path(input_path)
    try:
        # utf-8-sig tolerates a BOM on files that passed through Windows tools.
        fh = open(input_path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise FormatError(f"cannot read {input_path}: {exc}") from exc

    with fh:
        reader = csv.reader(fh)
        rows = _rows(reader, input_path)
        try:
            header = next(rows)
        except StopIteration:
            raise FormatError(f"{input_path}: empty file, expected a header row") from None

        if len(header) < FIXED_COLUMNS + 1:
            raise FormatError(
                f"{input_path}: header has {len(header)} columns, "
                f"expected at least {FIXED_COLUMNS + 1}"
            )
        dates = [DateColumn.from_header(tok) for tok in header[FIXED_COLUMNS:]]
        # A load files the n-th daily field under the n-th day of its date
        # range, so the days must run one apart: no gap, repeat or step back.
        first = date(*dates[0]).toordinal()
        for i, d in enumerate(dates):
            if date(*d).toordinal() != first + i:
                raw, before = header[FIXED_COLUMNS + i], header[FIXED_COLUMNS + i - 1]
                raise FormatError(
                    f"{input_path}: date column {raw!r} is not the day after {before!r}"
                )
        width = len(header)
        commas = len(dates) - 1  # in the joined daily fields when none holds one

        merged = f"{sanitize_field(header[0])}{KEY_SEPARATOR}{sanitize_field(header[1])}"
        fixed = [merged] + [sanitize_field(h) for h in header[2:FIXED_COLUMNS]]
        lines = [",".join(fixed + [d.header_form for d in dates])]

        records: list[str] = []
        errors: list[RowError] = []
        end = reader.line_num
        for row in rows:
            # A quoted line break makes one record span several lines.
            line_no, end = end + 1, reader.line_num
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
            if daily.count(",") != commas:
                daily = ",".join(map(sanitize_field, row[FIXED_COLUMNS:]))
            elif '"' in daily or "*" in daily:
                daily = daily.replace('"', "").replace("*", "")
            # Each pass blanks every other field of a run of "0" fields.
            daily = f",{daily},".replace(",0,", ",,").replace(",0,", ",,")[1:-1]
            line = f"{key},{lat},{long},{daily}"
            if "\n" in line or "\r" in line:
                errors.append(RowError(line_no, "field holds a line break"))
                continue
            records.append(key)
            lines.append(line)

    return FormatResult("\n".join(lines) + "\n", records, errors)


def output_paths(input_path: str | Path) -> tuple[Path, Path]:
    """Derive the two output file paths for one input file, beside it."""
    input_path = Path(input_path)
    stem = input_path.name
    if stem.endswith(".csv"):
        stem = stem[: -len(".csv")]
    with_names = input_path.parent / f"{stem}-sparse-with-formatted-column-names.csv"
    sparse = input_path.parent / f"{stem}-sparse.csv"
    return with_names, sparse


def write_formatted_files(input_path: str | Path) -> tuple[Path, Path, FormatResult]:
    """Write both output variants for one input file, beside it.

    The headerless file is byte for byte the headered file minus its first
    line.  Output is UTF-8 with a single trailing newline and no BOM.  Each
    file is replaced atomically, so a crash never leaves a truncated file
    for load to import.
    """
    result = format_file(input_path)
    with_names, sparse = output_paths(input_path)
    data = result.text.encode("utf-8")
    write_atomic(with_names, data)
    write_atomic(sparse, data[data.index(b"\n") + 1 :])
    return with_names, sparse, result
