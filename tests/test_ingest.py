"""Field cleaning, date naming, key composition, and whole-file formatting."""

import csv
import shutil
import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from covidstore.dates import DateColumn, FormatError, date_columns_between
from covidstore.ingest import (
    KEY_SEPARATOR,
    build_row_key,
    format_file,
    output_paths,
    sanitize_field,
    write_formatted_files,
)

from conftest import raw_fixture


# ------------------------------------------------------------ field cleaning


@pytest.mark.parametrize(
    "raw, cleaned",
    [
        ("Korea, South", "Korea-South"),
        ("Taiwan*", "Taiwan"),
        ('"Korea, South"', "Korea-South"),
        ("Bonaire, Sint Eustatius and Saba", "Bonaire-Sint Eustatius and Saba"),
        ("Congo (Kinshasa)", "Congo (Kinshasa)"),
        ("Cote d'Ivoire", "Cote d'Ivoire"),
        ("a,b", "a-b"),
        ("a, b, c", "a-b-c"),
        ("", ""),
        ("31.7917", "31.7917"),
    ],
)
def test_sanitize_examples(raw, cleaned):
    assert sanitize_field(raw) == cleaned


@given(st.text(max_size=40))
def test_sanitize_removes_all_problem_characters(raw):
    cleaned = sanitize_field(raw)
    assert '"' not in cleaned
    assert "*" not in cleaned
    assert "," not in cleaned


@given(st.text(max_size=40))
def test_sanitize_is_idempotent(raw):
    once = sanitize_field(raw)
    assert sanitize_field(once) == once


# ------------------------------------------------------------ date columns


@pytest.mark.parametrize(
    "token, header, column, qualifier",
    [
        ("1/22/20", "01/22/2020", "01_22_2020", "d122"),
        ("3/31/20", "03/31/2020", "03_31_2020", "d331"),
        ("3/2/20", "03/02/2020", "03_02_2020", "d302"),
        ("10/1/20", "10/01/2020", "10_01_2020", "d1001"),
        ("12/25/20", "12/25/2020", "12_25_2020", "d1225"),
        ("2/29/20", "02/29/2020", "02_29_2020", "d229"),
        ("3/31/2020", "03/31/2020", "03_31_2020", "d331"),
    ],
)
def test_date_forms(token, header, column, qualifier):
    col = DateColumn.from_header(token)
    assert col.header_form == header
    assert col.column_name == column
    assert col.qualifier == qualifier


@pytest.mark.parametrize(
    "token",
    ["", "Lat", "13/1/20", "2/30/20", "2/29/21", "2/29/1900", "0/5/20", "1/0/20", "1-22-20", "1/22"],
)
def test_bad_date_tokens_rejected(token):
    with pytest.raises(FormatError, match="unrecognized date column"):
        DateColumn.from_header(token)


@given(
    st.dates(min_value=date(2020, 1, 1), max_value=date(2029, 12, 31)),
)
def test_date_round_trip(d):
    col = DateColumn.from_date(d)
    assert date(*col) == d
    assert DateColumn.from_header(col.header_form) == col


@given(
    st.dates(min_value=date(2020, 1, 1), max_value=date(2029, 12, 31)),
    st.dates(min_value=date(2020, 1, 1), max_value=date(2029, 12, 31)),
)
def test_date_column_order_follows_calendar(a, b):
    assert (DateColumn.from_date(a) < DateColumn.from_date(b)) == (a < b)


def test_date_range_inclusive():
    cols = date_columns_between(date(2020, 1, 22), date(2020, 3, 31))
    assert len(cols) == 70
    assert cols[0].qualifier == "d122"
    assert cols[9].qualifier == "d131"
    assert cols[10].qualifier == "d201"
    assert cols[-1].qualifier == "d331"
    assert [c.column_name for c in cols[:2]] == ["01_22_2020", "01_23_2020"]


def test_date_range_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        date_columns_between(date(2020, 4, 1), date(2020, 3, 31))


# ------------------------------------------------------------ row keys


def test_row_key_country_only():
    assert build_row_key("", "Morocco") == "~Morocco"


def test_row_key_with_province():
    assert build_row_key("British Columbia", "Canada") == "British Columbia~Canada"


def test_row_key_requires_country():
    with pytest.raises(ValueError, match="empty country"):
        build_row_key("Hubei", "")


def test_row_key_rejects_separator_in_fields():
    with pytest.raises(ValueError):
        build_row_key("a~b", "China")
    with pytest.raises(ValueError):
        build_row_key("", "a~b")


_key_text = st.text(
    st.characters(blacklist_characters="~", blacklist_categories=("Cs",)), max_size=20
)


@given(province=_key_text, country=_key_text.filter(bool))
def test_row_key_round_trip(province, country):
    key = build_row_key(province, country)
    assert key.split(KEY_SEPARATOR) == [province, country]


# ------------------------------------------------------------ file formatting


def _write(tmp_path, text):
    p = tmp_path / "raw.csv"
    p.write_text(text, encoding="utf-8")
    return p


def test_format_small_file(tmp_path):
    p = _write(
        tmp_path,
        "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20\n"
        ',"Korea, South",35.9,127.7,0,24\n'
        "Hubei,China,30.9756,112.2707,444,444\n",
    )
    result = format_file(p)
    assert not result.errors
    assert result.text == (
        "Province/State~Country/Region,Lat,Long,01/22/2020,01/23/2020\n"
        "~Korea-South,35.9,127.7,,24\n"
        "Hubei~China,30.9756,112.2707,444,444\n"
    )
    assert result.records == ["~Korea-South", "Hubei~China"]


def test_format_keeps_zero_coordinates(tmp_path):
    # A zero count is missing data but a zero coordinate is a real place.
    p = _write(
        tmp_path,
        "Province/State,Country/Region,Lat,Long,1/22/20\n,Nowhere,0,0,0\n",
    )
    result = format_file(p)
    line = result.text.splitlines()[1]
    assert line == "~Nowhere,0,0,"


def test_format_skips_bad_rows_and_reports_line_numbers(tmp_path):
    p = _write(
        tmp_path,
        "Province/State,Country/Region,Lat,Long,1/22/20\n"
        ",Morocco,31.7,-7.0,5\n"
        ",France,46.2\n"
        ",,0,0,9\n"
        ",Spain,40.4,-3.7,7\n",
    )
    result = format_file(p)
    assert result.records == ["~Morocco", "~Spain"]
    assert [(e.line_number, e.message) for e in result.errors] == [
        (3, "expected 5 fields, found 3"),
        (4, "record has an empty country field"),
    ]


def test_format_tolerates_byte_order_mark(tmp_path):
    p = _write(
        tmp_path,
        "﻿Province/State,Country/Region,Lat,Long,1/22/20\n,Morocco,1,2,3\n",
    )
    result = format_file(p)
    assert result.text.startswith("Province/State~Country/Region,")


def test_format_rejects_header_without_date_columns(tmp_path):
    p = _write(tmp_path, "Province/State,Country/Region,Lat,Long\n")
    with pytest.raises(FormatError, match="expected at least 5"):
        format_file(p)


def test_format_rejects_header_with_bad_date(tmp_path):
    p = _write(tmp_path, "Province/State,Country/Region,Lat,Long,January\n")
    with pytest.raises(FormatError, match="unrecognized date column 'January'"):
        format_file(p)


@pytest.mark.parametrize(
    "dates, bad, before",
    [
        pytest.param("1/22/20,1/24/20", "1/24/20", "1/22/20", id="gap"),
        pytest.param("1/22/20,1/23/20,1/23/20", "1/23/20", "1/23/20", id="repeat"),
        pytest.param("1/22/20,1/23/20,1/21/20", "1/21/20", "1/23/20", id="step-back"),
    ],
)
def test_format_rejects_dates_that_are_not_consecutive_days(tmp_path, dates, bad, before):
    # load --dates files the n-th daily field under the n-th day of its
    # range, so a gap would file each later count under the day before.
    p = _write(tmp_path, f"Province/State,Country/Region,Lat,Long,{dates}\n")
    with pytest.raises(FormatError, match=f"date column '{bad}' is not the day after '{before}'"):
        format_file(p)


def test_format_rejects_missing_file(tmp_path):
    with pytest.raises(FormatError, match="cannot read"):
        format_file(tmp_path / "absent.csv")


def test_format_empty_file(tmp_path):
    p = _write(tmp_path, "")
    with pytest.raises(FormatError, match="empty file"):
        format_file(p)


def test_output_naming_convention(tmp_path):
    with_names, sparse = output_paths(tmp_path / "time_series_covid19_confirmed_global.csv")
    assert with_names.name == (
        "time_series_covid19_confirmed_global-sparse-with-formatted-column-names.csv"
    )
    assert sparse.name == "time_series_covid19_confirmed_global-sparse.csv"


def test_headerless_output_is_headered_minus_first_line(tmp_path):
    with_names, sparse, result = write_formatted_files(
        shutil.copy(raw_fixture("confirmed"), tmp_path)
    )
    headered = with_names.read_bytes()
    assert sparse.read_bytes() == headered.split(b"\n", 1)[1]
    assert len(result.records) == 215


def test_fixture_formats_without_row_errors():
    result = format_file(raw_fixture("deaths"))
    assert result.errors == []
    assert len(result.text.split("\n", 1)[0].split(",")) == 3 + 70
    assert len(result.records) == 215


# ------------------------------------------------ per-field reference


def _per_field_reference(path):
    """format_file's text, keys and errors, built field by field from the helpers.

    Each error is at the line its record starts on.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dates = [DateColumn.from_header(t) for t in header[4:]]
        fixed = [sanitize_field(h) for h in header[:4]]
        lines = [",".join([fixed[0] + KEY_SEPARATOR + fixed[1], *fixed[2:]]
                          + [d.header_form for d in dates])]
        keys, errors = [], []
        start = reader.line_num + 1
        for row in reader:
            line_no, start = start, reader.line_num + 1
            if len(row) != len(header):
                errors.append((line_no, f"expected {len(header)} fields, found {len(row)}"))
                continue
            clean = [sanitize_field(f) for f in row]
            try:
                key = build_row_key(clean[0], clean[1])
            except ValueError as exc:
                errors.append((line_no, str(exc)))
                continue
            if any("\n" in f or "\r" in f for f in row):
                errors.append((line_no, "field holds a line break"))
                continue
            keys.append(key)
            values = ["" if v == "0" else v for v in clean[4:]]
            lines.append(",".join([key, clean[2], clean[3], *values]))
    return "\n".join(lines) + "\n", keys, errors


_ATOMS = ['"', "*", ",", ", ", "0", "00", " 0", "0.0", "", "7", "12", "\n", "\r"]
_raw_field = st.tuples(st.lists(st.sampled_from(_ATOMS), max_size=3).map("".join), st.booleans())


def _csv_field(field):
    text, quoted = field
    return '"' + text.replace('"', '""') + '"' if quoted else text


@settings(max_examples=300, deadline=None)
@given(
    days=st.integers(1, 4),
    rows=st.lists(st.lists(_raw_field, min_size=5, max_size=8), max_size=8),
)
def test_format_file_matches_the_per_field_reference(days, rows):
    header = "Province/State,Country/Region,Lat,Long," + ",".join(
        f"1/{22 + i}/20" for i in range(days)
    )
    text = "\n".join([header] + [",".join(map(_csv_field, row)) for row in rows]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_text(text, encoding="utf-8")
        result = format_file(path)
        expected_text, keys, errors = _per_field_reference(path)
    assert result.text == expected_text
    assert result.records == keys
    assert [(e.line_number, e.message) for e in result.errors] == errors


# Rows of clean daily fields, which take the joined-line path: runs of "0"
# and the values that only look like zero.
_ZERO_ATOMS = ["0", "0", "0", "00", "0.0", "-0", "", "7"]
_clean_rows = st.integers(1, 40).flatmap(
    lambda days: st.lists(
        st.lists(st.sampled_from(_ZERO_ATOMS), min_size=days, max_size=days),
        min_size=1,
        max_size=4,
    )
)


@settings(max_examples=300, deadline=None)
@given(rows=_clean_rows)
def test_joined_zero_blanking_matches_the_per_field_reference(rows):
    days = len(rows[0])
    header = "Province/State,Country/Region,Lat,Long," + ",".join(
        (date(2020, 1, 22) + timedelta(days=i)).strftime("%m/%d/%y") for i in range(days)
    )
    text = "\n".join(
        [header] + [",".join([f"P{i}", "C", "0", "0", *row]) for i, row in enumerate(rows)]
    ) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_text(text, encoding="utf-8")
        result = format_file(path)
        expected_text, _, _ = _per_field_reference(path)
    assert result.errors == []
    assert result.text == expected_text
