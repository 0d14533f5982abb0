"""Acceptance suite: one test per release criterion.

Each test states its runtime budget and checks it with a monotonic clock,
so a regression that blows up cost fails loudly rather than slowly.  The
per-criterion pass/fail summary is printed by the conftest hook at the end
of the run.
"""

import csv
import random
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from datetime import date, timedelta

import pytest

from covidstore.cli import main, raw_file_name
from covidstore.shell import execute_command, parse_command, run_script
from covidstore.ingest import generate_schema
from covidstore.sql.ddl import parse_ddl
from covidstore.sql.engine import Catalog, execute_query, parse_statement, render_result_set
from covidstore.sql.lexer import split_statements
from covidstore.sql.query import SelectQuery, parse_query
from covidstore.store import (
    ColumnCoord,
    TableEnabledError,
    TableNotFoundError,
    open_store,
)

import query_oracle
from conftest import (
    GOLDEN,
    SERIES,
    TABLES,
    WORKLOAD,
    raw_fixture,
    scan_order_checks,
    workload_text,
)

START = date(2020, 1, 22)
END = date(2020, 3, 31)

SHELL_CORPUS = (
    "shell_get_four_countries.txt",
    "shell_drop_confirmed.txt",
    "shell_drop_deaths.txt",
    "shell_get_by_region.txt",
)
SQL_CORPUS = (
    "ddl_confirmed.sql",
    "ddl_deaths.sql",
    "query_morocco_all.sql",
    "query_join_morocco.sql",
    "query_join_four_countries.sql",
)
QUERY_CORPUS = (
    "query_morocco_all.sql",
    "query_join_morocco.sql",
    "query_join_four_countries.sql",
)


@contextmanager
def budget(seconds: float):
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget is {seconds}s"


# --------------------------------------------------------------- criterion 1


def test_c1_schema_generation_exactness():
    with budget(1.0):
        text = generate_schema(TABLES["confirmed"], START, END)
        ddl = parse_ddl(text)

        names = [c.name for c in ddl.schema.columns]
        assert names[:2] == ["Lat", "Long"]
        dates = names[2:]
        assert len(dates) == 70
        assert dates[0] == "01_22_2020" and dates[-1] == "03_31_2020"

        # the independently derived qualifier sequence for the range
        expected_quals = []
        day = START
        while day <= END:
            expected_quals.append(f"a:d{day.month}{day.day:02d}")
            day += timedelta(days=1)
        assert len(expected_quals) == 70

        generated = [str(c) for c in ddl.mapping.coords][2:]
        assert generated == expected_quals

        # and it matches the pinned corpus statement's date segment after
        # whitespace normalization
        corpus = parse_ddl(split_statements(workload_text("ddl_confirmed.sql"))[1])
        corpus_entries = re.sub(
            r"\s+", "", corpus.properties["hbase.columns.mapping"]
        ).split(",")
        assert corpus_entries[3:] == expected_quals


# --------------------------------------------------------------- criterion 2


def test_c2_corpus_parse_coverage():
    with budget(1.0):
        commands = 0
        for name in SHELL_CORPUS:
            for line in workload_text(name).splitlines():
                if line.strip():
                    parse_command(line)
                    commands += 1
        # 8 four-country gets, 2+2 disable/drop pairs, 4 spot-check gets
        assert commands == 8 + 2 + 2 + 4

        statements = 0
        for name in SQL_CORPUS:
            for statement in split_statements(workload_text(name)):
                parse_statement(statement)
                statements += 1
        # two 3-statement DDL scripts plus three standalone queries
        assert statements == 3 + 3 + 1 + 1 + 1


# --------------------------------------------------------------- criterion 3


def test_c3_load_get_round_trip(populated_store_dir):
    with budget(30.0):
        with open_store(populated_store_dir) as store:
            for series in SERIES:
                table = TABLES[series]
                present, absent = query_oracle.raw_cells(raw_fixture(series))
                coords = {q: ColumnCoord.parse(q) for _, q in set(present) | absent}

                for (key, qual), value in present.items():
                    got = store.get(table, key, coords[qual])
                    assert got == [(coords[qual], value)], (table, key, qual)
                for key, qual in absent:
                    assert store.get(table, key, coords[qual]) == [], (table, key, qual)

                # nothing beyond the expected cells made it into the table
                stored = {
                    (row.key, str(coord))
                    for row in store.scan(table)
                    for coord in row.cells
                }
                assert stored == set(present)


# --------------------------------------------------------------- criterion 4


def _oracle_tables():
    return {TABLES[s]: query_oracle.OracleTable(raw_fixture(s)) for s in SERIES}


def _sql_str(value: str) -> str:
    return "'" + value.replace("'", "\\'") + "'"


def _random_query(rng, countries, provinces, date_cols):
    if rng.random() < 0.6:
        alias = rng.choice(("", " t"))
        q = "t." if alias else ""
        refs = [f"{q}key.Province_State", f"{q}key.Country_Region", f"{q}Lat"] + [
            f"{q}{c}" for c in rng.sample(date_cols, 3)
        ]
        plans = [(None, f"FROM {rng.choice(list(TABLES.values()))}{alias}")]
    else:
        refs = [
            "c.key.Province_State",
            "c.key.Country_Region",
            "d.key.Country_Region",
            "c.Lat",
            "d.Long",
            f"c.{rng.choice(date_cols)}",
            f"d.{rng.choice(date_cols)}",
        ]
        on = "c.key.Country_Region = d.key.Country_Region"
        if rng.random() < 0.8:
            on = f"c.key.Province_State = d.key.Province_State AND {on}"
        plans = [
            ("c", f"FROM {TABLES['confirmed']} c JOIN {TABLES['deaths']} d ON {on}")
        ]
    qualifier, source = plans[0]

    if rng.random() < 0.2:
        select = "*"
    else:
        select = ", ".join(rng.sample(refs, rng.randint(1, min(4, len(refs)))))

    where = ""
    if rng.random() >= 0.35:
        q = f"{qualifier}." if qualifier else ("t." if " t" in source else "")
        preds = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.randrange(4)
            if kind == 0:
                preds.append(
                    f"{q}key.Country_Region = {_sql_str(rng.choice(countries))}"
                )
            elif kind == 1:
                chosen = rng.sample(countries, rng.randint(2, 4))
                preds.append(
                    f"{q}key.Country_Region IN ({', '.join(map(_sql_str, chosen))})"
                )
            elif kind == 2:
                preds.append(
                    f"{q}key.Province_State = {_sql_str(rng.choice(provinces))}"
                )
            else:
                col = rng.choice(date_cols)
                value = rng.randint(0, 99999)
                preds.append(f"{q}{col} = {value}")
        where = " WHERE " + " AND ".join(preds)

    return f"SELECT {select} {source}{where}"


def _join_shape_query(rng, oracle_tables, date_cols):
    """A join the first generator never makes: on a float or a date column,
    a self-join, WHERE predicates on the second source, float literals."""
    confirmed = TABLES["confirmed"]
    second = rng.choice((TABLES["deaths"], confirmed))
    first_rows = oracle_tables[confirmed].rows
    second_rows = oracle_tables[second].rows
    kind = rng.randrange(3)
    if kind == 0:
        on = "c.Lat = d.Lat"
    elif kind == 1:
        # Early dates are mostly zero, so NULL, and NULL never joins.
        on = f"c.{rng.choice(date_cols)} = d.{rng.choice(date_cols)}"
    else:
        on = "c.key.Country_Region = d.key.Country_Region"

    refs = [
        "c.key.Province_State",
        "d.key.Province_State",
        "d.key.Country_Region",
        "c.Lat",
        "d.Long",
        f"c.{rng.choice(date_cols)}",
        f"d.{rng.choice(date_cols)}",
    ]
    if rng.random() < 0.15:
        select = "*"
    else:
        select = ", ".join(rng.sample(refs, rng.randint(1, 4)))

    preds = []
    for _ in range(rng.randint(0, 2)):
        row = rng.choice(second_rows)
        choice = rng.randrange(5)
        if choice == 0:
            preds.append(f"d.key.Country_Region = {_sql_str(row['country_region'])}")
        elif choice == 1:
            names = {rng.choice(second_rows)["country_region"] for _ in range(3)}
            preds.append(f"d.key.Country_Region IN ({', '.join(map(_sql_str, sorted(names)))})")
        elif choice == 2:
            col = rng.choice(date_cols)
            preds.append(f"d.{col} = {row[col.lower()] or 0}")
        elif choice == 3:
            preds.append(f"c.Lat = {rng.choice(first_rows)['lat']!r}")
        else:
            preds.append(f"d.Long = {row['long']!r}")
    where = " WHERE " + " AND ".join(preds) if preds else ""
    return f"SELECT {select} FROM {confirmed} c JOIN {second} d ON {on}{where}"


def test_c4_engine_matches_oracle(populated_store_dir):
    with budget(60.0):
        oracle_tables = _oracle_tables()
        confirmed = oracle_tables[TABLES["confirmed"]]
        countries = sorted({r["country_region"] for r in confirmed.rows})
        provinces = sorted({r["province_state"] for r in confirmed.rows})
        date_cols = confirmed.declared_columns[2:]

        import random

        rng = random.Random(20200331)
        queries = [workload_text(name) for name in QUERY_CORPUS]
        queries += [
            _random_query(rng, countries, provinces, date_cols) for _ in range(200)
        ]
        shapes = random.Random(20200401)
        queries += [
            _join_shape_query(shapes, oracle_tables, date_cols) for _ in range(60)
        ]

        with open_store(populated_store_dir) as store:
            catalog = Catalog(store)
            for text in queries:
                (statement,) = split_statements(text)
                ast = parse_query(statement)
                engine = execute_query(ast, catalog, store)
                header, rows = query_oracle.evaluate(ast, oracle_tables)
                assert engine.columns == header, text
                assert Counter(engine.rows) == Counter(rows), text
                assert engine.rows == rows, text

        # the three pinned queries must also return something
        for text in queries[:3]:
            (statement,) = split_statements(text)
            _, rows = query_oracle.evaluate(parse_query(statement), oracle_tables)
            assert rows


def test_fresh_opens_match_oracle(populated_store_dir):
    # Criterion 4 opens the store once, so after its first full scan every
    # row is parsed; here each query opens the store afresh, as a CLI
    # process does, and so reads rows through their first-touch line path.
    # The budget holds the engine's runs; the brute-force oracle's joins
    # take several times as long, so they run before it.
    oracle_tables = _oracle_tables()
    confirmed = oracle_tables[TABLES["confirmed"]]
    countries = sorted({r["country_region"] for r in confirmed.rows})
    provinces = sorted({r["province_state"] for r in confirmed.rows})
    date_cols = confirmed.declared_columns[2:]

    import random

    rng = random.Random(20200402)
    texts = [_random_query(rng, countries, provinces, date_cols) for _ in range(70)]
    texts += [_join_shape_query(rng, oracle_tables, date_cols) for _ in range(30)]
    cases = []
    for text in texts:
        ast = parse_query(text)
        cases.append((text, ast, query_oracle.evaluate(ast, oracle_tables)))

    with budget(10.0):
        for text, ast, (header, rows) in cases:
            with open_store(populated_store_dir) as store:
                engine = execute_query(ast, Catalog(store), store)
            assert engine.columns == header, text
            assert engine.rows == rows, text


def _write_bench_scale_feed(directory, days, seed, rows=289):
    """A seeded raw feed in the JHU layout: the fixture's 215 locations, then
    synthetic provinces of one more country, each counting up from its own
    first day, and about one day in twenty reading 0."""
    rng = random.Random(seed)
    with open(raw_fixture("confirmed"), newline="", encoding="utf-8") as f:
        places = [row[:4] for row in list(csv.reader(f))[1:]]
    places += [[f"Region {i}", "Multiland", f"{i}.5", ""] for i in range(rows - len(places))]
    dates = [START + timedelta(days=i) for i in range(days)]
    header = ["Province/State", "Country/Region", "Lat", "Long"]
    header += [f"{d.month}/{d.day}/{d.year % 100}" for d in dates]
    for series in SERIES:
        counts = []
        for _ in places:
            first, total, row = rng.randrange(days), 0, []
            for day in range(days):
                total += rng.randrange(40) if day >= first else 0
                row.append(total if rng.random() > 0.05 else 0)
            counts.append(row)
        with open(directory / raw_file_name(series), "w", newline="", encoding="utf-8") as f:
            csv.writer(f, lineterminator="\n").writerows([header, *map(list.__add__, places, counts)])


def test_bench_scale_queries_match_oracle(tmp_path, capsys):
    # The bench's global shape, 289 rows x 366 days, and four query shapes
    # that read whole rows or every row: SELECT * of one key and of a
    # 16-row country, a join with no WHERE, and a one-table column
    # predicate.  Each runs on a fresh open, as a CLI process does, then
    # again warm in the same process; the oracle reads the raw CSVs.
    days = 366
    raw = tmp_path / "raw"
    raw.mkdir()
    _write_bench_scale_feed(raw, days, seed=20200403)
    base = ["--store-dir", str(tmp_path / "store"), "--data-dir", str(tmp_path / "data")]
    end = START + timedelta(days=days - 1)
    assert main([*base, "fetch", "--from-dir", str(raw)]) == 0
    assert main([*base, "ingest"]) == 0
    for series in SERIES:
        table = TABLES[series]
        assert main([*base, "sql", generate_schema(table, START, end)]) == 0
        sparse = tmp_path / "data" / f"time_series_covid19_{series}_global-sparse.csv"
        load = ["load", table, str(sparse), "--dates", f"{START}:{end}", "--strict"]
        assert main([*base, *load]) == 0
    capsys.readouterr()

    oracle_tables = {TABLES[s]: query_oracle.OracleTable(raw / raw_file_name(s)) for s in SERIES}
    confirmed = oracle_tables[TABLES["confirmed"]]
    late, early = confirmed.declared_columns[-30], confirmed.declared_columns[40]
    value = next(r[late.lower()] for r in confirmed.rows[100:] if r[late.lower()] is not None)
    texts = [
        f"SELECT * FROM {TABLES['confirmed']} "
        "WHERE key.Province_State = '' AND key.Country_Region = 'Morocco'",
        f"SELECT * FROM {TABLES['deaths']} WHERE key.Country_Region = 'China'",
        f"SELECT c.key.Province_State, d.key.Country_Region, c.Lat, c.{late}, d.{early} "
        f"FROM {TABLES['confirmed']} c JOIN {TABLES['deaths']} d "
        "ON c.key.Province_State = d.key.Province_State "
        "AND c.key.Country_Region = d.key.Country_Region",
        f"SELECT key.Country_Region, Long, {late} FROM {TABLES['confirmed']} WHERE {late} = {value}",
    ]
    cases = []
    for text in texts:
        ast = parse_query(text)
        header, rows = query_oracle.evaluate(ast, oracle_tables)
        assert rows, text
        cases.append((text, ast, header, rows))

    with budget(2.0):
        for text, ast, header, rows in cases:
            with open_store(tmp_path / "store") as store:
                catalog = Catalog(store)
                for _ in ("fresh", "warm"):
                    engine = execute_query(ast, catalog, store)
                    assert engine.columns == header, text
                    assert engine.rows == rows, text


# --------------------------------------------------------------- criterion 5


def test_c5_persistence_across_processes(store_copy, tmp_path):
    with budget(30.0):
        script = tmp_path / "queries.sql"
        script.write_text(
            "\n".join(workload_text(name) for name in QUERY_CORPUS),
            encoding="utf-8",
        )

        expected_parts = []
        with open_store(store_copy) as store:
            catalog = Catalog(store)
            statements = split_statements(script.read_text(encoding="utf-8"))
            assert len(statements) == 3
            for statement in statements:
                ast = parse_statement(statement)
                assert isinstance(ast, SelectQuery)
                expected_parts.append(
                    render_result_set(execute_query(ast, catalog, store)) + "\n"
                )
        expected = "".join(expected_parts).encode()

        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "covidstore",
                    "--store-dir",
                    str(store_copy),
                    "--data-dir",
                    str(tmp_path / "data"),
                    "sql",
                    "-f",
                    str(script),
                ],
                capture_output=True,
                timeout=25,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)

        assert outputs[0] == expected
        assert outputs[1] == expected


# --------------------------------------------------------------- criterion 6


def test_c6_lifecycle_disable_before_drop(store_copy, capsys):
    with budget(1.0):
        with open_store(store_copy) as store:
            with pytest.raises(TableEnabledError):
                store.drop_table(TABLES["confirmed"])

            for name in ("shell_drop_confirmed.txt", "shell_drop_deaths.txt"):
                errors = run_script(store, WORKLOAD / name)
                assert errors == 0
            assert capsys.readouterr().out == ""

            for series in SERIES:
                assert not store.has_table(TABLES[series])
                with pytest.raises(TableNotFoundError):
                    store.scan(TABLES[series])
                out = execute_command(
                    parse_command(f"scan '{TABLES[series]}'"), store
                )
                assert out == f"ERROR: table '{TABLES[series]}' not found"


# --------------------------------------------------------------- criterion 7


def test_c7_transform_reproduces_golden_files(tmp_path, capsys):
    with budget(5.0):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for series in SERIES:
            shutil.copy(raw_fixture(series), data_dir)

        rc = main(
            ["--store-dir", str(tmp_path / "store"), "--data-dir", str(data_dir), "ingest"]
        )
        assert rc == 0
        capsys.readouterr()

        for series in SERIES:
            stem = raw_file_name(series)[: -len(".csv")]
            for suffix in ("-sparse-with-formatted-column-names.csv", "-sparse.csv"):
                produced = (data_dir / f"{stem}{suffix}").read_bytes()
                assert produced == (GOLDEN / f"{stem}{suffix}").read_bytes(), suffix

        headered = (
            data_dir / (raw_file_name("confirmed")[: -len(".csv")]
                        + "-sparse-with-formatted-column-names.csv")
        ).read_text(encoding="utf-8")
        raw = raw_fixture("confirmed").read_text(encoding="utf-8")
        assert '"Korea, South"' in raw and "Korea, South" not in headered
        assert "~Korea-South," in headered
        assert "\n~Morocco," in headered


# --------------------------------------------------------------- criterion 8


def test_c8_scan_ordering_invariant(populated_store_dir):
    with open_store(populated_store_dir) as store:
        for series in SERIES:
            keys = [row.key for row in store.scan(TABLES[series])]
            assert keys == sorted(keys)
            # composite keys with an empty first field start with the
            # separator, which sorts after every letter, so the two key
            # populations form contiguous blocks
            tilde_first = [k.startswith("~") for k in keys]
            assert tilde_first == sorted(tilde_first)
            assert keys[0][0] != "~" and keys[-1].startswith("~")
    # the conftest wrapper has been re-checking order on every scan of the
    # whole run, this test's included
    assert scan_order_checks["scans"] >= 2
