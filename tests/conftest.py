"""Shared fixtures: bundled data paths and a fully loaded store.

Every scan in the whole suite runs through a wrapper that re-checks the
ordering contract (keys ascending, cells in coordinate order), so the
ordering acceptance criterion is enforced continuously rather than by a
single spot check.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

import covidstore
from covidstore.ingest import write_formatted_files
from covidstore.sql.engine import Catalog, execute_statement, parse_statement
from covidstore.sql.lexer import split_statements
from covidstore.store import ROW_KEY, ColumnCoord, ImportSpec, Store, open_store

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS / "data" / "fixtures"
GOLDEN = TESTS / "data" / "golden"
WORKLOAD = TESTS / "data" / "workload"

SERIES = ("confirmed", "deaths")
TABLES = {s: f"{s}_covid19_cases" for s in SERIES}

scan_order_checks = {"scans": 0}


def raw_fixture(series: str) -> Path:
    return FIXTURES / f"time_series_covid19_{series}_global.csv"


def workload_text(name: str) -> str:
    return (WORKLOAD / name).read_text(encoding="utf-8")


def child_env() -> dict[str, str]:
    """The environment of a child Python: it imports the covidstore this process imports.

    PYTHONUNBUFFERED is left out, so the child's stdout is block-buffered, as it
    is for a user, and output reaches a pipe or file only when the child flushes.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(covidstore.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def import_spec() -> ImportSpec:
    entries = workload_text("import_columns.txt").strip().split(",")
    columns = tuple(
        e if e == ROW_KEY else ColumnCoord.parse(e) for e in entries
    )
    return ImportSpec(columns=columns)


@pytest.fixture(autouse=True)
def _check_every_scan(monkeypatch):
    unchecked = Store.scan

    def checked(self, table, key_parts=None):
        rows = unchecked(self, table, key_parts)
        keys = [row.key for row in rows]
        assert keys == sorted(keys), f"scan of {table!r} returned keys out of order"
        for row in rows:
            coords = list(row.cells)
            assert coords == sorted(coords), (
                f"scan of {table!r} row {row.key!r} has cells out of order"
            )
        scan_order_checks["scans"] += 1
        return rows

    monkeypatch.setattr(Store, "scan", checked)


@pytest.fixture(scope="session")
def populated_store_dir(tmp_path_factory) -> Path:
    """A closed store holding both fixture tables, built once per session.

    Treat as read-only; tests that mutate take store_copy instead.
    """
    base = tmp_path_factory.mktemp("session-store")
    data = base / "data"
    data.mkdir()
    store_dir = base / "store"
    spec = import_spec()
    with open_store(store_dir) as store:
        catalog = Catalog(store)
        for series in SERIES:
            _, sparse, result = write_formatted_files(shutil.copy(raw_fixture(series), data))
            assert not result.errors
            for stmt in split_statements(workload_text(f"ddl_{series}.sql")):
                execute_statement(parse_statement(stmt), catalog, store)
            report = store.import_tsv(TABLES[series], sparse, spec)
            assert report.skipped == 0
    return store_dir


@pytest.fixture
def store_copy(populated_store_dir, tmp_path) -> Path:
    target = tmp_path / "store"
    shutil.copytree(populated_store_dir, target)
    return target


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    labels = {
        "test_c1": "criterion 1: schema generation matches the pinned mapping",
        "test_c2": "criterion 2: full command corpus parses",
        "test_c3": "criterion 3: exhaustive load/get round-trip",
        "test_c4": "criterion 4: engine equals brute-force oracle",
        "test_c5": "criterion 5: persistence across processes, identical output",
        "test_c6": "criterion 6: disable-before-drop lifecycle",
        "test_c7": "criterion 7: formatter reproduces golden files",
        "test_c8": "criterion 8: every scan came back ordered",
    }
    seen: dict[str, str] = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            name = nodeid.split("::")[-1].split("[")[0]
            short = name.split("_")[1] if "_" in name else name
            key = f"test_{short}"
            if key in labels:
                seen[key] = "PASS" if outcome == "passed" else "FAIL"
    if not seen:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(labels):
        if key in seen:
            terminalreporter.write_line(f"{seen[key]}  {labels[key]}")
    terminalreporter.write_line(
        f"scan ordering verified on {scan_order_checks['scans']} scan(s)"
    )
