"""Seeded raw time-series CSVs in the upstream JHU layout.

generate(rows, days, seed, revision) returns the locations and the daily
cumulative counts of both series; write_raw() writes them as
time_series_covid19_{confirmed,deaths}_global.csv.  The locations depend
only on (rows, seed) and the counts on (rows, days, seed, revision), so two
revisions of one seed are the same feed re-published with new counts.

Real location names come from tools/generate_fixtures.LOCATIONS, which
brings the feed's quirks ("Korea, South", "Taiwan*", empty provinces).
Rows beyond those are synthetic and carry the same quirks: quoted commas,
asterisks and empty provinces.  The keys the workload corpus names
(~Morocco, British Columbia~Canada, ~France, ~Spain, ~Germany) are always
present, each the only row of its country except Canada.
"""

from __future__ import annotations

import csv
import random
import sys
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from generate_fixtures import LOCATIONS  # noqa: E402

START = date(2020, 1, 22)
SERIES = ("confirmed", "deaths")

CORPUS_KEYS = (
    ("", "Morocco"),
    ("British Columbia", "Canada"),
    ("", "France"),
    ("", "Spain"),
    ("", "Germany"),
)


@dataclass
class Dataset:
    """Locations as (province, country, lat, long) text, counts per series."""

    locations: list[tuple[str, str, str, str]]
    dates: list[date]
    counts: dict[str, list[list[int]]]


def clean(text: str) -> str:
    """The documented sparse transform of one name field."""
    text = text.replace('"', "").replace("*", "")
    return text.replace(", ", "-").replace(",", "-")


def row_key(province: str, country: str) -> str:
    return f"{clean(province)}~{clean(country)}"


def _synthetic(rng: random.Random, n: int) -> tuple[str, str, str, str]:
    lat = f"{rng.choice((-1, 1)) * rng.uniform(1, 60):.4f}"
    long_ = f"{rng.choice((-1, 1)) * rng.uniform(1, 170):.4f}"
    kind = n % 6
    if kind == 0:
        return ("", f"Synthland {n}", lat, long_)
    if kind == 1:
        return ("", f"Isles of {n}, Outer", lat, long_)
    if kind == 2:
        return ("", f"Territory {n}*", lat, long_)
    if kind == 3:
        return (f"Province {n}, North", f"Federation {n // 60}", lat, long_)
    return (f"Province {n}", f"Federation {n // 60}", lat, long_)


def _locations(rows: int, seed: int) -> list[tuple[str, str, str, str]]:
    rng = random.Random(f"{seed}:locations")
    pinned = [loc for loc in LOCATIONS if loc[:2] in CORPUS_KEYS]
    others = [loc for loc in LOCATIONS if loc[:2] not in CORPUS_KEYS]
    if rows < len(pinned):
        raise ValueError(f"need at least {len(pinned)} rows for the corpus keys")
    if rows <= len(LOCATIONS):
        chosen = pinned + rng.sample(others, rows - len(pinned))
    else:
        chosen = pinned + others
        chosen += [_synthetic(rng, n) for n in range(rows - len(LOCATIONS))]
    keys = {row_key(p, c) for p, c, _, _ in chosen}
    if len(keys) != len(chosen):
        raise AssertionError("generated locations collide after cleaning")
    return sorted(chosen, key=lambda loc: (loc[1], loc[0]))


def _cumulative(rng: random.Random, days: int, first: int, final: int) -> list[int]:
    out = [0] * days
    span = max(1, days - 1 - first)
    shape = rng.uniform(1.5, 4.0)
    prev = 0
    for i in range(first, days):
        t = (i - first + 1) / (span + 1)
        prev = max(prev, int(final * t**shape * rng.uniform(0.9, 1.1)), 1)
        out[i] = prev
    return out


def _spread(rng: random.Random, n: int, draw) -> list:
    """n values of draw(q) at evenly spaced quantiles q, in seeded order.

    Stratifying keeps a feed's totals (cells, digits, deaths rows) nearly
    the same from seed to seed, so a seed changes the inputs but not the
    amount of work they make.
    """
    values = [draw((i + 0.5) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def generate(rows: int, days: int, seed: int, revision: int = 0) -> Dataset:
    locations = _locations(rows, seed)
    n = len(locations)
    rng = random.Random(f"{seed}:{rows}:{days}:{revision}:counts")
    # First cases fall in the first ten weeks, as in the real feed.
    firsts = _spread(rng, n, lambda q: min(days - 1, int(70 * (1 - (1 - q) ** 0.5))))
    finals = _spread(rng, n, lambda q: max(1, int(10 ** (0.5 + 5 * q))))
    with_deaths = _spread(rng, n, lambda q: q < 0.6)
    corrected = _spread(rng, n, lambda q: q < 0.03)
    confirmed: list[list[int]] = []
    deaths: list[list[int]] = []
    for first, final, dies, fix in zip(firsts, finals, with_deaths, corrected):
        c = _cumulative(rng, days, first, final)
        if fix and first + 2 < days:
            c[first + 2] = 0  # a data correction back to zero, as the feed has
        if dies:
            lag = min(days - 1, first + rng.randint(3, 20))
            d = _cumulative(rng, days, lag, max(1, final // rng.randint(20, 200)))
            d = [min(a, b) for a, b in zip(d, c)]
        else:
            d = [0] * days
        confirmed.append(c)
        deaths.append(d)
    dates = [START + timedelta(days=i) for i in range(days)]
    return Dataset(locations, dates, {"confirmed": confirmed, "deaths": deaths})


def load_raw(directory: Path) -> Dataset:
    """Read both raw CSVs of a directory back into a Dataset."""
    tables = {}
    for series in SERIES:
        with open(directory / raw_file_name(series), newline="", encoding="utf-8") as fh:
            tables[series] = list(csv.reader(fh))
    header = tables["confirmed"][0]
    dates = []
    for token in header[4:]:
        month, day, year = (int(x) for x in token.split("/"))
        dates.append(date(2000 + year, month, day))
    locations = [tuple(row[:4]) for row in tables["confirmed"][1:]]
    for series in SERIES:
        if [tuple(row[:4]) for row in tables[series][1:]] != locations:
            raise ValueError(f"{directory}: the two series list different locations")
    counts = {s: [[int(v) for v in row[4:]] for row in tables[s][1:]] for s in SERIES}
    return Dataset(locations, dates, counts)


def raw_file_name(series: str) -> str:
    return f"time_series_covid19_{series}_global.csv"


def _field(text: str) -> str:
    return f'"{text}"' if "," in text else text


def write_raw(ds: Dataset, directory: Path) -> int:
    """Write both raw CSVs; returns the bytes written."""
    directory.mkdir(parents=True, exist_ok=True)
    header = "Province/State,Country/Region,Lat,Long," + ",".join(
        f"{d.month}/{d.day}/{d.year % 100}" for d in ds.dates
    )
    total = 0
    for series in SERIES:
        lines = [header]
        for (province, country, lat, long_), values in zip(ds.locations, ds.counts[series]):
            lines.append(
                f"{_field(province)},{_field(country)},{lat},{long_},"
                + ",".join(map(str, values))
            )
        text = "\n".join(lines) + "\n"
        (directory / raw_file_name(series)).write_text(text, encoding="utf-8", newline="\n")
        total += len(text.encode("utf-8"))
    return total


def qualifier(d: date) -> str:
    return f"d{d.month}{d.day:02d}"


def expected_get(ds: Dataset, series: str, index: int) -> str:
    """What a whole-row shell get of location `index` must print.

    Cells come back in coordinate order; a zero count was never stored.
    """
    _, _, lat, long_ = ds.locations[index]
    cells = {"lt": lat, "lg": long_}
    for d, v in zip(ds.dates, ds.counts[series][index]):
        if v:
            cells[qualifier(d)] = str(v)
    lines = [f"column=a:{q}, value={cells[q]}" for q in sorted(cells)]
    lines.append("1 row(s)")
    return "\n".join(lines)
