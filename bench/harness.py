"""One benchmark run: data, set-up, the measured loop, checks and metrics.

A run generates two revisions of a seeded feed (A and B), builds stores
from revision A with the CLI pipeline, then repeats rounds until the time
is up.  One round is

  * a refresh cycle over the CLI store: fetch, ingest, schema-gen and
    sql -f (DROP then CREATE) per series, load per series, and the README's
    Morocco join through `covidstore sql`, alternating revisions B and A so
    every cycle really replaces the data;
  * in process, on a second store built from revision A and opened once:
    three JOINs and three single-table SELECTs, each followed by ten
    whole-row shell gets, all through the public API;
  * the Morocco join through `covidstore sql` once more, which doubles the
    samples of a CLI query without lengthening the refresh cycle.

The client is one closed loop with no threads: each operation starts when
the previous one has finished.  Every answer is checked outside the timed
sections: queries against the brute-force oracle in tests/query_oracle.py
run over the raw CSVs, gets against the generator's own values, and every
CLI step by exit code and stdout.

With tracing on, the refresh cycle runs through covidstore.cli.main in
process, rounds alternate traced and untraced, and the per-layer numbers
come from the traced rounds.
"""

from __future__ import annotations

import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Optional

import covidstore.cli as cli_mod
import covidstore.shell as shell_mod
import query_oracle
from covidstore.sql import split_statements

import datagen
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_DIR = ROOT / "tests" / "data" / "workload"
FIXTURES = ROOT / "tests" / "data" / "fixtures"

# (rows, days) per workload.  The global shape stops at 366 days because a
# date qualifier carries no year (d<month><day>): over a longer range two
# dates share one store coordinate and the columns alias.
SHAPES = {"global": (289, 366), "tall": (1000, 70)}

SETUP_REPEATS = 3
QUERY_PAIRS = 3  # JOIN + SELECT pairs per round
GETS_PER_QUERY = 10
TABLES = {s: f"{s}_covid19_cases" for s in datagen.SERIES}


def corpus(name: str) -> str:
    (statement,) = split_statements((WORKLOAD_DIR / name).read_text(encoding="utf-8"))
    return statement


def sql_str(value: str) -> str:
    return "'" + value.replace("'", "\\'") + "'"


def shell_str(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def render(value) -> str:
    """Text the CLI must print for one oracle value."""
    if value is None:
        return "NULL"
    return repr(value) if isinstance(value, float) else str(value)


# Latencies are reported at a reference host speed.  Hosts shared with
# other tenants run this code up to twice as slowly for minutes at a time,
# which raw times would carry into every metric at once.  So each time is
# multiplied by CAL_REF_MS over the median of the five calibrations around
# it (two before, three after); the median ignores a calibration that was
# preempted.  CLI subprocesses, mostly interpreter start-up, slow down like
# the calibrator's arithmetic loop; work in this process slows down like
# all four of its kernels together.  CAL_REF_MS holds what the two take on
# a quiet 2-vCPU x86-64 VM under CPython 3.11.  Raw and scaled medians are
# both recorded.
LOOP, ALL = 0, 1
CAL_REF_MS = (5.0, 15.0)
CAL_WINDOW = 2


class Calibrator:
    """Fixed pure-Python work: the host's speed at this moment.

    Four kernels shaped like the program's own work, since a neighbour
    slows cache-bound and call-bound code more than a tight loop:
    arithmetic, a nested loop of small calls and type checks (the join),
    random lookups in a 200k-key dict (a heap that misses the cache), and
    splitting and parsing CSV lines (ingest and load).  A call returns the
    ms of the arithmetic loop and of all four, indexed by LOOP and ALL.
    """

    def __init__(self) -> None:
        rng = Random(0)
        keys = [f"k{i}~{i * 7919 % 100003}" for i in range(200_000)]
        self.table = {k: i for i, k in enumerate(keys)}
        self.probes = rng.sample(keys, 20_000)
        self.rows = [{"a": str(i % 37)} for i in range(100)]
        self.lines = [
            f"key{i}," + ",".join(str(i * j % 1000) if (i + j) % 5 else "" for j in range(60))
            for i in range(60)
        ]

    def __call__(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        x = 0
        for i in range(80_000):
            x += i * i % 7
        t1 = time.perf_counter()
        get = lambda row: row["a"]  # noqa: E731
        for left in self.rows:
            for right in self.rows:
                a, b = get(left), get(right)
                if isinstance(a, str) and isinstance(b, str) and a == b:
                    x += 1
        table = self.table
        for key in self.probes:
            x += table[key]
        parsed = {}
        for line in self.lines:
            fields = line.split(",")
            parsed[fields[0]] = {j: int(v) for j, v in enumerate(fields[1:]) if v}
        return (t1 - t0) * 1e3, (time.perf_counter() - t0) * 1e3


def tail(samples: list[float]) -> Optional[tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


class Ledger:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
                print(f"FAIL: {what}", file=sys.stderr)


@dataclass
class Feed:
    """One revision of the raw CSVs, with what the program must answer on it."""

    directory: Path
    data: datagen.Dataset
    raw_bytes: int
    cells: dict[str, int]  # per series, non-empty cells a load writes
    answers: dict[str, tuple[list[str], list]] = field(default_factory=dict)

    @classmethod
    def make(cls, directory: Path, data: datagen.Dataset, write: bool) -> "Feed":
        raw = datagen.write_raw(data, directory) if write else sum(
            (directory / datagen.raw_file_name(s)).stat().st_size for s in datagen.SERIES
        )
        cells = {
            s: sum(2 + sum(1 for v in row if v) for row in data.counts[s])
            for s in datagen.SERIES
        }
        return cls(directory, data, raw, cells)

    def answer(self, statement: str) -> tuple[list[str], list]:
        if statement not in self.answers:
            tables = {
                TABLES[s]: query_oracle.OracleTable(self.directory / datagen.raw_file_name(s))
                for s in datagen.SERIES
            }
            ast = cli_mod.parse_statement(statement)
            self.answers[statement] = query_oracle.evaluate(ast, tables)
        return self.answers[statement]


def query_plan(data: datagen.Dataset, seed: int) -> tuple[list[str], list[str], list]:
    """Seeded JOIN and SELECT texts and (series, row index) pairs to get."""
    rng = Random(f"{seed}:queries")
    countries = sorted({datagen.clean(c) for _, c, _, _ in data.locations})
    column = rng.choice(data.dates).strftime("%m_%d_%Y")
    one = rng.choice(countries)
    many = rng.sample(countries, 4)
    joins = [
        corpus("query_join_morocco.sql"),
        corpus("query_join_four_countries.sql"),
        f"SELECT d.key.Country_Region, c.{column}, d.{column} "
        "FROM confirmed_covid19_cases c JOIN deaths_covid19_cases d "
        "ON c.key.Province_State = d.key.Province_State "
        "AND c.key.Country_Region = d.key.Country_Region "
        f"WHERE c.key.Country_Region = {sql_str(one)}",
        f"SELECT d.key.Province_State, d.key.Country_Region, c.{column}, d.{column} "
        "FROM confirmed_covid19_cases c JOIN deaths_covid19_cases d "
        "ON c.key.Province_State = d.key.Province_State "
        "AND c.key.Country_Region = d.key.Country_Region "
        f"WHERE c.key.Country_Region IN ({', '.join(map(sql_str, many))})",
    ]
    selects = [
        corpus("query_morocco_all.sql"),
        f"SELECT * FROM deaths_covid19_cases WHERE key.Country_Region = {sql_str(one)}",
    ]
    # Rows at evenly spaced ranks of their cell count, so that the mix of
    # short and long rows, and with it the cost of a get, is the same for
    # every seed.
    n = len(data.locations)
    gets = []
    for series in datagen.SERIES:
        by_size = sorted(range(n), key=lambda i: (sum(map(bool, data.counts[series][i])),
                                                  rng.random()))
        gets += [(series, by_size[int((k + 0.5) * n / 32)]) for k in range(32)]
    rng.shuffle(gets)
    return joins, selects, gets


@dataclass
class Step:
    name: str
    rc: int
    ns: int
    out: Path
    maxrss_kb: int = 0


class Runner:
    """Runs `covidstore` commands as subprocesses, or in process when traced.

    Subprocesses are forked by bench/spawner.py, started here while this
    process is still small.  Leaving the runner's context stops the helper,
    and kills it with anything it left running if it does not stop.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.err = work / "stderr.txt"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
        self.helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=work, start_new_session=True,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.helper.pid, signal.SIGKILL)
            self.helper.wait()
        self.helper.stdout.close()

    def spawn(self, argv: list[str], out: Path, append: bool = False) -> Step:
        request = {
            "argv": [sys.executable, "-m", "covidstore", *argv], "out": str(out),
            "append": append, "err": str(self.err), "cwd": str(self.work), "env": self.env,
        }
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise RuntimeError("bench/spawner.py exited")
        rc, ns, maxrss_kb = json.loads(reply)
        return Step(argv[4], rc, ns, out, maxrss_kb)

    def call(self, argv: list[str], out: Path, append: bool = False) -> Step:
        buf = io.StringIO()
        t0 = time.perf_counter_ns()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            try:
                rc = cli_mod.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        with open(out, "a" if append else "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        return Step(argv[4], rc, time.perf_counter_ns() - t0, out)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work: Path, runner: Runner, fixture: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.ledger = Ledger()
        self.runner = runner
        self.tracer = Tracer()
        if fixture:
            data = datagen.load_raw(FIXTURES)
            self.feeds = [Feed.make(FIXTURES, data, write=False)] * 2
        else:
            rows, days = SHAPES[workload]
            self.feeds = [
                Feed.make(work / f"feed{rev}", datagen.generate(rows, days, seed, rev), write=True)
                for rev in (0, 1)
            ]
        dates = self.feeds[0].data.dates
        self.date_range = f"{dates[0].isoformat()}:{dates[-1].isoformat()}"
        self.morocco_join = corpus("query_join_morocco.sql")
        self.joins, self.selects, self.gets = query_plan(self.feeds[0].data, seed)
        # Expected answers are computed here, before anything is timed.
        for statement in self.joins + self.selects:
            self.feeds[0].answer(statement)
        for feed in self.feeds:
            feed.answer(self.morocco_join)
        self.expected_gets = [
            (f"get {shell_str(TABLES[s])}, "
             f"{shell_str(datagen.row_key(*self.feeds[0].data.locations[i][:2]))}",
             datagen.expected_get(self.feeds[0].data, s, i))
            for s, i in self.gets
        ]
        # Each sample is a list of parts: (ns, index of the calibration after
        # it, LOOP or ALL).
        self.samples: dict[str, list[list[tuple[int, int, int]]]] = {
            k: [] for k in ("setup_s", "refresh_s", "cli_query_ms", "join_ms", "select_ms", "get_ms")
        }
        self.calibrate = Calibrator()
        self.calib_ms: list[tuple[float, float]] = []
        self.child_rss_kb: list[int] = []
        self.bytes_written: list[int] = []
        self.startup_ms: list[float] = []
        # (round, kind, part) per operation id
        self.ops: list[tuple[int, str, tuple[int, int, int]]] = []
        self.rounds: list[tuple[bool, int, int]] = []  # (traced, first op, end op)

    def _calibrate(self) -> int:
        """Calibrate now; returns the calibration's index."""
        self.calib_ms.append(self.calibrate())
        return len(self.calib_ms) - 1

    def _scaled(self, parts: list[tuple[int, int, int]]) -> float:
        """ns at the reference speed."""
        total = 0.0
        for ns, i, which in parts:
            window = self.calib_ms[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]
            total += ns * CAL_REF_MS[which] / statistics.median(c[which] for c in window)
        return total

    def values(self, key: str, scaled: bool = True) -> list[float]:
        unit = 1e9 if key.endswith("_s") else 1e6
        return [(self._scaled(parts) if scaled else sum(p[0] for p in parts)) / unit
                for parts in self.samples[key]]

    # ------------------------------------------------------------ the pipeline

    def cycle(self, feed: Feed, home: Path, with_query: bool, run,
              round_no: int) -> list[tuple[int, int]]:
        """One refresh cycle into the store under `home`; returns its steps' parts."""
        which = LOOP if run == self.runner.spawn else ALL
        home.mkdir(exist_ok=True)
        base = ["--store-dir", str(home / "store"), "--data-dir", str(home / "data")]
        steps: list[Step] = []

        def step(argv, out_name, append=False):
            self.tracer.op = len(self.ops)
            s = run(base + argv, home / out_name, append)
            self.ops.append((round_no, "cli", (s.ns, self._calibrate(), which)))
            steps.append(s)

        before = self._snapshot(home / "store")
        first_op = len(self.ops)
        step(["fetch", "--from-dir", str(feed.directory)], "fetch.out")
        step(["ingest"], "ingest.out")
        for series, table in TABLES.items():
            (home / f"{series}.sql").write_text(f"DROP TABLE {table};\n", encoding="utf-8")
            step(["schema-gen", "--table", table, "--dates", self.date_range],
                 f"{series}.sql", append=True)
            step(["sql", "-f", str(home / f"{series}.sql")], f"ddl-{series}.out")
        for series, table in TABLES.items():
            sparse = home / "data" / f"time_series_covid19_{series}_global-sparse.csv"
            step(["load", table, str(sparse), "--dates", self.date_range], f"load-{series}.out")
        self.bytes_written.append(self._written(before, self._snapshot(home / "store")))
        self._check_cycle(feed, steps)
        self.child_rss_kb.extend(s.maxrss_kb for s in steps)
        if with_query:
            self.cli_query(feed, home, run, round_no)
        return [part for _, _, part in self.ops[first_op:]]

    def cli_query(self, feed: Feed, home: Path, run, round_no: int) -> None:
        """The README's Morocco join as one `covidstore sql` command."""
        self.tracer.op = len(self.ops)
        s = run(["--store-dir", str(home / "store"), "--data-dir", str(home / "data"),
                 "sql", self.morocco_join], home / "query.out")
        part = (s.ns, self._calibrate(), LOOP if run == self.runner.spawn else ALL)
        self.ops.append((round_no, "cli", part))
        self.samples["cli_query_ms"].append([part])
        self.child_rss_kb.append(s.maxrss_kb)
        text = s.out.read_text(encoding="utf-8")
        ok = self._check_text(feed.answer(self.morocco_join), text)
        self.ledger.check(s.rc == 0 and ok, f"sql {self.morocco_join!r}: rc={s.rc}")

    @staticmethod
    def _snapshot(store: Path) -> dict[str, tuple[int, int]]:
        if not store.is_dir():
            return {}
        return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in store.iterdir()}

    @staticmethod
    def _written(before: dict, after: dict) -> int:
        return sum(size for name, (size, mtime) in after.items()
                   if before.get(name) != (size, mtime))

    def _check_cycle(self, feed: Feed, steps: list[Step]) -> None:
        rows = len(feed.data.locations)
        expect = {
            "fetch": lambda text: all(
                f"({(feed.directory / datagen.raw_file_name(s)).stat().st_size} bytes)" in text
                for s in datagen.SERIES),
            "ingest": lambda text: all(f"{s}: {rows} rows, 0 errors" in text
                                      for s in datagen.SERIES),
            "schema-gen": lambda text: text.startswith("DROP TABLE ")
            and "\nCREATE TABLE " in text,
            "sql": lambda text: text == "",
            "load": lambda text: text == f"loaded {rows} row(s), skipped 0\n",
        }
        for s in steps:
            ok = expect[s.name](s.out.read_text(encoding="utf-8"))
            self.ledger.check(s.rc == 0 and ok, f"{s.name} -> {s.out.name}: rc={s.rc}")

    @staticmethod
    def _check_text(answer, text: str) -> bool:
        header, rows = answer
        lines = text.rstrip("\n").split("\n")
        return lines[0] == "\t".join(header) and Counter(lines[1:]) == Counter(
            "\t".join(render(v) for v in row) for row in rows)

    # ------------------------------------------------------- in-process ops

    def query(self, statement: str, kind: str, catalog, store, round_no: int) -> None:
        self.tracer.op = len(self.ops)
        t0 = time.perf_counter_ns()
        parsed = cli_mod.parse_statement(statement)
        outcome = cli_mod.execute_statement(parsed, catalog, store)
        text = cli_mod.render_result_set(outcome.result)
        ns = time.perf_counter_ns() - t0
        part = (ns, self._calibrate(), ALL)
        self.ops.append((round_no, kind, part))
        self.samples[f"{kind}_ms"].append([part])
        header, rows = self.feeds[0].answer(statement)
        ok = (outcome.result.columns == header
              and Counter(outcome.result.rows) == Counter(rows)
              and self._check_text((header, rows), text))
        self.ledger.check(ok, f"{kind}: {statement}")

    def shell_gets(self, first: int, store, round_no: int) -> None:
        """GETS_PER_QUERY whole-row gets, scaled by one calibration after them."""
        done = []
        for k in range(first, first + GETS_PER_QUERY):
            line, expected = self.expected_gets[k % len(self.expected_gets)]
            self.tracer.op = len(self.ops) + len(done)
            t0 = time.perf_counter_ns()
            text = shell_mod.execute_command(shell_mod.parse_command(line), store)
            done.append(time.perf_counter_ns() - t0)
            self.ledger.check(text == expected, line)
        i = self._calibrate()
        for ns in done:
            self.ops.append((round_no, "get", (ns, i, ALL)))
            self.samples["get_ms"].append([(ns, i, ALL)])

    # ---------------------------------------------------------------- the run

    def execute(self) -> None:
        cli_home = self.work / "cli"
        store = catalog = None
        self._calibrate()
        for k in range(SETUP_REPEATS):
            home = cli_home if k == 0 else self.work / f"setup{k}"
            parts = self.cycle(self.feeds[0], home, False, self.runner.spawn, -1)
            t0 = time.perf_counter_ns()
            opened = cli_mod.open_store(home / "store")
            cat = cli_mod.Catalog(opened)
            parts.append((time.perf_counter_ns() - t0, self._calibrate(), ALL))
            self.samples["setup_s"].append(parts)
            if store is not None:
                store.close()
            store, catalog = opened, cat
        # Only the measured phase's children count towards peak RSS.
        self.child_rss_kb.clear()
        self.bytes_written.clear()

        start = time.perf_counter()
        round_no = 0
        round_s = 0.0
        gets = 0
        # A round starts only if it should end closer to --seconds than not.
        while (round_no < (2 if self.trace else 1)
               or time.perf_counter() - start + round_s / 2 < self.seconds):
            round_start = time.perf_counter()
            traced = self.trace and round_no % 2 == 0
            feed = self._feed_of_round(round_no)
            first_op = len(self.ops)
            if self.trace:
                self.startup_ms.append(self._startup())
                self._calibrate()
            run = self.runner.call if self.trace else self.runner.spawn
            with self.tracer.installed() if traced else nullcontext():
                self.samples["refresh_s"].append(
                    self.cycle(feed, cli_home, True, run, round_no))
                for j in range(QUERY_PAIRS):
                    plan = ((self.joins[(QUERY_PAIRS * round_no + j) % len(self.joins)], "join"),
                            (self.selects[j % len(self.selects)], "select"))
                    for statement, kind in plan:
                        self.query(statement, kind, catalog, store, round_no)
                        self.shell_gets(gets, store, round_no)
                        gets += GETS_PER_QUERY
                self.cli_query(feed, cli_home, run, round_no)
            self.rounds.append((traced, first_op, len(self.ops)))
            round_no += 1
            round_s = time.perf_counter() - round_start
        store.close()
        self.store_bytes = sum(p.stat().st_size for p in (cli_home / "store").iterdir())
        if self.trace:
            tracemalloc.start()
            try:
                opened = cli_mod.open_store(cli_home / "store")
                self.open_heap_mb = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
            opened.close()

    def _startup(self) -> float:
        day = self.feeds[0].data.dates[0].isoformat()
        s = self.runner.spawn(
            ["--store-dir", str(self.work / "none"), "--data-dir", str(self.work / "nodata"),
             "schema-gen", "--table", "t", "--dates", f"{day}:{day}"],
            self.work / "startup.out")
        text = s.out.read_text(encoding="utf-8")
        self.ledger.check(s.rc == 0 and text.startswith("CREATE TABLE t ("), "schema-gen one day")
        return s.ns / 1e6

    # --------------------------------------------------------------- metrics

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        med = {k: statistics.median(self.values(k)) for k in self.samples}
        return {
            "setup_s": (med["setup_s"], "s"),
            "refresh_s": (med["refresh_s"], "s"),
            "join_ms": (med["join_ms"], "ms"),
            "select_ms": (med["select_ms"], "ms"),
            "get_ms": (med["get_ms"], "ms"),
            "cli_query_ms": (med["cli_query_ms"], "ms"),
            "peak_rss_mb": (max(self.child_rss_kb) * 1024 / 1e6, "MB"),
            "space_amp": (self.store_bytes / self.feeds[0].raw_bytes, "ratio"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        traced_rounds = [r for r, (traced, _, _) in enumerate(self.rounds) if traced]
        per_round = {r: Counter() for r in traced_rounds}
        self_ns = self.tracer.self_times()
        covered = 0
        for (name, start, end, parent, op, attrs), own in zip(self.tracer.spans, self_ns):
            c = per_round[self.ops[op][0]]
            if parent < 0:
                covered += end - start
            if name == "ingest.write_formatted_files":
                c["ingest.format_s"] += own
                c["ingest.bytes_in"] += attrs["bytes_in"]
                c["ingest.rows_out"] += attrs["rows_out"]
            elif name == "store.open_store":
                c["store.open_s"] += own
            elif name == "store.import_tsv":
                c["store.import_s"] += own
                feed = self._feed_of_round(self.ops[op][0])
                c["store.cells_loaded"] += feed.cells[attrs["table"].split("_")[0]]
            elif name == "store.flush":
                c["store.flush_s"] += own
            elif name == "store.scan":
                c["store.scan_s"] += own
                c["store.scan_calls"] += 1
                c["store.rows_scanned"] += attrs["rows"]
                c["store.cells_scanned"] += attrs["cells"]
            elif name == "store.get":
                c["store.get_s"] += own
                c["store.get_calls"] += 1
            elif name == "sql.catalog":
                c["sql.catalog_s"] += own
            elif name == "sql.parse_statement":
                c["sql.parse_s"] += own
            elif name == "sql.execute_statement" and attrs["select"]:
                c["sql.execute_self_s"] += own
                c["sql.rows_out"] += attrs["rows_out"]
                c["sql.cells_out"] += attrs["cells_out"]
            elif name == "sql.render_result_set":
                c["sql.render_s"] += own
            elif name == "shell.execute_command":
                c["shell.command_self_s"] += own
        for r in traced_rounds:
            per_round[r]["store.bytes_written"] = self.bytes_written[r]

        def median(key: str, scale: float = 1.0) -> float:
            return statistics.median(per_round[r][key] for r in traced_rounds) * scale

        total = Counter()
        for c in per_round.values():
            total.update(c)
        round_s = [(traced, self._scaled([op[2] for op in self.ops[a:b]]))
                   for traced, a, b in self.rounds]
        traced_s = [s for traced, s in round_s if traced]
        untraced_s = [s for traced, s in round_s if not traced]
        op_ns = sum(op[2][0] for op in self.ops if op[0] in per_round)
        out = {"cli.startup_ms": (statistics.median(self.startup_ms), "ms")}
        for key, unit in (
            ("ingest.format_s", "s"), ("ingest.bytes_in", "bytes"), ("ingest.rows_out", "count"),
            ("store.open_s", "s"), ("store.import_s", "s"), ("store.cells_loaded", "count"),
            ("store.flush_s", "s"), ("store.bytes_written", "bytes"), ("store.scan_s", "s"),
            ("store.scan_calls", "count"), ("store.rows_scanned", "count"),
            ("store.cells_scanned", "count"), ("store.get_s", "s"), ("store.get_calls", "count"),
            ("sql.catalog_s", "s"), ("sql.parse_s", "s"), ("sql.execute_self_s", "s"),
            ("sql.render_s", "s"), ("sql.rows_out", "count"), ("shell.command_self_s", "s"),
        ):
            out[key] = (median(key, 1e-9 if unit == "s" else 1.0), unit)
        out["store.open_heap_mb"] = (self.open_heap_mb, "MB")
        out["sql.rows_scanned_per_row_out"] = (
            total["store.rows_scanned"] / max(1, total["sql.rows_out"]), "ratio")
        out["sql.cells_scanned_per_cell_out"] = (
            total["store.cells_scanned"] / max(1, total["sql.cells_out"]), "ratio")
        out["trace.overhead_frac"] = (
            (statistics.median(traced_s) - statistics.median(untraced_s))
            / statistics.median(untraced_s), "ratio")
        out["trace.uncovered_frac"] = (1 - covered / op_ns, "ratio")
        out["host.calib_ms"] = (statistics.median(c[ALL] for c in self.calib_ms), "ms")
        return out

    def _feed_of_round(self, round_no: int) -> Feed:
        # Revision B first, since set-up loaded A.  Traced runs switch every
        # second round so traced and untraced rounds see both revisions.
        flip = round_no // 2 if self.trace else round_no
        return self.feeds[1 - flip % 2]

    def record(self) -> dict:
        latency = {}
        for key in self.samples:
            values = self.values(key)
            t = tail(values)
            latency[key] = {
                "n": len(values),
                "median": statistics.median(values),
                "raw_median": statistics.median(self.values(key, scaled=False)),
                "tail_pct": t[0] if t else None,
                "tail": t[1] if t else None,
            }
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "shape": [len(self.feeds[0].data.locations), len(self.feeds[0].data.dates)],
            "raw_bytes": self.feeds[0].raw_bytes,
            "rounds": len(self.rounds),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "latency": latency,
            "cal_ref_ms": CAL_REF_MS,
            "host_calib_ms": {
                name: {"median": statistics.median(v), "min": min(v), "max": max(v)}
                for name, v in (("loop", [c[LOOP] for c in self.calib_ms]),
                                ("all", [c[ALL] for c in self.calib_ms]))
            },
            "calibrations": len(self.calib_ms),
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "fail_frac": self.ledger.failed / max(1, self.ledger.attempted),
            "failures": self.ledger.failures,
        }
