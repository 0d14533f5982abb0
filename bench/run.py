#!/usr/bin/env python3
"""covidstore benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload global --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric with its sample
count and tail, and the run record (Python version, source digest, nproc,
seed, host calibration).  The record and, with --trace 1, the spans are
also written under .bench_runs/.  --smoke runs every workload once on the
bundled tests/data/fixtures, traced and untraced, and exits 1 if any answer
is wrong: it is the benchmark's own test.

Workloads, metrics and their meaning are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NEEDED = (
    "src/covidstore/cli.py",
    "tests/query_oracle.py",
    "tests/data/workload/query_join_morocco.sql",
    "tests/data/fixtures/time_series_covid19_confirmed_global.csv",
    "tools/generate_fixtures.py",
)
WORKLOADS = ("global", "tall")
# Every run, set-up included, must end well inside three minutes.
WATCHDOG_S = 170


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def one_run(harness, workload: str, seed: int, seconds: float, trace: bool,
            fixture: bool = False) -> tuple[dict, dict]:
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with harness.Runner(work) as runner:
            run = harness.Run(workload, seed, seconds, trace, work, runner, fixture)
            run.execute()
        metrics = run.per_layer() if trace else run.end_to_end()
        record = run.record()
        record.update(git_sha=git_sha(), source_digest=source_digest())
        out_dir = ROOT / ".bench_runs"
        out_dir.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        if trace:
            run.tracer.dump(out_dir / f"{stem}.spans.jsonl")
        result = {
            "correct": run.ledger.failed == 0,
            "attempted": run.ledger.attempted,
            "failed": run.ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        (out_dir / f"{stem}.json").write_text(
            json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8")
        return record, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on the bundled fixtures")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a covidstore checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import covidstore

    if Path(covidstore.__file__).resolve().parent != ROOT / "src" / "covidstore":
        print(f"error: imported covidstore from {covidstore.__file__}", file=sys.stderr)
        return 2
    import harness

    # One client at a time needs one CPU.  Pinning keeps the CLI children on
    # the CPU whose speed the calibrations between them measure.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(WATCHDOG_S * (2 * len(WORKLOADS) if args.smoke else 1))

    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                _, result = one_run(harness, workload, 0, 0, trace, fixture=True)
                ok &= result["correct"]
                print(f"smoke {workload} trace={int(trace)}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
        return 0 if ok else 1

    record, result = one_run(harness, args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        line = f"{name:32s} {m['value']:.6g} {m['unit']}"
        lat = record["latency"].get(name)
        if lat:
            t = f"p{lat['tail_pct']:g}={lat['tail']:.6g}" if lat["tail"] is not None else "tail n/a"
            line += f"  (n={lat['n']}, {t})"
        print(line)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
