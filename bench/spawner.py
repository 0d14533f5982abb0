"""Runs the benchmark's CLI subprocesses from a small process of its own.

The peak RSS that wait4 reports for a child includes the memory of the
process it was forked from.  The benchmark holds open stores and expected
answers, so it starts this helper while it is still small and has it fork
every measured child.  Requests and replies are JSON lines:

    request: {"argv": [...], "out": path, "append": bool, "err": path,
              "cwd": path, "env": {...}}
    reply:   [exit code, ns from spawn to reaped, peak RSS in KiB]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "ab" if req["append"] else "wb") as out, \
                open(req["err"], "ab") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    cwd=req["cwd"], env=req["env"])
            _, status, usage = os.wait4(proc.pid, 0)
            ns = time.perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, ns, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
