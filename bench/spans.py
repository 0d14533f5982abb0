"""Spans around the calls into each covidstore layer, recorded from outside.

Tracer.installed() swaps wrappers in for the layers' public functions at
the names their callers look them up by, and puts the originals back on
exit, so untraced work runs the program's own code with nothing in
between.  cli.py imports open_store, parse_statement, execute_statement
and render_result_set by name, so those are wrapped on the cli module;
the benchmark calls them through that module too.

A span is (name, start_ns, end_ns, parent index, operation id, attrs).
Spans stay in memory; dump() writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

import covidstore.cli as cli_mod
import covidstore.ingest as ingest_mod
import covidstore.shell as shell_mod
from covidstore.sql import engine as engine_mod
from covidstore.sql import SelectQuery
from covidstore.store import Store

Attrs = Optional[Callable[[tuple, object], dict]]


def _scan_attrs(args, rows) -> dict:
    return {"rows": len(rows), "cells": sum(len(r.cells) for r in rows)}


def _format_attrs(args, result) -> dict:
    return {"bytes_in": os.stat(args[0]).st_size, "rows_out": len(result[2].records)}


def _import_attrs(args, report) -> dict:
    return {"table": args[1], "rows": report.loaded}


def _execute_attrs(args, outcome) -> dict:
    if not isinstance(args[0], SelectQuery):
        return {"select": False}
    rows = outcome.result.rows
    cells = sum(1 for row in rows for v in row if v is not None)
    return {"select": True, "rows_out": len(rows), "cells_out": cells}


# (span name, object, attribute, attrs hook)
_TARGETS = (
    ("cli.main", cli_mod, "main", None),
    ("ingest.write_formatted_files", ingest_mod, "write_formatted_files", _format_attrs),
    ("store.open_store", cli_mod, "open_store", None),
    ("store.import_tsv", Store, "import_tsv", _import_attrs),
    ("store.flush", Store, "flush", None),
    ("store.scan", Store, "scan", _scan_attrs),
    ("store.get", Store, "get", None),
    ("sql.catalog", engine_mod.Catalog, "__init__", None),
    ("sql.parse_statement", cli_mod, "parse_statement", None),
    ("sql.execute_statement", cli_mod, "execute_statement", _execute_attrs),
    ("sql.render_result_set", cli_mod, "render_result_set", None),
    ("shell.execute_command", shell_mod, "execute_command", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: Optional[int] = None

    def _wrap(self, name: str, fn: Callable, attrs: Attrs) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = [(obj, attr, getattr(obj, attr)) for _, obj, attr, _ in _TARGETS]
        for (name, obj, attr, attrs), (_, _, original) in zip(_TARGETS, saved):
            setattr(obj, attr, self._wrap(name, original, attrs))
        try:
            yield
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover, in ns."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, attrs]) + "\n")
