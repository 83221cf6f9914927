"""One pass of one workload, in the process that runs this file.

    python3 perfbench/worker.py <workload> <seed> <traced: 0|1>

Imports ``repro`` (timed), runs every cell of the workload in order on
one thread, and prints one JSON record: host times, peak RSS, spans
around each cell's ``build_machine`` / ``setup`` / ``run_workers``
calls, each cell's exact simulated counters (or its error), and — when
traced — cProfile self time and calls grouped by ``repro`` layer.  The
profiler is installed here, so the program itself is not edited.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REPRO_DIR = os.path.join(SRC, "repro")

import ledger  # noqa: E402  (HERE is on sys.path when run as a script)


@contextmanager
def span(spans: list, origin: float, cell: str | None, name: str):
    """Record ``name``'s start and end (seconds since ``origin``)."""
    start = perf_counter()
    try:
        yield
    finally:
        inside_cell = cell is not None and name != "cell"
        spans.append({"cell": cell, "name": name,
                      "parent": "cell" if inside_cell else None,
                      "start": start - origin, "end": perf_counter() - origin})


def run_cell(cell, spans: list, origin: float) -> dict:
    """Build, set up and run one cell; its counters, or the error."""
    from repro.apps.base import AppContext
    from repro.harness.runner import build_machine

    try:
        with span(spans, origin, cell.id, "cell"):
            with span(spans, origin, cell.id, "build_machine"):
                machine, protocol = build_machine(cell.system, cell.config)
            with span(spans, origin, cell.id, "setup"):
                app = cell.make_app()
                app.setup(machine, protocol)
            with span(spans, origin, cell.id, "run_workers"):
                machine.run_workers(
                    lambda node_id: app.worker(AppContext(machine, node_id)))
    except Exception:  # a failed cell is counted, not fatal
        return {"id": cell.id, "error": traceback.format_exc()}
    return {"id": cell.id, "counters": ledger.cell_counters(machine)}


def span_seconds(spans: list, name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def run_pass(workload: str, seed: int, traced: bool = False,
             cells=None) -> dict:
    """One pass; ``cells`` overrides the workload's cell list (tests)."""
    origin = perf_counter()
    profiler = cProfile.Profile() if traced else None
    if profiler is not None:
        profiler.enable()
    spans: list = []
    try:
        with span(spans, origin, None, "import"):
            import cells as cells_module
        if cells is None:
            cells = cells_module.cells_for(workload, seed)
        records = [run_cell(cell, spans, origin) for cell in cells]
        wall_s = perf_counter() - origin
    finally:
        if profiler is not None:
            profiler.disable()
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "wall_s": wall_s,
        "setup_s": sum(span_seconds(spans, name)
                       for name in ("import", "build_machine", "setup")),
        "run_s": span_seconds(spans, "run_workers"),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cells": records,
        "spans": spans,
    }
    if profiler is not None:
        result["layers"] = ledger.group_profile(
            pstats.Stats(profiler).stats, REPRO_DIR)
    return result


def main(argv: list[str]) -> int:
    workload, seed, traced = argv
    sys.path.insert(0, SRC)
    record = run_pass(workload, int(seed), traced == "1")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
