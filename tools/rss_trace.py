#!/usr/bin/env python
"""Per-cell host-memory trace of one benchmark pass.

First it prints the import floor: the resident memory before any
``repro`` import (the interpreter and this script), after the imports a
benchmark pass makes and the difference, and whether OpenSSL's
``_hashlib`` or ``multiprocessing`` got loaded (neither should be).

Then it runs the cells of one ``perfbench`` workload in order, in this
process, as a benchmark pass does (``build_machine``, then ``run_app``:
set-up and ``run_workers``), and prints after each cell:

* ``rss_mb``: resident memory now (from ``/proc/self/statm``);
* ``peak_mb``: the process's peak resident memory so far;
* ``alive``: how many of the machines built so far are still in memory;
* ``gen2``: how many times the cyclic collector has collected its
  oldest generation so far (``gc.get_stats()``).

A machine that is freed by reference counting leaves ``alive`` at 0 and
``rss_mb`` flat from cell to cell; machines left as cyclic garbage pile
up until a generation-2 collection.

With ``--top N`` the pass also runs under ``tracemalloc`` (started after
the imports, so the import floor is not traced; it slows the pass
several-fold and is off without the flag).  Each cell's row then adds
``traced_peak_mb``, the cell's traced peak above what was live before
it.  At the end come the N largest allocation sites (file:line, KiB,
block count) still live when the cell with the largest traced peak
finished, its machine not yet dropped: where that machine's host memory
went.

Usage::

    python tools/rss_trace.py --workload figure4 --seed 42
    python tools/rss_trace.py --workload paper32 --top 10

Piped into a reader that stops early (``| head``), it exits quietly.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import tracemalloc
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)

#: Modules a simulation never uses, which the import floor must not load.
FLOOR_WATCH = ("_hashlib", "multiprocessing")


def rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE_MB


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="figure4",
                        choices=("figure3", "figure4", "paper32"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="trace allocations and print the N largest "
                             "sites of the cell with the largest peak")
    args = parser.parse_args(argv)

    before = rss_mb()
    from perfbench.cells import cells_for
    from repro.apps.base import run_app
    from repro.harness.runner import build_machine
    after = rss_mb()

    built: weakref.WeakSet = weakref.WeakSet()
    print(f"{args.workload} seed={args.seed}")
    print(f"  rss_mb before repro import {before:6.1f}")
    print(f"  rss_mb after import        {after:6.1f}  "
          f"(+{after - before:.1f})")
    print("  loaded: " + ", ".join(
        f"{name} {'yes' if name in sys.modules else 'no'}"
        for name in FLOOR_WATCH))
    header = f"{'cell':<40} {'rss_mb':>7} {'peak_mb':>8} {'alive':>6} {'gen2':>5}"
    if args.top:
        tracemalloc.start()
        header += f" {'traced_peak_mb':>15}"
    print(header)
    top_peak, top_cell, top_snapshot = -1, None, None
    for cell in cells_for(args.workload, args.seed):
        if args.top:
            tracemalloc.reset_peak()
            floor = tracemalloc.get_traced_memory()[0]
        machine, protocol = build_machine(cell.system, cell.config)
        built.add(machine)
        run_app(machine, cell.make_app(), protocol)
        traced = ""
        if args.top:
            peak = tracemalloc.get_traced_memory()[1] - floor
            traced = f" {peak / 2**20:>15.1f}"
            if peak > top_peak:
                top_peak, top_cell = peak, cell.id
                top_snapshot = None  # free the old one before taking more
                top_snapshot = tracemalloc.take_snapshot()
        del machine, protocol
        gen2 = gc.get_stats()[2]["collections"]
        print(f"{cell.id:<40} {rss_mb():>7.1f} {peak_mb():>8.1f} "
              f"{len(built):>6} {gen2:>5}{traced}")
    if top_snapshot is not None:
        tracemalloc.stop()
        print_top_sites(top_snapshot, top_cell, args.top)
    return 0


def print_top_sites(snapshot: tracemalloc.Snapshot, cell_id: str,
                    limit: int) -> None:
    """The ``limit`` largest live allocation sites of ``snapshot``."""
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    stats = snapshot.statistics("lineno")
    total = sum(stat.size for stat in stats)
    print(f"\nlargest sites live at the end of {cell_id} "
          f"({total / 2**20:.1f} MB traced):")
    print(f"{'site':<56} {'KiB':>9} {'count':>9}")
    for stat in stats[:limit]:
        frame = stat.traceback[0]
        path = Path(frame.filename)
        if path.is_relative_to(ROOT):
            path = path.relative_to(ROOT)
        site = f"{path}:{frame.lineno}"
        print(f"{site:<56} {stat.size / 1024:>9.1f} {stat.count:>9}")


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop quietly.  Point
        # stdout at devnull so the interpreter's own flush at exit cannot
        # fail again (the recipe in the ``signal`` module's docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
