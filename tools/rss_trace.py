#!/usr/bin/env python
"""Per-cell host-memory trace of one benchmark pass.

Runs the cells of one ``perfbench`` workload in order, in this process,
as a benchmark pass does (``build_machine``, then ``run_app``: set-up
and ``run_workers``), and prints after each cell:

* ``rss_mb``: resident memory now (from ``/proc/self/statm``);
* ``peak_mb``: the process's peak resident memory so far;
* ``alive``: how many of the machines built so far are still in memory;
* ``gen2``: how many times the cyclic collector has collected its
  oldest generation so far (``gc.get_stats()``).

A machine that is freed by reference counting leaves ``alive`` at 0 and
``rss_mb`` flat from cell to cell; machines left as cyclic garbage pile
up until a generation-2 collection.

Usage::

    python tools/rss_trace.py --workload figure4 --seed 42
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)


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
    args = parser.parse_args(argv)

    from perfbench.cells import cells_for
    from repro.apps.base import run_app
    from repro.harness.runner import build_machine

    built: weakref.WeakSet = weakref.WeakSet()
    print(f"{args.workload} seed={args.seed}: after import "
          f"rss_mb={rss_mb():.1f}")
    print(f"{'cell':<40} {'rss_mb':>7} {'peak_mb':>8} {'alive':>6} {'gen2':>5}")
    for cell in cells_for(args.workload, args.seed):
        machine, protocol = build_machine(cell.system, cell.config)
        built.add(machine)
        run_app(machine, cell.make_app(), protocol)
        del machine, protocol
        gen2 = gc.get_stats()[2]["collections"]
        print(f"{cell.id:<40} {rss_mb():>7.1f} {peak_mb():>8.1f} "
              f"{len(built):>6} {gen2:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
