"""Simulation-kernel throughput benchmark.

Times representative runs — the workloads the hot-path work in
``sim/engine.py``, ``sim/process.py``, the node models, and the protocol
handlers targets — prints them, and writes ``BENCH_kernel.json`` at the
repo root so successive commits carry a throughput trajectory.

Methodology: each cell runs ``REPRO_BENCH_REPEATS`` times (default 3)
and the best wall time is kept — wall clock on shared boxes is noisy,
and the minimum is the least load-biased sample.  ``cycles_per_second``
(simulated cycles per wall second) is reported beside events/second.

The asserted properties here are completion, nonzero throughput, and
that every repeat simulates the same machine (identical cycles and
events).  The regression gate against the committed baseline lives in
``tools/check_perf.py`` (CI's ``perf`` job), with a wide tolerance for
machine-to-machine variance.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import nodes_under_test
from repro.harness.runner import run_application
from repro.harness.workloads import workload
from repro.sim.config import MachineConfig

#: (label, system, application, dataset, cache_bytes)
KERNEL_WORKLOADS = [
    ("ocean-typhoon", "typhoon-stache", "ocean", "small", 2048),
    ("mp3d-typhoon", "typhoon-stache", "mp3d", "small", 2048),
    ("em3d-dirnnb", "dirnnb", "em3d", "small", 2048),
    ("ocean-blizzard", "blizzard-stache", "ocean", "small", 2048),
    ("ocean-decoupled", "decoupled-stache", "ocean", "small", 2048),
]

_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"


def _repeats() -> int:
    return int(os.environ.get("REPRO_BENCH_REPEATS", "3"))


def _time_cell(system: str, app_name: str, dataset: str, cache_bytes: int,
               nodes: int) -> dict:
    config = MachineConfig(nodes=nodes, seed=42).with_cache_size(cache_bytes)
    samples = []
    for _ in range(_repeats()):
        app = workload(app_name, dataset).build()
        start = time.perf_counter()
        outcome = run_application(system, app, config)
        samples.append((time.perf_counter() - start, outcome))
    simulated = {(outcome["execution_time"],
                  outcome["machine"].engine.events_fired)
                 for _, outcome in samples}
    assert len(simulated) == 1, f"repeats disagree: {simulated}"
    elapsed, outcome = min(samples, key=lambda sample: sample[0])
    events = outcome["machine"].engine.events_fired
    cycles = outcome["execution_time"]
    return {
        "system": system,
        "application": app_name,
        "dataset": dataset,
        "cache_bytes": cache_bytes,
        "wall_seconds": round(elapsed, 6),
        "events_fired": events,
        "events_per_second": round(events / elapsed, 1) if elapsed else 0.0,
        "cycles_per_second": round(cycles / elapsed, 1) if elapsed else 0.0,
        "simulated_cycles": cycles,
    }


def test_kernel_throughput():
    nodes = nodes_under_test()
    results = {}
    print()
    for label, system, app_name, dataset, cache_bytes in KERNEL_WORKLOADS:
        row = _time_cell(system, app_name, dataset, cache_bytes, nodes)
        results[label] = row
        print(f"{label:>16}: {row['wall_seconds'] * 1e3:8.1f} ms  "
              f"{row['events_per_second']:>10,.0f} events/s  "
              f"{row['cycles_per_second']:>10,.0f} cycles/s")
        assert row["events_fired"] > 0
        assert row["events_per_second"] > 0

    payload = {
        "benchmark": "kernel-throughput",
        "nodes": nodes,
        "repeats": _repeats(),
        "workloads": results,
    }
    _OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {_OUTPUT}")
