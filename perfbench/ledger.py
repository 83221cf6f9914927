"""Metric names, the layer map, simulated counters and output checks.

Pure functions over plain data: nothing here imports ``repro``, so the
orchestrator (``run.py``) can use it before any timed work starts.
"""

from __future__ import annotations

import os
import re
from collections import defaultdict

#: The seed ``repro figure3``/``figure4`` use by default; cells run with it
#: are checked against the pinned fingerprints in ``fingerprints.json``.
DEFAULT_SEED = 42

#: End-to-end metrics (host time, tracing off): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "refs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# ----------------------------------------------------------------------
# Layers: top-level entries of src/repro
# ----------------------------------------------------------------------
LAYERS = ("sim", "memory", "typhoon", "blizzard", "decoupled", "protocols",
          "network", "tempest", "apps", "harness", "kernel", "other")

#: Every top-level package or module of ``repro`` -> its layer.  A new
#: entry must be added here; the benchmark's tests fail until it is.
PACKAGE_LAYER = {
    **{name: name for name in LAYERS if name != "other"},
    "machine": "harness",
    "backends": "harness",
    "cli": "harness",
    "__init__": "harness",
    "__main__": "harness",
    "_fingerprint": "harness",
}


def repro_layer(relpath: str) -> str | None:
    """Layer of a file given relative to the ``repro`` package directory;
    None for a top-level entry :data:`PACKAGE_LAYER` does not name."""
    head = relpath.replace(os.sep, "/").split("/", 1)[0]
    return PACKAGE_LAYER.get(head.removesuffix(".py"))


def layer_of(filename: str, repro_dir: str) -> str:
    """Layer of a profiled code object's file; ``other`` outside repro."""
    if not filename.startswith(repro_dir + os.sep):
        return "other"
    return repro_layer(filename[len(repro_dir) + 1:]) or "other"


def group_profile(profile_stats: dict, repro_dir: str) -> dict[str, dict]:
    """Self time and call count per layer from ``pstats.Stats.stats``."""
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) \
            in profile_stats.items():
        entry = layers[layer_of(filename, repro_dir)]
        entry["self_s"] += self_s
        entry["calls"] += calls
    return layers


# ----------------------------------------------------------------------
# Simulated counters (exact)
# ----------------------------------------------------------------------
#: Exact counters read from ``machine.stats``, each summed over nodes (the
#: ``nodeN.`` prefix stripped).  ``machine.sim_cycles`` and ``sim.events``
#: come from the machine and its engine instead.
STATS_COUNTERS = (
    "cpu.refs", "cpu.local_misses", "cpu.remote_misses", "cpu.block_faults",
    "cpu.page_faults", "cpu.tlb_misses", "cpu.fills_killed",
    "cpu.access_cycles", "cpu.barrier_cycles", "np.handler_cycles",
    "np.messages_received", "np.sends_overflowed", "sw.handlers_run",
    "hp.handlers_run", "hp.handler_cycles", "stache.blocks_fetched",
    "stache.invalidations_sent", "stache.writeback_requests", "dir.ops",
    "dir.occupancy_cycles", "dir.replays", "em3d.updates_sent",
    "network.packets", "network.local_packets", "network.words",
)

_NODE_PREFIX = re.compile(r"^node\d+\.")


def _exact(value: float) -> float:
    """An integral counter as an int (so it prints without ``.0``)."""
    return int(value) if float(value).is_integer() else value


def cell_counters(machine) -> dict[str, float]:
    """Every exact counter of one finished cell."""
    summed: dict[str, float] = defaultdict(float)
    for name, value in machine.stats:
        summed[_NODE_PREFIX.sub("", name)] += value
    counters = {name: _exact(summed[name]) for name in STATS_COUNTERS}
    counters["machine.sim_cycles"] = _exact(machine.execution_time)
    counters["machine.node_cycles"] = _exact(machine.execution_time
                                             * machine.num_nodes)
    counters["network.remote_packets"] = (counters["network.packets"]
                                          - counters["network.local_packets"])
    counters["sim.events"] = machine.engine.events_fired
    return counters


def fingerprint(counters: dict[str, int]) -> list[int]:
    """The pinned per-cell output: execution time, refs, remote packets,
    network words, block faults, page faults and events fired."""
    return [
        counters["machine.sim_cycles"],
        counters["cpu.refs"],
        counters["network.remote_packets"],
        counters["network.words"],
        counters["cpu.block_faults"],
        counters["cpu.page_faults"],
        counters["sim.events"],
    ]


def failed_cells(passes: list[list[dict]], pinned: dict | None) -> list[str]:
    """Cell runs that failed, one entry per failed run.

    ``passes`` holds each pass's cell records (``{"id", "counters"}`` or
    ``{"id", "error"}``).  A run fails if it raised, if ``pinned`` is
    given and its fingerprint differs from the pin, or if its counters
    differ from the same cell's in the first pass.
    """
    failed = []
    first = {record["id"]: record.get("counters") for record in passes[0]}
    for records in passes:
        for record in records:
            counters = record.get("counters")
            if counters is None:
                failed.append(record["id"])
            elif pinned is not None and \
                    pinned.get(record["id"]) != fingerprint(counters):
                failed.append(record["id"])
            elif counters != first[record["id"]]:
                failed.append(record["id"])
    return failed


def summed_counters(records: list[dict]) -> dict[str, int]:
    total: dict[str, int] = defaultdict(int)
    for record in records:
        for name, value in record["counters"].items():
            total[name] += value
    return dict(total)


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Ratio metric -> (numerator, denominator) counter names; printed with
#: their bases.
RATIOS = {
    "sim.events_per_ref": ("sim.events", "cpu.refs"),
    "cpu.stall_share": ("cpu.access_cycles", "machine.node_cycles"),
    "network.remote_packets_per_ref": ("network.remote_packets", "cpu.refs"),
}


def per_layer_metrics(layers: dict[str, dict], counters: dict[str, int],
                      run_s: float, plain_wall_s: float,
                      traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: name -> (value, unit)."""
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
        metrics[f"{layer}.calls"] = (layers[layer]["calls"], "count")
    attributed = sum(entry["self_s"] for entry in layers.values())
    metrics["trace.overhead"] = (traced_wall_s / plain_wall_s, "ratio")
    metrics["trace.unattributed_s"] = (traced_wall_s - attributed, "s")
    metrics["machine.sim_cycles"] = (counters["machine.sim_cycles"], "cycles")
    metrics["sim.events"] = (counters["sim.events"], "count")
    metrics["sim.host_us_per_event"] = (
        _ratio(run_s * 1e6, counters["sim.events"]), "us")
    for name, (numerator, denominator) in RATIOS.items():
        metrics[name] = (_ratio(counters[numerator], counters[denominator]),
                         "ratio")
    for name in STATS_COUNTERS:
        unit = "cycles" if name.endswith("_cycles") else "count"
        metrics[name] = (counters[name], unit)
    return metrics
