"""The benchmark's three workloads, as ordered lists of cells.

A cell is one ``(system, application, machine configuration)`` run —
one call each of ``build_machine``, ``Application.setup`` and
``MachineBase.run_workers``.  ``figure3`` and ``figure4`` list their
cells in the order ``repro figure3`` / ``repro figure4`` run them, with
the seed where ``--seed`` puts it; ``paper32`` is the paper's 32-node
scale.  Importing this module imports ``repro``, which is part of the
set-up the benchmark times.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.apps.em3d import Em3dApplication
from repro.harness.experiments import run_figure4
from repro.harness.workloads import (
    APP_NAMES,
    SCALED_CACHE_SIZES,
    figure3_configurations,
    workload,
)
from repro.sim.config import MachineConfig

#: ``run_figure4``'s own defaults, so the benchmark runs what the CLI runs.
FIGURE4_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(run_figure4).parameters.items()
}


@dataclass(frozen=True)
class Cell:
    id: str
    system: str
    make_app: Callable[[], Any]
    config: MachineConfig


def machine_config(nodes: int, cache_bytes: int, seed: int) -> MachineConfig:
    return MachineConfig(nodes=nodes, seed=seed).with_cache_size(cache_bytes)


def figure3_cells(seed: int, nodes: int = 8, apps=APP_NAMES,
                  configurations=None) -> list[Cell]:
    """``repro figure3``: every app x cache point x {dirnnb, stache}."""
    if configurations is None:
        configurations = figure3_configurations()
    cells = []
    for app_name in apps:
        for dataset, cache_bytes, _paper_cache in configurations:
            entry = workload(app_name, dataset)
            for system in ("dirnnb", "typhoon-stache"):
                cells.append(Cell(
                    f"{app_name}/{dataset}/{cache_bytes}/{system}", system,
                    entry.build, machine_config(nodes, cache_bytes, seed),
                ))
    return cells


def figure4_cells(seed: int, nodes: int = 8, fractions=None) -> list[Cell]:
    """``repro figure4``: EM3D at each remote fraction x three systems."""
    d = FIGURE4_DEFAULTS
    if fractions is None:
        fractions = d["fractions"]
    cells = []
    for fraction in fractions:
        for system in ("dirnnb", "typhoon-stache", "typhoon-update"):
            make_app = partial(
                Em3dApplication, nodes_per_proc=d["nodes_per_proc"],
                degree=d["degree"], remote_fraction=fraction,
                iterations=d["iterations"], seed=seed,
            )
            cells.append(Cell(
                f"em3d/{int(fraction * 100)}pct/{system}", system, make_app,
                machine_config(nodes, d["cache_bytes"], seed),
            ))
    return cells


def paper32_cells(seed: int) -> list[Cell]:
    """32 nodes, Table 3 large data, the 32 KB scaled cache."""
    cache_bytes = SCALED_CACHE_SIZES[-1]
    cells = []
    for system, app_name in (("typhoon:stache", "em3d"),
                             ("blizzard:stache", "mp3d"),
                             ("decoupled:stache", "mp3d")):
        cells.append(Cell(
            f"{app_name}/large/{cache_bytes}/{system}", system,
            workload(app_name, "large").build,
            machine_config(32, cache_bytes, seed),
        ))
    return cells


def cells_for(name: str, seed: int) -> list[Cell]:
    by_name = {"figure3": figure3_cells, "figure4": figure4_cells,
               "paper32": paper32_cells}
    return by_name[name](seed)
