"""Workload registry: Table 3's data sets, paper-scale and simulator-scale.

The paper's small data sets are "scaled for a 4 Kbyte cache" (Gupta et
al.); the large sets exceed even the 256 KB cache.  Our simulator runs the
same applications at a reduced scale with *proportionally* reduced caches,
preserving the working-set-to-cache ratios Figure 3 sweeps (the
substitution argument in DESIGN.md §2).

The scaled cache ladder mirrors the paper's 4 K/16 K/64 K/256 K with the
same x4 steps: 512 B / 2 KB / 8 KB / 32 KB.  Scaled small data sets are
sized to overflow the smallest cache and fit in the largest; scaled large
sets overflow even the largest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.apps.appbt import AppbtApplication
from repro.apps.barnes import BarnesApplication
from repro.apps.em3d import Em3dApplication
from repro.apps.mp3d import Mp3dApplication
from repro.apps.ocean import OceanApplication

#: The scaled analogue of the paper's 4K/16K/64K/256K CPU-cache ladder.
SCALED_CACHE_SIZES = (512, 2048, 8192, 32768)

#: The paper's cache ladder, for reporting.
PAPER_CACHE_SIZES = (4096, 16384, 65536, 262144)


@dataclass(frozen=True)
class Workload:
    """One application at one data-set size."""

    app_name: str
    dataset: str               # "small" | "large"
    paper_parameters: str      # Table 3's description
    factory: Callable[[], Any]  # builds a fresh Application
    description: str = ""

    def build(self):
        return self.factory()


def _registry() -> dict[tuple[str, str], Workload]:
    entries = [
        Workload(
            "appbt", "small", "12x12x12",
            lambda: AppbtApplication(grid=6, iterations=1, seed=31),
        ),
        Workload(
            "appbt", "large", "24x24x24",
            lambda: AppbtApplication(grid=12, iterations=1, seed=31),
        ),
        Workload(
            "barnes", "small", "2048 bodies",
            lambda: BarnesApplication(bodies=48, iterations=2, seed=33),
        ),
        Workload(
            "barnes", "large", "8192 bodies",
            lambda: BarnesApplication(bodies=160, iterations=2, seed=33),
        ),
        Workload(
            "mp3d", "small", "10,000 mols",
            lambda: Mp3dApplication(molecules=320, space_cells=64,
                                    iterations=3, seed=35),
        ),
        Workload(
            "mp3d", "large", "50,000 mols",
            lambda: Mp3dApplication(molecules=1280, space_cells=192,
                                    iterations=3, seed=35),
        ),
        Workload(
            "ocean", "small", "98x98 grid",
            lambda: OceanApplication(grid=26, iterations=2, seed=37),
        ),
        Workload(
            "ocean", "large", "386x386 grid",
            lambda: OceanApplication(grid=80, iterations=2, seed=37),
        ),
        Workload(
            "em3d", "small", "64,000 nodes, degree 10",
            lambda: Em3dApplication(nodes_per_proc=24, degree=4,
                                    remote_fraction=0.2, iterations=2,
                                    seed=39),
        ),
        Workload(
            "em3d", "large", "192,000 nodes, degree 15",
            lambda: Em3dApplication(nodes_per_proc=72, degree=6,
                                    remote_fraction=0.2, iterations=2,
                                    seed=39),
        ),
    ]
    return {(w.app_name, w.dataset): w for w in entries}


WORKLOADS = _registry()

APP_NAMES = ("appbt", "barnes", "mp3d", "ocean", "em3d")


def workload(app_name: str, dataset: str) -> Workload:
    try:
        return WORKLOADS[(app_name, dataset)]
    except KeyError:
        raise KeyError(f"no workload {app_name}/{dataset}") from None


def figure3_configurations() -> list[tuple[str, int, int]]:
    """(dataset, scaled cache bytes, paper cache bytes) pairs of Figure 3:
    small data at every cache size, large data at the largest."""
    configs = [
        ("small", scaled, paper)
        for scaled, paper in zip(SCALED_CACHE_SIZES, PAPER_CACHE_SIZES)
    ]
    configs.append(("large", SCALED_CACHE_SIZES[-1], PAPER_CACHE_SIZES[-1]))
    return configs
