"""Ocean: hydrodynamic simulation of a 2-D ocean basin cross-section.

The SPLASH Ocean code spends its time in nearest-neighbour stencil
relaxation over 2-D grids.  This kernel reproduces that memory behaviour:
a Jacobi-style five-point stencil over an ``n x n`` grid of doubles,
partitioned into horizontal strips (each node owns a band of rows); each
sweep reads the strip plus the two boundary rows owned by the neighbouring
nodes — the classic surface-to-volume sharing pattern — with a barrier
between sweeps.

Two grids alternate as source and destination, as Jacobi requires, which
also reproduces Ocean's multi-grid working-set pressure: the resident set
is two full strips, exactly the kind of footprint that blows out a small
hardware cache but sits comfortably in Stache's DRAM cache.

Grid cells are 8-byte doubles, four per 32-byte block, row-major.
"""

from __future__ import annotations

from repro.apps.base import Application, AppContext
from repro.sim.rng import RngStreams

CELL_BYTES = 8


class OceanApplication(Application):
    """Five-point Jacobi relaxation over striped 2-D grids."""

    name = "ocean"

    def __init__(self, grid: int = 18, iterations: int = 2, seed: int = 13):
        if grid < 3:
            raise ValueError("grid must be at least 3x3")
        self.grid = grid
        self.iterations = iterations
        self.seed = seed
        self.grids: list = [None, None]  # two alternating grids

    # ------------------------------------------------------------------
    def setup(self, machine, protocol=None) -> None:
        self._procs = machine.num_nodes
        self._rows_per_node = -(-self.grid // self._procs)
        row_bytes = self.grid * CELL_BYTES
        # Each grid is allocated strip-by-strip so a strip's pages are
        # homed on its owner (owners-compute placement).
        self.grids = []
        for which in range(2):
            regions = []
            for node in range(self._procs):
                rows = self._rows_owned(node)
                size = max(len(rows) * row_bytes, 1)
                regions.append(self.alloc_shared(
                    machine, protocol, size, f"ocean.g{which}[{node}]",
                    home=node,
                ))
            self.grids.append(regions)
        rng = RngStreams(self.seed).stream("ocean.init")
        for row in range(self.grid):
            for col in range(self.grid):
                value = round(rng.uniform(0, 1), 6)
                self.poke(machine, self.cell_addr(0, row, col), value)
                self.poke(machine, self.cell_addr(1, row, col), value)

    def _rows_owned(self, node: int) -> range:
        start = node * self._rows_per_node
        return range(min(start, self.grid),
                     min(start + self._rows_per_node, self.grid))

    def cell_addr(self, which: int, row: int, col: int) -> int:
        node = min(row // self._rows_per_node, self._procs - 1)
        local_row = row - node * self._rows_per_node
        region = self.grids[which][node]
        return region.base + (local_row * self.grid + col) * CELL_BYTES

    # ------------------------------------------------------------------
    def worker(self, ctx: AppContext):
        rows = self._rows_owned(ctx.node_id)
        source = 0
        for _iteration in range(self.iterations):
            dest = 1 - source
            for row in rows:
                if row in (0, self.grid - 1):
                    continue  # fixed boundary
                for col in range(1, self.grid - 1):
                    # The five stencil loads, as one read run.
                    centre, north, south, west, east = yield from (
                        ctx.read_run([
                            self.cell_addr(source, row, col),
                            self.cell_addr(source, row - 1, col),
                            self.cell_addr(source, row + 1, col),
                            self.cell_addr(source, row, col - 1),
                            self.cell_addr(source, row, col + 1),
                        ]))
                    new = round(
                        0.2 * (centre + north + south + west + east), 9)
                    yield from ctx.compute(flops=5, overhead=3)
                    yield from ctx.write(self.cell_addr(dest, row, col), new)
            yield from ctx.barrier()
            source = dest

    # ------------------------------------------------------------------
    def reference_values(self) -> list[list[float]]:
        """Pure-Python Jacobi; returns the grid holding the final values."""
        rng = RngStreams(self.seed).stream("ocean.init")
        grid = [
            [round(rng.uniform(0, 1), 6) for _col in range(self.grid)]
            for _row in range(self.grid)
        ]
        current = [row[:] for row in grid]
        other = [row[:] for row in grid]
        for _ in range(self.iterations):
            for row in range(1, self.grid - 1):
                for col in range(1, self.grid - 1):
                    other[row][col] = round(
                        0.2 * (current[row][col] + current[row - 1][col]
                               + current[row + 1][col] + current[row][col - 1]
                               + current[row][col + 1]), 9)
            # Boundary rows carry over unchanged.
            for col in range(self.grid):
                other[0][col] = current[0][col]
                other[self.grid - 1][col] = current[self.grid - 1][col]
            for row in range(1, self.grid - 1):
                other[row][0] = current[row][0]
                other[row][self.grid - 1] = current[row][self.grid - 1]
            current, other = other, current
        return current

    def final_grid_index(self) -> int:
        """Which of the two grids holds the final values."""
        return self.iterations % 2
