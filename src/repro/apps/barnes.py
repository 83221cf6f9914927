"""Barnes-Hut N-body simulation.

SPLASH Barnes builds an octree over the bodies each step and computes
forces by walking it; the memory system sees a read-mostly shared tree
plus body records written by their owners.  This kernel reproduces the
pattern with a real (2-D, quadtree) Barnes-Hut force computation:

* bodies are striped across nodes (owners-compute);
* each step the tree is rebuilt from current positions — the build is
  replicated computation over shared body reads (position reads of every
  body, the all-to-all read sharing Barnes exhibits), with the resulting
  cells stored in a shared cell array touched through the memory system;
* each node then walks the tree for its own bodies with the standard
  theta opening criterion, reading cell centre-of-mass records
  (read-mostly sharing) and writing its bodies' velocity/position.

The physics is a genuine O(N log N) Barnes-Hut evaluation, so positions
evolve and the sharing pattern drifts over steps, as in the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import Application, AppContext, SharedArray
from repro.sim.rng import RngStreams

#: Body record: x, y, vx, vy fields in one 32-byte block.
BODY_BYTES = 32
BODY_X = 0
BODY_Y = 8
BODY_VX = 16
BODY_VY = 24

#: Cell record: centre-of-mass x, y, mass in one 32-byte block.
CELL_BYTES = 32
CELL_COMX = 0
CELL_COMY = 8
CELL_MASS = 16

THETA = 0.7
SOFTENING = 0.05
DT = 0.05


@dataclass
class _TreeNode:
    """Quadtree node (replicated metadata; COM data lives in shared memory)."""

    cx: float
    cy: float
    half: float
    cell_index: int
    body: int | None = None
    children: list = field(default_factory=list)
    count: int = 0
    com_x: float = 0.0
    com_y: float = 0.0
    mass: float = 0.0


class BarnesApplication(Application):
    """Barnes-Hut with a shared quadtree cell array."""

    name = "barnes"

    def __init__(self, bodies: int = 64, iterations: int = 2, seed: int = 19):
        self.bodies = bodies
        self.iterations = iterations
        self.seed = seed
        self.body_array: SharedArray | None = None
        self.cell_array: SharedArray | None = None
        self.max_cells = 4 * bodies + 16

    # ------------------------------------------------------------------
    def setup(self, machine, protocol=None) -> None:
        self.body_array = SharedArray(machine, protocol, self.bodies,
                                      BODY_BYTES, label="barnes.bodies")
        self.cell_array = SharedArray(machine, protocol, self.max_cells,
                                      CELL_BYTES, label="barnes.cells",
                                      striped=False)
        rng = RngStreams(self.seed).stream("barnes.init")
        for index in range(self.bodies):
            self.poke(machine, self.body_array.addr(index, BODY_X),
                      round(rng.uniform(-1, 1), 6))
            self.poke(machine, self.body_array.addr(index, BODY_Y),
                      round(rng.uniform(-1, 1), 6))
            self.poke(machine, self.body_array.addr(index, BODY_VX), 0.0)
            self.poke(machine, self.body_array.addr(index, BODY_VY), 0.0)

    # ------------------------------------------------------------------
    # Tree construction (pure computation over already-read positions)
    # ------------------------------------------------------------------
    def _build_tree(self, positions: list[tuple[float, float]]) -> _TreeNode:
        next_cell = [0]

        def new_node(cx, cy, half) -> _TreeNode:
            index = next_cell[0] % self.max_cells
            next_cell[0] += 1
            return _TreeNode(cx, cy, half, cell_index=index)

        span = max(
            max(abs(x) for x, _ in positions),
            max(abs(y) for _, y in positions),
        ) + 0.1
        root = new_node(0.0, 0.0, span)

        def insert(node: _TreeNode, body: int) -> None:
            x, y = positions[body]
            if node.count == 0 and not node.children:
                node.body = body
            elif not node.children:
                resident = node.body
                node.body = None
                node.children = [None, None, None, None]
                _place(node, resident)
                _place(node, body)
            else:
                _place(node, body)
            node.count += 1

        def _place(node: _TreeNode, body: int) -> None:
            x, y = positions[body]
            quadrant = (1 if x >= node.cx else 0) + (2 if y >= node.cy else 0)
            child = node.children[quadrant]
            if child is None:
                half = node.half / 2
                child = new_node(
                    node.cx + (half if x >= node.cx else -half),
                    node.cy + (half if y >= node.cy else -half),
                    half,
                )
                node.children[quadrant] = child
            insert(child, body)

        for body in range(len(positions)):
            insert(root, body)

        def summarize(node: _TreeNode) -> tuple[float, float, float]:
            if node.body is not None:
                x, y = positions[node.body]
                node.com_x, node.com_y, node.mass = x, y, 1.0
            else:
                total = wx = wy = 0.0
                for child in node.children:
                    if child is None:
                        continue
                    cx, cy, mass = summarize(child)
                    total += mass
                    wx += cx * mass
                    wy += cy * mass
                node.mass = total
                node.com_x = wx / total if total else 0.0
                node.com_y = wy / total if total else 0.0
            return node.com_x, node.com_y, node.mass

        summarize(root)
        # The helpers recurse through their closure cells, a reference
        # cycle that would keep this application (and through its
        # arrays, the machine) alive until the collector ran.  Emptying
        # the cells breaks it.
        del insert, _place, summarize
        return root

    def _force_on(self, node: _TreeNode, x: float, y: float,
                  body: int, visited: list[int]) -> tuple[float, float]:
        """Walk the tree; records which cells were touched in ``visited``."""
        if node.count == 0 and node.body is None:
            return 0.0, 0.0
        dx = node.com_x - x
        dy = node.com_y - y
        dist_sq = dx * dx + dy * dy + SOFTENING
        if node.body is not None:
            if node.body == body:
                return 0.0, 0.0
            visited.append(node.cell_index)
            strength = node.mass / (dist_sq ** 1.5)
            return dx * strength, dy * strength
        width = node.half * 2
        if width * width < THETA * THETA * dist_sq:
            visited.append(node.cell_index)
            strength = node.mass / (dist_sq ** 1.5)
            return dx * strength, dy * strength
        fx = fy = 0.0
        for child in node.children:
            if child is not None:
                cfx, cfy = self._force_on(child, x, y, body, visited)
                fx += cfx
                fy += cfy
        return fx, fy

    # ------------------------------------------------------------------
    def worker(self, ctx: AppContext):
        my_bodies = list(self.body_array.owned_range(ctx.node_id))
        for _step in range(self.iterations):
            # Phase 1: read every body's position (the replicated tree
            # build: all-to-all read sharing of body records).
            coords = yield from ctx.read_run([
                self.body_array.addr(body, offset)
                for body in range(self.bodies)
                for offset in (BODY_X, BODY_Y)
            ])
            positions = list(zip(coords[0::2], coords[1::2]))
            root = self._build_tree(positions)
            # Tree build cost: ~N log N insertion work.
            yield from ctx.compute(
                overhead=4 * self.bodies * max(1, self.bodies.bit_length())
            )
            # The owner of each cell writes its COM record.
            cells = self._collect_cells(root)
            for node in cells:
                if self.cell_array.owner_of(node.cell_index) == ctx.node_id:
                    yield from ctx.write_run([
                        (self.cell_array.addr(node.cell_index, CELL_COMX),
                         round(node.com_x, 9)),
                        (self.cell_array.addr(node.cell_index, CELL_COMY),
                         round(node.com_y, 9)),
                        (self.cell_array.addr(node.cell_index, CELL_MASS),
                         round(node.mass, 9)),
                    ])
            yield from ctx.barrier()

            # Phase 2: force computation for owned bodies; the tree walk
            # reads the shared COM records it visits.
            for body in my_bodies:
                x, y = positions[body]
                visited: list[int] = []
                fx, fy = self._force_on(root, x, y, body, visited)
                yield from ctx.read_run([
                    self.cell_array.addr(cell_index, CELL_MASS)
                    for cell_index in visited
                ])
                yield from ctx.compute(flops=12 * max(1, len(visited)))
                vx, vy = yield from ctx.read_run([
                    self.body_array.addr(body, BODY_VX),
                    self.body_array.addr(body, BODY_VY),
                ])
                vx = round(vx + fx * DT, 9)
                vy = round(vy + fy * DT, 9)
                yield from ctx.write_run([
                    (self.body_array.addr(body, BODY_VX), vx),
                    (self.body_array.addr(body, BODY_VY), vy),
                    (self.body_array.addr(body, BODY_X), round(x + vx * DT, 9)),
                    (self.body_array.addr(body, BODY_Y), round(y + vy * DT, 9)),
                ])
            yield from ctx.barrier()

    def _collect_cells(self, root: _TreeNode) -> list[_TreeNode]:
        result = []
        stack = [root]
        while stack:
            node = stack.pop()
            result.append(node)
            for child in node.children:
                if child is not None:
                    stack.append(child)
        return result
