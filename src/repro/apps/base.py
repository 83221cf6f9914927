"""Application framework: SPMD kernels over the simulated shared segment.

An :class:`Application` owns its data layout and per-node worker; it runs
*unmodified* on any machine that provides ``nodes[i].access`` and a
barrier — which is exactly the paper's claim for programs linked against
the Stache library.

Workers are generators that drive their node's CPU through an
:class:`AppContext`::

    def worker(self, ctx):
        value = yield from ctx.read(addr)
        yield from ctx.write(addr, value + 1)
        yield from ctx.compute(flops=2)
        yield from ctx.barrier()

Compute work is charged in cycles derived from a flop cost (the paper
charges one cycle per instruction and notes this flatters the superscalar
primary CPU; ``FLOP_CYCLES`` is the knob).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.memory.allocator import SharedRegion

#: Cycles charged per floating-point operation in application kernels.
FLOP_CYCLES = 2

#: Cycles charged per unit of addressing/loop overhead.
OVERHEAD_CYCLES = 1


def _no_inline(addr, is_write, value=None):
    """Fallback for node models without an inline-hit fast lane."""
    return None


class _InlineDone:
    """A ``yield from``-able that returns a value without ever yielding.

    ``yield from`` on this object resolves in a single ``__next__`` call
    — the delegating generator never suspends — which is what lets an
    inline-serviced access skip generator creation entirely.  One
    instance is reused per context: it is always consumed synchronously
    before the next access can start.
    """

    __slots__ = ("value",)

    def __iter__(self):
        return self

    def __next__(self):
        raise StopIteration(self.value)


class _InlineCharge:
    """A ``yield from``-able that yields one delay, then returns None.

    Reused per context for :meth:`AppContext.compute`, saving a generator
    allocation per compute charge.
    """

    __slots__ = ("cycles", "_spent")

    def __iter__(self):
        self._spent = False
        return self

    def __next__(self):
        if self._spent:
            raise StopIteration(None)
        self._spent = True
        return self.cycles


class AppContext:
    """Per-node access handle given to application workers.

    ``read``/``write``/``compute`` are plain calls returning an iterable
    the worker drives with ``yield from``: either the node's ``access``
    generator (the general path) or a reusable inline-completion object
    when the access was serviced without touching the event queue.
    """

    def __init__(self, machine, node_id: int):
        self.machine = machine
        self.node_id = node_id
        self._node = machine.nodes[node_id]
        # The inline-hit lane: node models expose access_inline, which
        # services TLB + cache hits (the dominant reference class) in
        # one plain call — no generator, no event queue.  Consecutive
        # hits therefore run back-to-back in the worker's loop, entering
        # the simulator only on a miss, fault, or sync op.
        self._inline = getattr(self._node, "access_inline", _no_inline)
        self._access = self._node.access
        self._done = _InlineDone()
        self._charge = _InlineCharge()

    @property
    def num_nodes(self) -> int:
        return self.machine.num_nodes

    def read(self, addr: int):
        hit = self._inline(addr, False)
        if hit is not None:
            done = self._done
            done.value = hit[0]
            return done
        return self._access(addr, False)

    def write(self, addr: int, value: Any):
        if self._inline(addr, True, value) is not None:
            done = self._done
            done.value = None
            return done
        return self._access(addr, True, value)

    def read_run(self, addrs) -> Generator:
        """Read a run of addresses; ``yield from`` returns their values.

        Exactly ``[(yield from read(a)) for a in addrs]``: same cycles,
        same counters, same fault handling.  Workers state a sequence of
        references as one call; each element takes the scalar path.
        """
        out: list = []
        read = self.read
        for addr in addrs:
            out.append((yield from read(addr)))
        return out

    def write_run(self, pairs):
        """Write a run of ``(addr, value)`` pairs; returns one None each."""
        return self.access_plan([
            (addr, True, value) for addr, value in pairs
        ])

    def access_plan(self, ops) -> Generator:
        """Run a mixed plan of ``(addr, is_write, value)`` ops.

        ``yield from`` returns one entry per op: the value for reads,
        None for writes.
        """
        out: list = []
        read = self.read
        write = self.write
        for addr, is_write, value in ops:
            if is_write:
                out.append((yield from write(addr, value)))
            else:
                out.append((yield from read(addr)))
        return out

    def compute(self, flops: int = 0, overhead: int = 0):
        cycles = flops * FLOP_CYCLES + overhead * OVERHEAD_CYCLES
        if cycles:
            charge = self._charge
            charge.cycles = cycles
            return charge
        done = self._done
        done.value = None
        return done

    def barrier(self) -> Generator:
        start = self.machine.engine.now
        yield from self.machine.barrier_wait(self.node_id)
        self.machine.stats.incr(
            f"node{self.node_id}.cpu.barrier_cycles",
            self.machine.engine.now - start,
        )


class Application:
    """Base class: data layout in ``setup``, per-node work in ``worker``."""

    name = "application"

    def setup(self, machine, protocol=None) -> None:
        """Allocate and initialize shared data (untimed initialization).

        ``protocol`` is the installed user-level protocol on Typhoon
        machines (None on DirNNB); applications pass it to
        :meth:`alloc_shared` so home pages get created.
        """
        raise NotImplementedError

    def worker(self, ctx: AppContext) -> Generator:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared-memory helpers
    # ------------------------------------------------------------------
    @staticmethod
    def alloc_shared(machine, protocol, size: int, label: str,
                     home: int | None = None) -> SharedRegion:
        """Allocate a shared region and create its home pages."""
        region = machine.heap.allocate(size, home=home, label=label)
        if protocol is not None:
            protocol.setup_region(region)
        return region

    @staticmethod
    def poke(machine, addr: int, value: Any) -> None:
        """Initialize a shared location (untimed, pre-run only)."""
        if hasattr(machine, "shared_image"):
            machine.shared_image.write(addr, value)
        else:
            home = machine.heap.home_of(addr)
            machine.nodes[home].image.write(addr, value)

    @staticmethod
    def peek(machine, addr: int) -> Any:
        """Read a shared location's authoritative value (post-run checks).

        On Typhoon the authoritative copy is the exclusive owner's if one
        exists, else the home's.
        """
        if hasattr(machine, "shared_image"):
            return machine.shared_image.read(addr)
        home = machine.heap.home_of(addr)
        home_node = machine.nodes[home]
        entry = None
        page = home_node.tempest.page_entry(addr)
        if page is not None and isinstance(page.user_word, dict):
            entry = page.user_word.get(machine.layout.block_of(addr))
        if entry is not None and entry.owner is not None:
            return machine.nodes[entry.owner].image.read(addr)
        return home_node.image.read(addr)


class SharedArray:
    """A 1-D array of fixed-size records, striped across owners.

    Records never straddle blocks (``record_bytes`` must divide or be a
    multiple of the block size).  With ``striped=True`` each node owns a
    contiguous chunk of records homed on it (the owners-compute layout
    every application here uses); otherwise pages are homed round-robin.
    """

    def __init__(self, machine, protocol, count: int, record_bytes: int,
                 label: str, striped: bool = True):
        if record_bytes & (record_bytes - 1):
            raise ValueError("record size must be a power of two")
        self.count = count
        self.record_bytes = record_bytes
        self.label = label
        self.machine = machine
        nodes = machine.num_nodes
        if striped:
            self.per_owner = -(-count // nodes)  # ceiling
            chunk_bytes = self.per_owner * record_bytes
            self.regions = []
            for node in range(nodes):
                region = machine.heap.allocate(
                    max(chunk_bytes, 1), home=node, label=f"{label}[{node}]"
                )
                if protocol is not None:
                    protocol.setup_region(region)
                self.regions.append(region)
        else:
            self.per_owner = None
            region = machine.heap.allocate(
                count * record_bytes, label=label
            )
            if protocol is not None:
                protocol.setup_region(region)
            self.regions = [region]
        self.striped = striped

    def addr(self, index: int, offset: int = 0) -> int:
        if not 0 <= index < self.count:
            raise IndexError(f"{self.label}[{index}] out of range")
        if not 0 <= offset < self.record_bytes:
            raise IndexError(f"offset {offset} outside the "
                             f"{self.record_bytes}-byte record")
        if self.striped:
            owner, slot = divmod(index, self.per_owner)
            return self.regions[owner].base + slot * self.record_bytes + offset
        return self.regions[0].base + index * self.record_bytes + offset

    def owner_of(self, index: int) -> int:
        """The node that owns (and should compute) record ``index``."""
        if self.striped:
            return min(index // self.per_owner, self.machine.num_nodes - 1)
        return self.machine.heap.home_of(self.addr(index))

    def owned_range(self, node: int) -> range:
        """Record indices owned by ``node``."""
        if not self.striped:
            raise ValueError("owned_range needs a striped array")
        start = node * self.per_owner
        return range(min(start, self.count), min(start + self.per_owner,
                                                 self.count))


def run_app(machine, app: Application, protocol=None) -> float:
    """Set up and run an application; returns the execution time in cycles."""
    app.setup(machine, protocol)
    machine.run_workers(lambda node_id: app.worker(AppContext(machine, node_id)))
    return machine.execution_time
