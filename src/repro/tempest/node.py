"""The node under the Tempest facade, shared by every Tempest backend.

A node is CPU + cache + TLB + tagged memory + page table + handler
registry, plus something that runs protocol handlers (``np``).  It
implements the :class:`~repro.tempest.interface.TempestBackend` protocol
— the hardware under the Tempest facade.

The CPU access path models the MBus semantics of Section 5.4:

* a hardware-cache hit needs no protocol intervention and completes in a
  cycle (plus, on the software backends, the inserted tag-check code);
* a miss becomes a bus transaction.  If the block's tag permits the
  access, the memory controller responds (Table 2's 29-cycle local miss);
  a read of a ReadOnly block has the "shared" line asserted so the CPU's
  copy is not owned;
* otherwise the transaction is a **block access fault**: the CPU's
  thread suspends and the fault is handed to the handler processor for
  user-level handling.  ``resume`` restarts the thread and the access
  retries.

Accesses to unmapped shared pages take the coarse-grain path: the
computation thread runs the protocol's user-level page-fault handler
(Section 2.3) and retries.

Backends differ in three places only: the per-reference check cost (0
where the hardware checks tags), the object that runs handlers, and —
on Blizzard, whose handlers run on the CPU — the poll before a shared
reference and the block-fault branch.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Generator

from repro.memory.address import SHARED_BASE, AddressLayout
from repro.memory.cache import Cache, LineState
from repro.memory.data import MemoryImage
from repro.memory.page_table import PageTable
from repro.memory.tags import AccessFault, Tag, TagStore
from repro.memory.tlb import Tlb
from repro.network.message import Message
from repro.sim.engine import SimulationError
from repro.tempest.interface import Tempest
from repro.tempest.messaging import HandlerRegistry
from repro.tempest.threads import ComputationThread

#: fn(tempest, addr, is_write) -> extra cycles or None
PageFaultHandler = Callable[[Tempest, int, bool], int | None]


class TempestNode:
    """Shared state, Tempest backend surface and CPU access path.

    ``costs`` is the backend's own config section (``config.typhoon``,
    ...).  ``check_read``/``check_write`` are the inserted tag-check
    cycles a shared load/store pays, and ``poll`` the inserted poll's
    cycles (Blizzard only).  Subclasses build ``self.np``, the handler
    dispatcher protocols program against, and attach a message sink.
    """

    #: Counter lane of this backend's handler dispatcher
    #: (``node<N>.<lane>.*``): ``np``, ``hp`` or ``sw``.
    lane: str

    def __init__(self, node_id: int, machine, costs, *,
                 check_read: int = 0, check_write: int = 0, poll: int = 0):
        self.node_id = node_id
        # Weak: the machine owns this node (see repro.machine).
        self.machine = weakref.proxy(machine)
        self.engine = machine.engine
        self.stats = machine.stats
        self.config = machine.config
        self.costs = costs
        self.layout: AddressLayout = machine.layout
        self.heap = machine.heap
        self._prefix = prefix = f"node{node_id}"

        self.tags = TagStore(self.layout, node_id)
        self.page_table = PageTable(self.layout, self.tags, node_id)
        self.image = MemoryImage(self.layout, node_id)
        self.cache = Cache(
            machine.config.cache,
            machine.rng.stream(f"{prefix}.cache"),
            name=f"{prefix}.cache",
        )
        self.cpu_tlb = Tlb(machine.config.tlb, name=f"{prefix}.tlb")
        self.thread = ComputationThread(self.engine, node_id)
        self.registry = HandlerRegistry(node_id)
        #: Blocks written since this node last gained them (the M-vs-E
        #: distinction an ownership bus provides); cleared on downgrade
        #: or invalidation.  Custom protocols use it (e.g. migratory
        #: detection probes).
        self.written_blocks: set[int] = set()
        self._probes = machine.probes
        self._machine_costs = machine.costs
        self._interconnect = machine.interconnect
        self._send = machine.interconnect.send
        self.tempest = Tempest(self)
        self.page_fault_handler: PageFaultHandler | None = None

        # Hot-path stat keys, precomputed so the per-reference path does
        # no string formatting.
        self._refs_key = f"{prefix}.cpu.refs"
        self._access_cycles_key = f"{prefix}.cpu.access_cycles"
        self._tlb_misses_key = f"{prefix}.cpu.tlb_misses"
        self._block_faults_key = f"{prefix}.cpu.block_faults"
        self._local_misses_key = f"{prefix}.cpu.local_misses"
        self._fills_killed_key = f"{prefix}.cpu.fills_killed"
        self._messages_sent_key = f"{prefix}.{self.lane}.messages_sent"
        # Address arithmetic, cycle counts and container handles for the
        # per-reference path.  The TLB / page-table dicts are stable
        # objects (cleared in place, never reassigned), so caching them
        # here is safe.
        layout = self.layout
        self._page_shift = layout.page_size.bit_length() - 1
        self._page_mask = ~(layout.page_size - 1)
        self._block_mask = ~(layout.block_size - 1)
        self._hit_cycles = hit = self.config.cache_hit_cycles
        self._check_read = check_read
        self._check_write = check_write
        # A shared-reference hit in one piece: poll + check + cache hit.
        self._inline_read = poll + check_read + hit
        self._inline_write = poll + check_write + hit
        self._tlb_entries = self.cpu_tlb._entries
        self._pt_entries = self.page_table._entries
        self._counters = machine.stats._counters
        self._image_read = self.image.read
        self._image_write = self.image.write
        # Does inserted code poll the network before each shared
        # reference?  If so, the subclass supplies the ``poll`` generator.
        self._polls = False
        # Messages waiting for this CPU to run their handlers; always
        # empty where handlers run on their own processor.
        self._inbox: Any = ()

    # ------------------------------------------------------------------
    # TempestBackend surface
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.config.nodes

    def send_message(self, message: Message) -> None:
        self._counters[self._messages_sent_key] += 1
        self._send(message)

    def invalidate_cpu_copy(self, block_addr: int) -> None:
        self.cache.invalidate(block_addr)
        self.written_blocks.discard(block_addr)

    def downgrade_cpu_copy(self, block_addr: int) -> None:
        self.cache.downgrade(block_addr)
        self.written_blocks.discard(block_addr)

    def shoot_down_page(self, vaddr: int) -> None:
        self.cpu_tlb.evict(self.layout.page_number(vaddr))

    def np_charge(self, cycles: int) -> None:
        self.np.charge(cycles)

    def set_page_fault_handler(self, handler: PageFaultHandler) -> None:
        self.page_fault_handler = handler

    def install_faults(self, plan) -> None:
        """Node-level fault injection lives in the handler processor."""
        self.np.install_faults(plan)

    # ------------------------------------------------------------------
    # CPU access path
    # ------------------------------------------------------------------
    def access_inline(self, addr: int, is_write: bool, value: Any = None):
        """Service a full TLB + cache hit without touching the event queue.

        The WWT direct-execution trick applied to CPython overhead: the
        common case — mapped page, TLB hit, passing tag check, cache hit,
        no pending event in the hit window — is detected with
        side-effect-free probes and then committed in one call: counters,
        data image, history, and the inline clock advance.  Returns
        ``(result,)`` on success, or None (having changed **nothing**)
        when the general :meth:`access` generator must run instead.

        Any pending handler-processor work has a scheduled engine event,
        so the engine-window check subsumes a queue probe; only messages
        waiting for the CPU itself (Blizzard's inbox) need their own
        check.  The engine window is checked *first*: in lock-step
        multi-node phases another node almost always has an event inside
        the hit window, and that rejection must cost a couple of
        attribute reads, not a TLB/cache probe that :meth:`access` then
        repeats.
        """
        engine = self.engine
        if engine._fifo:
            return None
        shared = addr >= SHARED_BASE
        if shared:
            cycles = self._inline_write if is_write else self._inline_read
        else:
            cycles = self._hit_cycles
        target = engine.now + cycles
        queue = engine._queue
        if queue and queue[0][0] <= target:
            return None
        until = engine._until
        if until is not None and target > until:
            return None
        if self._inbox or (addr >> self._page_shift) not in self._tlb_entries:
            return None
        if shared and (addr & self._page_mask) not in self._pt_entries:
            return None
        block = addr & self._block_mask
        state = self.cache.lookup(block)
        if state is None or (is_write and state is LineState.SHARED):
            return None
        # Commit: identical effects to the generator path's hit branch.
        # The probes above cannot schedule events, so the window check
        # still holds and the clock can move directly.
        engine.now = target
        self.cpu_tlb.hits += 1
        self.cache.hits += 1
        counters = self._counters
        counters[self._refs_key] += 1
        if is_write:
            self._image_write(addr, value)
            if shared:
                self.written_blocks.add(block)
            result = None
        else:
            result = value = self._image_read(addr)
        counters[self._access_cycles_key] += cycles
        history = self._probes.history
        if history is not None:
            history.record(
                self.node_id, addr, is_write, value,
                engine.now - cycles, engine.now,
            )
        return (result,)

    def access(self, addr: int, is_write: bool, value: Any = None) -> Generator:
        """One CPU load or store; a generator the worker drives.

        Returns the loaded value (reads) or None (writes).
        """
        counters = self._counters
        counters[self._refs_key] += 1
        start = self.engine.now
        shared = addr >= SHARED_BASE
        if shared and self._polls:
            yield from self.poll()
        if not self.cpu_tlb.access(addr >> self._page_shift):
            counters[self._tlb_misses_key] += 1
            yield self.config.tlb.miss_cycles

        block = addr & self._block_mask
        check = self._check_write if is_write else self._check_read
        while True:
            if shared and (addr & self._page_mask) not in self._pt_entries:
                yield from self._handle_page_fault(addr, is_write)
                continue
            if shared and check:
                # Inserted check code (Blizzard-S/E): loads may ride the
                # ECC trick; stores pay the lookup.
                yield check
            if self.cache.access(block, is_write):
                yield self._hit_cycles
                return self._complete(addr, is_write, value, start)
            # Miss: a bus transaction, checked against the tag for
            # shared pages.
            if shared:
                fault = self.tags.check(addr, is_write)
                if fault is not None:
                    counters[self._block_faults_key] += 1
                    yield from self._block_fault(fault)
                    continue  # retry the whole access
            yield self.config.local_miss_cycles
            counters[self._local_misses_key] += 1
            if shared and self.tags.check(addr, is_write) is not None:
                # A handler invalidated (or downgraded) the block while
                # our fill was on the bus: the transaction ends
                # "relinquish and retry" instead of installing a stale
                # line.  Loop; the retried access takes the fault path.
                counters[self._fills_killed_key] += 1
                continue
            if shared and self.tags.read_tag(addr) is Tag.READ_ONLY:
                state = LineState.SHARED  # the "shared" line is asserted
            else:
                state = LineState.EXCLUSIVE
            self.cache.insert(block, state)
            # Victim writeback to local DRAM costs 0 (perfect write buffer,
            # Table 2); the image already holds every store, so no data
            # movement is needed either.
            return self._complete(addr, is_write, value, start)

    def _block_fault(self, fault: AccessFault) -> Generator:
        """Suspend, hand the fault to the handler processor, and wait for
        its handler's ``resume``.  The handler runs concurrently with
        other nodes' computation."""
        suspension = self.thread.suspend()
        self.np.enqueue_fault(fault)
        yield suspension

    def _complete(self, addr: int, is_write: bool, value: Any,
                  start: float) -> Any:
        if is_write:
            self._image_write(addr, value)
            if addr >= SHARED_BASE:
                self.written_blocks.add(addr & self._block_mask)
            result = None
        else:
            result = value = self._image_read(addr)
        self._counters[self._access_cycles_key] += self.engine.now - start
        history = self._probes.history
        if history is not None:
            history.record(
                self.node_id, addr, is_write, value, start, self.engine.now
            )
        return result

    def _handle_page_fault(self, addr: int, is_write: bool) -> Generator:
        self.stats.incr(f"{self._prefix}.cpu.page_faults")
        if self.page_fault_handler is None:
            raise SimulationError(
                f"page fault at {addr:#x} on node {self.node_id} "
                "with no user-level handler installed"
            )
        # The user-level page fault handler runs on the primary CPU,
        # charged at this backend's own resolved cost.
        yield self._machine_costs.page_fault
        extra = self.page_fault_handler(self.tempest, addr, is_write)
        if extra:
            yield extra

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.node_id})"
