"""The network interface processor (NP), paper Sections 5.1 and 5.4.

The NP is a serial, run-to-completion processor.  Its hardware-assisted
dispatch loop selects the next piece of work from three sources:

1. the **response** virtual network's receive queue (highest priority, so
   request handlers can never starve response handlers — the deadlock-
   avoidance discipline of Section 5.1),
2. the **block access fault (BAF) buffer** — faults captured from the MBus,
3. the **request** virtual network's receive queue (lowest priority).

Each dispatched handler is charged its registered instruction count (one
cycle per instruction, Section 6) plus any TLB/RTLB miss penalties its
dispatch incurred; its externally visible effects (sends, tag updates,
``resume``) take place when that charge has elapsed.  Handlers may extend
their own charge for data-dependent work via
:meth:`~repro.tempest.interface.Tempest.charge`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.memory.tags import AccessFault
from repro.memory.tlb import Tlb
from repro.network.message import Message, NACK_HANDLER, VirtualNetwork
from repro.sim.config import TlbConfig, TyphoonCosts
from repro.sim.engine import SimulationError
from repro.typhoon.rtlb import ReverseTlb

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.typhoon.node import TyphoonNode


class DispatchError(SimulationError):
    """No fault handler registered for a (mode, access, tag) combination."""


class NetworkProcessor:
    """One node's NP: queues, dispatch loop, and cost accounting."""

    def __init__(self, node: "TyphoonNode", costs: TyphoonCosts):
        # The node owns its NP, so the NP keeps no pointer back to it:
        # everything it needs is a leaf handle taken here.
        self.costs = costs
        self.engine = node.engine
        self.stats = node.stats
        self._prefix = f"node{node.node_id}.np"
        # Hot-path stat keys, precomputed so the per-message path does no
        # string formatting.
        self._received_key = f"{self._prefix}.messages_received"
        self._handler_cycles_key = f"{self._prefix}.handler_cycles"
        self._np_tlb_misses_key = f"{self._prefix}.np_tlb_misses"
        self._block_faults_key = f"{self._prefix}.block_faults"
        self._page_shift = node.layout.page_size.bit_length() - 1
        # Raw counter dict (defaultdict) and handler table, cached so the
        # per-message path skips two method calls.
        self._counters = node.stats._counters
        self._handlers = node.registry._handlers
        self._registry = node.registry
        self._page_table = node.page_table
        self._tempest = node.tempest
        self._probes = node._probes
        self._interconnect = node.machine.interconnect

        self._response_queue: deque[Message] = deque()
        self._request_queue: deque[Message] = deque()
        self._baf_buffer: deque[AccessFault] = deque()
        self._busy = False
        self._extra_charge = 0

        self.np_tlb = Tlb(
            TlbConfig(entries=costs.np_tlb_entries, miss_cycles=costs.np_tlb_miss),
            name="np_tlb",
        )
        self.rtlb = ReverseTlb(costs.rtlb_entries, costs.rtlb_miss, node.layout)

        # (page mode, is_write) -> handler name.  Section 5.4: the page
        # mode, access type and tag select the fault handler PC; the tag
        # is implied (only faulting combinations dispatch), so the key is
        # (mode, is_write).
        self._fault_dispatch: dict[tuple[int, bool], str] = {}

        # Section 5.1 send-side plumbing: finite per-vnet send queues with
        # a transparent overflow buffer so handlers never block on space.
        self._in_flight: dict[int, int] = {0: 0, 1: 0}
        self._overflow: deque[Message] = deque()
        self._send_depth = costs.send_queue_depth

        # Fault injection (repro.network.faults): all inert until
        # install_faults is called with a live plan.
        self._node_id = node.node_id
        self._fault_plan = None  # non-None only when stall windows are on
        self._recv_limit: int | None = None
        self._baf_limit: int | None = None
        self._stall_wake = False

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_faults(self, plan) -> None:
        """Apply a bound FaultPlan's node-level bounds and stall windows."""
        spec = plan.spec
        self._fault_plan = plan if spec.stall_every else None
        self._recv_limit = spec.recv_queue_limit
        self._baf_limit = spec.baf_limit
        if spec.send_queue_depth is not None:
            self._send_depth = spec.send_queue_depth

    def _nack(self, message: Message) -> None:
        """Refuse an arriving tracked request: bounce an NI-level NACK.

        The NACK travels on the response network (it must always sink)
        and is consumed by the sender's interconnect, never dispatched;
        ``message.nacked`` tells the delivery path that this delivery did
        not constitute receipt.
        """
        message.nacked = True
        self.stats.incr(f"{self._prefix}.nacks_sent")
        self.stats.incr("tempest.nacks_sent")
        self._interconnect.send(Message(
            src=self._node_id, dst=message.src, handler=NACK_HANDLER,
            vnet=VirtualNetwork.RESPONSE, size_words=2,
            payload={"xid": message.xid},
        ))

    # ------------------------------------------------------------------
    # Sending (finite send queues + overflow buffer, Section 5.1)
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Inject a packet, or park it in the overflow buffer if the
        virtual network's send queue is full.

        "If a send queue fills, the hardware will redirect further stores
        to this buffer transparently.  This guarantees that any handler,
        once started, can run to completion without waiting for a send
        queue to empty.  The user buffer is drained into the network by
        software as queue space becomes available."
        """
        vnet = message.vnet
        if self._in_flight[vnet] >= self._send_depth:
            self._overflow.append(message)
            self.stats.incr(f"{self._prefix}.sends_overflowed")
            self.stats.set_max(
                f"{self._prefix}.overflow_peak", len(self._overflow)
            )
            return
        self._in_flight[vnet] += 1
        self._launch(message)

    def _inject(self, message: Message) -> None:
        self._in_flight[message.vnet] += 1
        self._launch(message)

    def _launch(self, message: Message) -> None:
        message.on_delivered = self._on_delivered
        self._interconnect.send(message)

    def _on_delivered(self, message: Message) -> None:
        """Credit return: queue space freed; drain the overflow buffer."""
        self._in_flight[message.vnet] -= 1
        if not self._overflow:
            return
        for index, waiting in enumerate(self._overflow):
            vnet = waiting.vnet
            if self._in_flight[vnet] < self._send_depth:
                del self._overflow[index]
                # Reserve the slot immediately so a concurrent credit
                # cannot oversubscribe it; the software drain takes a few
                # cycles to move the packet into the queue.
                self._in_flight[vnet] += 1
                self.engine.schedule(
                    self.costs.overflow_drain_cycles, self._launch, waiting
                )
                break

    # ------------------------------------------------------------------
    # Work arrival
    # ------------------------------------------------------------------
    def enqueue_message(self, message: Message) -> None:
        """Receive-queue arrival (called by the interconnect)."""
        if message.vnet is VirtualNetwork.RESPONSE:
            self._response_queue.append(message)
        else:
            # Bounded receive queue (fault injection): only tracked
            # requests are refused — responses must always sink, and
            # untracked messages have no retransmit path.
            if (self._recv_limit is not None and message.xid is not None
                    and len(self._request_queue) >= self._recv_limit):
                self._nack(message)
                return
            self._request_queue.append(message)
        self._counters[self._received_key] += 1
        self._pump()

    def enqueue_fault(self, fault: AccessFault) -> None:
        """BAF-buffer arrival (the bus monitor captured a faulting access)."""
        self._counters[self._block_faults_key] += 1
        for observer in self._probes.fault_observers:
            observer(fault)
        self._present_fault(fault)

    def _present_fault(self, fault: AccessFault) -> None:
        """Place a fault in the BAF buffer, honouring its capacity bound.

        On overflow the bus monitor re-presents the fault after a drain
        delay (the Section 4 overflow discussion: faults back up on the
        bus, they are never lost).  Counted once as a block fault at
        capture time, however many presentation attempts it takes.
        """
        if (self._baf_limit is not None
                and len(self._baf_buffer) >= self._baf_limit):
            self.stats.incr(f"{self._prefix}.baf_overflows")
            self.engine.schedule(
                self.costs.overflow_drain_cycles, self._present_fault, fault
            )
            return
        self._baf_buffer.append(fault)
        self._pump()

    def set_fault_handler(self, mode: int, is_write: bool, handler: str) -> None:
        """Bind a block-access-fault handler for a page mode + access type."""
        self._fault_dispatch[(mode, is_write)] = handler

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._busy:
            return
        plan = self._fault_plan
        if plan is not None:
            # Periodic stall windows: the dispatch loop freezes; queued
            # work waits for the scheduled wake.  Nothing is lost.
            if self._stall_wake:
                return
            wake = plan.stall_until(self._node_id, self.engine.now)
            if wake is not None:
                self._stall_wake = True
                self.stats.incr(f"{self._prefix}.stalls")
                self.engine.schedule_at(wake, self._end_stall)
                return
        if self._response_queue:
            self._start_message(self._response_queue.popleft())
        elif self._baf_buffer:
            self._start_fault(self._baf_buffer.popleft())
        elif self._request_queue:
            self._start_message(self._request_queue.popleft())

    def _start_message(self, message: Message) -> None:
        spec = self._handlers.get(message.handler)
        if spec is None:
            spec = self._registry.lookup(message.handler)  # raises
        cost = spec.instructions * self.costs.cycles_per_instruction
        # Handlers that touch a block's memory go through the NP TLB.
        addr = message.payload.get("addr")
        if addr is not None:
            if not self.np_tlb.access(addr >> self._page_shift):
                cost += self.costs.np_tlb_miss
                self._counters[self._np_tlb_misses_key] += 1
        self._begin(cost, spec.fn, message)

    def _start_fault(self, fault: AccessFault) -> None:
        entry = self._page_table.lookup(fault.addr)
        if entry is None:
            raise DispatchError(
                f"BAF for unmapped page {fault.addr:#x} on node "
                f"{self._node_id}"
            )
        handler_name = self._fault_dispatch.get((entry.mode, fault.is_write))
        if handler_name is None:
            raise DispatchError(
                f"no fault handler for mode={entry.mode} "
                f"is_write={fault.is_write} on node {self._node_id}"
            )
        spec = self._registry.lookup(handler_name)
        cost = (
            self.costs.baf_dispatch_cycles
            + spec.instructions * self.costs.cycles_per_instruction
            + self.rtlb.probe(fault.addr)
        )
        self._begin(cost, spec.fn, fault)

    def _begin(self, cost: int, fn, argument) -> None:
        self._busy = True
        self._counters[self._handler_cycles_key] += cost
        self.engine.schedule(cost, self._execute, fn, argument)

    def _execute(self, fn, argument) -> None:
        self._extra_charge = 0
        fn(self._tempest, argument)
        monitor = self._probes.conformance
        if monitor is not None:
            monitor.after_handler(self._node_id, argument)
        extra = self._extra_charge
        self._extra_charge = 0
        if extra:
            self._counters[self._handler_cycles_key] += extra
            self.engine.schedule(extra, self._finish)
        else:
            self._finish()

    def _finish(self) -> None:
        self._busy = False
        self._pump()

    def _end_stall(self) -> None:
        self._stall_wake = False
        self._pump()

    # ------------------------------------------------------------------
    def charge(self, cycles: int) -> None:
        """Extend the currently executing handler's occupancy."""
        if cycles < 0:
            raise SimulationError("cannot charge negative cycles")
        self._extra_charge += cycles

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queued_work(self) -> int:
        return (
            len(self._response_queue)
            + len(self._request_queue)
            + len(self._baf_buffer)
        )

    def __repr__(self) -> str:
        state = "busy" if self._busy else "idle"
        return f"NetworkProcessor(node={self._node_id}, {state}, queued={self.queued_work})"
