"""The network interface processor (NP), paper Sections 5.1 and 5.4.

The NP is a serial, run-to-completion processor.  Its hardware-assisted
dispatch loop (the shared :class:`~repro.tempest.dispatch.HandlerLoop`)
selects the next piece of work from three sources:

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

What this module adds to the shared loop is the NP's hardware: the NP TLB
and reverse TLB a handler's start pays for, the BAF buffer's capacity
bound, and the finite send queues with their overflow buffer.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.memory.tags import AccessFault
from repro.memory.tlb import Tlb
from repro.network.message import Message
from repro.sim.config import TlbConfig, TyphoonCosts
from repro.tempest.dispatch import FAULT, HandlerLoop
from repro.typhoon.rtlb import ReverseTlb

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.typhoon.node import TyphoonNode


class NetworkProcessor(HandlerLoop):
    """One node's NP: the shared dispatch loop plus the NP hardware."""

    def __init__(self, node: "TyphoonNode", costs: TyphoonCosts):
        super().__init__(node, "np", costs.cycles_per_instruction)
        self.costs = costs
        # The hardware dispatch keeps no handlers-run counter.
        self._handlers_run_key = None
        self._np_tlb_misses_key = f"{self._prefix}.np_tlb_misses"
        self._page_shift = node.layout.page_size.bit_length() - 1

        self.np_tlb = Tlb(
            TlbConfig(entries=costs.np_tlb_entries, miss_cycles=costs.np_tlb_miss),
            name="np_tlb",
        )
        self.rtlb = ReverseTlb(costs.rtlb_entries, costs.rtlb_miss, node.layout)

        # Section 5.1 send-side plumbing: finite per-vnet send queues with
        # a transparent overflow buffer so handlers never block on space.
        self._in_flight: dict[int, int] = {0: 0, 1: 0}
        self._overflow: deque[Message] = deque()
        self._send_depth = costs.send_queue_depth
        self._baf_limit: int | None = None

    def install_faults(self, plan) -> None:
        """Also apply the plan's BAF and send-queue bounds."""
        super().install_faults(plan)
        spec = plan.spec
        self._baf_limit = spec.baf_limit
        if spec.send_queue_depth is not None:
            self._send_depth = spec.send_queue_depth

    def start_cost(self, kind: str, spec, argument) -> int:
        costs = self.costs
        cost = spec.instructions * costs.cycles_per_instruction
        if kind is FAULT:
            return (costs.baf_dispatch_cycles + cost
                    + self.rtlb.probe(argument.addr))
        # Handlers that touch a block's memory go through the NP TLB.
        addr = argument.payload.get("addr")
        if addr is not None:
            if not self.np_tlb.access(addr >> self._page_shift):
                cost += costs.np_tlb_miss
                self._counters[self._np_tlb_misses_key] += 1
        return cost

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
    # The BAF buffer's capacity bound
    # ------------------------------------------------------------------
    def _present_fault(self, fault: AccessFault) -> None:
        """Place a fault in the BAF buffer, honouring its capacity bound.

        On overflow the bus monitor re-presents the fault after a drain
        delay (the Section 4 overflow discussion: faults back up on the
        bus, they are never lost).  Counted once as a block fault at
        capture time, however many presentation attempts it takes.
        """
        if (self._baf_limit is not None
                and len(self._fault_queue) >= self._baf_limit):
            self.stats.incr(f"{self._prefix}.baf_overflows")
            self.engine.schedule(
                self.costs.overflow_drain_cycles, self._present_fault, fault
            )
            return
        super()._present_fault(fault)
