"""A Blizzard node: software access control, CPU-run handlers, polling.

The node is the shared :class:`~repro.tempest.node.TempestNode`, so
user-level protocol libraries load unchanged.  The differences are where
the paper says they are:

* **Tag checks** are inserted code: each checked load/store pays the
  configured software check cost (0 for loads under the ECC trick).
* **No NP.**  Arriving messages queue until the CPU polls — which the
  inserted instrumentation does at every shared-memory reference — or
  until the CPU is spinning for a reply anyway.  Handler instruction
  counts are charged to the *computation thread*: handler work and
  computation cannot overlap, which is precisely the cost Typhoon's
  decoupled NP avoids (Section 5.1).
* **Fault handling** is a software dispatch through the same
  (page mode, access type) table, run inline on the faulting thread.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator

from repro.memory.tags import AccessFault
from repro.network.message import Message, VirtualNetwork
from repro.sim.process import Future
from repro.tempest.dispatch import Dispatcher
from repro.tempest.node import TempestNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blizzard.system import BlizzardMachine


class BlizzardNode(TempestNode):
    """CPU + cache + TLB + software Tempest; handlers share the CPU."""

    lane = "sw"

    def __init__(self, node_id: int, machine: "BlizzardMachine"):
        costs = machine.config.blizzard
        super().__init__(
            node_id, machine, costs,
            check_read=costs.check_read_cycles,
            check_write=costs.check_write_cycles,
            poll=costs.poll_cycles,
        )
        # The fault table and charge accumulator; handlers run on this
        # CPU (_service_one, _block_fault).
        self.np = Dispatcher(self, self.lane)
        self._polls = True
        self._inbox: deque[Message] = deque()
        self._arrival: Future | None = None
        # Fault injection: inbox bound (None = unbounded, the default).
        self._recv_limit: int | None = None
        self._handlers_run_key = f"{self._prefix}.sw.handlers_run"
        machine.interconnect.attach(node_id, self._receive)

    def install_faults(self, plan) -> None:
        """Apply a bound FaultPlan's inbox bound (no NP, so no stalls)."""
        self._recv_limit = plan.spec.recv_queue_limit

    # ------------------------------------------------------------------
    # Message arrival and CPU-side servicing
    # ------------------------------------------------------------------
    def _receive(self, message: Message) -> None:
        # Bounded inbox (fault injection): refuse tracked requests beyond
        # the limit — responses must always sink (deadlock discipline),
        # and untracked messages have no retransmit path.
        if (self._recv_limit is not None and message.xid is not None
                and message.vnet is not VirtualNetwork.RESPONSE
                and len(self._inbox) >= self._recv_limit):
            self.np._nack(message)
            return
        self._inbox.append(message)
        if self._arrival is not None:
            arrival, self._arrival = self._arrival, None
            if not arrival.done:
                arrival.resolve(None)

    def _pick_next_message(self) -> Message:
        """Response-network messages first (the deadlock discipline)."""
        for index, message in enumerate(self._inbox):
            if message.vnet is VirtualNetwork.RESPONSE:
                del self._inbox[index]
                return message
        return self._inbox.popleft()

    def _service_one(self) -> Generator:
        """Run one queued handler on the CPU, charging its full cost."""
        message = self._pick_next_message()
        spec = self.registry.lookup(message.handler)
        yield (
            self.costs.software_dispatch_cycles
            + spec.instructions * self.costs.cycles_per_instruction
        )
        self._counters[self._handlers_run_key] += 1
        extra = self.np.run(spec.fn, message)
        if extra:
            yield extra

    def poll(self) -> Generator:
        """The poll (inserted before each shared reference, or explicit):
        drain whatever has arrived."""
        yield self.costs.poll_cycles
        while self._inbox:
            yield from self._service_one()

    def spin_until(self, future: Future) -> Generator:
        """Service messages until ``future`` resolves (reply wait loop,
        also the machine's barrier and completion waits).

        Wakes on whichever happens first: a message arrives (its handler
        may be the one that resumes us) or ``future`` resolves some other
        way (e.g. a hardware-barrier release).
        """
        while not future.done:
            if self._inbox:
                yield from self._service_one()
                continue
            arrival = Future(self.engine)
            self._arrival = arrival

            def wake(_value, a=arrival):
                if not a.done:
                    a.resolve(None)

            future.add_callback(wake)
            yield arrival
            self._arrival = None

    # ------------------------------------------------------------------
    # The miss branch: the fault handler runs inline on this CPU
    # ------------------------------------------------------------------
    def _block_fault(self, fault: AccessFault) -> Generator:
        """Software fault dispatch: handler runs inline, then spin-wait."""
        spec = self.np.fault_spec(fault)
        suspension = self.thread.suspend()
        yield (
            self.costs.software_dispatch_cycles
            + spec.instructions * self.costs.cycles_per_instruction
        )
        extra = self.np.run(spec.fn, fault)
        if extra:
            yield extra
        if not suspension.done:
            yield from self.spin_until(suspension)
