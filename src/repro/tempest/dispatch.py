"""Handler dispatch, written once for every Tempest backend.

An active message and a block access fault end the same way: a
user-level handler is looked up, runs against the node's
:class:`~repro.tempest.interface.Tempest`, is shown to the conformance
monitor, and is billed whatever data-dependent work it charged.  This
module holds that step and the loop around it:

* :class:`Dispatcher` is what every backend shares: the (page mode,
  access type) -> fault handler table, the running handler's extra-charge
  accumulator, the NI-level NACK, and :meth:`Dispatcher.run`.  Blizzard
  uses it as it is: its handlers run inline on the computation thread
  (:mod:`repro.blizzard.node`).
* :class:`HandlerLoop` adds a serial, run-to-completion processor that
  runs handlers beside the computation: three work queues served in the
  Section 5.1 deadlock-avoidance order (responses, then captured faults,
  then requests), the bounded receive queue and stall windows of fault
  injection, and occupancy accounting.  The decoupled backend's second
  CPU is this loop as it is; Typhoon's NP
  (:class:`~repro.typhoon.np.NetworkProcessor`) adds its hardware.  They
  differ in what it costs to start a handler: the
  :meth:`HandlerLoop.start_cost` hook.

Each dispatcher belongs to one node and keeps no pointer back to it:
everything it needs is a leaf handle taken at construction.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.memory.tags import AccessFault
from repro.network.message import Message, NACK_HANDLER, VirtualNetwork
from repro.sim.engine import SimulationError

#: ``kind`` values passed to :meth:`HandlerLoop.start_cost`.
MESSAGE = "message"
FAULT = "fault"


class DispatchError(SimulationError):
    """A fault on an unmapped page, or on a (mode, access) with no handler."""


class Dispatcher:
    """Fault-handler table, charge accumulator, NACK and handler execution.

    ``lane`` names the counters (``node<N>.<lane>.*``): ``np`` on
    Typhoon, ``hp`` on the decoupled backend, ``sw`` on Blizzard.
    """

    def __init__(self, node, lane: str):
        self.engine = node.engine
        self.stats = node.stats
        self._node_id = node.node_id
        self._prefix = f"node{node.node_id}.{lane}"
        # Raw counter dict (defaultdict) and handler table, cached so the
        # per-message path skips two method calls.
        self._counters = node.stats._counters
        self._handlers = node.registry._handlers
        self._registry = node.registry
        self._page_table = node.page_table
        self._tempest = node.tempest
        self._probes = node._probes
        self._interconnect = node._interconnect
        # (page mode, is_write) -> handler name.  Section 5.4: the page
        # mode, access type and tag select the fault handler PC; the tag
        # is implied (only faulting combinations dispatch), so the key is
        # (mode, is_write).
        self._fault_dispatch: dict[tuple[int, bool], str] = {}
        self._extra_charge = 0

    # ------------------------------------------------------------------
    # Fault-handler table
    # ------------------------------------------------------------------
    def set_fault_handler(self, mode: int, is_write: bool, handler: str) -> None:
        """Bind a block-access-fault handler for a page mode + access type."""
        self._fault_dispatch[(mode, is_write)] = handler

    def fault_handler_for(self, mode: int, is_write: bool) -> str:
        handler = self._fault_dispatch.get((mode, is_write))
        if handler is None:
            raise DispatchError(
                f"no fault handler for mode={mode} is_write={is_write} "
                f"on node {self._node_id}"
            )
        return handler

    def fault_spec(self, fault: AccessFault):
        """The registered handler a block access fault dispatches to."""
        entry = self._page_table.lookup(fault.addr)
        if entry is None:
            raise DispatchError(
                f"fault on unmapped page {fault.addr:#x} on node "
                f"{self._node_id}"
            )
        return self._registry.lookup(
            self.fault_handler_for(entry.mode, fault.is_write)
        )

    # ------------------------------------------------------------------
    # Running a handler
    # ------------------------------------------------------------------
    def charge(self, cycles: int) -> None:
        """Extend the currently executing handler's occupancy."""
        if cycles < 0:
            raise SimulationError("cannot charge negative cycles")
        self._extra_charge += cycles

    def take_charge(self) -> int:
        """Return and clear the extra cycles charged so far."""
        charge, self._extra_charge = self._extra_charge, 0
        return charge

    def run(self, fn: Callable[..., Any], argument) -> int:
        """Execute one handler; return the extra cycles it charged."""
        self._extra_charge = 0
        fn(self._tempest, argument)
        monitor = self._probes.conformance
        if monitor is not None:
            monitor.after_handler(self._node_id, argument)
        extra, self._extra_charge = self._extra_charge, 0
        return extra

    def _nack(self, message: Message) -> None:
        """Refuse an arriving tracked request: bounce an NI-level NACK.

        The NACK travels on the response network (it must always sink)
        and is consumed by the sender's interconnect, never dispatched;
        ``message.nacked`` tells the delivery path that this delivery did
        not constitute receipt, so the sender's transport retransmits.
        """
        message.nacked = True
        self.stats.incr(f"{self._prefix}.nacks_sent")
        self.stats.incr("tempest.nacks_sent")
        self._interconnect.send(Message(
            src=self._node_id, dst=message.src, handler=NACK_HANDLER,
            vnet=VirtualNetwork.RESPONSE, size_words=2,
            payload={"xid": message.xid},
        ))


class HandlerLoop(Dispatcher):
    """A handler processor: work queues, dispatch loop, occupancy.

    Each handler is charged :meth:`start_cost` cycles; its externally
    visible effects (sends, tag updates, ``resume``) take place when that
    charge has elapsed, and the processor stays busy for any extra cycles
    the handler charged.  The default start cost is a software dispatch
    sequence of ``dispatch_cycles`` plus the handler's path length at
    ``cycles_per_instruction``.
    """

    def __init__(self, node, lane: str, cycles_per_instruction: int,
                 dispatch_cycles: int = 0):
        super().__init__(node, lane)
        self._cycles_per_instruction = cycles_per_instruction
        self._dispatch_cycles = dispatch_cycles
        # Hot-path stat keys, precomputed so the per-message path does no
        # string formatting.
        self._received_key = f"{self._prefix}.messages_received"
        self._handler_cycles_key = f"{self._prefix}.handler_cycles"
        self._block_faults_key = f"{self._prefix}.block_faults"
        self._handlers_run_key: str | None = f"{self._prefix}.handlers_run"

        self._response_queue: deque[Message] = deque()
        self._request_queue: deque[Message] = deque()
        self._fault_queue: deque[AccessFault] = deque()
        self._busy = False

        # Fault injection: all inert until install_faults runs a live plan.
        self._fault_plan = None  # non-None only when stall windows are on
        self._recv_limit: int | None = None
        self._stall_wake = False

    def install_faults(self, plan) -> None:
        """Apply a bound FaultPlan's receive-queue bound and stall windows."""
        spec = plan.spec
        self._fault_plan = plan if spec.stall_every else None
        self._recv_limit = spec.recv_queue_limit

    def start_cost(self, kind: str, spec, argument) -> int:
        """Cycles from picking up a work item to its handler's effects.

        ``kind`` is :data:`MESSAGE` or :data:`FAULT`; ``argument`` is the
        message or the :class:`~repro.memory.tags.AccessFault`.
        """
        return (self._dispatch_cycles
                + spec.instructions * self._cycles_per_instruction)

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
        """A faulting access's descriptor, handed over by the CPU side."""
        self._counters[self._block_faults_key] += 1
        for observer in self._probes.fault_observers:
            observer(fault)
        self._present_fault(fault)

    def _present_fault(self, fault: AccessFault) -> None:
        self._fault_queue.append(fault)
        self._pump()

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
        elif self._fault_queue:
            fault = self._fault_queue.popleft()
            spec = self.fault_spec(fault)
            self._begin(self.start_cost(FAULT, spec, fault), spec.fn, fault)
        elif self._request_queue:
            self._start_message(self._request_queue.popleft())

    def _start_message(self, message: Message) -> None:
        spec = self._handlers.get(message.handler)
        if spec is None:
            spec = self._registry.lookup(message.handler)  # raises
        self._begin(self.start_cost(MESSAGE, spec, message), spec.fn, message)

    def _begin(self, cost: int, fn, argument) -> None:
        self._busy = True
        self._counters[self._handler_cycles_key] += cost
        self.engine.schedule(cost, self._execute, fn, argument)

    def _execute(self, fn, argument) -> None:
        runs_key = self._handlers_run_key
        if runs_key is not None:
            self._counters[runs_key] += 1
        extra = self.run(fn, argument)
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
    @property
    def queued_work(self) -> int:
        return (
            len(self._response_queue)
            + len(self._request_queue)
            + len(self._fault_queue)
        )

    def __repr__(self) -> str:
        state = "busy" if self._busy else "idle"
        return (
            f"{type(self).__name__}(node={self._node_id}, {state}, "
            f"queued={self.queued_work})"
        )
