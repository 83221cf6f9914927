"""A decoupled node: software access control, handlers on a second CPU.

The node is the shared :class:`~repro.tempest.node.TempestNode`, so
user-level protocol libraries load unchanged.  It is the middle point of
the paper's design space:

* **Tag checks** are inserted code, exactly as on Blizzard: each checked
  load/store pays the configured software check cost (0 for loads under
  the ECC trick).
* **No inserted polls.**  Unlike Blizzard, the compute CPU never polls
  the network — the *handler processor* (a second commodity CPU per
  node) watches it, running the shared software dispatch loop
  (:class:`~repro.tempest.dispatch.HandlerLoop`) that executes protocol
  handlers concurrently with computation.  Handler instruction counts
  are charged to the handler processor's own timeline, so handler work
  overlaps compute work, as on Typhoon — but every dispatch pays the
  polling loop's notice latency plus a software dispatch sequence
  instead of the NP's hardware-assisted capture, and there is no NP
  hardware (no NP TLB, no RTLB, no finite send queues: sends go
  straight to the interconnect, as on any commodity node).
* **Fault handling** is Typhoon-shaped: a faulting access suspends the
  compute thread and enqueues the fault to the handler processor; the
  handler's ``resume`` restarts the thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tempest.dispatch import HandlerLoop
from repro.tempest.node import TempestNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.decoupled.system import DecoupledMachine


class DecoupledNode(TempestNode):
    """CPU + cache + TLB + software Tempest; handlers on a second CPU."""

    lane = "hp"

    def __init__(self, node_id: int, machine: "DecoupledMachine"):
        costs = machine.config.decoupled
        super().__init__(
            node_id, machine, costs,
            check_read=costs.check_read_cycles,
            check_write=costs.check_write_cycles,
        )
        # The second CPU: ``np`` is the name protocols program against.
        self.np = HandlerLoop(
            self, self.lane, costs.cycles_per_instruction,
            dispatch_cycles=costs.poll_notice_cycles + costs.dispatch_cycles,
        )
        machine.interconnect.attach(node_id, self.np.enqueue_message)
