"""One Typhoon node: CPU, caches, TLB, tagged memory, and NP (Figure 1).

The node is the shared :class:`~repro.tempest.node.TempestNode` with the
hardware the paper adds: tags are checked by the bus-monitoring NP, so
no reference pays inserted check code, and a block access fault makes
the NP inhibit memory, nack the transaction, mask the CPU's bus request
(the thread suspends), and capture the fault in its BAF buffer for
user-level handling (Section 5.4).  Sends go through the NP's finite
send queues, and a TLB shoot-down also clears the NP's reverse TLB.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tempest.node import TempestNode
from repro.typhoon.np import NetworkProcessor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.typhoon.system import TyphoonMachine


class TyphoonNode(TempestNode):
    """CPU + L1 + TLB + NP + DRAM, assembled per Figure 1."""

    lane = "np"

    def __init__(self, node_id: int, machine: "TyphoonMachine"):
        super().__init__(node_id, machine, machine.config.typhoon)
        self.np = NetworkProcessor(self, self.costs)
        self._send = self.np.send
        machine.interconnect.attach(node_id, self.np.enqueue_message)

    def shoot_down_page(self, vaddr: int) -> None:
        """TLB shoot-down after unmap/remap: CPU TLB and NP reverse TLB."""
        super().shoot_down_page(vaddr)
        self.np.rtlb.shoot_down(vaddr)
