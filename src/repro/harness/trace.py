"""Protocol tracing: a time-ordered log of faults and messages.

Attach a :class:`ProtocolTrace` to a machine before running and every
block access fault, message injection and message delivery is recorded
with its cycle time.  The to_text rendering is the fastest way to see
*why* a protocol run behaved the way it did — which node faulted, what
the home did, what crossed what on the wire.

Usage::

    machine = TyphoonMachine(config)
    machine.install_protocol(StacheProtocol())
    trace = ProtocolTrace(machine)          # attach before running
    ... run ...
    print(trace.to_text(limit=50))
    fetches = trace.filter(handler="stache.data")
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Iterable


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence."""

    time: float
    kind: str        # "fault" | "send" | "deliver"
    node: int        # faulting node / message source
    dst: int | None  # message destination (None for faults)
    handler: str     # message handler, or the fault's kind string
    detail: str

    def format(self) -> str:
        if self.kind == "fault":
            return (f"{self.time:>8.0f}  fault    node{self.node}          "
                    f"{self.handler:<24} {self.detail}")
        arrow = "->" if self.kind == "send" else "=>"
        return (f"{self.time:>8.0f}  {self.kind:<8} "
                f"node{self.node} {arrow} node{self.dst}  "
                f"{self.handler:<24} {self.detail}")


class ProtocolTrace:
    """Event recorder for one machine's protocol activity."""

    def __init__(self, machine, capture_payloads: bool = False):
        # Weak: the observers below live inside the machine, so a strong
        # pointer back would keep a finished machine alive.  The recorded
        # events stay readable after the machine is freed.
        self.machine = weakref.proxy(machine)
        self._engine = machine.engine
        self.capture_payloads = capture_payloads
        self.events: list[TraceEvent] = []
        machine.interconnect.observers.append(self._on_message)
        machine.fault_observers.append(self._on_fault)

    # ------------------------------------------------------------------
    def _on_message(self, kind: str, message) -> None:
        detail = f"#{message.msg_id} {message.vnet.name.lower()}"
        if self.capture_payloads:
            addr = message.payload.get("addr")
            if addr is not None:
                detail += f" addr={addr:#x}"
        self.events.append(
            TraceEvent(
                time=self._engine.now,
                kind=kind,
                node=message.src,
                dst=message.dst,
                handler=message.handler,
                detail=detail,
            )
        )

    def _on_fault(self, fault) -> None:
        self.events.append(
            TraceEvent(
                time=self._engine.now,
                kind="fault",
                node=fault.node,
                dst=None,
                handler=fault.kind,
                detail=f"addr={fault.addr:#x}",
            )
        )

    # ------------------------------------------------------------------
    def filter(self, kind: str | None = None, node: int | None = None,
               handler: str | None = None) -> list[TraceEvent]:
        """Events matching every given criterion (handler is a prefix)."""

        def matches(event: TraceEvent) -> bool:
            if kind is not None and event.kind != kind:
                return False
            if node is not None and event.node != node:
                return False
            if handler is not None and not event.handler.startswith(handler):
                return False
            return True

        return [event for event in self.events if matches(event)]

    def counts_by_handler(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            if event.kind == "send":
                counts[event.handler] = counts.get(event.handler, 0) + 1
        return counts

    def to_text(self, limit: int | None = None,
                events: Iterable[TraceEvent] | None = None) -> str:
        chosen = list(events) if events is not None else self.events
        if limit is not None:
            chosen = chosen[:limit]
        lines = [f"== protocol trace: {len(chosen)} of "
                 f"{len(self.events)} events =="]
        lines.extend(event.format() for event in chosen)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)
