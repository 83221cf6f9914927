"""Synthetic sharing-pattern microbenchmarks.

Three canonical patterns used by the ablation benches (and handy for
protocol debugging), each isolating one behaviour the real applications
mix together:

* :class:`ReadMostlyApplication` — one writer, many repeat readers; the
  best case for caching protocols.
* :class:`MigratoryApplication` — a set of records each read-modified-
  written by every node in turn; the invalidation-heavy pattern that
  dominates MP3D.
* :class:`ProducerConsumerApplication` — node *i* writes a buffer that
  node *i+1* reads next phase; the pattern delayed-update protocols
  exploit.
"""

from __future__ import annotations

from repro.apps.base import Application, AppContext, SharedArray

RECORD_BYTES = 32


class ReadMostlyApplication(Application):
    """Node 0 writes once per phase; everyone reads many times."""

    name = "synthetic.read_mostly"

    def __init__(self, records: int = 8, reads_per_phase: int = 4,
                 phases: int = 3):
        self.records = records
        self.reads_per_phase = reads_per_phase
        self.phases = phases
        self.array: SharedArray | None = None

    def setup(self, machine, protocol=None) -> None:
        self.array = SharedArray(machine, protocol, self.records,
                                 RECORD_BYTES, label="readmostly",
                                 striped=False)
        for index in range(self.records):
            self.poke(machine, self.array.addr(index), 0)

    def worker(self, ctx: AppContext):
        for phase in range(self.phases):
            if ctx.node_id == 0:
                for index in range(self.records):
                    yield from ctx.write(self.array.addr(index), phase + 1)
            yield from ctx.barrier()
            for _repeat in range(self.reads_per_phase):
                for index in range(self.records):
                    value = yield from ctx.read(self.array.addr(index))
                    assert value == phase + 1, (
                        f"node {ctx.node_id} read {value} in phase {phase}"
                    )
            yield from ctx.barrier()


class MigratoryApplication(Application):
    """Each record is read-modify-written by every node in turn."""

    name = "synthetic.migratory"

    def __init__(self, records: int = 4, rounds: int = 2):
        self.records = records
        self.rounds = rounds
        self.array: SharedArray | None = None

    def setup(self, machine, protocol=None) -> None:
        self.array = SharedArray(machine, protocol, self.records,
                                 RECORD_BYTES, label="migratory",
                                 striped=False)
        for index in range(self.records):
            self.poke(machine, self.array.addr(index), 0)

    def worker(self, ctx: AppContext):
        for _round in range(self.rounds):
            for turn in range(ctx.num_nodes):
                if turn == ctx.node_id:
                    for index in range(self.records):
                        value = yield from ctx.read(self.array.addr(index))
                        yield from ctx.write(self.array.addr(index), value + 1)
                yield from ctx.barrier()

    def expected_total(self, num_nodes: int) -> int:
        return self.rounds * num_nodes


class ProducerConsumerApplication(Application):
    """Node i produces a buffer consumed by node (i+1) mod N next phase."""

    name = "synthetic.producer_consumer"

    def __init__(self, buffer_records: int = 8, phases: int = 3):
        self.buffer_records = buffer_records
        self.phases = phases
        self.array: SharedArray | None = None

    def setup(self, machine, protocol=None) -> None:
        total = self.buffer_records * machine.num_nodes
        self.array = SharedArray(machine, protocol, total, RECORD_BYTES,
                                 label="prodcons")
        for index in range(total):
            self.poke(machine, self.array.addr(index), 0)

    def worker(self, ctx: AppContext):
        mine = list(self.array.owned_range(ctx.node_id))
        upstream_node = (ctx.node_id - 1) % ctx.num_nodes
        upstream = list(self.array.owned_range(upstream_node))
        for phase in range(self.phases):
            for index in mine:
                yield from ctx.write(self.array.addr(index),
                                     (ctx.node_id, phase))
            yield from ctx.barrier()
            for index in upstream:
                value = yield from ctx.read(self.array.addr(index))
                assert value == (upstream_node, phase)
            yield from ctx.barrier()
