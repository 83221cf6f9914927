"""Tests for the application framework itself."""

import pytest

from repro.apps.base import AppContext, Application, SharedArray, run_app
from repro.protocols.stache import StacheProtocol
from repro.sim.config import MachineConfig
from repro.typhoon.system import TyphoonMachine
from tests.protocols.conftest import make_dirnnb_machine, make_stache_machine


@pytest.fixture
def machine():
    machine = TyphoonMachine(MachineConfig(nodes=4, seed=1))
    protocol = StacheProtocol()
    machine.install_protocol(protocol)
    return machine, protocol


class TestSharedArray:
    def test_striped_ownership(self, machine):
        m, protocol = machine
        array = SharedArray(m, protocol, count=8, record_bytes=32,
                            label="a")
        assert array.owner_of(0) == 0
        assert array.owner_of(1) == 0
        assert array.owner_of(2) == 1
        assert array.owner_of(7) == 3
        assert list(array.owned_range(1)) == [2, 3]

    def test_striped_records_are_homed_on_owner(self, machine):
        m, protocol = machine
        array = SharedArray(m, protocol, count=8, record_bytes=32, label="a")
        for index in range(8):
            assert m.heap.home_of(array.addr(index)) == array.owner_of(index)

    def test_uneven_count_truncates_last_owner(self, machine):
        m, protocol = machine
        array = SharedArray(m, protocol, count=6, record_bytes=32, label="a")
        assert list(array.owned_range(3)) == []
        assert list(array.owned_range(2)) == [4, 5]

    def test_field_offsets(self, machine):
        m, protocol = machine
        array = SharedArray(m, protocol, count=4, record_bytes=32, label="a")
        assert array.addr(1, offset=8) == array.addr(1) + 8
        assert array.addr(1, offset=31) == array.addr(1) + 31
        for offset in (32, -1, -8):
            with pytest.raises(IndexError):
                array.addr(1, offset=offset)
        with pytest.raises(IndexError):
            array.addr(0, offset=-8)
        with pytest.raises(IndexError):
            array.addr(4)

    def test_non_striped_round_robin(self, machine):
        m, protocol = machine
        array = SharedArray(m, protocol, count=4, record_bytes=32, label="a",
                            striped=False)
        assert array.addr(1) == array.addr(0) + 32
        with pytest.raises(ValueError):
            array.owned_range(0)

    def test_record_size_must_be_power_of_two(self, machine):
        m, protocol = machine
        with pytest.raises(ValueError):
            SharedArray(m, protocol, count=4, record_bytes=24, label="a")


class TestPokePeek:
    def test_round_trip_on_typhoon(self, machine):
        m, protocol = machine
        region = m.heap.allocate(4096, home=2, label="x")
        protocol.setup_region(region)
        Application.poke(m, region.base + 8, "hello")
        assert Application.peek(m, region.base + 8) == "hello"
        assert m.nodes[2].image.read(region.base + 8) == "hello"

    def test_round_trip_on_dirnnb(self):
        m, region = make_dirnnb_machine(nodes=4)
        Application.poke(m, region.base, 5)
        assert Application.peek(m, region.base) == 5

    def test_peek_follows_exclusive_owner(self):
        from tests.protocols.conftest import run_script

        m, protocol, region = make_stache_machine(nodes=4)
        addr = region.base
        run_script(m, {1: [("w", addr, 42)]})
        # The home's image is stale; peek must chase the owner.
        assert Application.peek(m, addr) == 42


class TestRunApp:
    def test_setup_then_workers_then_time(self, machine):
        m, protocol = machine
        phases = []

        class TinyApp(Application):
            def setup(self, mach, protocol=None):
                phases.append("setup")

            def worker(self, ctx):
                phases.append(f"worker{ctx.node_id}")
                yield from ctx.compute(flops=1)
                yield from ctx.barrier()

        time = run_app(m, TinyApp(), protocol)
        assert phases[0] == "setup"
        assert sorted(phases[1:]) == [f"worker{n}" for n in range(4)]
        assert time > 0

    def test_context_compute_cost(self, machine):
        m, protocol = machine

        class ComputeApp(Application):
            def setup(self, mach, protocol=None):
                pass

            def worker(self, ctx):
                yield from ctx.compute(flops=10, overhead=3)

        time = run_app(m, ComputeApp(), protocol)
        from repro.apps.base import FLOP_CYCLES, OVERHEAD_CYCLES
        assert time == 10 * FLOP_CYCLES + 3 * OVERHEAD_CYCLES


# ----------------------------------------------------------------------
# The run API: read_run / write_run / access_plan
# ----------------------------------------------------------------------
#: One record per cache block; 136 records = 4352 bytes, so the flat
#: (round-robin homed) array straddles a 4 KB page boundary at record
#: 128, and the second page is homed on node 1.
RUN_RECORDS = 136
RUN_RECORD_BYTES = 32

#: Per-node program of run calls, as record indices.  Node ``n`` offsets
#: every index by ``3 * n`` so the nodes share some blocks.  Each cold
#: record is read twice in a row (offsets 0 and 8): a miss, then a hit.
RUN_PROGRAM = (
    ("read", []),
    ("write", []),
    ("plan", []),
    ("read", [0, 0, 1, 1, 2, 2, 3]),
    ("read", [124, 125, 126, 127, 128, 129, 130, 131]),
    ("write", [0, 1, 2, 64, 127, 128]),
    ("plan", [(0, False), (0, True), (5, True), (5, False), (127, False),
              (128, True), (3, False)]),
    ("barrier", None),
    ("read", [0, 3, 5, 64, 128, 131]),
    ("plan", [(3, True), (64, False), (131, True), (131, False)]),
)


class _RunProgram(Application):
    """Executes RUN_PROGRAM through the run API (``scalar=False``) or as
    its element-by-element ``read``/``write`` twin (``scalar=True``)."""

    def __init__(self, scalar: bool):
        self.scalar = scalar
        self.results: dict[int, list] = {}
        self.array: SharedArray | None = None

    def setup(self, machine, protocol=None) -> None:
        self.array = SharedArray(machine, protocol, RUN_RECORDS,
                                 RUN_RECORD_BYTES, label="runs",
                                 striped=False)
        for index in range(RUN_RECORDS):
            for offset in (0, 8):
                self.poke(machine, self.array.addr(index, offset), index)

    def _ops(self, node_id: int, kind: str, payload) -> list:
        def addr(index: int, repeat: int) -> int:
            offset = 8 if repeat else 0
            return self.array.addr((index + 3 * node_id) % RUN_RECORDS,
                                   offset)

        ops = []
        for position, item in enumerate(payload):
            index, is_write = (item if kind == "plan"
                               else (item, kind == "write"))
            repeat = position > 0 and payload[position - 1] == item
            value = (node_id, len(ops)) if is_write else None
            ops.append((addr(index, repeat), is_write, value))
        return ops

    def worker(self, ctx: AppContext):
        results = self.results.setdefault(ctx.node_id, [])
        for kind, payload in RUN_PROGRAM:
            if kind == "barrier":
                yield from ctx.barrier()
                continue
            ops = self._ops(ctx.node_id, kind, payload)
            if self.scalar:
                out = []
                for addr, is_write, value in ops:
                    if is_write:
                        out.append((yield from ctx.write(addr, value)))
                    else:
                        out.append((yield from ctx.read(addr)))
            elif kind == "read":
                out = yield from ctx.read_run([op[0] for op in ops])
            elif kind == "write":
                out = yield from ctx.write_run(
                    [(addr, value) for addr, _, value in ops])
            else:
                out = yield from ctx.access_plan(ops)
            results.append((ops, out))
        yield from ctx.barrier()


@pytest.mark.parametrize("system", ["typhoon:stache", "blizzard:stache",
                                    "decoupled:stache", "dirnnb"])
def test_run_api_matches_scalar_twin(system):
    from repro.harness.runner import run_application

    config = MachineConfig(nodes=2, seed=7).with_cache_size(1024)
    runs, scalar = _RunProgram(scalar=False), _RunProgram(scalar=True)
    run_outcome = run_application(system, runs, config)
    scalar_outcome = run_application(system, scalar, config)

    # The program really straddles a 4 KB page boundary.
    straddle = runs.results[0][4][0]
    assert len({addr >> 12 for addr, _, _ in straddle}) == 2

    for node_id, calls in runs.results.items():
        assert len(calls) == len(RUN_PROGRAM) - 1
        for (ops, out), (_, twin_out) in zip(calls,
                                             scalar.results[node_id]):
            # One entry per element: the value for reads, None for writes.
            assert len(out) == len(ops)
            for (_, is_write, _), value in zip(ops, out):
                assert (value is None) if is_write else (value is not None)
            assert out == twin_out
    assert run_outcome["execution_time"] == scalar_outcome["execution_time"]
    assert (run_outcome["machine"].stats.as_dict()
            == scalar_outcome["machine"].stats.as_dict())
    # The program mixes hits and misses on every node.
    stats = run_outcome["machine"].stats
    for node_id in range(2):
        refs = stats.get(f"node{node_id}.cpu.refs")
        misses = (stats.get(f"node{node_id}.cpu.local_misses")
                  + stats.get(f"node{node_id}.cpu.block_faults"))
        assert 0 < misses < refs
