"""Tests for the Typhoon node's CPU access path and structure (Figures 1-2)."""

import pytest

from repro.memory.address import SHARED_BASE
from repro.memory.cache import LineState
from repro.memory.tags import Tag
from repro.sim.config import MachineConfig
from repro.sim.engine import SimulationError
from repro.sim.process import Process
from repro.typhoon.system import TyphoonMachine


@pytest.fixture
def machine():
    return TyphoonMachine(MachineConfig(nodes=2, seed=5))


def run_access(machine, node, addr, is_write=False, value=None):
    """Drive one access to completion; returns (result, elapsed cycles)."""
    start = machine.engine.now
    process = Process(machine.engine, machine.nodes[node].access(addr, is_write, value))
    machine.engine.run()
    return process.finished.value, machine.engine.now - start


class TestStructure:
    """Figure 1 / Figure 2: what a node is made of."""

    def test_node_components(self, machine):
        node = machine.nodes[0]
        assert node.cache.config.associativity == 4
        assert node.cpu_tlb.config.entries == 64
        assert node.np is not None
        assert node.np.rtlb is not None
        assert node.np.np_tlb.config.entries == 64
        assert node.tempest.node_id == 0

    def test_nodes_attached_to_interconnect(self, machine):
        assert machine.interconnect.attached_nodes == [0, 1]


class TestPrivateAccess:
    def test_first_access_pays_tlb_and_cache_miss(self, machine):
        # Cold access: 25 (TLB miss) + 29 (local cache miss).
        _, cycles = run_access(machine, 0, addr=0x1000)
        assert cycles == 25 + 29

    def test_second_access_hits_in_one_cycle(self, machine):
        run_access(machine, 0, addr=0x1000)
        _, cycles = run_access(machine, 0, addr=0x1000)
        assert cycles == 1

    def test_write_then_read_returns_value(self, machine):
        run_access(machine, 0, addr=0x2000, is_write=True, value=7)
        value, _ = run_access(machine, 0, addr=0x2000)
        assert value == 7

    def test_private_accesses_never_fault(self, machine):
        run_access(machine, 0, addr=0x3000, is_write=True, value=1)
        assert machine.stats.get("node0.cpu.block_faults") == 0
        assert machine.stats.get("node0.cpu.page_faults") == 0


class TestSharedAccessPermitted:
    def test_home_access_with_rw_tag_is_local(self, machine):
        node = machine.nodes[0]
        node.tempest.map_page(SHARED_BASE, mode=0, home=0,
                              initial_tag=Tag.READ_WRITE)
        _, cycles = run_access(machine, 0, SHARED_BASE, is_write=True, value=5)
        assert cycles == 25 + 29  # TLB miss + local miss, no NP involvement
        assert machine.stats.get("node0.cpu.block_faults") == 0

    def test_read_of_read_only_block_installs_shared_line(self, machine):
        node = machine.nodes[0]
        node.tempest.map_page(SHARED_BASE, mode=0, home=0,
                              initial_tag=Tag.READ_ONLY)
        run_access(machine, 0, SHARED_BASE)
        assert node.cache.lookup(SHARED_BASE) is LineState.SHARED

    def test_read_of_read_write_block_installs_exclusive(self, machine):
        node = machine.nodes[0]
        node.tempest.map_page(SHARED_BASE, mode=0, home=0,
                              initial_tag=Tag.READ_WRITE)
        run_access(machine, 0, SHARED_BASE)
        assert node.cache.lookup(SHARED_BASE) is LineState.EXCLUSIVE


class TestBlockAccessFault:
    def install_fixing_handler(self, machine, node_id, mode=0):
        """A fault handler that sets the tag RW and resumes — the minimal
        protocol action, with the Section 6 best-case path length."""
        node = machine.nodes[node_id]

        def fix(tempest, fault):
            tempest.set_rw(fault.block_addr)
            tempest.resume()

        node.tempest.register_handler("fix", fix, instructions=14)
        node.np.set_fault_handler(mode, False, "fix")
        node.np.set_fault_handler(mode, True, "fix")

    def test_invalid_block_faults_suspends_and_retries(self, machine):
        node = machine.nodes[0]
        node.tempest.map_page(SHARED_BASE, mode=0, home=0,
                              initial_tag=Tag.INVALID)
        self.install_fixing_handler(machine, 0)
        value, cycles = run_access(machine, 0, SHARED_BASE)
        assert machine.stats.get("node0.cpu.block_faults") == 1
        # TLB miss (25) + fault dispatch (5) + RTLB miss (25) + handler (14)
        # + retried local miss (29).
        assert cycles == 25 + 5 + 25 + 14 + 29
        assert node.tags.read_tag(SHARED_BASE) is Tag.READ_WRITE

    def test_write_to_read_only_block_faults(self, machine):
        node = machine.nodes[0]
        node.tempest.map_page(SHARED_BASE, mode=0, home=0,
                              initial_tag=Tag.READ_ONLY)
        self.install_fixing_handler(machine, 0)
        run_access(machine, 0, SHARED_BASE, is_write=True, value=1)
        assert machine.stats.get("node0.cpu.block_faults") == 1

    def test_upgrade_write_on_shared_cached_line_faults(self, machine):
        node = machine.nodes[0]
        node.tempest.map_page(SHARED_BASE, mode=0, home=0,
                              initial_tag=Tag.READ_ONLY)
        self.install_fixing_handler(machine, 0)
        run_access(machine, 0, SHARED_BASE)  # read: SHARED line cached
        run_access(machine, 0, SHARED_BASE, is_write=True, value=2)
        assert machine.stats.get("node0.cpu.block_faults") == 1
        assert node.cache.lookup(SHARED_BASE) is LineState.EXCLUSIVE

    def test_fault_without_handler_is_structural_error(self, machine):
        node = machine.nodes[0]
        node.tempest.map_page(SHARED_BASE, mode=0, home=0,
                              initial_tag=Tag.INVALID)
        Process(machine.engine, node.access(SHARED_BASE, False))
        with pytest.raises(SimulationError):
            machine.engine.run()

    def test_rtlb_hit_on_second_fault_is_cheaper(self, machine):
        node = machine.nodes[0]
        node.tempest.map_page(SHARED_BASE, mode=0, home=0,
                              initial_tag=Tag.INVALID)
        self.install_fixing_handler(machine, 0)
        _, first = run_access(machine, 0, SHARED_BASE)
        node.tempest.invalidate(SHARED_BASE + 32)
        _, second = run_access(machine, 0, SHARED_BASE + 32)
        # Same page: TLB hit and RTLB hit this time.
        assert second == first - 25 - 25


class TestPageFault:
    def test_unmapped_shared_page_invokes_user_handler(self, machine):
        node = machine.nodes[0]
        calls = []

        def page_fault(tempest, addr, is_write):
            calls.append((addr, is_write))
            tempest.map_page(addr, mode=0, home=0, initial_tag=Tag.READ_WRITE)
            return None

        node.set_page_fault_handler(page_fault)
        _, cycles = run_access(machine, 0, SHARED_BASE + 40, is_write=True,
                               value=9)
        assert calls == [(SHARED_BASE + 40, True)]
        # TLB miss + page-fault handler instructions + local miss.
        expected = 25 + machine.config.typhoon.page_fault_instructions + 29
        assert cycles == expected

    def test_page_fault_without_handler_is_error(self, machine):
        Process(machine.engine, machine.nodes[0].access(SHARED_BASE, False))
        with pytest.raises(SimulationError):
            machine.engine.run()

    def test_handler_extra_cycles_are_charged(self, machine):
        node = machine.nodes[0]

        def page_fault(tempest, addr, is_write):
            tempest.map_page(addr, mode=0, home=0, initial_tag=Tag.READ_WRITE)
            return 100

        node.set_page_fault_handler(page_fault)
        _, cycles = run_access(machine, 0, SHARED_BASE)
        expected = 25 + machine.config.typhoon.page_fault_instructions + 100 + 29
        assert cycles == expected


class TestProtocolInstall:
    def test_double_install_rejected(self, machine):
        class NullProtocol:
            def install(self, machine):
                pass

        machine.install_protocol(NullProtocol())
        with pytest.raises(RuntimeError):
            machine.install_protocol(NullProtocol())
