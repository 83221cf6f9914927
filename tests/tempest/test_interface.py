"""Integration tests for the Tempest facade on Typhoon hardware.

These exercise the four mechanisms end to end on a small machine with no
protocol installed — handlers are registered directly, as a protocol
library would.
"""

import pytest

from repro.memory.address import SHARED_BASE
from repro.memory.cache import LineState
from repro.memory.tags import Tag
from repro.network.message import VirtualNetwork
from repro.sim.config import MachineConfig
from repro.typhoon.system import TyphoonMachine


@pytest.fixture
def machine():
    return TyphoonMachine(MachineConfig(nodes=4, seed=1))


def test_tempest_identity(machine):
    tempest = machine.tempests[2]
    assert tempest.node_id == 2
    assert tempest.num_nodes == 4


class TestMessaging:
    def test_active_message_runs_handler_at_destination(self, machine):
        log = []
        machine.tempests[1].register_handler(
            "probe",
            lambda tempest, msg: log.append(
                (tempest.node_id, msg.payload["x"], machine.engine.now)
            ),
            instructions=10,
        )
        machine.tempests[0].send(1, "probe", x=99)
        machine.engine.run()
        # 11 cycles network latency + 10 instruction-cycles of handler.
        assert log == [(1, 99, 21)]

    def test_response_priority_over_request(self, machine):
        order = []
        tempest = machine.tempests[1]
        tempest.register_handler(
            "req", lambda t, m: order.append("req"), instructions=5
        )
        tempest.register_handler(
            "resp", lambda t, m: order.append("resp"), instructions=5
        )
        # Enqueue a long-running handler first so both arrivals queue up
        # behind it, then the dispatch loop must pick the response first.
        tempest.register_handler(
            "block", lambda t, m: None, instructions=100
        )
        machine.tempests[0].send(1, "block")
        machine.tempests[0].send(1, "req", vnet=VirtualNetwork.REQUEST)
        machine.tempests[2].send(1, "resp", vnet=VirtualNetwork.RESPONSE)
        machine.engine.run()
        assert order == ["resp", "req"]

    def test_handler_charge_extends_occupancy(self, machine):
        times = []
        tempest = machine.tempests[1]

        def slow(t, m):
            t.charge(50)

        tempest.register_handler("slow", slow, instructions=10)
        tempest.register_handler(
            "after", lambda t, m: times.append(machine.engine.now),
            instructions=0,
        )
        machine.tempests[0].send(1, "slow")
        machine.tempests[0].send(1, "after")
        machine.engine.run()
        # slow: arrives 11, runs 10, charges 50 more -> NP free at 71.
        assert times == [71]

    def test_messages_from_handlers_are_sent(self, machine):
        log = []
        machine.tempests[1].register_handler(
            "ping",
            lambda t, m: t.send(m.payload["reply_to"], "pong",
                                vnet=VirtualNetwork.RESPONSE),
            instructions=14,
        )
        machine.tempests[0].register_handler(
            "pong", lambda t, m: log.append(machine.engine.now), instructions=20
        )
        machine.tempests[0].send(1, "ping", reply_to=0)
        machine.engine.run()
        # 11 + 14 (ping handler) + 11 + 20 (pong handler) = 56.
        assert log == [56]


class TestFineGrainAccessControl:
    def test_table1_tag_ops_round_trip(self, machine):
        tempest = machine.tempests[0]
        tempest.map_page(SHARED_BASE, mode=0, home=0, initial_tag=Tag.INVALID)
        addr = SHARED_BASE + 32
        assert tempest.read_tag(addr) is Tag.INVALID
        tempest.set_rw(addr)
        assert tempest.read_tag(addr) is Tag.READ_WRITE
        tempest.set_ro(addr)
        assert tempest.read_tag(addr) is Tag.READ_ONLY
        tempest.set_busy(addr)
        assert tempest.read_tag(addr) is Tag.BUSY
        tempest.invalidate(addr)
        assert tempest.read_tag(addr) is Tag.INVALID

    def test_invalidate_flushes_cpu_cached_copy(self, machine):
        node = machine.nodes[0]
        tempest = node.tempest
        tempest.map_page(SHARED_BASE, mode=0, home=0, initial_tag=Tag.READ_WRITE)
        node.cache.insert(SHARED_BASE, LineState.EXCLUSIVE)
        tempest.invalidate(SHARED_BASE)
        assert not node.cache.contains(SHARED_BASE)

    def test_set_ro_downgrades_cpu_copy(self, machine):
        node = machine.nodes[0]
        tempest = node.tempest
        tempest.map_page(SHARED_BASE, mode=0, home=0, initial_tag=Tag.READ_WRITE)
        node.cache.insert(SHARED_BASE, LineState.EXCLUSIVE)
        tempest.set_ro(SHARED_BASE)
        assert node.cache.lookup(SHARED_BASE) is LineState.SHARED

    def test_force_ops_bypass_tags(self, machine):
        tempest = machine.tempests[0]
        tempest.map_page(SHARED_BASE, mode=0, home=0, initial_tag=Tag.INVALID)
        tempest.force_write(SHARED_BASE + 8, 42)  # no fault despite Invalid
        assert tempest.force_read(SHARED_BASE + 8) == 42

    def test_block_export_import(self, machine):
        src = machine.tempests[0]
        dst = machine.tempests[1]
        for t in (src, dst):
            t.map_page(SHARED_BASE, mode=0, home=0, initial_tag=Tag.INVALID)
        src.force_write(SHARED_BASE + 4, "v")
        dst.import_block(SHARED_BASE, src.export_block(SHARED_BASE))
        assert dst.force_read(SHARED_BASE + 4) == "v"


class TestVirtualMemoryManagement:
    def test_map_and_lookup(self, machine):
        tempest = machine.tempests[0]
        tempest.map_page(SHARED_BASE, mode=3, home=2, initial_tag=Tag.INVALID,
                         user_word="dir")
        entry = tempest.page_entry(SHARED_BASE + 17)
        assert entry.mode == 3
        assert entry.home == 2
        assert entry.user_word == "dir"

    def test_remap_for_stache_replacement(self, machine):
        tempest = machine.tempests[0]
        tempest.map_page(SHARED_BASE, mode=3, home=2, initial_tag=Tag.READ_WRITE)
        tempest.remap_page(SHARED_BASE, SHARED_BASE + 8192,
                           initial_tag=Tag.INVALID)
        assert tempest.page_entry(SHARED_BASE) is None
        assert tempest.page_entry(SHARED_BASE + 8192).home == 2

    def test_home_of_uses_heap(self, machine):
        region = machine.heap.allocate(machine.config.page_size, home=3)
        assert machine.tempests[0].home_of(region.base) == 3


class TestBulkTransfer:
    def test_transfer_copies_data_and_completes(self, machine):
        src = machine.tempests[0]
        dst_node = machine.nodes[1]
        src_addr = SHARED_BASE
        dst_addr = SHARED_BASE + 4096
        src.map_page(src_addr, mode=0, home=0, initial_tag=Tag.READ_WRITE)
        dst_node.tempest.map_page(dst_addr, mode=0, home=1,
                                  initial_tag=Tag.READ_WRITE)
        for word in range(0, 256, 4):
            src.force_write(src_addr + word, word * 10)
        done = src.bulk_transfer(1, src_addr, dst_addr, 256)
        machine.engine.run()
        assert done.done
        for word in range(0, 256, 4):
            assert dst_node.image.read(dst_addr + word) == word * 10

    def test_transfer_is_packetized(self, machine):
        src = machine.tempests[0]
        src.map_page(SHARED_BASE, mode=0, home=0, initial_tag=Tag.READ_WRITE)
        machine.nodes[1].tempest.map_page(
            SHARED_BASE + 4096, mode=0, home=1, initial_tag=Tag.READ_WRITE
        )
        before = machine.stats.get("network.packets")
        src.bulk_transfer(1, SHARED_BASE, SHARED_BASE + 4096, 256)
        machine.engine.run()
        sent = machine.stats.get("network.packets") - before
        # 256 bytes / 64-byte chunks = 4 data packets + 1 completion.
        assert sent == 5

    def test_zero_length_transfer_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.tempests[0].bulk_transfer(1, SHARED_BASE, SHARED_BASE, 0)
