"""Tempest backend conformance: the same semantics on every implementation.

The paper's portability claim means the *interface's observable
behaviour* must not depend on the backend.  This suite runs one battery
of semantic checks against every implementation — Typhoon (hardware NP),
decoupled (handlers on a second CPU) and Blizzard (all software) — via a
parametrized fixture.  Timing may differ; semantics may not.
"""

import pytest

from repro.blizzard.system import BlizzardMachine
from repro.decoupled.system import DecoupledMachine
from repro.memory.address import SHARED_BASE
from repro.memory.tags import Tag
from repro.sim.config import MachineConfig
from repro.tempest.dispatch import DispatchError
from repro.typhoon.system import TyphoonMachine

BACKENDS = {"typhoon": TyphoonMachine, "decoupled": DecoupledMachine,
            "blizzard": BlizzardMachine}


@pytest.fixture(params=list(BACKENDS))
def machine(request):
    return BACKENDS[request.param](MachineConfig(nodes=3, seed=4))


def test_backend_protocol_shape(machine):
    """Every backend exposes the full TempestBackend surface."""
    from repro.tempest.interface import TempestBackend

    for node in machine.nodes:
        assert isinstance(node, TempestBackend)


def test_active_message_delivery_and_payload(machine):
    got = []
    machine.tempests[1].register_handler(
        "probe", lambda t, m: got.append((t.node_id, m.payload["x"])),
        instructions=5,
    )
    machine.tempests[0].send(1, "probe", x=17)

    def worker(node_id):
        yield 500  # node 1 must poll (Blizzard) or its NP runs it (Typhoon)
        if node_id == 1:
            value = yield from machine.nodes[1].access(0x1000, False)

    machine.run_workers(worker)
    assert got == [(1, 17)]


def test_tag_operations_identical(machine):
    tempest = machine.tempests[0]
    tempest.map_page(SHARED_BASE, mode=0, home=0, initial_tag=Tag.INVALID)
    addr = SHARED_BASE + 64
    assert tempest.read_tag(addr) is Tag.INVALID
    tempest.set_rw(addr)
    assert tempest.read_tag(addr) is Tag.READ_WRITE
    tempest.set_ro(addr)
    assert tempest.read_tag(addr) is Tag.READ_ONLY
    tempest.invalidate(addr)
    assert tempest.read_tag(addr) is Tag.INVALID
    tempest.force_write(addr, 9)
    assert tempest.force_read(addr) == 9


def test_vm_management_identical(machine):
    tempest = machine.tempests[2]
    tempest.map_page(SHARED_BASE, mode=3, home=1, initial_tag=Tag.READ_WRITE,
                     user_word="w")
    entry = tempest.page_entry(SHARED_BASE)
    assert (entry.mode, entry.home, entry.user_word) == (3, 1, "w")
    tempest.remap_page(SHARED_BASE, SHARED_BASE + 8192, Tag.INVALID)
    assert tempest.page_entry(SHARED_BASE) is None
    assert tempest.page_entry(SHARED_BASE + 8192).home == 1


def test_bulk_transfer_identical(machine):
    src, dst = machine.tempests[0], machine.tempests[1]
    src.map_page(SHARED_BASE, mode=0, home=0, initial_tag=Tag.READ_WRITE)
    dst.map_page(SHARED_BASE + 4096, mode=0, home=1,
                 initial_tag=Tag.READ_WRITE)
    for word in range(0, 128, 4):
        src.force_write(SHARED_BASE + word, word)
    done = {}

    def worker(node_id):
        if node_id == 0:
            transfer = src.bulk_transfer(1, SHARED_BASE, SHARED_BASE + 4096,
                                         128)
            yield from machine.wait(0, transfer)
            done["at"] = machine.engine.now
        else:
            # Blizzard receivers must poll for the incoming chunks.
            for _ in range(40):
                yield from machine.nodes[node_id].access(0x2000, False)
                yield 10

    machine.run_workers(worker)
    assert "at" in done
    for word in range(0, 128, 4):
        assert machine.nodes[1].image.read(SHARED_BASE + 4096 + word) == word


def test_checked_access_faults_reach_user_handler(machine):
    node = machine.nodes[0]
    tempest = node.tempest
    tempest.map_page(SHARED_BASE, mode=0, home=0, initial_tag=Tag.INVALID)
    seen = []

    def fix(t, fault):
        seen.append((fault.block_addr, fault.is_write))
        t.set_rw(fault.block_addr)
        t.resume()

    tempest.register_handler("fix", fix, instructions=14)
    node.np.set_fault_handler(0, False, "fix")
    node.np.set_fault_handler(0, True, "fix")

    def worker(node_id):
        if node_id == 0:
            yield from node.access(SHARED_BASE + 8, True, 5)
        else:
            yield 1

    machine.run_workers(worker)
    assert seen == [(SHARED_BASE, True)]
    assert node.image.read(SHARED_BASE + 8) == 5


def test_unbound_fault_raises_the_shared_dispatch_error(machine):
    node = machine.nodes[0]
    node.tempest.map_page(SHARED_BASE, mode=5, home=0,
                          initial_tag=Tag.INVALID)

    def worker(node_id):
        if node_id == 0:
            yield from node.access(SHARED_BASE, False)
        else:
            yield 1

    with pytest.raises(DispatchError, match="no fault handler for mode=5"):
        machine.run_workers(worker)
