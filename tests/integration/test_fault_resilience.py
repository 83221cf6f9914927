"""End-to-end resilience: protocols under a deterministic lossy network.

The fault layer's acceptance bar (ISSUE 3): with a seeded lossy plan
(drop <= 10%, dup <= 5%, bounded delay), random workloads through both
the Typhoon and Blizzard backends must show

* zero linearizability violations (the per-location oracle of
  ``repro.protocols.history``),
* zero permanently lost transactions (``machine.transport.pending``
  empty at quiescence), and
* the retry/NACK counter family visible in ``Stats``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.em3d import VALUE_OFFSET
from repro.backends import all_systems, compose, parse_system
from repro.blizzard.system import BlizzardMachine
from repro.decoupled.system import DecoupledMachine
from repro.harness.runner import run_application
from repro.harness.workloads import workload
from repro.network.faults import RELIABILITY_LADDER, FaultPlan, FaultSpec
from repro.protocols.history import AccessHistory, check_register_consistency
from repro.protocols.stache import StacheProtocol
from repro.sim.config import MachineConfig
from repro.tempest.messaging import DeliveryGuard
from tests.protocols.conftest import make_stache_machine, run_script

NODES = 4
PAGES = 4

#: The ISSUE's acceptance plan: drop <= 10%, dup <= 5%, bounded delay.
LOSSY = FaultSpec(name="lossy", drop_pct=0.10, dup_pct=0.05,
                  delay_pct=0.20, delay_min=1, delay_max=16)

# An op is (node, is_write, page_index, block_index, value_tag).
OPS = st.lists(
    st.tuples(
        st.integers(0, NODES - 1),
        st.booleans(),
        st.integers(0, PAGES - 1),
        st.integers(0, 3),
        st.integers(0, 999),
    ),
    min_size=1,
    max_size=40,
)


def make_software_stache_machine(machine_cls, nodes=NODES, seed=1,
                                 shared_bytes=PAGES * 4096, **config_kwargs):
    machine = machine_cls(
        MachineConfig(nodes=nodes, seed=seed, **config_kwargs))
    protocol = StacheProtocol()
    machine.install_protocol(protocol)
    region = machine.heap.allocate(shared_bytes, label="test")
    protocol.setup_region(region)
    return machine, protocol, region


def split_concurrent(ops, base):
    """Group the op stream into one program per node."""
    programs = {node: [] for node in range(NODES)}
    writes = set()
    for node, is_write, page, block, tag in ops:
        addr = base + page * 4096 + block * 32
        if is_write:
            value = (node, tag)
            programs[node].append(("w", addr, value))
            writes.add((addr, value))
        else:
            programs[node].append(("r", addr))
    return programs, writes


def run_under_faults(machine, region, ops, faults=LOSSY):
    """Install the plan, run the concurrent programs, check the oracles."""
    machine.history = AccessHistory()
    machine.install_fault_plan(faults)
    programs, writes = split_concurrent(ops, region.base)
    reads = run_script(machine, programs)
    violations = check_register_consistency(machine.history)
    assert violations == [], "\n".join(str(v) for v in violations)
    assert not machine.transport.pending, "permanently lost transactions"
    legal = {value for _addr, value in writes} | {0}
    for node_reads in reads.values():
        for value in node_reads:
            assert value in legal
    return reads


@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_property_typhoon_stache_survives_lossy_network(ops, seed):
    machine, _protocol, region = make_stache_machine(
        nodes=NODES, seed=seed, shared_bytes=PAGES * 4096)
    run_under_faults(machine, region, ops)


@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_property_blizzard_stache_survives_lossy_network(ops, seed):
    machine, _protocol, region = make_software_stache_machine(
        BlizzardMachine, seed=seed)
    run_under_faults(machine, region, ops)


@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_property_decoupled_stache_survives_lossy_network(ops, seed):
    machine, _protocol, region = make_software_stache_machine(
        DecoupledMachine, seed=seed)
    run_under_faults(machine, region, ops)


@given(ops=OPS, seed=st.integers(0, 3))
@settings(max_examples=10, deadline=None)
def test_property_typhoon_survives_node_faults_too(ops, seed):
    """Lossy links plus bounded queues and periodic NP stalls."""
    machine, _protocol, region = make_stache_machine(
        nodes=NODES, seed=seed, shared_bytes=PAGES * 4096)
    run_under_faults(machine, region, ops, faults=FaultSpec(
        name="hostile", drop_pct=0.05, dup_pct=0.03, delay_pct=0.10,
        delay_min=1, delay_max=8, recv_queue_limit=2,
        stall_every=400, stall_cycles=50))


CONTENDED = {
    node: [("w", 0x1000_0000 + block * 32, (node, block))
           for block in range(8)] + [("b",)]
          + [("r", 0x1000_0000 + node * 32)]
    for node in range(NODES)
}


def test_typhoon_retry_counters_appear_in_stats():
    machine, _protocol, region = make_stache_machine(
        nodes=NODES, seed=2, shared_bytes=PAGES * 4096)
    machine.history = AccessHistory()
    machine.install_fault_plan(FaultPlan.lossy())
    run_script(machine, CONTENDED)
    stats = machine.stats
    assert stats.get("tempest.tracked_sends") > 0
    assert stats.get("tempest.retries") > 0
    assert stats.get("network.fault_drops") > 0
    assert stats.get("tempest.retries") >= stats.get("network.fault_drops")
    assert check_register_consistency(machine.history) == []
    assert not machine.transport.pending


def test_bounded_receive_queue_forces_nacks_and_stays_consistent():
    # All four nodes storm page 0's home with GET_RWs; a one-deep request
    # queue must refuse some of them, and the NACK/retry path must still
    # converge to a consistent outcome.
    machine, _protocol, region = make_stache_machine(
        nodes=NODES, seed=3, shared_bytes=PAGES * 4096)
    machine.history = AccessHistory()
    machine.install_fault_plan(
        FaultSpec(name="bounded", recv_queue_limit=1, retry_timeout=150))
    run_script(machine, CONTENDED)
    stats = machine.stats
    assert stats.get("tempest.nacks_sent") > 0
    assert stats.get("tempest.nacks_received") > 0
    assert check_register_consistency(machine.history) == []
    assert not machine.transport.pending


@pytest.mark.parametrize("machine_cls", [BlizzardMachine, DecoupledMachine],
                         ids=["blizzard", "decoupled"])
def test_software_backend_bounded_inbox_forces_nacks_and_stays_consistent(
        machine_cls):
    machine, _protocol, region = make_software_stache_machine(
        machine_cls, seed=3)
    machine.history = AccessHistory()
    machine.install_fault_plan(
        FaultSpec(name="bounded", recv_queue_limit=1, retry_timeout=150))
    run_script(machine, CONTENDED)
    stats = machine.stats
    assert stats.get("tempest.nacks_sent") > 0
    assert check_register_consistency(machine.history) == []
    assert not machine.transport.pending


def test_faulted_runs_are_reproducible_per_seed():
    def outcome(seed):
        machine, _protocol, region = make_stache_machine(
            nodes=NODES, seed=seed, shared_bytes=PAGES * 4096)
        machine.install_fault_plan(LOSSY)
        run_script(machine, CONTENDED)
        return (machine.engine.now, dict(machine.stats.as_dict()))

    time_a, stats_a = outcome(5)
    time_b, stats_b = outcome(5)
    assert time_a == time_b
    assert stats_a == stats_b
    time_c, stats_c = outcome(6)
    assert (time_c, stats_c) != (time_a, stats_a)  # seed changes schedule


@pytest.mark.parametrize("spec", RELIABILITY_LADDER, ids=lambda s: s.name)
@pytest.mark.parametrize("system",
                         ["typhoon:em3d-update", "decoupled:em3d-update"])
def test_em3d_update_climbs_the_reliability_ladder(system, spec):
    """A duplicated em3d.data must not resume the thread twice."""
    app = workload("em3d", "small").build()
    outcome = run_application(system, app, MachineConfig(nodes=NODES, seed=1),
                              faults=spec)
    machine = outcome["machine"]
    if machine.transport is not None:
        assert not machine.transport.pending, "permanently lost transactions"
    ref_e, _ = app.reference_values()
    for index in range(app.e_nodes.count):
        got = app.peek(machine, app.e_nodes.addr(index, VALUE_OFFSET))
        assert math.isclose(got, ref_e[index], rel_tol=1e-9, abs_tol=1e-9)
    if spec.dup_pct:
        assert machine.stats.total(".np.duplicates_dropped") > 0


#: The code object every DeliveryGuard.wrap result shares.
GUARDED_CODE = DeliveryGuard().wrap(lambda tempest, message: None).__code__


#: Systems whose protocol is user-level, i.e. dispatched from a registry.
REGISTRY_SYSTEMS = [system for system in all_systems()
                    if parse_system(system)[1] is not None]


@pytest.mark.parametrize("system", REGISTRY_SYSTEMS)
def test_every_registered_handler_is_guarded(system):
    """Redelivery protection covers every handler of every protocol."""
    machine, _protocol = compose(system, MachineConfig(nodes=2))
    unguarded = sorted(
        f"node{node.node_id}:{name}"
        for node in machine.nodes
        for name in node.registry.names()
        if node.registry.lookup(name).fn.__code__ is not GUARDED_CODE
    )
    assert unguarded == []
