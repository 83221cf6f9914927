"""Property tests for the NP dispatch machinery under message storms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoupled.system import DecoupledMachine
from repro.network.message import VirtualNetwork
from repro.sim.config import MachineConfig, TyphoonCosts
from repro.typhoon.system import TyphoonMachine

# A storm: (source node, vnet, burst length) triples.
STORMS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from([VirtualNetwork.REQUEST, VirtualNetwork.RESPONSE]),
        st.integers(1, 5),
    ),
    min_size=1,
    max_size=25,
)


def build(depth=4, machine_cls=TyphoonMachine):
    machine = machine_cls(MachineConfig(
        nodes=4, seed=3, typhoon=TyphoonCosts(send_queue_depth=depth)))
    log = []
    machine.tempests[3].register_handler(
        "sink",
        lambda t, m: log.append((m.src, int(m.vnet), m.payload["seq"])),
        instructions=7,
    )
    return machine, log


@given(storm=STORMS, depth=st.sampled_from([1, 4, 64]))
@settings(max_examples=40, deadline=None)
def test_property_every_message_is_handled_exactly_once(storm, depth):
    machine, log = build(depth)
    sent = 0
    for src, vnet, burst in storm:
        for _ in range(burst):
            machine.tempests[src].send(3, "sink", vnet=vnet, seq=sent)
            sent += 1
    machine.engine.run()
    assert len(log) == sent
    assert sorted(entry[2] for entry in log) == list(range(sent))


@given(storm=STORMS)
@settings(max_examples=40, deadline=None)
def test_property_per_channel_fifo_survives_storms(storm):
    machine, log = build(depth=2)
    counters = {}
    for src, vnet, burst in storm:
        for _ in range(burst):
            key = (src, int(vnet))
            counters[key] = counters.get(key, 0) + 1
            machine.tempests[src].send(
                3, "sink", vnet=vnet, seq=counters[key])
    machine.engine.run()
    # Within each (source, vnet) channel, handling order is send order.
    per_channel = {}
    for src, vnet, seq in log:
        per_channel.setdefault((src, vnet), []).append(seq)
    for sequence in per_channel.values():
        assert sequence == sorted(sequence)


@pytest.mark.parametrize("machine_cls", [TyphoonMachine, DecoupledMachine],
                         ids=["typhoon", "decoupled"])
def test_response_work_always_dispatches_before_queued_requests(machine_cls):
    machine, log = build(depth=64, machine_cls=machine_cls)
    # Saturate with requests, then one response mid-stream: every time the
    # dispatch loop picks new work, a waiting response must win.
    for seq in range(10):
        machine.tempests[0].send(3, "sink", vnet=VirtualNetwork.REQUEST,
                                 seq=seq)
    machine.engine.schedule(
        30, lambda: machine.tempests[1].send(
            3, "sink", vnet=VirtualNetwork.RESPONSE, seq=99))
    machine.engine.run()
    # The response was handled before at least the tail of the requests.
    position = [i for i, e in enumerate(log) if e[2] == 99][0]
    assert position < len(log) - 1
