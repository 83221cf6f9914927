"""A finished machine is freed by reference counting alone.

The machine owns a tree (see :mod:`repro.machine`): every edge pointing
back up it, or closing a loop between peers, is weak.  So build -> run
-> ``del`` frees the machine and every node with the cyclic collector
disabled, and leaves no cyclic garbage behind.  When that breaks, the
failure message names the reference path that closes the cycle.
"""

from __future__ import annotations

import gc
import types
import weakref
from contextlib import contextmanager

import pytest

from repro.apps.base import run_app
from repro.backends import all_systems, compose
from repro.harness.trace import ProtocolTrace
from repro.harness.workloads import workload
from repro.network.faults import RELIABILITY_LADDER
from repro.sim.config import MachineConfig

LOSSY5 = next(spec for spec in RELIABILITY_LADDER if spec.name == "lossy5")


def _edge(src, dst) -> str:
    """How ``src`` refers to ``dst``, for the cycle report."""
    if isinstance(src, dict):
        for key, value in src.items():
            if value is dst:
                return f"[{key!r}]"
    elif isinstance(src, (list, tuple)):
        for index, value in enumerate(src):
            if value is dst:
                return f"[{index}]"
    elif isinstance(src, types.MethodType):
        return ".__self__" if src.__self__ is dst else ".__func__"
    attrs = dict(getattr(src, "__dict__", {}))
    for slot in getattr(type(src), "__slots__", ()):
        attrs.setdefault(slot, getattr(src, slot, None))
    for name, value in attrs.items():
        if value is dst:
            return f".{name}"
    return " ->"


#: Never part of a machine's cycle: classes, modules, and weak proxies
#: (which hold nothing, and raise on inspection once dead).
_SKIPPED = (type, types.ModuleType, *weakref.ProxyTypes)


def cycle_path(root) -> str | None:
    """The shortest chain of strong references from ``root`` back to it."""
    parent = {id(root): None}
    frontier = [root]
    while frontier:
        following = []
        for obj in frontier:
            for ref in gc.get_referents(obj):
                if ref is root:
                    chain = [ref, obj]
                    step = parent[id(obj)]
                    while step is not None:
                        chain.append(step)
                        step = parent[id(step)]
                    chain.reverse()
                    hops = "".join(
                        f"{_edge(a, b)} {type(b).__name__}"
                        for a, b in zip(chain, chain[1:])
                    )
                    return type(root).__name__ + hops
                if (id(ref) in parent or not gc.is_tracked(ref)
                        or issubclass(type(ref), _SKIPPED)):
                    continue
                parent[id(ref)] = obj
                following.append(ref)
        frontier = following
    return None


@contextmanager
def collector_disabled():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_and_drop(system: str, prepare=None, app: str = "em3d"):
    """Build, run ``app``/small, drop every reference; return what survived.

    ``prepare(machine)`` attaches extras before the run; whatever it
    returns is kept alive past the machine (as a caller would keep a
    trace).  Returns ``(machine_ref, node_refs, kept)``.
    """
    machine, protocol = compose(system, MachineConfig(nodes=4, seed=42))
    kept = prepare(machine) if prepare is not None else None
    run_app(machine, workload(app, "small").build(), protocol)
    machine_ref = weakref.ref(machine)
    node_refs = [weakref.ref(node) for node in machine.nodes]
    del machine, protocol
    return machine_ref, node_refs, kept


def assert_freed(machine_ref, node_refs) -> None:
    survivors = [("machine", machine_ref())] + [
        (f"node {index}", node_ref()) for index, node_ref in enumerate(node_refs)
    ]
    for name, obj in survivors:
        if obj is not None:
            pytest.fail(f"{name} outlived its last reference: "
                        + (cycle_path(obj) or "held from outside, no cycle"))


def assert_no_cyclic_garbage() -> None:
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        garbage = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(flags)
    if found:
        paths = (cycle_path(obj) for obj in garbage
                 if not issubclass(type(obj), _SKIPPED)
                 and (hasattr(obj, "__dict__")
                      or hasattr(type(obj), "__slots__")))
        example = next((path for path in paths if path), "")
        pytest.fail(f"{found} objects left as cyclic garbage; {example}")


@pytest.mark.parametrize("system", all_systems())
def test_finished_machine_is_freed_by_reference_counting(system):
    with collector_disabled():
        machine_ref, node_refs, _ = run_and_drop(system)
        assert_freed(machine_ref, node_refs)
        assert_no_cyclic_garbage()


@pytest.mark.parametrize("system", ["dirnnb", "typhoon:stache"])
@pytest.mark.parametrize("app", ["appbt", "barnes", "mp3d", "ocean"])
def test_every_application_run_is_freed(system, app):
    with collector_disabled():
        machine_ref, node_refs, _ = run_and_drop(system, app=app)
        assert_freed(machine_ref, node_refs)
        assert_no_cyclic_garbage()


@pytest.mark.parametrize("system", ["dirnnb", "typhoon:stache",
                                    "decoupled:em3d-update",
                                    "blizzard:ivy"])
@pytest.mark.parametrize("attachment", ["conformance", "lossy5", "trace"])
def test_attachments_do_not_keep_the_machine_alive(system, attachment):
    prepare = {
        "conformance": lambda machine: machine.enable_conformance(),
        "lossy5": lambda machine: machine.install_fault_plan(LOSSY5),
        "trace": ProtocolTrace,
    }[attachment]
    with collector_disabled():
        machine_ref, node_refs, kept = run_and_drop(system, prepare)
        assert_freed(machine_ref, node_refs)
        if attachment == "trace":
            assert len(kept) > 0  # the record outlives the machine
        del kept  # and leaves nothing cyclic behind once dropped
        assert_no_cyclic_garbage()


def test_components_are_invalid_once_their_machine_is_freed():
    machine, _protocol = compose("typhoon:stache", MachineConfig(nodes=2))
    node = machine.nodes[0]
    tempest = node.tempest
    del machine, _protocol
    with pytest.raises(ReferenceError):
        node.machine.num_nodes
    del node
    with pytest.raises(ReferenceError):
        tempest.send(1, "stache.get_ro", addr=0)
