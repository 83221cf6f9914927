"""Tests for directory entry encodings, especially the LimitLESS-style
software entry's representation transitions (Section 3)."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.directory import (
    BITVECTOR_LIMIT,
    POINTER_SLOTS,
    DirectoryState,
    HardwareDirectoryEntry,
    SoftwareDirectoryEntry,
)


class TestDirectoryState:
    def test_transient_states(self):
        assert DirectoryState.PENDING_WRITEBACK.is_transient
        assert DirectoryState.PENDING_INVALIDATE.is_transient
        assert not DirectoryState.HOME.is_transient
        assert not DirectoryState.SHARED.is_transient
        assert not DirectoryState.EXCLUSIVE.is_transient


class TestHardwareEntry:
    def test_initial_state(self):
        entry = HardwareDirectoryEntry()
        assert entry.state is DirectoryState.HOME
        assert entry.owner is None
        assert entry.sharers == set()
        assert not entry.pending


class TestSoftwareEntryPointers:
    def test_starts_in_pointer_representation(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        assert entry.representation == "pointers"
        assert entry.sharers() == set()

    def test_six_pointers_fit(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        for node in range(POINTER_SLOTS):
            entry.add_sharer(node)
        assert entry.representation == "pointers"
        assert entry.sharer_count == 6

    def test_duplicate_add_does_not_consume_a_slot(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        for _ in range(10):
            entry.add_sharer(3)
        assert entry.representation == "pointers"
        assert entry.sharer_count == 1

    def test_seventh_sharer_overflows_to_bitvector(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        for node in range(POINTER_SLOTS + 1):
            entry.add_sharer(node)
        assert entry.representation == "bitvector"
        assert entry.sharers() == set(range(7))

    def test_remove_sharer_in_each_representation(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        entry.add_sharer(1)
        entry.remove_sharer(1)
        assert entry.sharers() == set()
        for node in range(8):
            entry.add_sharer(node)
        entry.remove_sharer(3)
        assert 3 not in entry.sharers()
        assert entry.sharer_count == 7

    def test_clear_falls_back_to_pointers(self):
        entry = SoftwareDirectoryEntry(nodes=32)
        for node in range(10):
            entry.add_sharer(node)
        entry.clear_sharers()
        assert entry.representation == "pointers"
        assert entry.sharers() == set()


class TestSoftwareEntryLargeMachines:
    def test_overflow_beyond_32_nodes_uses_auxiliary_structure(self):
        entry = SoftwareDirectoryEntry(nodes=64)
        for node in range(POINTER_SLOTS + 1):
            entry.add_sharer(node)
        assert entry.representation == "auxiliary"
        assert entry.sharers() == set(range(7))

    def test_auxiliary_supports_high_node_ids(self):
        entry = SoftwareDirectoryEntry(nodes=64)
        for node in range(50, 60):
            entry.add_sharer(node)
        assert entry.sharers() == set(range(50, 60))

    def test_bitvector_limit_is_32(self):
        assert BITVECTOR_LIMIT == 32

    def test_out_of_range_sharer_rejected(self):
        entry = SoftwareDirectoryEntry(nodes=8)
        with pytest.raises(ValueError):
            entry.add_sharer(8)


@given(
    nodes=st.sampled_from([4, 32, 64]),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=63)),
        max_size=100,
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_software_entry_tracks_exact_set(nodes, ops):
    """Whatever the representation, the sharer set is exactly right."""
    entry = SoftwareDirectoryEntry(nodes=nodes)
    reference = set()
    for add, node in ops:
        node = node % nodes
        if add:
            entry.add_sharer(node)
            reference.add(node)
        else:
            entry.remove_sharer(node)
            reference.discard(node)
    assert entry.sharers() == reference
    assert entry.sharer_count == len(reference)


def test_software_entry_host_footprint():
    """Stache allocates one entry per home block: keep each one small.

    The paper's entry is 64 bits; the host object cannot match that, but
    it must not carry a per-block queue object (an empty deque alone was
    ~700 bytes).
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entries = [SoftwareDirectoryEntry(32) for _ in range(1000)]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(entries) == 1000
    assert grown / 1000 < 400
