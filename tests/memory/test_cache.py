"""Tests for the set-associative cache model."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache, LineState
from repro.sim.config import CacheConfig


def make_cache(size=4096, assoc=4, replacement="random", seed=1):
    return Cache(
        CacheConfig(size_bytes=size, associativity=assoc, replacement=replacement),
        random.Random(seed),
    )


def test_cold_access_misses():
    cache = make_cache()
    assert cache.access(0, is_write=False) is False
    assert cache.misses == 1


def test_hit_after_insert():
    cache = make_cache()
    cache.insert(0, LineState.SHARED)
    assert cache.access(0, is_write=False) is True
    assert cache.hits == 1


def test_write_to_shared_line_is_upgrade_miss():
    cache = make_cache()
    cache.insert(64, LineState.SHARED)
    assert cache.access(64, is_write=True) is False
    assert cache.upgrades == 1
    assert cache.misses == 1


def test_write_to_exclusive_line_hits():
    cache = make_cache()
    cache.insert(64, LineState.EXCLUSIVE)
    assert cache.access(64, is_write=True) is True


def test_read_hits_in_both_states():
    cache = make_cache()
    cache.insert(0, LineState.SHARED)
    cache.insert(32, LineState.EXCLUSIVE)
    assert cache.access(0, is_write=False)
    assert cache.access(32, is_write=False)


def test_insert_existing_block_updates_state_without_eviction():
    cache = make_cache()
    cache.insert(0, LineState.SHARED)
    victim = cache.insert(0, LineState.EXCLUSIVE)
    assert victim is None
    assert cache.lookup(0) is LineState.EXCLUSIVE
    assert len(cache) == 1


def test_eviction_when_set_is_full():
    # 4 KB, 4-way, 32 B blocks -> 32 sets.  Blocks that differ only in
    # bits above the set index map to the same set.
    cache = make_cache()
    set_stride = 32 * 32  # block_size * num_sets
    conflicting = [i * set_stride for i in range(5)]
    victims = [cache.insert(addr, LineState.SHARED) for addr in conflicting]
    assert victims[:4] == [None] * 4
    assert victims[4] is not None
    assert len(cache) == 4
    assert cache.replacements == 1


def test_random_replacement_is_deterministic_per_seed():
    def run(seed):
        cache = make_cache(seed=seed)
        set_stride = 32 * 32
        victims = []
        for i in range(10):
            victim = cache.insert(i * set_stride, LineState.SHARED)
            if victim:
                victims.append(victim[0])
        return victims

    assert run(seed=7) == run(seed=7)
    # Pinned: the victim sequence for seed 7 as drawn by the earlier
    # per-line-object cache.  Any change to victim choice moves it.
    assert run(seed=7) == [2048, 1024, 5120, 0, 3072, 4096]


def test_random_victims_with_in_place_updates_are_pinned():
    """Upgrades and downgrades keep a line's place in the random draw."""
    cache = make_cache(seed=7)
    set_stride = 32 * 32
    victims = []
    for i in range(12):
        state = LineState.EXCLUSIVE if i % 3 == 0 else LineState.SHARED
        victim = cache.insert(i * set_stride, state)
        if victim:
            victims.append((victim[0], victim[1].name))
        if i % 4 == 1:
            cache.insert(min(cache.resident_blocks()), LineState.EXCLUSIVE)
        if i % 5 == 2:
            cache.downgrade(max(cache.resident_blocks()))
        if i == 7:
            cache.invalidate(sorted(cache.resident_blocks())[1])
    assert victims == [
        (2048, "SHARED"), (1024, "SHARED"), (5120, "SHARED"),
        (0, "EXCLUSIVE"), (3072, "EXCLUSIVE"), (6144, "EXCLUSIVE"),
        (9216, "EXCLUSIVE"),
    ]


def test_fifo_replacement_evicts_oldest():
    cache = make_cache(replacement="fifo")
    set_stride = 32 * 32
    for i in range(4):
        cache.insert(i * set_stride, LineState.SHARED)
    victim = cache.insert(4 * set_stride, LineState.SHARED)
    assert victim == (0, LineState.SHARED)


def test_fifo_upgrade_reinsert_keeps_position():
    cache = make_cache(replacement="fifo")
    set_stride = 32 * 32
    for i in range(4):
        cache.insert(i * set_stride, LineState.SHARED)
    # SHARED -> EXCLUSIVE upgrade fill of the oldest line: still oldest.
    assert cache.insert(0, LineState.EXCLUSIVE) is None
    assert cache.insert(4 * set_stride, LineState.SHARED) == (
        0, LineState.EXCLUSIVE
    )
    assert cache.insert(5 * set_stride, LineState.SHARED) == (
        set_stride, LineState.SHARED
    )


def test_invalidate_removes_line():
    cache = make_cache()
    cache.insert(0, LineState.EXCLUSIVE)
    assert cache.invalidate(0) is LineState.EXCLUSIVE
    assert not cache.contains(0)


def test_invalidate_absent_block_returns_none():
    assert make_cache().invalidate(0) is None


def test_downgrade():
    cache = make_cache()
    cache.insert(0, LineState.EXCLUSIVE)
    assert cache.downgrade(0) is True
    assert cache.lookup(0) is LineState.SHARED
    assert cache.downgrade(999 * 32) is False


def test_flush_empties_cache():
    cache = make_cache()
    for i in range(8):
        cache.insert(i * 32, LineState.SHARED)
    cache.flush()
    assert len(cache) == 0


def test_resident_blocks_lists_all():
    cache = make_cache()
    addrs = {0, 32, 4096}
    for addr in addrs:
        cache.insert(addr, LineState.SHARED)
    assert set(cache.resident_blocks()) == addrs


def test_different_sets_do_not_conflict():
    cache = make_cache()
    for i in range(32):  # one block per set
        assert cache.insert(i * 32, LineState.SHARED) is None
    assert len(cache) == 32


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_property_occupancy_never_exceeds_capacity(block_indices):
    """Invariant: resident blocks <= capacity, per-set occupancy <= assoc."""
    cache = make_cache(size=1024, assoc=2)  # 16 sets of 2
    for index in block_indices:
        cache.insert(index * 32, LineState.SHARED)
    assert len(cache) <= cache.config.num_blocks
    for cache_set in cache._sets:
        assert len(cache_set) <= cache.config.associativity


@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_hits_plus_misses_equals_accesses(ops):
    cache = make_cache(size=1024, assoc=2)
    for index, is_write in ops:
        hit = cache.access(index * 32, is_write)
        if not hit:
            cache.insert(index * 32,
                         LineState.EXCLUSIVE if is_write else LineState.SHARED)
    assert cache.hits + cache.misses == len(ops)


def test_resident_line_host_footprint():
    """Host bytes per resident line stay near a dict slot, not an object."""
    cache = make_cache(size=4096 * 32, assoc=4)  # 1024 sets, 4096 lines
    # The block addresses are the caller's; count only the cache's growth.
    blocks = [i * 32 for i in range(4096)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for block in blocks:
            cache.insert(block, LineState.SHARED)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cache) == 4096
    assert grown / 4096 < 64
