"""Set-associative cache model (tags and states only, no data array).

The CPU hardware cache of Table 2: 4-way set-associative with random
replacement and 32-byte blocks.  The model tracks which blocks are present
and in what state; the data itself lives in the per-node memory image (see
:mod:`repro.typhoon.node`), because the simulator only needs data values to
*verify* coherence, not to hit in the right level.

States model an ownership-based coherent bus (MBus-like):

* ``SHARED`` — clean, possibly other caches hold it, read hits only;
* ``EXCLUSIVE`` — owned, dirty-able, read and write hits;
* lines are simply absent when invalid.

Each set is a ``dict`` mapping a resident block address to its
:class:`LineState`; there is no per-line object.  The dict's insertion
order is the replacement FIFO order: a fill appends, an in-place state
change (an upgrade re-insert or a downgrade) keeps the line's position.
Replacement victim selection is deterministic given the machine seed
(random replacement per Table 2, drawn from a named RNG stream).
"""

from __future__ import annotations

import enum
from random import Random

from repro.sim.config import CacheConfig


class LineState(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class Cache:
    """Tag/state array for one set-associative cache."""

    def __init__(self, config: CacheConfig, rng: Random, name: str = "cache"):
        config.validate()
        self.config = config
        self.name = name
        self._rng = rng
        self._sets: list[dict[int, LineState]] = [
            {} for _ in range(config.num_sets)
        ]
        self._set_mask = config.num_sets - 1
        self._block_shift = config.block_size.bit_length() - 1
        # Counters maintained locally; the node model publishes them.
        self.hits = 0
        self.misses = 0
        self.upgrades = 0
        self.replacements = 0

    # ------------------------------------------------------------------
    def _set_index(self, block_addr: int) -> int:
        return (block_addr >> self._block_shift) & self._set_mask

    def _set_for(self, block_addr: int) -> dict[int, LineState]:
        return self._sets[self._set_index(block_addr)]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, block_addr: int) -> LineState | None:
        """Return the state of resident ``block_addr``, or None if absent."""
        # _set_for inlined: this runs once or twice per CPU reference.
        return self._sets[
            (block_addr >> self._block_shift) & self._set_mask
        ].get(block_addr)

    def access(self, block_addr: int, is_write: bool) -> bool:
        """Probe for a hit; maintains hit/miss/upgrade counters.

        Returns True on a hit that needs no coherence action.  A write to
        a SHARED line is a miss (an upgrade): the caller must obtain
        ownership through the protocol.
        """
        state = self.lookup(block_addr)
        if state is None:
            self.misses += 1
            return False
        if is_write and state is LineState.SHARED:
            self.upgrades += 1
            self.misses += 1
            return False
        self.hits += 1
        return True

    def contains(self, block_addr: int) -> bool:
        return self.lookup(block_addr) is not None

    # ------------------------------------------------------------------
    # Fill / invalidate
    # ------------------------------------------------------------------
    def insert(self, block_addr: int,
               state: LineState) -> tuple[int, LineState] | None:
        """Install a block; returns ``(block_addr, state)`` of the victim
        if one was evicted.

        If the block is already resident its state is updated in place
        (e.g. SHARED -> EXCLUSIVE on an upgrade fill), keeping its FIFO
        position, and no victim is produced.
        """
        cache_set = self._set_for(block_addr)
        if block_addr in cache_set:
            cache_set[block_addr] = state
            return None
        victim = None
        if len(cache_set) >= self.config.associativity:
            if self.config.replacement == "random":
                victim_addr = self._rng.choice(list(cache_set))
            else:  # "fifo": the oldest insertion is first in the dict
                victim_addr = next(iter(cache_set))
            victim = (victim_addr, cache_set.pop(victim_addr))
            self.replacements += 1
        cache_set[block_addr] = state
        return victim

    def invalidate(self, block_addr: int) -> LineState | None:
        """Drop a block (coherence invalidation); returns its state if present."""
        return self._set_for(block_addr).pop(block_addr, None)

    def downgrade(self, block_addr: int) -> bool:
        """EXCLUSIVE -> SHARED (remote read of an owned block)."""
        cache_set = self._set_for(block_addr)
        if block_addr not in cache_set:
            return False
        cache_set[block_addr] = LineState.SHARED
        return True

    # ------------------------------------------------------------------
    def resident_blocks(self) -> list[int]:
        """All resident block addresses (diagnostics and invariant checks)."""
        blocks: list[int] = []
        for cache_set in self._sets:
            blocks.extend(cache_set.keys())
        return blocks

    def flush(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    def __len__(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, {self.config.size_bytes}B, "
            f"{len(self)} resident)"
        )
