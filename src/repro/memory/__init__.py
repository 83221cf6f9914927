"""Node memory-system substrate.

Everything under this package is a *mechanism* used by both target systems:
set-associative caches and TLBs (Table 2 geometry), the fine-grain access
tags and the nine operations of Table 1, per-node page tables for
user-level virtual-memory management, and the shared-segment allocator that
implements Stache's "distributed mapping table" of page homes.
"""

from repro.memory.address import AddressLayout, AddressSpaceError
from repro.memory.allocator import GlobalHeap, SharedRegion
from repro.memory.cache import Cache, LineState
from repro.memory.data import MemoryImage
from repro.memory.page_table import PageEntry, PageTable, PageTableError
from repro.memory.tags import AccessFault, Tag, TagStore
from repro.memory.tlb import Tlb

__all__ = [
    "AccessFault",
    "AddressLayout",
    "AddressSpaceError",
    "Cache",
    "GlobalHeap",
    "LineState",
    "MemoryImage",
    "PageEntry",
    "PageTable",
    "PageTableError",
    "SharedRegion",
    "Tag",
    "TagStore",
    "Tlb",
]
