"""Memory hierarchy: caches, TLBs, write buffers and main memory.

Models the hierarchy of Table 1:

* L1D: 64 KB, 4-way, 64 B blocks, 2-cycle latency, non-blocking
  (12 primary misses, 4 secondary), 16 write-buffer entries;
* L1I: 32 KB, 4-way, 64 B blocks, 1-cycle latency;
* L2 unified: 1 MB, 16-way, 128 B blocks, 8-cycle latency, non-blocking
  (12 primary misses), 8 write-buffer entries;
* DTLB / ITLB: 512 entries, 10-cycle miss penalty;
* main memory: 120-cycle latency.

The hierarchy returns *latencies*; the out-of-order pipeline charges them to
loads, stores and instruction fetches.
"""

from repro.memory.cache import Cache, CacheConfig, CacheStats, MSHRFile
from repro.memory.tlb import TLB, TLBConfig
from repro.memory.write_buffer import WriteBuffer
from repro.memory.main_memory import MainMemory
from repro.memory.hierarchy import MemoryHierarchy, MemoryHierarchyConfig, MemoryLane

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "MSHRFile",
    "TLB",
    "TLBConfig",
    "WriteBuffer",
    "MainMemory",
    "MemoryHierarchy",
    "MemoryHierarchyConfig",
    "MemoryLane",
]
