"""The full memory hierarchy wired together (Table 1 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.memory.cache import Cache, CacheConfig
from repro.memory.main_memory import MainMemory
from repro.memory.tlb import TLB, TLBConfig
from repro.memory.write_buffer import WriteBuffer


@dataclass
class MemoryHierarchyConfig:
    """Configuration of all levels; defaults reproduce Table 1."""

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1D",
            size_bytes=64 * 1024,
            associativity=4,
            block_bytes=64,
            hit_latency=2,
            primary_misses=12,
            secondary_misses=4,
        )
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1I",
            size_bytes=32 * 1024,
            associativity=4,
            block_bytes=64,
            hit_latency=1,
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2",
            size_bytes=1024 * 1024,
            associativity=16,
            block_bytes=128,
            hit_latency=8,
            primary_misses=12,
        )
    )
    dtlb: TLBConfig = field(default_factory=lambda: TLBConfig(name="DTLB"))
    itlb: TLBConfig = field(default_factory=lambda: TLBConfig(name="ITLB"))
    l1d_write_buffer_entries: int = 16
    l2_write_buffer_entries: int = 8
    memory_latency: int = 120


class MemoryHierarchy:
    """L1I + L1D + unified L2 + main memory, with TLBs and write buffers."""

    def __init__(self, config: Optional[MemoryHierarchyConfig] = None) -> None:
        self.config = config or MemoryHierarchyConfig()
        cfg = self.config
        self.l1d = Cache(cfg.l1d)
        self.l1i = Cache(cfg.l1i)
        self.l2 = Cache(cfg.l2)
        self.dtlb = TLB(cfg.dtlb)
        self.itlb = TLB(cfg.itlb)
        self.l1d_write_buffer = WriteBuffer(cfg.l1d_write_buffer_entries)
        self.l2_write_buffer = WriteBuffer(cfg.l2_write_buffer_entries)
        self.memory = MainMemory(cfg.memory_latency)

    # ------------------------------------------------------------------
    def load_latency(self, address: int, now: int = 0) -> int:
        """Latency of a data load at ``address`` issued at cycle ``now``."""
        latency = self.dtlb.access(address)
        hit, l1 = self.l1d.access(address, now)
        latency += l1
        if hit:
            return latency
        hit, l2 = self.l2.access(address, now)
        latency += l2
        if hit:
            self.l1d.note_outstanding(address, now + latency)
            return latency
        latency += self.memory.access(address)
        self.l1d.note_outstanding(address, now + latency)
        self.l2.note_outstanding(address, now + latency)
        return latency

    def store_latency(self, address: int, now: int = 0) -> int:
        """Latency/stall charged to a store retiring at cycle ``now``."""
        latency = self.dtlb.access(address)
        # Stores allocate in L1D (a write access is a read access to the
        # tag model) and sit in the write buffer; a full buffer stalls
        # retirement for one drain interval.
        self.l1d.access(address, now)
        if not self.l1d_write_buffer.try_insert(now):
            latency += self.l1d_write_buffer.drain_interval
        return latency

    def fetch_latency(self, address: int, now: int = 0) -> int:
        """Latency of an instruction fetch from ``address``."""
        latency = self.itlb.access(address)
        hit, l1 = self.l1i.access(address, now)
        latency += l1
        if hit:
            return latency
        hit, l2 = self.l2.access(address, now)
        latency += l2
        if hit:
            return latency
        latency += self.memory.access(address)
        return latency

    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, float]:
        """Summary statistics used by the metrics reporting."""
        return {
            "l1d_miss_rate": self.l1d.stats.miss_rate,
            "l1i_miss_rate": self.l1i.stats.miss_rate,
            "l2_miss_rate": self.l2.stats.miss_rate,
            "dtlb_miss_rate": self.dtlb.miss_rate,
            "itlb_miss_rate": self.itlb.miss_rate,
            "l1d_accesses": float(self.l1d.stats.accesses),
            "l1i_accesses": float(self.l1i.stats.accesses),
            "l2_accesses": float(self.l2.stats.accesses),
        }

    def flush(self) -> None:
        for cache in (self.l1d, self.l1i, self.l2):
            cache.flush()
        self.dtlb.flush()
        self.itlb.flush()
