"""The full memory hierarchy wired together (Table 1 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.memory.cache import Cache, CacheConfig, MSHRFile
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


#: A walked access that missed its first-level cache: its latency without
#: MSHR stalls, its block number at that cache, and its L2 block number
#: (``None`` when the L2 hit).
Miss = Tuple[int, int, Optional[int]]


class MemoryHierarchy:
    """L1I + L1D + unified L2 + main memory, with TLBs and write buffers.

    Two ways in.  :meth:`fetch_latency`, :meth:`load_latency` and
    :meth:`store_latency` answer one access at cycle ``now`` — tags, TLBs,
    MSHRs and write buffer together.  The *walk* methods
    (:meth:`walk_fetch`, :meth:`walk_load`, :meth:`walk_store`) do only the
    part that does not depend on the cycle: they update tags, TLBs and
    statistics and describe the outcome, and a :class:`MemoryLane` replays
    the cycle-dependent rest (MSHR stalls, outstanding fills, the write
    buffer) for one timing run.  A walk followed by a lane's replay answers
    exactly what the ``*_latency`` method answers, so timing runs that make
    the same accesses in the same order can share one walk.
    """

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
    def walk_fetch(self, address: int) -> Union[int, Miss]:
        """The tag walk of :meth:`fetch_latency`: the latency when the L1I
        hits, else a :data:`Miss` for :meth:`MemoryLane.fetch_latency`."""
        latency = self.itlb.access(address) + self.l1i.config.hit_latency
        block = address // self.l1i.config.block_bytes
        if self.l1i.probe(block):
            return latency
        return self._walk_l2(address, latency, block)

    def walk_load(self, address: int) -> Union[int, Miss]:
        """The tag walk of :meth:`load_latency`: the latency when the L1D
        hits, else a :data:`Miss` for :meth:`MemoryLane.load_latency`."""
        latency = self.dtlb.access(address) + self.l1d.config.hit_latency
        block = address // self.l1d.config.block_bytes
        if self.l1d.probe(block):
            return latency
        return self._walk_l2(address, latency, block)

    def walk_store(self, address: int) -> Tuple[int, Optional[int]]:
        """The tag walk of :meth:`store_latency`: the DTLB penalty and the
        L1D block number when the L1D missed (``None`` on a hit)."""
        penalty = self.dtlb.access(address)
        block = address // self.l1d.config.block_bytes
        return penalty, None if self.l1d.probe(block) else block

    def _walk_l2(self, address: int, latency: int, block: int) -> Miss:
        latency += self.l2.config.hit_latency
        l2_block = address // self.l2.config.block_bytes
        if self.l2.probe(l2_block):
            return latency, block, None
        return latency + self.memory.access(address), block, l2_block

    # ------------------------------------------------------------------
    def statistics(self, fetch_hits: int = 0) -> Dict[str, float]:
        """Summary statistics used by the metrics reporting.

        ``fetch_hits`` adds that many L1I and ITLB hits that did not go
        through the hierarchy (a lane's re-fetches of the block it has just
        fetched, which a shared walk leaves out).
        """
        l1i_accesses = self.l1i.stats.accesses + fetch_hits
        itlb_accesses = self.itlb.accesses + fetch_hits
        return {
            "l1d_miss_rate": self.l1d.stats.miss_rate,
            "l1i_miss_rate": self.l1i.stats.misses / l1i_accesses if l1i_accesses else 0.0,
            "l2_miss_rate": self.l2.stats.miss_rate,
            "dtlb_miss_rate": self.dtlb.miss_rate,
            "itlb_miss_rate": self.itlb.misses / itlb_accesses if itlb_accesses else 0.0,
            "l1d_accesses": float(self.l1d.stats.accesses),
            "l1i_accesses": float(l1i_accesses),
            "l2_accesses": float(self.l2.stats.accesses),
        }

    def flush(self) -> None:
        for cache in (self.l1d, self.l1i, self.l2):
            cache.flush()
        self.dtlb.flush()
        self.itlb.flush()


class MemoryLane:
    """One timing run's cycle-dependent share of a walked hierarchy.

    Its own MSHR files (one per cache) and L1D write buffer, and the MSHR
    stalls it was charged.  Each method replays one walked access at cycle
    ``now`` and returns what the matching :class:`MemoryHierarchy` method
    would; it is called only for an access that missed a first-level cache
    and for a store, so a hit costs a lane nothing.
    """

    __slots__ = ("l1i", "l1d", "l2", "write_buffer", "mshr_stalls")

    def __init__(self, config: MemoryHierarchyConfig) -> None:
        self.l1i = MSHRFile(config.l1i.primary_misses)
        self.l1d = MSHRFile(config.l1d.primary_misses)
        self.l2 = MSHRFile(config.l2.primary_misses)
        self.write_buffer = WriteBuffer(config.l1d_write_buffer_entries)
        #: MSHR stalls charged, per cache: ``{"l1i": n, "l1d": n, "l2": n}``.
        self.mshr_stalls = {"l1i": 0, "l1d": 0, "l2": 0}

    def _miss(self, mshrs: MSHRFile, name: str, block: int, now: int) -> int:
        if mshrs.stalls(block, now):
            self.mshr_stalls[name] += 1
            return Cache.MSHR_STALL
        return 0

    def fetch_latency(self, miss: Miss, now: int) -> int:
        """:meth:`MemoryHierarchy.fetch_latency` of a walked fetch miss."""
        latency, block, l2_block = miss
        latency += self._miss(self.l1i, "l1i", block, now)
        if l2_block is not None:
            latency += self._miss(self.l2, "l2", l2_block, now)
        return latency

    def load_latency(self, miss: Miss, now: int) -> int:
        """:meth:`MemoryHierarchy.load_latency` of a walked load miss."""
        latency, block, l2_block = miss
        latency += self._miss(self.l1d, "l1d", block, now)
        if l2_block is not None:
            latency += self._miss(self.l2, "l2", l2_block, now)
            self.l2.outstanding[l2_block] = now + latency
        self.l1d.outstanding[block] = now + latency
        return latency

    def store_latency(self, walk: Tuple[int, Optional[int]], now: int) -> int:
        """:meth:`MemoryHierarchy.store_latency` of a walked store."""
        latency, block = walk
        if block is not None:
            # The store's miss takes the MSHR check, but its latency hides
            # in the write buffer.
            self._miss(self.l1d, "l1d", block, now)
        if not self.write_buffer.try_insert(now):
            latency += self.write_buffer.drain_interval
        return latency
