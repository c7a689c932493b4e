"""Differential test: the memory hierarchy against a list-based LRU model.

The production caches and TLBs are tuned for the timing loop (most recently
used first, a last-block shortcut, an ordered-dict TLB).  The reference
model below is the plain textbook form — one list per set, least recently
used first, a linear search per access — and hypothesis drives random
fetch/load/store streams (with the odd flush) through both, comparing every
latency and every counter after every step.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import MemoryHierarchy, MemoryHierarchyConfig
from repro.memory.main_memory import MainMemory
from repro.memory.tlb import TLBConfig
from repro.memory.write_buffer import WriteBuffer


class ReferenceCache:
    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.sets = [[] for _ in range(config.num_sets)]
        self.outstanding = {}
        self.accesses = self.hits = self.misses = self.evictions = self.mshr_stalls = 0

    def access(self, address, now):
        """``(hit, latency)``, as ``Cache.access``."""
        block = address // self.config.block_bytes
        ways = self.sets[block % self.config.num_sets]
        self.accesses += 1
        if block in ways:
            ways.remove(block)
            ways.append(block)
            self.hits += 1
            return True, self.config.hit_latency
        self.misses += 1
        extra = 0
        if block not in self.outstanding:
            for done in [b for b, cycle in self.outstanding.items() if cycle <= now]:
                del self.outstanding[done]
            if len(self.outstanding) >= self.config.primary_misses:
                self.mshr_stalls += 1
                extra = 2
        if len(ways) >= self.config.associativity:
            ways.pop(0)
            self.evictions += 1
        ways.append(block)
        return False, self.config.hit_latency + extra

    def note_outstanding(self, address, cycle):
        self.outstanding[address // self.config.block_bytes] = cycle

    def stats(self):
        return (self.accesses, self.hits, self.misses, self.evictions, self.mshr_stalls)

    def flush(self):
        self.sets = [[] for _ in range(self.config.num_sets)]
        self.outstanding.clear()


class ReferenceTLB:
    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self.pages = []
        self.accesses = self.misses = 0

    def access(self, address):
        page = address // self.config.page_bytes
        self.accesses += 1
        if page in self.pages:
            self.pages.remove(page)
            self.pages.append(page)
            return 0
        self.misses += 1
        if len(self.pages) >= self.config.entries:
            self.pages.pop(0)
        self.pages.append(page)
        return self.config.miss_penalty

    def flush(self):
        self.pages = []


class ReferenceHierarchy:
    def __init__(self, config: MemoryHierarchyConfig) -> None:
        self.l1d = ReferenceCache(config.l1d)
        self.l1i = ReferenceCache(config.l1i)
        self.l2 = ReferenceCache(config.l2)
        self.dtlb = ReferenceTLB(config.dtlb)
        self.itlb = ReferenceTLB(config.itlb)
        self.write_buffer = WriteBuffer(config.l1d_write_buffer_entries)
        self.memory = MainMemory(config.memory_latency)

    def load(self, address, now):
        latency = self.dtlb.access(address)
        hit, cycles = self.l1d.access(address, now)
        latency += cycles
        if hit:
            return latency
        hit, cycles = self.l2.access(address, now)
        latency += cycles
        if not hit:
            latency += self.memory.access(address)
            self.l2.note_outstanding(address, now + latency)
        self.l1d.note_outstanding(address, now + latency)
        return latency

    def store(self, address, now):
        latency = self.dtlb.access(address)
        self.l1d.access(address, now)
        if not self.write_buffer.try_insert(now):
            latency += self.write_buffer.drain_interval
        return latency

    def flush(self):
        for unit in (self.l1d, self.l1i, self.l2, self.dtlb, self.itlb):
            unit.flush()

    def fetch(self, address, now):
        latency = self.itlb.access(address)
        for cache in (self.l1i, self.l2):
            hit, cycles = cache.access(address, now)
            latency += cycles
            if hit:
                return latency
        return latency + self.memory.access(address)


def _tiny_config() -> MemoryHierarchyConfig:
    """Small enough that short streams evict, fill every MSHR and thrash
    the TLBs."""
    return MemoryHierarchyConfig(
        l1d=CacheConfig("L1D", 512, 2, 64, 2, primary_misses=2),
        l1i=CacheConfig("L1I", 256, 2, 32, 1, primary_misses=2),
        l2=CacheConfig("L2", 2048, 4, 128, 8, primary_misses=3),
        dtlb=TLBConfig("DTLB", entries=4, page_bytes=1024, miss_penalty=10),
        itlb=TLBConfig("ITLB", entries=3, page_bytes=512, miss_penalty=7),
        l1d_write_buffer_entries=2,
        memory_latency=40,
    )


#: A step: an access kind (or a rare ``flush`` of caches and TLBs), its
#: address and the cycles since the previous step.
_KINDS = st.sampled_from(["fetch", "load", "store"] * 6 + ["flush"])
_STEP = st.tuples(
    _KINDS,
    st.integers(0, 1 << 14),  # address: a few pages, many sets
    st.integers(0, 30),  # cycles since the previous access
)


def _statistics(reference: ReferenceHierarchy):
    """``MemoryHierarchy.statistics()``, computed from the model's counters."""
    stats = {}
    for name in ("l1d", "l1i", "l2", "dtlb", "itlb"):
        unit = getattr(reference, name)
        stats[f"{name}_miss_rate"] = unit.misses / unit.accesses if unit.accesses else 0.0
    for name in ("l1d", "l1i", "l2"):
        stats[f"{name}_accesses"] = float(getattr(reference, name).accesses)
    return stats


def _assert_same_run(config, steps):
    hierarchy = MemoryHierarchy(config)
    reference = ReferenceHierarchy(config)
    now = 0
    for kind, address, gap in steps:
        now += gap
        if kind == "flush":
            hierarchy.flush()
            reference.flush()
            continue
        got = getattr(hierarchy, f"{kind}_latency")(address, now)
        assert got == getattr(reference, kind)(address, now), (kind, address, now)
        assert hierarchy.statistics() == _statistics(reference)
        for name in ("l1d", "l1i", "l2"):
            stats = getattr(hierarchy, name).stats
            assert (
                stats.accesses,
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.mshr_stalls,
            ) == getattr(reference, name).stats(), name
        for name in ("dtlb", "itlb"):
            tlb, model = getattr(hierarchy, name), getattr(reference, name)
            assert (tlb.accesses, tlb.misses) == (model.accesses, model.misses), name


class TestAgainstReferenceModel:
    @given(steps=st.lists(_STEP, max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_tiny_hierarchy(self, steps):
        _assert_same_run(_tiny_config(), steps)

    @given(steps=st.lists(_STEP, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_table1_hierarchy(self, steps):
        _assert_same_run(MemoryHierarchyConfig(), steps)

    @given(
        steps=st.lists(
            st.tuples(
                _KINDS,
                # Few distinct blocks: mostly repeats of the last block or
                # page, the accesses that skip the LRU reorder.
                st.sampled_from([0, 8, 64, 72, 512, 1024, 4096, 4160]),
                st.integers(0, 3),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_repeat_heavy_stream(self, steps):
        _assert_same_run(_tiny_config(), steps)
