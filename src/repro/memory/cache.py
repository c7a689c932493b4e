"""Set-associative cache with LRU replacement and a simple MSHR model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    block_bytes: int
    hit_latency: int
    primary_misses: int = 12
    secondary_misses: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.block_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"associativity*block ({self.associativity}*{self.block_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.block_bytes)


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    mshr_stalls: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class MSHRFile:
    """The miss-status holding registers of one cache: its outstanding fills.

    ``outstanding`` maps each block being filled to the cycle its fill
    completes.  :meth:`stalls` is the one MSHR rule, shared by
    :meth:`Cache.access` and by the per-lane replay of a shared walk
    (:class:`~repro.memory.hierarchy.MemoryLane`).
    """

    __slots__ = ("primary_misses", "outstanding")

    def __init__(self, primary_misses: int) -> None:
        self.primary_misses = primary_misses
        self.outstanding: Dict[int, int] = {}

    def stalls(self, block: int, now: int) -> bool:
        """Whether a miss to ``block`` at cycle ``now`` finds every MSHR busy.

        A secondary miss (``block`` already being filled) merges with its
        fill and never stalls; a primary miss first frees the MSHRs whose
        fills completed by ``now``.
        """
        outstanding = self.outstanding
        if block in outstanding:
            return False
        for done in [b for b, cycle in outstanding.items() if cycle <= now]:
            del outstanding[done]
        return len(outstanding) >= self.primary_misses


class Cache:
    """A set-associative, write-allocate, LRU cache.

    The model tracks tag state exactly (so hit/miss sequences are realistic
    for the strided and pointer-chasing workloads) but approximates the MSHR
    behaviour: at most ``primary_misses`` distinct outstanding blocks are
    tracked per *cycle window*; additional misses in the same window are
    charged a small extra stall.  This is sufficient for the accuracy and
    relative-IPC experiments, which are not memory-bound.

    :meth:`access` runs once per fetch, load and store of the timing loop,
    and builds no result object: the geometry is read into plain ints at
    construction, the ``(hit, latency)`` answers are three tuples built
    once, and each set keeps its blocks most recently used first, so a hit
    on that way skips the LRU reorder.  A hit allocates nothing.
    :meth:`probe` is its tag half alone, the part that does not depend on
    the cycle.
    """

    #: Extra latency of a primary miss that finds every MSHR busy.
    MSHR_STALL = 2

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._block_bytes = config.block_bytes
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        self._hit = (True, config.hit_latency)
        self._miss = (False, config.hit_latency)
        self._stalled_miss = (False, config.hit_latency + self.MSHR_STALL)
        # sets -> blocks, most recently used first.
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        self.mshrs = MSHRFile(config.primary_misses)

    # ------------------------------------------------------------------
    def lookup(self, address: int) -> bool:
        """Check whether ``address`` currently hits, without side effects."""
        block = address // self._block_bytes
        return block in self._sets[block % self._num_sets]

    def probe(self, block: int) -> bool:
        """Look up block number ``block``: update the tags and the hit, miss
        and eviction counts, allocating the block on a miss.

        The tag half of :meth:`access`, with no MSHR check: what a fetch,
        load or store does to this cache whatever its cycle.
        """
        stats = self.stats
        stats.accesses += 1
        ways = self._sets[block % self._num_sets]
        if block in ways:
            stats.hits += 1
            if ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            return True
        stats.misses += 1
        if len(ways) >= self._associativity:
            ways.pop()
            stats.evictions += 1
        ways.insert(0, block)
        return False

    def access(self, address: int, now: int = 0) -> Tuple[bool, int]:
        """Access ``address`` at cycle ``now``; update tags and statistics.

        Returns ``(hit, latency)``.  Reads and writes behave alike: a miss
        allocates the block (write allocate) and charges
        :attr:`MSHR_STALL` extra cycles when every MSHR is busy with
        another block.
        """
        block = address // self._block_bytes
        if self.probe(block):
            return self._hit
        if self.mshrs.stalls(block, now):
            self.stats.mshr_stalls += 1
            return self._stalled_miss
        return self._miss

    def note_outstanding(self, address: int, completion_cycle: int) -> None:
        """Record that the block containing ``address`` is being filled."""
        self.mshrs.outstanding[address // self._block_bytes] = completion_cycle

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Invalidate all contents (used between benchmark runs)."""
        self._sets = [[] for _ in range(self._num_sets)]
        self.mshrs.outstanding.clear()

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"<Cache {cfg.name} {cfg.size_bytes // 1024}KB {cfg.associativity}-way "
            f"{cfg.block_bytes}B blocks, {self.stats.accesses} accesses>"
        )
