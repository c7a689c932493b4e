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
    """

    #: Extra latency of a primary miss that finds every MSHR busy.
    MSHR_STALL = 2

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._block_bytes = config.block_bytes
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        self._primary_misses = config.primary_misses
        self._hit = (True, config.hit_latency)
        self._miss = (False, config.hit_latency)
        self._stalled_miss = (False, config.hit_latency + self.MSHR_STALL)
        # sets -> blocks, most recently used first.
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        # Outstanding miss bookkeeping: block address -> completion cycle.
        self._outstanding: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def lookup(self, address: int) -> bool:
        """Check whether ``address`` currently hits, without side effects."""
        block = address // self._block_bytes
        return block in self._sets[block % self._num_sets]

    def access(self, address: int, now: int = 0) -> Tuple[bool, int]:
        """Access ``address`` at cycle ``now``; update tags and statistics.

        Returns ``(hit, latency)``.  Reads and writes behave alike: a miss
        allocates the block (write allocate) and charges
        :attr:`MSHR_STALL` extra cycles when every MSHR is busy with
        another block.
        """
        block = address // self._block_bytes
        stats = self.stats
        stats.accesses += 1
        ways = self._sets[block % self._num_sets]
        if block in ways:
            stats.hits += 1
            if ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            return self._hit

        stats.misses += 1
        result = self._miss
        # A secondary miss to an already outstanding block merges with it.
        if block not in self._outstanding:
            self._expire_outstanding(now)
            if len(self._outstanding) >= self._primary_misses:
                stats.mshr_stalls += 1
                result = self._stalled_miss
        if len(ways) >= self._associativity:
            ways.pop()
            stats.evictions += 1
        ways.insert(0, block)
        return result

    def note_outstanding(self, address: int, completion_cycle: int) -> None:
        """Record that the block containing ``address`` is being filled."""
        self._outstanding[address // self._block_bytes] = completion_cycle

    def _expire_outstanding(self, now: int) -> None:
        finished = [block for block, cycle in self._outstanding.items() if cycle <= now]
        for block in finished:
            del self._outstanding[block]

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Invalidate all contents (used between benchmark runs)."""
        self._sets = [[] for _ in range(self._num_sets)]
        self._outstanding.clear()

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"<Cache {cfg.name} {cfg.size_bytes // 1024}KB {cfg.associativity}-way "
            f"{cfg.block_bytes}B blocks, {self.stats.accesses} accesses>"
        )
