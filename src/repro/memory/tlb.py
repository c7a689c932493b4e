"""Translation lookaside buffers (512 entries, 10-cycle miss penalty)."""

from __future__ import annotations

from dataclasses import dataclass
from collections import OrderedDict
from typing import Optional


@dataclass(frozen=True)
class TLBConfig:
    name: str
    entries: int = 512
    page_bytes: int = 8192
    miss_penalty: int = 10


class TLB:
    """A fully-associative TLB with LRU replacement.

    Like :meth:`Cache.access <repro.memory.cache.Cache.access>`, a hit in
    :meth:`access` allocates nothing: the pages live in an ordered dict
    (least recently used first, so a hit is one ``move_to_end``, not a
    search of a 512-entry list), and a repeat of the last page translated
    skips even that.  On the instruction side nearly every access is such
    a repeat; a cache has no such shortcut, because its last block repeats
    far less often and a hit on the most recently used way is already
    cheap.
    """

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self._page_bytes = config.page_bytes
        self._entries = config.entries
        self._miss_penalty = config.miss_penalty
        self._pages: "OrderedDict[int, None]" = OrderedDict()
        self._last_page: Optional[int] = None
        self.accesses = 0
        self.misses = 0

    def access(self, address: int) -> int:
        """Translate ``address``; return the latency penalty (0 on a hit)."""
        page = address // self._page_bytes
        self.accesses += 1
        if page == self._last_page:
            return 0
        self._last_page = page
        pages = self._pages
        if page in pages:
            pages.move_to_end(page)
            return 0
        self.misses += 1
        if len(pages) >= self._entries:
            pages.popitem(last=False)
        pages[page] = None
        return self._miss_penalty

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def flush(self) -> None:
        self._pages = OrderedDict()
        self._last_page = None
