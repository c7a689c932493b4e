"""Load/store unit: the two 64-entry queues, forwarding and cache access."""

from __future__ import annotations

from typing import Optional

from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import PipelineConfig
from repro.pipeline.resources import SlidingWindowResource, StoreForwardingTable


class LoadStoreUnit:
    """Models the memory-side constraints of the pipeline.

    * load-queue and store-queue occupancy (entries held from rename until
      commit);
    * store-to-load forwarding through the store queue;
    * data-cache / DTLB latency for loads that are not forwarded;
    * store write-buffer pressure at commit.

    A forwarded load still probes the DTLB and cache tags, as the 21264
    reads its data cache beside the store queue: it takes its latency from
    the forward and no MSHR, but every executed load makes the same tag
    accesses whatever its timing (see
    :class:`~repro.pipeline.core.MemoryWalker`).
    """

    def __init__(self, config: PipelineConfig, memory: Optional[MemoryHierarchy]) -> None:
        self.config = config
        self.memory = memory
        self.load_queue = SlidingWindowResource("load-queue", config.load_queue_entries)
        self.store_queue = SlidingWindowResource("store-queue", config.store_queue_entries)
        self.forwarding = StoreForwardingTable(config.store_forward_window)
        self.loads = 0
        self.stores = 0
        self.forwarded_loads = 0

    # ------------------------------------------------------------------
    def queue_constraint(self, is_store: bool, desired_cycle: int) -> int:
        """Earliest cycle a load/store can be renamed given queue occupancy."""
        queue = self.store_queue if is_store else self.load_queue
        return queue.earliest_allocation(desired_cycle)

    def record_allocation(self, is_store: bool, commit_cycle: int) -> None:
        queue = self.store_queue if is_store else self.load_queue
        queue.allocate(commit_cycle)

    # ------------------------------------------------------------------
    def load_complete_cycle(self, address: Optional[int], issue_cycle: int) -> int:
        """Completion cycle of a load issued at ``issue_cycle``."""
        self.loads += 1
        if address is None:
            # Nullified load (false qualifying predicate) — no memory access.
            return issue_cycle + 1
        forward_cycle = self.forwarding.forwarding_cycle(address, issue_cycle)
        if forward_cycle is not None:
            self.forwarded_loads += 1
            if self.memory is not None:
                self.memory.walk_load(address)
            data_ready = max(issue_cycle, forward_cycle)
            return data_ready + self.config.store_forward_latency
        if self.memory is None:
            return issue_cycle + 2
        return issue_cycle + self.memory.load_latency(address, issue_cycle)

    def store_execute(self, address: Optional[int], data_ready_cycle: int) -> None:
        """Record a store's data for later forwarding."""
        self.stores += 1
        if address is not None:
            self.forwarding.record_store(address, data_ready_cycle)

    def store_commit_penalty(self, address: Optional[int], commit_cycle: int) -> int:
        """Extra commit latency charged to a store (write buffer / DTLB)."""
        if address is None or self.memory is None:
            return 0
        return self.memory.store_latency(address, commit_cycle)
