"""A shared walk plus one lane's replay answers what the hierarchy answers.

The timing loop no longer calls :class:`MemoryHierarchy` per access: a
walker hierarchy makes each access's tag, TLB and LRU changes once
(``walk_fetch`` / ``walk_load`` / ``walk_store``), and every lane replays
only the cycle-dependent rest — MSHR stalls, outstanding fills and the
write buffer — through its own :class:`MemoryLane`.  Hypothesis drives
random access streams at random cycles, many of them under MSHR pressure,
through both and compares every latency, the statistics and the stall
counts after every step.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.hierarchy import MemoryHierarchy, MemoryHierarchyConfig, MemoryLane

from tests.conftest import build_tiny_memory_config as tiny_config


def _replay(walker: MemoryHierarchy, lane: MemoryLane, kind: str, address: int, now: int) -> int:
    """One access through the walk and the lane, as the timing loop does."""
    if kind == "store":
        return lane.store_latency(walker.walk_store(address), now)
    outcome = getattr(walker, f"walk_{kind}")(address)
    if isinstance(outcome, int):
        return outcome
    return getattr(lane, f"{kind}_latency")(outcome, now)


_STEP = st.tuples(
    st.sampled_from(["fetch", "load", "store"]),
    st.integers(0, 1 << 14),  # address: a few pages, many sets
    st.integers(-20, 30),  # cycle step: the loops' cycles are not monotonic
)


def _assert_same_run(config, steps):
    hierarchy = MemoryHierarchy(config)
    walker = MemoryHierarchy(config)
    lane = MemoryLane(config)
    now = 0
    for kind, address, step in steps:
        now = max(0, now + step)
        expected = getattr(hierarchy, f"{kind}_latency")(address, now)
        assert _replay(walker, lane, kind, address, now) == expected, (kind, address, now)
        assert walker.statistics() == hierarchy.statistics()
        for name in ("l1i", "l1d", "l2"):
            cache = getattr(hierarchy, name)
            assert lane.mshr_stalls[name] == cache.stats.mshr_stalls, name
            assert getattr(lane, name).outstanding == cache.mshrs.outstanding, name
    return hierarchy


class TestWalkPlusReplay:
    @given(steps=st.lists(_STEP, max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_tiny_hierarchy(self, steps):
        _assert_same_run(tiny_config(), steps)

    @given(steps=st.lists(_STEP, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_table1_hierarchy(self, steps):
        _assert_same_run(MemoryHierarchyConfig(), steps)

    def test_the_property_reaches_mshr_stalls(self):
        """A miss-heavy stream stalls every MSHR file the replay models."""
        steps = [
            (kind, 1024 * k + 64 * (k % 7), 1)
            for k in range(60)
            for kind in ("load", "fetch")
        ]
        hierarchy = _assert_same_run(tiny_config(), steps)
        assert hierarchy.l1d.stats.mshr_stalls > 0
        assert hierarchy.l2.stats.mshr_stalls > 0

    def test_refetch_hits_count_in_the_statistics(self):
        walker = MemoryHierarchy(tiny_config())
        walker.walk_fetch(0x400)
        stats = walker.statistics(fetch_hits=3)
        assert stats["l1i_accesses"] == 4.0
        assert stats["l1i_miss_rate"] == 0.25
        assert stats["itlb_miss_rate"] == 0.25
