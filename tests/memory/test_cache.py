"""Tests for the set-associative cache model."""

import pytest

from repro.memory.cache import Cache, CacheConfig


def _small_cache(**overrides):
    params = dict(
        name="test",
        size_bytes=1024,
        associativity=2,
        block_bytes=64,
        hit_latency=2,
        primary_misses=4,
    )
    params.update(overrides)
    return Cache(CacheConfig(**params))


class TestCacheBasics:
    def test_first_access_misses(self):
        cache = _small_cache()
        hit, latency = cache.access(0x1000)
        assert not hit
        assert latency == 2
        # The miss allocated the whole block, and only that block.
        assert cache.lookup(0x1000) and cache.lookup(0x103F)
        assert not cache.lookup(0x1040)

    def test_second_access_hits(self):
        cache = _small_cache()
        cache.access(0x1000)
        assert cache.access(0x1000) == (True, 2)
        assert cache.access(0x1010) == (True, 2)  # same block

    def test_different_block_misses(self):
        cache = _small_cache()
        cache.access(0x1000)
        hit, _ = cache.access(0x1040)
        assert not hit

    def test_hit_latency(self):
        cache = _small_cache(hit_latency=3)
        cache.access(0x1000)
        assert cache.access(0x1000) == (True, 3)

    def test_lookup_has_no_side_effects(self):
        cache = _small_cache()
        assert not cache.lookup(0x1000)
        assert cache.stats.accesses == 0
        cache.access(0x1000)
        assert cache.lookup(0x1000)


class TestReplacement:
    def test_lru_eviction(self):
        # 1 KB, 2-way, 64 B blocks -> 8 sets; addresses 64*8 apart share a set.
        cache = _small_cache()
        set_stride = 64 * 8
        a, b, c = 0x0, set_stride, 2 * set_stride
        cache.access(a)
        cache.access(b)
        cache.access(a)      # a becomes MRU
        cache.access(c)      # evicts b (LRU)
        assert cache.lookup(a)
        assert not cache.lookup(b)
        assert cache.lookup(c)
        assert cache.stats.evictions == 1

    def test_associativity_bound(self):
        cache = _small_cache()
        set_stride = 64 * 8
        for i in range(10):
            cache.access(i * set_stride)
        for ways in cache._sets:
            assert len(ways) <= cache.config.associativity


class TestStatsAndConfig:
    def test_stats_accumulate(self):
        cache = _small_cache()
        cache.access(0x1000)
        cache.access(0x1000)
        cache.access(0x2000)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert 0.0 < cache.stats.hit_rate < 1.0
        assert abs(cache.stats.hit_rate + cache.stats.miss_rate - 1.0) < 1e-9

    def test_flush_clears_contents(self):
        cache = _small_cache()
        cache.access(0x1000)
        cache.flush()
        assert not cache.lookup(0x1000)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=1000, associativity=3, block_bytes=64, hit_latency=1)

    def test_num_sets(self):
        config = CacheConfig(
            name="l1", size_bytes=64 * 1024, associativity=4, block_bytes=64, hit_latency=2
        )
        assert config.num_sets == 256

    def test_mshr_pressure_counted(self):
        cache = _small_cache(primary_misses=1)
        cache.note_outstanding(0x0, completion_cycle=1000)
        hit, latency = cache.access(0x10000, now=0)
        assert not hit and latency == 2 + Cache.MSHR_STALL
        assert cache.stats.mshr_stalls >= 1
