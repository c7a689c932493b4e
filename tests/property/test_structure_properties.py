"""Property-based tests for history registers, caches, memory and counters."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.memory_image import MemoryImage, to_signed64
from repro.memory.cache import Cache, CacheConfig
from repro.predictors.counters import CounterTable
from repro.predictors.history import GlobalHistoryRegister


class TestGlobalHistoryProperties:
    @given(bits=st.integers(2, 24), outcomes=st.lists(st.booleans(), max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_value_matches_reference_model(self, bits, outcomes):
        ghr = GlobalHistoryRegister(bits)
        reference = 0
        for outcome in outcomes:
            ghr.push(outcome)
            reference = ((reference << 1) | int(outcome)) & ((1 << bits) - 1)
        assert ghr.value == reference

    @given(
        bits=st.integers(2, 16),
        steps=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_push_resolved_equals_a_push_repaired_by_the_same_branch(self, bits, steps):
        speculative = GlobalHistoryRegister(bits)
        resolved = GlobalHistoryRegister(bits)
        for predicted, actual in steps:
            token = speculative.push(predicted)
            if predicted != actual:
                speculative.repair(token, actual)
            resolved.push_resolved(actual)
            assert resolved.value == speculative.value
        # Both keep one token per bit, so a later repair finds the same bit.
        token = speculative.push(True)
        resolved.push_resolved(True)
        assert speculative.repair(token, False) == resolved.repair(token, False)
        assert resolved.value == speculative.value

    @given(bits=st.integers(2, 16), outcomes=st.lists(st.booleans(), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_repair_flips_exactly_the_last_bit(self, bits, outcomes):
        ghr = GlobalHistoryRegister(bits)
        for outcome in outcomes[:-1]:
            ghr.push(outcome)
        token = ghr.push(outcomes[-1])
        before = ghr.value
        assert ghr.repair(token, not outcomes[-1])
        assert ghr.value == before ^ 1


class TestCounterTableProperties:
    @given(
        entries=st.integers(1, 64),
        bits=st.integers(1, 4),
        updates=st.lists(st.tuples(st.integers(0, 200), st.booleans()), max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_values_always_within_range(self, entries, bits, updates):
        table = CounterTable(entries=entries, bits=bits, initial=0)
        for index, outcome in updates:
            table.train(index, outcome)
            assert 0 <= table.value(index) <= (1 << bits) - 1


class TestCacheProperties:
    @given(addresses=st.lists(st.integers(0, 1 << 20), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_sets_never_exceed_associativity_and_repeat_hits(self, addresses):
        cache = Cache(
            CacheConfig(name="p", size_bytes=2048, associativity=2, block_bytes=64, hit_latency=1)
        )
        for address in addresses:
            cache.access(address)
            # Immediately re-accessing the same address must hit.
            hit, _ = cache.access(address)
            assert hit
            for ways in cache._sets:
                assert len(ways) <= 2

    @given(addresses=st.lists(st.integers(0, 1 << 16), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = Cache(
            CacheConfig(name="p", size_bytes=4096, associativity=4, block_bytes=64, hit_latency=1)
        )
        for address in addresses:
            cache.access(address)
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses


class TestMemoryImageProperties:
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 1 << 30), st.integers(-(2**70), 2**70)),
            max_size=100,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_read_returns_last_write_to_word(self, writes):
        image = MemoryImage()
        reference = {}
        for address, value in writes:
            image.write_word(address, value)
            reference[address - address % 8] = to_signed64(value)
        for word_address, expected in reference.items():
            assert image.read_word(word_address) == expected

    @given(value=st.integers(-(2**80), 2**80))
    @settings(max_examples=200, deadline=None)
    def test_signed_wrap_is_idempotent_and_in_range(self, value):
        wrapped = to_signed64(value)
        assert -(2**63) <= wrapped < 2**63
        assert to_signed64(wrapped) == wrapped
