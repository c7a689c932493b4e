"""Size-gated LRU eviction and usage accounting on the artifact store.

The serve daemon's ``--max-store-bytes`` flag is backed by
:meth:`ArtifactStore.evict`: artifacts are dropped least-recently-*hit*
first (every :meth:`ArtifactStore.get` refreshes the payload's mtime) until
the store fits the budget, never touching protected keys.  These tests pin
the three contracts the daemon depends on: the size gate is honored, hot
keys survive, and in-flight work is shielded.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.store import ArtifactStore, BINARIES, KINDS, RESULTS, TRACES


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "cache"))


def _fill(store, kind, keys, payload_size=2000):
    for key in keys:
        store.put(kind, key, "x" * payload_size)


def _total_bytes(store):
    return store.usage()["total"]["bytes"]


def _set_hit_time(store, kind, key, timestamp):
    """Pin one artifact's last-hit time (tests can't sleep for mtime skew)."""
    path = store.path(kind, key)
    os.utime(path, (timestamp, timestamp))


class TestUsage:
    def test_empty_store(self, store):
        report = store.usage()
        for kind in KINDS:
            assert report[kind] == {
                "count": 0, "bytes": 0, "oldest_hit": None, "newest_hit": None,
            }
        assert report["total"] == {"count": 0, "bytes": 0}

    def test_counts_and_bytes_by_kind(self, store):
        _fill(store, RESULTS, ["a", "b"])
        _fill(store, BINARIES, ["bin"])
        report = store.usage()
        assert report[RESULTS]["count"] == 2
        assert report[BINARIES]["count"] == 1
        assert report[TRACES]["count"] == 0
        assert report["total"]["count"] == 3
        assert report["total"]["bytes"] == sum(
            report[kind]["bytes"] for kind in KINDS
        )
        assert report[RESULTS]["oldest_hit"] <= report[RESULTS]["newest_hit"]

    def test_get_refreshes_last_hit(self, store):
        _fill(store, RESULTS, ["a", "b"])
        _set_hit_time(store, RESULTS, "a", 1_000.0)
        _set_hit_time(store, RESULTS, "b", 2_000.0)
        assert store.usage()[RESULTS]["oldest_hit"] == pytest.approx(1_000.0)
        store.get(RESULTS, "a")  # the hit makes "a" the newest entry
        report = store.usage()[RESULTS]
        assert report["oldest_hit"] == pytest.approx(2_000.0)
        assert report["newest_hit"] > 2_000.0


class TestEvict:
    def test_noop_when_under_budget(self, store):
        _fill(store, RESULTS, ["a", "b"])
        total = _total_bytes(store)
        removed = store.evict(total + 1)
        assert removed == {"count": 0, "bytes": 0}
        assert store.usage()["total"]["count"] == 2

    def test_size_gate_honored(self, store):
        _fill(store, RESULTS, [f"k{i}" for i in range(8)])
        _fill(store, BINARIES, [f"b{i}" for i in range(4)])
        budget = _total_bytes(store) // 3
        removed = store.evict(budget)
        assert removed["count"] > 0
        assert _total_bytes(store) <= budget

    def test_least_recently_hit_go_first(self, store):
        _fill(store, RESULTS, ["cold", "warm", "hot"])
        _set_hit_time(store, RESULTS, "cold", 1_000.0)
        _set_hit_time(store, RESULTS, "warm", 2_000.0)
        _set_hit_time(store, RESULTS, "hot", 3_000.0)
        per_entry = _total_bytes(store) // 3
        store.evict(2 * per_entry + per_entry // 2)  # room for two entries
        assert not store.contains(RESULTS, "cold")
        assert store.contains(RESULTS, "warm")
        assert store.contains(RESULTS, "hot")

    def test_hot_keys_survive_after_a_hit(self, store):
        _fill(store, RESULTS, ["old", "young"])
        _set_hit_time(store, RESULTS, "old", 1_000.0)
        _set_hit_time(store, RESULTS, "young", 2_000.0)
        store.get(RESULTS, "old")  # re-hitting the old entry makes it hot
        per_entry = _total_bytes(store) // 2
        store.evict(per_entry + per_entry // 2)  # room for one entry
        assert store.contains(RESULTS, "old")
        assert not store.contains(RESULTS, "young")

    def test_protected_keys_are_never_evicted(self, store):
        _fill(store, RESULTS, ["pinned", "free1", "free2"])
        _set_hit_time(store, RESULTS, "pinned", 1_000.0)  # oldest, prime target
        _set_hit_time(store, RESULTS, "free1", 2_000.0)
        _set_hit_time(store, RESULTS, "free2", 3_000.0)
        store.evict(1, protect={"pinned"})
        assert store.contains(RESULTS, "pinned")
        assert not store.contains(RESULTS, "free1")
        assert not store.contains(RESULTS, "free2")

    def test_eviction_spans_kinds_by_age(self, store):
        _fill(store, BINARIES, ["bin"])
        _fill(store, RESULTS, ["res"])
        _set_hit_time(store, BINARIES, "bin", 1_000.0)  # oldest overall
        _set_hit_time(store, RESULTS, "res", 3_000.0)
        total = _total_bytes(store)
        store.evict(total - 1)  # must drop at least one entry: the oldest
        assert not store.contains(BINARIES, "bin")
        assert store.contains(RESULTS, "res")

    def test_removed_accounting_matches_freed_bytes(self, store):
        _fill(store, RESULTS, [f"k{i}" for i in range(5)])
        before = _total_bytes(store)
        removed = store.evict(before // 2)
        assert removed["bytes"] == before - _total_bytes(store)
        assert removed["count"] == 5 - store.usage()[RESULTS]["count"]

    def test_evict_leaves_no_file_of_the_key(self, store, tmp_path):
        _fill(store, RESULTS, ["gone"])
        store.evict(1)
        root = str(tmp_path / "cache")
        leftovers = [
            name
            for _dir, _sub, names in os.walk(root)
            for name in names
            if "gone" in name
        ]
        assert leftovers == []
