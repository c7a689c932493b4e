"""Store integrity: digest verification, quarantine, orphan-sidecar sweep."""

from __future__ import annotations

import json
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.binaries import BinaryFactory
from repro.emulator.executor import Emulator
from repro.emulator.tracepack import (
    ChunkedPackWriter,
    ChunkedTracePack,
    TracePack,
)
from repro.engine.store import BINARIES, CHECKPOINTS, RESULTS, TRACES, ArtifactStore
from repro.experiments.setup import make_predicate_scheme
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.spec_suite import build_workload

BUDGET = 1_200


@pytest.fixture(scope="module")
def artifacts():
    """One compiled binary, its object trace, and a simulation result."""
    factory = BinaryFactory(profile_budget=BUDGET)
    program = factory.build_baseline("gzip", lambda: build_workload("gzip"))
    trace = list(Emulator(program).run(BUDGET))
    result = OutOfOrderCore().run(
        iter(trace), make_predicate_scheme(), program_name="gzip"
    )
    return program, trace, result


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "cache"))


def _payload_objects(artifacts):
    """(kind, object) pairs covering all kinds and every trace input shape
    (an object list, which the codec packs, a pack and a chunked pack)."""
    program, trace, result = artifacts
    pairs = [
        (BINARIES, program),
        (TRACES, trace),
        (RESULTS, result),
        # Checkpoints are pickled state blobs; integrity is codec-agnostic.
        (CHECKPOINTS, {"version": 1, "rows_done": 400, "state": list(range(64))}),
    ]
    pack = TracePack.from_dyninsts(trace)
    pairs.append((TRACES, pack))
    half = len(trace) // 2
    pairs.append(
        (
            TRACES,
            ChunkedTracePack.from_segments(
                [
                    TracePack.from_dyninsts(trace[:half]),
                    TracePack.from_dyninsts(trace[half:]),
                ]
            ),
        )
    )
    return pairs


class TestDigest:
    def test_put_records_sha256(self, store, artifacts):
        program, _, _ = artifacts
        store.put(BINARIES, "k", program)
        with open(store._meta_path(BINARIES, "k"), encoding="utf-8") as handle:
            meta = json.load(handle)
        assert isinstance(meta["sha256"], str) and len(meta["sha256"]) == 64

    def test_clean_round_trip_still_hits(self, store, artifacts):
        _, _, result = artifacts
        store.put(RESULTS, "k", result)
        reloaded = store.get(RESULTS, "k")
        assert reloaded.metrics.summary() == result.metrics.summary()

    def test_legacy_sidecar_without_digest_still_reads(self, store, artifacts):
        _, _, result = artifacts
        store.put(RESULTS, "k", result)
        meta_path = store._meta_path(RESULTS, "k")
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
        del meta["sha256"]
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        assert store.get(RESULTS, "k") is not None


class TestDamagedSidecar:
    """An unparseable sidecar must not switch the digest check off."""

    @staticmethod
    def _swap_payload(store, key):
        # A valid pickle of a different object: it decodes cleanly, so only
        # the digest can tell it from the stored artifact.
        with open(store.path(RESULTS, key), "wb") as handle:
            handle.write(pickle.dumps({"ipc": 9.75}))

    def test_swapped_payload_with_intact_sidecar_is_quarantined(self, store):
        store.put(RESULTS, "k", {"ipc": 1.25})
        self._swap_payload(store, "k")
        assert store.get(RESULTS, "k") is None
        assert store.quarantine_entries()[0]["quarantine_reason"] == (
            "payload digest mismatch"
        )

    def test_swapped_payload_with_cut_sidecar_is_quarantined(self, store):
        store.put(RESULTS, "k", {"ipc": 1.25})
        self._swap_payload(store, "k")
        meta_path = store._meta_path(RESULTS, "k")
        with open(meta_path, "rb") as handle:
            meta = handle.read()
        with open(meta_path, "wb") as handle:
            handle.write(meta[:-3])
        assert store.get(RESULTS, "k") is None
        assert not store.contains(RESULTS, "k")
        assert not os.path.exists(meta_path)
        entries = store.quarantine_entries()
        assert [entry["quarantine_reason"] for entry in entries] == [
            "metadata sidecar unreadable"
        ]
        assert entries[0]["kind"] == RESULTS and entries[0]["key"] == "k"

    @pytest.mark.parametrize("damaged", [b"", b"\xff\xfe{", b"[1, 2]", b"null"])
    def test_sidecar_that_is_no_json_object_is_quarantined(self, store, damaged):
        store.put(RESULTS, "k", {"ipc": 1.25})
        with open(store._meta_path(RESULTS, "k"), "wb") as handle:
            handle.write(damaged)
        assert store.get(RESULTS, "k") is None
        assert store.quarantine_usage()["count"] == 1

    def test_missing_sidecar_still_reads(self, store):
        # A concurrent put sits between its payload and sidecar writes.
        store.put(RESULTS, "k", {"ipc": 1.25})
        os.remove(store._meta_path(RESULTS, "k"))
        assert store.get(RESULTS, "k") == {"ipc": 1.25}
        assert store.quarantine_usage()["count"] == 0


class TestQuarantine:
    def test_bit_flip_quarantines_and_reports_miss(self, store, artifacts):
        _, _, result = artifacts
        path = store.put(RESULTS, "k", result)
        with open(path, "r+b") as handle:
            data = handle.read()
            handle.seek(len(data) // 2)
            handle.write(bytes([data[len(data) // 2] ^ 0xFF]))
        assert store.get(RESULTS, "k") is None
        assert not store.contains(RESULTS, "k")
        usage = store.quarantine_usage()
        assert usage["count"] == 1 and usage["bytes"] > 0
        entries = store.quarantine_entries()
        assert entries[0]["quarantine_reason"] == "payload digest mismatch"
        assert entries[0]["kind"] == RESULTS

    def test_quarantine_surfaces_in_usage_but_not_total(self, store, artifacts):
        _, _, result = artifacts
        path = store.put(RESULTS, "k", result)
        with open(path, "r+b") as handle:
            handle.write(b"\xff" * 8)
        store.get(RESULTS, "k")
        report = store.usage()
        assert report["quarantine"]["count"] == 1
        assert report["total"]["count"] == 0

    def test_clear_quarantine(self, store, artifacts):
        _, _, result = artifacts
        path = store.put(RESULTS, "k", result)
        with open(path, "r+b") as handle:
            handle.write(b"\xff" * 8)
        store.get(RESULTS, "k")
        assert store.clear_quarantine() == 1
        assert store.quarantine_usage() == {"count": 0, "bytes": 0}

    def test_store_clear_leaves_quarantine(self, store, artifacts):
        _, _, result = artifacts
        path = store.put(RESULTS, "k", result)
        with open(path, "r+b") as handle:
            handle.write(b"\xff" * 8)
        store.get(RESULTS, "k")
        store.clear()
        assert store.quarantine_usage()["count"] == 1


class TestOrphanSidecars:
    def test_ensure_root_sweeps_orphaned_sidecars(self, store, artifacts):
        _, _, result = artifacts
        store.put(RESULTS, "keep", result)
        store.put(RESULTS, "orphan", result)
        os.remove(store.path(RESULTS, "orphan"))  # the crashed-remove shape
        store.ensure_root()
        assert not os.path.exists(store._meta_path(RESULTS, "orphan"))
        assert os.path.exists(store._meta_path(RESULTS, "keep"))
        assert store.get(RESULTS, "keep") is not None

    def test_swept_orphans_no_longer_skew_entries(self, store, artifacts):
        _, _, result = artifacts
        store.put(RESULTS, "orphan", result)
        os.remove(store.path(RESULTS, "orphan"))
        store.ensure_root()
        assert store.entries(RESULTS) == []


class TestCorruptionProperty:
    """Any corruption of any stored payload → quarantine + clean regeneration."""

    @given(
        which=st.integers(min_value=0, max_value=5),
        mode=st.sampled_from(["flip", "truncate"]),
        position=st.floats(min_value=0.0, max_value=0.999),
    )
    @settings(max_examples=20, deadline=None)
    def test_corruption_never_escapes_the_store(
        self, tmp_path_factory, artifacts, which, mode, position
    ):
        pairs = _payload_objects(artifacts)
        kind, obj = pairs[which % len(pairs)]
        store = ArtifactStore(str(tmp_path_factory.mktemp("chaos-store")))
        path = store.put(kind, "k", obj)
        size = os.path.getsize(path)
        offset = min(int(size * position), size - 1)
        if mode == "flip":
            with open(path, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([byte[0] ^ 0xFF]))
        else:
            with open(path, "r+b") as handle:
                handle.truncate(max(1, offset))
        # Never an exception: damaged artifacts read as a miss.
        assert store.get(kind, "k") is None
        assert store.quarantine_usage()["count"] == 1
        # Regeneration: a fresh put of the same object round-trips with
        # bit-identical counters.
        store.put(kind, "k", obj)
        reloaded = store.get(kind, "k")
        assert reloaded is not None
        if kind == RESULTS:
            assert reloaded.metrics.summary() == obj.metrics.summary()
        elif kind == TRACES:
            assert len(reloaded) == len(obj)


class TestStreamedAdoption:
    """``scratch_path`` + ``put_file``: the streamed-ingest write path."""

    def _write_chunked(self, store, trace, segment_rows=400):
        path = store.scratch_path(TRACES)
        with open(path, "wb") as handle:
            writer = ChunkedPackWriter(handle)
            for start in range(0, len(trace), segment_rows):
                writer.add_segment(
                    TracePack.from_dyninsts(trace[start : start + segment_rows])
                )
            rows = writer.finish()
        return path, rows

    def test_adopted_stream_round_trips(self, store, artifacts):
        _, trace, _ = artifacts
        path, rows = self._write_chunked(store, trace)
        store.put_file(TRACES, "k", path, metadata={"instructions": rows})
        assert not os.path.exists(path)  # adopted, not copied
        loaded = store.get(TRACES, "k")
        assert isinstance(loaded, ChunkedTracePack)
        assert len(loaded) == len(trace)
        assert loaded.segment_count >= 2

    def test_adopted_stream_digest_detects_corruption(self, store, artifacts):
        _, trace, _ = artifacts
        path, _ = self._write_chunked(store, trace)
        target = store.put_file(TRACES, "k", path)
        with open(target, "r+b") as handle:
            handle.seek(os.path.getsize(target) // 2)
            handle.write(b"\xff\xff\xff\xff")
        assert store.get(TRACES, "k") is None
        assert store.quarantine_usage()["count"] == 1

    def test_unfinished_stream_is_quarantined_not_misread(self, store, artifacts):
        _, trace, _ = artifacts
        path, _ = self._write_chunked(store, trace)
        # The crashed-writer shape: adopt a stream missing its terminator.
        # put_file digests the bytes as-is, so the damage only surfaces at
        # decode time — which must quarantine, never return a partial trace.
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 8)
        store.put_file(TRACES, "k", path)
        assert store.get(TRACES, "k") is None
        entries = store.quarantine_entries()
        assert entries and "decode failed" in entries[0]["quarantine_reason"]

    def test_discard_removes_payload_and_sidecar(self, store, artifacts):
        _, _, result = artifacts
        store.put(CHECKPOINTS, "k", {"rows_done": 1, "state": result.metrics.cycles})
        assert store.contains(CHECKPOINTS, "k")
        store.discard(CHECKPOINTS, "k")
        assert not store.contains(CHECKPOINTS, "k")
        assert store.entries(CHECKPOINTS) == []
        store.discard(CHECKPOINTS, "k")  # idempotent
