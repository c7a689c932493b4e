"""Store integrity: trailer digests, quarantine, one file per artifact."""

from __future__ import annotations

import builtins
import hashlib
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
from repro.engine.store import (
    BINARIES,
    CHECKPOINTS,
    DIGEST_BYTES,
    RESULTS,
    TRACES,
    ArtifactStore,
)
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


#: Test ids of the six :func:`_payload_objects` pairs, in order.
_PAYLOAD_IDS = [
    "binary", "trace-objects", "result", "checkpoint", "trace-pack", "trace-chunked",
]


def _record_opens(monkeypatch):
    """Record every path ``open`` and ``os.open`` are given from now on."""
    opened = []

    def recording(real):
        def record(file, *args, **kwargs):
            opened.append(file)
            return real(file, *args, **kwargs)

        return record

    monkeypatch.setattr(builtins, "open", recording(builtins.open))
    monkeypatch.setattr(os, "open", recording(os.open))
    return opened


class TestDigest:
    def test_put_records_sha256(self, store, artifacts):
        program, _, _ = artifacts
        path = store.put(BINARIES, "k", program)
        with open(path, "rb") as handle:
            data = handle.read()
        body, trailer = data[:-DIGEST_BYTES], data[-DIGEST_BYTES:]
        assert DIGEST_BYTES == 32
        assert trailer == hashlib.sha256(body).digest()
        assert body == pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)

    def test_put_file_appends_the_trailer(self, store, artifacts):
        _, trace, _ = artifacts
        encoded = ChunkedTracePack.from_segments([TracePack.from_dyninsts(trace)]).to_bytes()
        scratch = store.scratch_path(TRACES)
        with open(scratch, "wb") as handle:
            handle.write(encoded)
        target = store.put_file(TRACES, "k", scratch)
        with open(target, "rb") as handle:
            assert handle.read() == encoded + hashlib.sha256(encoded).digest()

    def test_clean_round_trip_still_hits(self, store, artifacts):
        _, _, result = artifacts
        store.put(RESULTS, "k", result)
        reloaded = store.get(RESULTS, "k")
        assert reloaded.metrics.summary() == result.metrics.summary()

    def test_hit_opens_exactly_the_payload_path(self, store, artifacts, monkeypatch):
        _, _, result = artifacts
        path = store.put(RESULTS, "k", result)
        opened = _record_opens(monkeypatch)
        assert store.get(RESULTS, "k").metrics.summary() == result.metrics.summary()
        monkeypatch.undo()
        assert opened == [path]


class TestQuarantine:
    def test_swapped_payload_is_quarantined(self, store):
        store.put(RESULTS, "k", {"ipc": 1.25})
        # A valid pickle of a different object: it decodes cleanly, so only
        # the digest can tell it from the stored artifact.
        with open(store.path(RESULTS, "k"), "wb") as handle:
            handle.write(pickle.dumps({"ipc": 9.75}))
        assert store.get(RESULTS, "k") is None
        assert not store.contains(RESULTS, "k")
        entries = store.quarantine_entries()
        assert [entry["quarantine_reason"] for entry in entries] == [
            "payload digest mismatch"
        ]
        assert entries[0]["kind"] == RESULTS and entries[0]["key"] == "k"
        assert store.get(RESULTS, "k") is None

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


class TestOneFileLayout:
    """Each artifact is one ``<key>.pkl``; a ``.json`` an older store left
    in a kind directory is never read, counted or kept by ``clear``."""

    @pytest.mark.parametrize("which", range(6), ids=_PAYLOAD_IDS)
    def test_put_writes_exactly_the_payload(self, store, artifacts, which):
        kind, obj = _payload_objects(artifacts)[which]
        path = store.put(kind, "k", obj)
        assert os.listdir(os.path.dirname(path)) == ["k.pkl"]

    def test_put_file_writes_exactly_the_payload(self, store, artifacts):
        _, trace, _ = artifacts
        scratch = store.scratch_path(TRACES)
        with open(scratch, "wb") as handle:
            handle.write(
                ChunkedTracePack.from_segments([TracePack.from_dyninsts(trace)]).to_bytes()
            )
        target = store.put_file(TRACES, "k", scratch)
        assert os.listdir(os.path.dirname(target)) == ["k.pkl"]

    @staticmethod
    def _with_leftover_json(store, result):
        path = store.put(RESULTS, "k", result)
        leftover = path[: -len(".pkl")] + ".json"
        # The sidecar an earlier store wrote beside each payload, padded so
        # that counting its bytes would show.
        with open(leftover, "w", encoding="utf-8") as handle:
            json.dump({"kind": RESULTS, "key": "k", "note": "x" * 4000}, handle)
        return path, leftover

    def test_get_never_opens_a_leftover_json(self, store, artifacts, monkeypatch):
        _, _, result = artifacts
        path, _ = self._with_leftover_json(store, result)
        opened = _record_opens(monkeypatch)
        assert store.get(RESULTS, "k").metrics.summary() == result.metrics.summary()
        monkeypatch.undo()
        assert opened == [path]

    def test_usage_and_evict_count_only_the_payload(self, store, artifacts):
        _, _, result = artifacts
        path, _ = self._with_leftover_json(store, result)
        size = os.path.getsize(path)
        usage = store.usage()
        assert usage[RESULTS]["count"] == 1 and usage[RESULTS]["bytes"] == size
        assert usage["total"] == {"count": 1, "bytes": size}
        assert store.evict(0) == {"count": 1, "bytes": size}

    def test_clear_removes_a_leftover_json(self, store, artifacts):
        _, _, result = artifacts
        path, _ = self._with_leftover_json(store, result)
        assert store.clear() == 1
        assert os.listdir(os.path.dirname(path)) == []


class TestCorruptionProperty:
    """Any corruption of any stored payload → quarantine + clean regeneration."""

    @pytest.mark.parametrize("which", range(6), ids=_PAYLOAD_IDS)
    @given(
        mode=st.sampled_from(
            ["flip", "flip-trailer", "truncate", "truncate-trailer", "short"]
        ),
        position=st.floats(min_value=0.0, max_value=0.999),
    )
    @settings(max_examples=15, deadline=None)
    def test_corruption_never_escapes_the_store(
        self, tmp_path_factory, artifacts, which, mode, position
    ):
        kind, obj = _payload_objects(artifacts)[which]
        store = ArtifactStore(str(tmp_path_factory.mktemp("chaos-store")))
        path = store.put(kind, "k", obj)
        size = os.path.getsize(path)
        if mode == "flip-trailer":
            offset = size - DIGEST_BYTES + int(DIGEST_BYTES * position)
        else:
            offset = min(int(size * position), size - 1)
        if mode.startswith("flip"):
            with open(path, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([byte[0] ^ 0xFF]))
        else:
            if mode == "truncate":
                length = max(1, offset)
            elif mode == "truncate-trailer":
                length = size - 1 - int((DIGEST_BYTES - 1) * position)
            else:
                length = int(DIGEST_BYTES * position)
            with open(path, "r+b") as handle:
                handle.truncate(length)
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
        path, _ = self._write_chunked(store, trace)
        store.put_file(TRACES, "k", path)
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

    def test_discard_removes_the_payload(self, store, artifacts):
        _, _, result = artifacts
        path = store.put(CHECKPOINTS, "k", {"rows_done": 1, "state": result.metrics.cycles})
        assert store.contains(CHECKPOINTS, "k")
        store.discard(CHECKPOINTS, "k")
        assert not store.contains(CHECKPOINTS, "k")
        assert os.listdir(os.path.dirname(path)) == []
        store.discard(CHECKPOINTS, "k")  # idempotent
