"""Artifact-store round-trips: serialize → deserialize → identical metrics."""

import os

import pytest

from repro.cli import main
from repro.compiler.binaries import BinaryFactory
from repro.emulator.executor import Emulator
from repro.emulator.trace import (
    TRACE_FORMAT_VERSION,
    deserialize_trace,
    load_trace,
    save_trace,
)
from repro.engine import IF_CONVERTED, ExecutionEngine, SchemeSpec, sweep
from repro.engine.store import (
    BINARIES,
    CHECKPOINTS,
    KINDS,
    RESULTS,
    TRACES,
    ArtifactStore,
    default_cache_dir,
)
from repro.experiments.setup import ExperimentProfile, make_predicate_scheme
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.spec_suite import build_workload

BUDGET = 1_200


@pytest.fixture(scope="module")
def artifacts():
    """One compiled binary, its trace and one simulation result."""
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


class TestBinaryRoundTrip:
    def test_program_round_trip_traces_identically(self, store, artifacts):
        program, trace, _ = artifacts
        store.put(BINARIES, "k1", program)
        reloaded = store.get(BINARIES, "k1")
        assert reloaded is not program
        replayed = list(Emulator(reloaded).run(BUDGET))
        assert len(replayed) == len(trace)
        assert all(
            a.pc == b.pc and a.taken == b.taken and a.executed == b.executed
            for a, b in zip(trace, replayed)
        )


class TestTraceRoundTrip:
    def test_store_round_trip_simulates_identically(self, store, artifacts):
        _, trace, result = artifacts
        store.put(TRACES, "k1", trace)
        reloaded = store.get(TRACES, "k1")
        resimulated = OutOfOrderCore().run(
            iter(reloaded), make_predicate_scheme(), program_name="gzip"
        )
        assert resimulated.misprediction_rate == result.misprediction_rate
        assert resimulated.ipc == result.ipc
        assert resimulated.metrics.summary() == result.metrics.summary()

    def test_file_helpers(self, tmp_path, artifacts):
        _, trace, _ = artifacts
        path = str(tmp_path / "trace.bin")
        save_trace(path, trace)
        reloaded = load_trace(path)
        assert len(reloaded) == len(trace)
        assert all(a.seq == b.seq and a.pc == b.pc for a, b in zip(trace, reloaded))

    def test_version_mismatch_rejected(self, artifacts):
        _, trace, _ = artifacts
        import pickle

        stale = pickle.dumps((TRACE_FORMAT_VERSION + 1, trace))
        with pytest.raises(ValueError):
            deserialize_trace(stale)


class TestResultRoundTrip:
    def test_identical_metrics(self, store, artifacts):
        _, _, result = artifacts
        store.put(RESULTS, "k1", result)
        reloaded = store.get(RESULTS, "k1")
        assert reloaded.metrics.summary() == result.metrics.summary()
        assert reloaded.accuracy.branches == result.accuracy.branches
        assert reloaded.misprediction_rate == result.misprediction_rate


    def test_accuracy_columns_and_counts_survive_the_store(self, store, artifacts):
        _, _, result = artifacts
        store.put(RESULTS, "k1", result)
        reloaded = store.get(RESULTS, "k1").accuracy
        assert reloaded == result.accuracy
        assert reloaded.records == result.accuracy.records
        assert reloaded.mispredictions == result.accuracy.mispredictions
        assert reloaded.early_resolved_count == result.accuracy.early_resolved_count
        assert reloaded.override_count == result.accuracy.override_count

    def test_shootout_results_hold_at_most_12_bytes_per_branch(self, store):
        # Nine bytes per branch for the columns plus about 1 KB of metrics.
        profile = ExperimentProfile(
            name="result-size",
            instructions_per_benchmark=8_000,
            benchmarks=["gzip"],
            profile_budget=8_000,
        )
        configs = {
            f"{kind}-{level}": SchemeSpec.make(kind, second_level=level)
            for kind in ("conventional", "predicate", "wish")
            for level in ("perceptron", "tage")
        }
        configs.update(
            {kind: SchemeSpec.make(kind) for kind in ("pep-pa", "predicate-aware")}
        )
        definition = sweep("result-size", ["gzip"], IF_CONVERTED, configs)
        ExecutionEngine(profile, store=store).run([definition])
        names = os.listdir(os.path.dirname(store.path(RESULTS, "any")))
        assert len(names) == len(configs)
        for name in names:
            key = name[: -len(".pkl")]
            result = store.get(RESULTS, key)
            size = os.path.getsize(store.path(RESULTS, key))
            assert result.accuracy.branches > 500
            assert size <= 12 * result.accuracy.branches, (key, size)


class TestStoreBehaviour:
    def test_miss_returns_none(self, store):
        assert store.get(RESULTS, "missing") is None
        assert not store.contains(RESULTS, "missing")

    def test_corrupt_artifact_is_a_miss_and_removed(self, store, artifacts):
        _, _, result = artifacts
        store.put(RESULTS, "k1", result)
        with open(store.path(RESULTS, "k1"), "wb") as handle:
            handle.write(b"not a pickle")
        assert store.get(RESULTS, "k1") is None
        assert not store.contains(RESULTS, "k1")

    def test_usage_counts_each_kind(self, store, artifacts):
        program, trace, result = artifacts
        store.put(BINARIES, "b", program)
        store.put(TRACES, "t", trace)
        store.put(RESULTS, "r", result)
        usage = store.usage()
        assert usage[BINARIES]["count"] == 1
        assert usage[TRACES]["count"] == 1
        assert usage[RESULTS]["count"] == 1
        # The checkpoints kind exists but holds nothing here: transient
        # resume state is only ever present mid-run (see CHECKPOINTS).
        assert usage[CHECKPOINTS]["count"] == 0
        assert all(
            entry["bytes"] > 0 for entry in usage.values() if entry["count"]
        )
        assert usage[BINARIES]["bytes"] == os.path.getsize(store.path(BINARIES, "b"))

    def test_clear_kind_and_all(self, store, artifacts):
        program, trace, result = artifacts
        store.put(BINARIES, "b", program)
        store.put(TRACES, "t", trace)
        store.put(RESULTS, "r", result)
        assert store.clear(RESULTS) == 1
        assert store.get(RESULTS, "r") is None
        assert store.get(BINARIES, "b") is not None
        assert store.clear() == 2
        assert store.usage()[BINARIES]["count"] == 0

    def test_unknown_kind_rejected(self, store):
        with pytest.raises(ValueError):
            store.get("bogus", "k")

    def test_default_cache_dir_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() == ".repro-cache"
        assert default_cache_dir("/explicit") == "/explicit"
        monkeypatch.setenv("REPRO_CACHE_DIR", "/from-env")
        assert default_cache_dir() == "/from-env"
        assert default_cache_dir("/explicit") == "/explicit"

    def test_put_creates_nested_directories(self, tmp_path, artifacts):
        _, _, result = artifacts
        store = ArtifactStore(str(tmp_path / "deep" / "nested" / "cache"))
        path = store.put(RESULTS, "k", result)
        assert os.path.exists(path)


class TestCacheStatsLazyRoot:
    def test_usage_on_missing_root_reports_zero_and_creates_it(self, tmp_path):
        root = tmp_path / "not-there-yet"
        store = ArtifactStore(str(root))
        assert not root.exists()
        report = store.usage()
        assert all(
            (report[kind]["count"], report[kind]["bytes"]) == (0, 0)
            for kind in (*KINDS, "total", "quarantine", "stale")
        )
        assert root.exists()

    def test_cli_cache_stats_on_missing_root(self, tmp_path, capsys, monkeypatch):
        root = tmp_path / "fresh-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "0 artifacts" in out
        assert root.exists()

    def test_cli_cache_path_creates_root(self, tmp_path, capsys, monkeypatch):
        root = tmp_path / "fresh-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        assert main(["cache", "path"]) == 0
        assert str(root) in capsys.readouterr().out
        assert root.exists()


class TestStaleFormats:
    """A format bump leaves ``v<N>/`` behind; stats count it, clear removes it."""

    @staticmethod
    def _old_tree(root):
        old = root / "v1" / "results"
        old.mkdir(parents=True)
        (old / "a.pkl").write_bytes(b"x" * 3000)
        (old / "a.json").write_bytes(b"{}")
        (old / "b.pkl").write_bytes(b"y" * 1000)
        (root / "v1" / "quarantine").mkdir()
        (root / "v1" / "quarantine" / "results__c.pkl").write_bytes(b"z" * 96)
        return root / "v1"

    def test_usage_reports_stale_bytes_outside_total(self, tmp_path, artifacts):
        _, _, result = artifacts
        store = ArtifactStore(str(tmp_path))
        self._old_tree(tmp_path)
        (tmp_path / "vnext").mkdir()  # not a format directory
        store.put(RESULTS, "k", result)
        report = store.usage()
        assert report["stale"] == {"count": 3, "bytes": 3000 + 2 + 1000 + 96}
        assert report["total"]["count"] == 1
        assert report["total"]["bytes"] == os.path.getsize(store.path(RESULTS, "k"))
        assert store.evict(0)["count"] == 1
        assert store.stale_usage() == report["stale"]

    def test_clear_of_one_kind_keeps_stale_formats(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        old = self._old_tree(tmp_path)
        store.clear(RESULTS)
        assert old.exists()

    def test_cli_stats_and_clear(self, tmp_path, capsys, monkeypatch, artifacts):
        _, _, result = artifacts
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        old = self._old_tree(tmp_path)
        (tmp_path / "serve-journal.jsonl").write_text("{}\n")
        (tmp_path / "v99").mkdir()  # a later format, of a newer checkout
        ArtifactStore(str(tmp_path)).put(RESULTS, "k", result)
        assert main(["cache", "stats"]) == 0
        stats = capsys.readouterr().out
        assert "stale" in stats and "3 artifacts" in stats and "4.0 KiB" in stats
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 artifacts (all kinds)" in out
        assert "4.0 KiB of earlier store formats" in out
        assert not old.exists()
        assert (tmp_path / "serve-journal.jsonl").exists()
        assert (tmp_path / "v99").exists()
        assert ArtifactStore(str(tmp_path)).usage()["stale"] == {"count": 0, "bytes": 0}
        assert main(["cache", "stats"]) == 0
        assert "stale" not in capsys.readouterr().out
