"""Execution-engine tests: caching tiers, trace lifetime, parallel equality."""

import pickle

import pytest

from repro.engine import (
    ArtifactStore,
    BASELINE,
    ExecutionEngine,
    IF_CONVERTED,
    SchemeSpec,
    sweep,
)
from repro.emulator.trace import serialize_trace
from repro.emulator.tracepack import TracePack
from repro.experiments.figure5 import figure5_definition
from repro.experiments.setup import ExperimentProfile

PROFILE = ExperimentProfile(
    name="engine-test",
    instructions_per_benchmark=1_200,
    benchmarks=["gzip", "swim"],
    profile_budget=1_200,
)


def fig5_outputs(engine, jobs=None):
    definition = figure5_definition(PROFILE.benchmarks)
    return engine.run([definition], jobs=jobs)[definition.name]


class TestSchemeSpec:
    def test_build_known_kinds(self):
        for kind in ("conventional", "pep-pa", "predicate"):
            assert SchemeSpec.make(kind).build() is not None

    def test_options_forwarded(self):
        scheme = SchemeSpec.make(
            "predicate", selective_predication=False, split_pvt=True
        ).build()
        assert scheme.options.selective_predication is False
        assert scheme.predictor.config.split_pvt is True

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec.make("quantum").build()

    def test_picklable(self):
        spec = SchemeSpec.make("predicate", split_pvt=True)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_describe(self):
        assert SchemeSpec.make("pep-pa").describe() == "pep-pa"
        assert "split_pvt=True" in SchemeSpec.make("predicate", split_pvt=True).describe()


class TestMaterialisation:
    @pytest.fixture(scope="class")
    def engine(self):
        return ExecutionEngine(PROFILE)

    def test_binary_identity_cached(self, engine):
        assert engine.build_binary("gzip", BASELINE) is engine.build_binary(
            "gzip", BASELINE
        )
        assert engine.stats.binaries_built == 1

    def test_unknown_flavour_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.build_binary("gzip", "debug")

    def test_trace_identity_cached(self, engine):
        first = engine.collect_trace("gzip", BASELINE)
        assert engine.collect_trace("gzip", BASELINE) is first
        assert len(first) == PROFILE.instructions_per_benchmark


class TestTraceLifetime:
    def test_lru_eviction_is_bounded(self):
        engine = ExecutionEngine(PROFILE, max_cached_traces=2)
        engine.collect_trace("gzip", BASELINE)
        engine.collect_trace("swim", BASELINE)
        engine.collect_trace("gzip", IF_CONVERTED)
        assert len(engine._traces) == 2
        assert ("gzip", BASELINE) not in engine._traces  # oldest evicted
        assert ("gzip", IF_CONVERTED) in engine._traces

    def test_lru_order_refreshed_on_access(self):
        engine = ExecutionEngine(PROFILE, max_cached_traces=2)
        engine.collect_trace("gzip", BASELINE)
        engine.collect_trace("swim", BASELINE)
        engine.collect_trace("gzip", BASELINE)  # refresh
        engine.collect_trace("gzip", IF_CONVERTED)
        assert ("gzip", BASELINE) in engine._traces
        assert ("swim", BASELINE) not in engine._traces

    def test_release_trace(self):
        engine = ExecutionEngine(PROFILE)
        engine.collect_trace("gzip", BASELINE)
        engine.release_trace("gzip", BASELINE)
        assert ("gzip", BASELINE) not in engine._traces
        engine.release_trace("gzip", BASELINE)  # idempotent


class TestPersistentCache:
    def test_second_run_rebuilds_nothing(self, tmp_path):
        store_root = str(tmp_path / "cache")
        first = ExecutionEngine(PROFILE, store=ArtifactStore(store_root))
        out_first = fig5_outputs(first)
        assert first.stats.binaries_built == 2
        assert first.stats.traces_collected == 2
        assert first.stats.simulations_run == 4

        second = ExecutionEngine(PROFILE, store=ArtifactStore(store_root))
        out_second = fig5_outputs(second)
        assert second.stats.binaries_built == 0
        assert second.stats.traces_collected == 0
        assert second.stats.simulations_run == 0
        assert second.stats.results_loaded == 4
        for slot, result in out_first.items():
            assert out_second[slot].metrics.summary() == result.metrics.summary()
            assert out_second[slot].accuracy.branches == result.accuracy.branches

    def test_shared_flavour_cells_reuse_binaries_and_traces(self, tmp_path):
        # Two different experiments over the same (benchmark, flavour) cells:
        # the second only runs its own (new) simulations.
        store_root = str(tmp_path / "cache")
        ExecutionEngine(PROFILE, store=ArtifactStore(store_root)).run(
            [figure5_definition(PROFILE.benchmarks)]
        )
        other = sweep(
            "other",
            PROFILE.benchmarks,
            BASELINE,
            {"ideal": SchemeSpec.make("conventional", ideal_no_alias=True)},
        )
        engine = ExecutionEngine(PROFILE, store=ArtifactStore(store_root))
        engine.run([other])
        assert engine.stats.binaries_built == 0
        assert engine.stats.traces_collected == 0
        assert engine.stats.traces_loaded == 2
        assert engine.stats.simulations_run == 2


class TestTraceRepresentation:
    """Collected and store-loaded traces are both columnar packs."""

    def test_collected_trace_is_a_pack(self):
        engine = ExecutionEngine(PROFILE, store=None)
        trace = engine.collect_trace("gzip", BASELINE)
        assert isinstance(trace, TracePack)
        assert len(trace) == PROFILE.instructions_per_benchmark

    def test_store_loaded_trace_is_a_pack(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        collected = ExecutionEngine(PROFILE, store=store).collect_trace(
            "gzip", BASELINE
        )
        engine = ExecutionEngine(PROFILE, store=store)
        loaded = engine.collect_trace("gzip", BASELINE)
        assert engine.stats.traces_loaded == 1
        assert engine.stats.traces_collected == 0
        assert isinstance(loaded, TracePack)
        assert serialize_trace(loaded) == serialize_trace(collected)


class TestOracleCachePlumbing:
    def test_parallel_workers_return_oracle_scalars(self):
        from repro.experiments.idealized import oracle_accuracies

        engine = ExecutionEngine(PROFILE, jobs=2)
        fig5_outputs(engine)
        collected = engine.stats.traces_collected
        oracle = oracle_accuracies(engine, PROFILE.benchmarks, BASELINE)
        assert set(oracle) == set(PROFILE.benchmarks)
        # Served from the merged worker caches: no re-emulation in the parent.
        assert engine.stats.traces_collected == collected


class TestTraceSpill:
    def test_parent_traces_reach_workers_by_file(self):
        # Without a persistent store, traces the parent already collected are
        # spilled to an ephemeral trace store and loaded (not re-collected)
        # by the workers.
        engine = ExecutionEngine(PROFILE, jobs=2)
        engine.collect_trace("gzip", BASELINE)
        engine.collect_trace("swim", BASELINE)
        assert engine.stats.traces_collected == 2
        outputs = fig5_outputs(engine)
        assert engine.stats.traces_collected == 2  # workers collected nothing
        assert engine.stats.traces_loaded >= 2
        serial = fig5_outputs(ExecutionEngine(PROFILE))
        for slot, result in serial.items():
            assert outputs[slot].metrics.summary() == result.metrics.summary()

    def test_spill_directory_is_removed(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        engine = ExecutionEngine(PROFILE, jobs=2)
        engine.collect_trace("gzip", BASELINE)
        fig5_outputs(engine)
        assert not any(p.name.startswith("repro-trace-spill-") for p in tmp_path.iterdir())


class TestParallelExecution:
    def test_parallel_equals_serial(self):
        serial = fig5_outputs(ExecutionEngine(PROFILE))
        parallel = fig5_outputs(ExecutionEngine(PROFILE), jobs=2)
        assert set(serial) == set(parallel)
        for slot, result in serial.items():
            assert parallel[slot].metrics.summary() == result.metrics.summary()
            assert parallel[slot].misprediction_rate == result.misprediction_rate
            assert parallel[slot].ipc == result.ipc

    def test_parallel_merges_worker_stats(self):
        engine = ExecutionEngine(PROFILE, jobs=2)
        fig5_outputs(engine)
        assert engine.stats.binaries_built == 2
        assert engine.stats.traces_collected == 2
        assert engine.stats.simulations_run == 4

    def test_parallel_workers_share_store(self, tmp_path):
        store_root = str(tmp_path / "cache")
        engine = ExecutionEngine(PROFILE, store=ArtifactStore(store_root), jobs=2)
        fig5_outputs(engine)
        follow_up = ExecutionEngine(PROFILE, store=ArtifactStore(store_root))
        fig5_outputs(follow_up)
        assert follow_up.stats.simulations_run == 0
        assert follow_up.stats.results_loaded == 4


class TestEngineTimings:
    def test_simulate_records_job_timing(self):
        profile = ExperimentProfile(
            name="t", instructions_per_benchmark=2_000,
            benchmarks=["gzip"], profile_budget=2_000,
        )
        engine = ExecutionEngine(profile, store=None)
        result = engine.simulate("gzip", IF_CONVERTED, SchemeSpec.make("conventional"))
        assert len(engine.job_timings) == 1
        timing = engine.job_timings[0]
        assert timing.benchmark == "gzip"
        assert not timing.cached
        assert timing.seconds > 0
        assert timing.instructions == result.metrics.committed_instructions
        assert timing.instructions_per_second() > 0
        assert engine.stats.simulate_seconds >= timing.seconds
        assert engine.stats.trace_seconds > 0

    def test_cached_results_are_flagged(self, tmp_path):
        profile = ExperimentProfile(
            name="t", instructions_per_benchmark=2_000,
            benchmarks=["gzip"], profile_budget=2_000,
        )
        store = ArtifactStore(str(tmp_path / "store"))
        spec = SchemeSpec.make("conventional")
        first = ExecutionEngine(profile, store=store)
        first.simulate("gzip", IF_CONVERTED, spec)
        second = ExecutionEngine(profile, store=store)
        second.simulate("gzip", IF_CONVERTED, spec)
        assert [t.cached for t in second.job_timings] == [True]
