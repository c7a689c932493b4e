"""Executor supervision: worker death, watchdog timeouts, serial fallback."""

from __future__ import annotations

import pytest

from repro.engine import ArtifactStore, EngineStats, ExecutionEngine
from repro.experiments.figure5 import figure5_definition
from repro.experiments.setup import ExperimentProfile

PROFILE = ExperimentProfile(
    name="robustness-test",
    instructions_per_benchmark=1_200,
    benchmarks=["gzip", "swim"],
    profile_budget=1_200,
)


def fig5_outputs(engine, jobs=None):
    definition = figure5_definition(PROFILE.benchmarks)
    return engine.run([definition], jobs=jobs)[definition.name]


def assert_outputs_equal(outputs, reference):
    assert set(outputs) == set(reference)
    for slot, result in reference.items():
        assert outputs[slot].metrics.summary() == result.metrics.summary()
        assert outputs[slot].misprediction_rate == result.misprediction_rate


@pytest.fixture(scope="module")
def clean_outputs():
    """The ground truth: a serial, fault-free run."""
    return fig5_outputs(ExecutionEngine(PROFILE))


def _boom(payload):
    """A worker raising an ordinary exception (module-level: picklable)."""
    raise ValueError("job-level failure")


class TestWorkerDeath:
    def test_killed_worker_is_recovered_bit_identically(
        self, activate_faults, clean_outputs, tmp_path
    ):
        activate_faults("kill-worker-on-nth-simulate:1")
        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(PROFILE, store=store, jobs=2)
        outputs = fig5_outputs(engine)
        assert_outputs_equal(outputs, clean_outputs)
        assert engine.stats.workers_lost >= 1
        assert engine.stats.jobs_retried >= 1

    def test_recovery_without_a_store(self, activate_faults, clean_outputs):
        activate_faults("kill-worker-on-nth-simulate:1")
        engine = ExecutionEngine(PROFILE, jobs=2)
        outputs = fig5_outputs(engine)
        assert_outputs_equal(outputs, clean_outputs)
        assert engine.stats.workers_lost >= 1

    def test_exhausted_retries_degrade_to_serial(
        self, activate_faults, clean_outputs, tmp_path
    ):
        activate_faults("kill-worker-on-nth-simulate:1")
        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(PROFILE, store=store, jobs=2, max_retries=0)
        outputs = fig5_outputs(engine)
        assert_outputs_equal(outputs, clean_outputs)
        assert engine.stats.workers_lost >= 1
        # Budget exhausted on the first loss: nothing was retried on a pool.
        assert engine.stats.jobs_retried == 0

    def test_ordinary_worker_exceptions_still_propagate(self, monkeypatch):
        """A job failure is not a worker failure: no retry, no swallowing."""
        import repro.engine.executor as executor_module

        monkeypatch.setattr(executor_module, "_execute_cell", _boom)
        engine = ExecutionEngine(PROFILE, jobs=2)
        with pytest.raises(ValueError, match="job-level failure"):
            fig5_outputs(engine)
        assert engine.stats.workers_lost == 0
        assert engine.stats.jobs_retried == 0


class TestWatchdog:
    def test_stalled_pool_is_killed_and_retried(
        self, activate_faults, clean_outputs, tmp_path
    ):
        activate_faults("stall-simulate:30")
        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(PROFILE, store=store, jobs=2, job_timeout=2.0)
        outputs = fig5_outputs(engine)
        assert_outputs_equal(outputs, clean_outputs)
        assert engine.stats.jobs_timed_out >= 1
        assert engine.stats.workers_lost >= 1

    def test_no_timeout_without_watchdog_window(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(PROFILE, store=store, jobs=2)
        fig5_outputs(engine)
        assert engine.stats.jobs_timed_out == 0
        assert engine.stats.workers_lost == 0


class TestStats:
    def test_recovery_fields_merge_and_render(self):
        stats = EngineStats()
        stats.merge({"workers_lost": 2, "jobs_retried": 3, "jobs_timed_out": 1})
        assert stats.workers_lost == 2
        rendered = stats.render()
        assert "recovered from 2 lost workers" in rendered
        assert "3 jobs retried" in rendered

    def test_clean_render_omits_recovery(self):
        assert "recovered" not in EngineStats().render()

    def test_render_says_its_times_are_summed_over_workers(self):
        stats = EngineStats(simulations_run=4, simulate_seconds=2.5)
        assert "ran 4 simulations (0 cached) in 2.50s, times summed over workers" in (
            stats.render()
        )
