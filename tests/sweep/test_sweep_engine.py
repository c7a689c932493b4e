"""The sweep ↔ engine contract: config tokens, cache keys, end-to-end runs."""

from __future__ import annotations

import pytest

from repro.engine import ExecutionEngine, MachineSpec, SchemeSpec, machine_fingerprint
from repro.engine.jobs import IF_CONVERTED
from repro.engine.planner import make_build_job, make_simulate_job, make_trace_job
from repro.engine.store import RESULTS, ArtifactStore
from repro.experiments.setup import ExperimentProfile
from repro.sweep.scenario import Scenario, parse_scenario
from repro.sweep.runner import run_sweep, sweep_profile
from repro.sweep.report import ascii_bars, render_sweep
from repro.sweep.spec import SweepSpec

PROFILE = ExperimentProfile(
    name="sweep-test",
    instructions_per_benchmark=2_000,
    benchmarks=["gzip"],
    profile_budget=2_000,
)


def tiny_scenario(**header) -> Scenario:
    base = {
        "name": "tiny",
        "benchmarks": ["gzip"],
        "schemes": ["predicate"],
        "instructions": 2_000,
    }
    base.update(header)
    return parse_scenario(
        {"scenario": base, "axes": {"pipeline": {"rob_entries": [64, 256]}}}
    )


class TestConfigToken:
    def test_token_stable_for_default_valued_overrides(self):
        # The round-trip property: the token changes iff an *effective*
        # parameter changes.
        assert machine_fingerprint(MachineSpec()) == machine_fingerprint(
            MachineSpec.make(rob_entries=256)
        )

    def test_token_changes_with_effective_parameter(self):
        assert machine_fingerprint(MachineSpec()) != machine_fingerprint(
            MachineSpec.make(rob_entries=64)
        )
        assert machine_fingerprint(MachineSpec.make(rob_entries=64)) != machine_fingerprint(
            MachineSpec.make(rob_entries=128)
        )

    def test_default_machine_key_matches_plain_simulate_key(self):
        # A Table 1-default sweep cell must reuse cached Table 1 artifacts:
        # its simulate key has to be byte-identical to the key a non-sweep
        # run plans for the same cell.
        engine = ExecutionEngine(PROFILE)
        build = make_build_job("gzip", IF_CONVERTED, engine.factory)
        trace = make_trace_job(build, 2_000)
        scheme = SchemeSpec.make("predicate")
        plain = make_simulate_job(trace, scheme)
        defaulted = make_simulate_job(
            trace, scheme, MachineSpec.make(rob_entries=256)
        )
        assert plain.key == defaulted.key

    def test_distinct_machines_distinct_keys(self):
        engine = ExecutionEngine(PROFILE)
        build = make_build_job("gzip", IF_CONVERTED, engine.factory)
        trace = make_trace_job(build, 2_000)
        scheme = SchemeSpec.make("predicate")
        small = make_simulate_job(trace, scheme, MachineSpec.make(rob_entries=64))
        large = make_simulate_job(trace, scheme, MachineSpec.make(rob_entries=128))
        assert small.key != large.key
        # The machine never leaks into the trace key: every machine of a
        # sweep replays the one cached trace of its cell.
        assert small.trace_key == large.trace_key == trace.key


class TestCacheSeparation:
    def test_two_rob_sizes_two_artifacts_different_ipc(self, tmp_path):
        # Regression test for the acceptance criterion: same benchmark and
        # scheme, two rob_entries values -> two simulate artifacts in the
        # store, with genuinely different IPC.
        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(PROFILE, store=store)
        scheme = SchemeSpec.make("predicate")
        tiny = engine.simulate(
            "gzip", IF_CONVERTED, scheme, machine=MachineSpec.make(rob_entries=8)
        )
        large = engine.simulate("gzip", IF_CONVERTED, scheme)
        assert engine.stats.simulations_run == 2
        assert store.usage()[RESULTS]["count"] == 2
        assert tiny.metrics.ipc != large.metrics.ipc

    def test_default_sweep_cell_reuses_cached_table1_artifact(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        scheme = SchemeSpec.make("predicate")
        # A plain (non-sweep) run populates the store...
        warm = ExecutionEngine(PROFILE, store=store)
        warm.simulate("gzip", IF_CONVERTED, scheme)
        assert warm.stats.simulations_run == 1
        # ... and the Table 1-default point of a sweep is served from it.
        cold = ExecutionEngine(PROFILE, store=store)
        cold.simulate(
            "gzip", IF_CONVERTED, scheme, machine=MachineSpec.make(rob_entries=256)
        )
        assert cold.stats.simulations_run == 0
        assert cold.stats.results_loaded == 1

    def test_machine_config_actually_reaches_the_core(self):
        # An 8-entry window must hurt: the override is not just a cache-key
        # ornament.
        engine = ExecutionEngine(PROFILE)
        scheme = SchemeSpec.make("predicate")
        tiny = engine.simulate(
            "gzip", IF_CONVERTED, scheme, machine=MachineSpec.make(rob_entries=8)
        )
        full = engine.simulate("gzip", IF_CONVERTED, scheme)
        assert tiny.metrics.ipc < full.metrics.ipc


class TestSchemeOptionNormalization:
    def test_default_valued_scheme_option_builds_plain_spec(self):
        # Mirrors MachineSpec normalization: the Table 1 point of a
        # predictor-budget axis (entries = 3634) must produce the plain
        # scheme spec — same token, same cache key, cached figure artifacts
        # reused.
        scenario = parse_scenario(
            {
                "scenario": {
                    "name": "budget",
                    "benchmarks": ["gzip"],
                    "schemes": ["conventional", "predicate"],
                    "instructions": 2_000,
                },
                "axes": {"scheme": {"entries": [16, 3634]}},
            }
        )
        spec = SweepSpec(scenario)
        default_point = next(
            p for p in spec.points() if dict(p.scheme_options)["entries"] == 3634
        )
        small_point = next(
            p for p in spec.points() if dict(p.scheme_options)["entries"] == 16
        )
        for kind in scenario.schemes:
            assert spec.scheme_spec(kind, default_point) == SchemeSpec.make(kind)
            assert spec.scheme_spec(kind, small_point) == SchemeSpec.make(
                kind, entries=16
            )

    def test_default_valued_boolean_option_builds_plain_spec(self):
        # Boolean factory flags normalize too: split_pvt=False IS the
        # default predicate scheme, so its point must reuse cached plain-
        # scheme artifacts instead of keying a duplicate.
        scenario = parse_scenario(
            {
                "scenario": {
                    "name": "pvt",
                    "benchmarks": ["gzip"],
                    "schemes": ["predicate"],
                    "instructions": 2_000,
                },
                "axes": {"scheme": {"split_pvt": [False, True]}},
            }
        )
        spec = SweepSpec(scenario)
        off, on = spec.points()
        assert spec.scheme_spec("predicate", off) == SchemeSpec.make("predicate")
        assert spec.scheme_spec("predicate", on) == SchemeSpec.make(
            "predicate", split_pvt=True
        )

    def test_run_sweep_rejects_mismatched_engine_budget(self):
        scenario = tiny_scenario()
        wrong = ExecutionEngine(
            ExperimentProfile(
                name="wrong",
                instructions_per_benchmark=9_999,
                benchmarks=["gzip"],
                profile_budget=2_000,
            )
        )
        with pytest.raises(ValueError, match="sweep_profile"):
            run_sweep(scenario, engine=wrong)

    def test_run_sweep_rejects_mismatched_profile_budget(self):
        # Same instruction budget, different profiling budget: different
        # if-conversion decisions, different binaries — rejected.
        scenario = tiny_scenario()
        wrong = ExecutionEngine(
            ExperimentProfile(
                name="wrong",
                instructions_per_benchmark=scenario.instructions,
                benchmarks=["gzip"],
                profile_budget=500,
            )
        )
        with pytest.raises(ValueError, match="profile_budget"):
            run_sweep(scenario, engine=wrong)


class TestRunSweep:
    def test_end_to_end_and_rerun_hits_cache(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        scenario = tiny_scenario()
        engine = ExecutionEngine(sweep_profile(scenario), store=store)
        run = run_sweep(scenario, engine=engine)
        # 2 points x 1 scheme x 1 benchmark.
        assert len(run.results) == 2
        assert engine.stats.simulations_run == 2

        again = ExecutionEngine(sweep_profile(scenario), store=store)
        rerun = run_sweep(scenario, engine=again)
        assert again.stats.simulations_run == 0
        assert again.stats.results_loaded == 2
        ipc = {point.describe(): result.metrics.ipc for (_, point, _), result in run.results.items()}
        ipc_again = {
            point.describe(): result.metrics.ipc
            for (_, point, _), result in rerun.results.items()
        }
        assert ipc == ipc_again

    def test_parallel_matches_serial(self, tmp_path):
        scenario = tiny_scenario(benchmarks=["gzip", "twolf"])
        serial = run_sweep(scenario, engine=ExecutionEngine(sweep_profile(scenario)))
        parallel = run_sweep(
            scenario,
            engine=ExecutionEngine(sweep_profile(scenario), jobs=2),
        )
        def key(run):
            return {
                (scheme, point.describe(), benchmark): result.metrics.ipc
                for (scheme, point, benchmark), result in run.results.items()
            }

        assert key(serial) == key(parallel)

    def test_report_renders_every_axis_value(self):
        scenario = tiny_scenario()
        run = run_sweep(scenario, engine=ExecutionEngine(sweep_profile(scenario)))
        report = render_sweep(run)
        assert "sweep: tiny" in report
        assert "rob_entries" in report
        assert " 64 |" in report  # the ASCII plot rows
        # Host time and cache state stay out of the report (the CLI prints
        # the engine line after it).
        assert "engine:" not in report

    def test_scheme_axis_changes_results_and_keys(self, tmp_path):
        scenario = parse_scenario(
            {
                "scenario": {
                    "name": "budget",
                    "benchmarks": ["gzip"],
                    "schemes": ["predicate"],
                    "instructions": 2_000,
                },
                "axes": {"scheme": {"entries": [16, 3634]}},
            }
        )
        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(sweep_profile(scenario), store=store)
        run = run_sweep(scenario, engine=engine)
        assert engine.stats.simulations_run == 2
        assert store.usage()[RESULTS]["count"] == 2
        rates = {
            point.describe(): result.accuracy.misprediction_rate
            for (_, point, _), result in run.results.items()
        }
        # A 16-entry table aliases differently than 3634 entries; at this
        # tiny budget the direction is noisy, but the results (and their
        # cache keys, via the scheme token) must be distinct.
        assert rates["entries=16"] != rates["entries=3634"]


class TestAsciiBars:
    def test_bars_scale_to_peak(self):
        lines = ascii_bars([("a", 1.0), ("b", 2.0)])
        assert lines[1].count("#") == 40
        assert lines[0].count("#") == 20

    def test_zero_values(self):
        lines = ascii_bars([("a", 0.0)])
        assert "#" not in lines[0]
