"""Planner tests: definitions expand into a deduplicated job DAG."""

import pytest

from repro.compiler.binaries import BinaryFactory
from repro.engine import BASELINE, IF_CONVERTED, SchemeSpec, plan, sweep
from repro.engine.planner import make_build_job, make_simulate_job, make_trace_job
from repro.experiments.ablations import (
    history_ablation_definition,
    pvt_ablation_definition,
)
from repro.experiments.figure5 import figure5_definition
from repro.experiments.figure6 import figure6_definition
from repro.experiments.idealized import idealized_definition
from repro.experiments.selective_ipc import selective_ipc_definition

BENCHMARKS = ["gzip", "swim"]


@pytest.fixture
def factory():
    return BinaryFactory(profile_budget=1_000)


def plan_graph(definitions, factory):
    return plan(definitions, instructions=1_000, factory=factory)


class TestSweep:
    def test_expansion(self):
        definition = sweep(
            "x", BENCHMARKS, BASELINE, {"a": SchemeSpec.make("conventional")}
        )
        assert definition.benchmarks() == BENCHMARKS
        assert definition.labels() == ["a"]
        assert len(definition.requests) == 2

    def test_unknown_flavour_rejected(self):
        with pytest.raises(ValueError):
            sweep("x", BENCHMARKS, "debug", {"a": SchemeSpec.make("conventional")})


class TestDedup:
    def test_schemes_share_one_trace_per_cell(self, factory):
        graph = plan_graph([figure6_definition(BENCHMARKS)], factory)
        # Three schemes per benchmark, but one build and one trace per cell.
        counts = graph.job_counts()
        assert counts == {"builds": 2, "traces": 2, "simulations": 6}

    def test_figure5_and_idealized_share_baseline_traces(self, factory):
        fig5 = figure5_definition(BENCHMARKS)
        ideal = idealized_definition(BASELINE, BENCHMARKS)
        separate = sum(
            plan_graph([d], factory).job_counts()["traces"] for d in (fig5, ideal)
        )
        combined = plan_graph([fig5, ideal], factory).job_counts()
        assert separate == 4
        assert combined["traces"] == 2
        assert combined["builds"] == 2
        # The schemes differ (real vs idealized), so simulations do not merge.
        assert combined["simulations"] == 8

    def test_figure5_plus_figure6_trace_jobs(self, factory):
        # Different flavours: the union is 2 cells per benchmark, not 5
        # trace collections (one per scheme) as a naive expansion would do.
        graph = plan_graph(
            [figure5_definition(BENCHMARKS), figure6_definition(BENCHMARKS)], factory
        )
        assert graph.job_counts() == {"builds": 4, "traces": 4, "simulations": 10}

    def test_identical_simulations_merge_across_experiments(self, factory):
        # figure6, both ablations and the IPC study all request the plain
        # predicate scheme over the if-converted trace: one simulate job.
        definitions = [
            figure6_definition(BENCHMARKS),
            pvt_ablation_definition(BENCHMARKS),
            history_ablation_definition(BENCHMARKS),
            selective_ipc_definition(BENCHMARKS),
        ]
        graph = plan_graph(definitions, factory)
        requested = graph.requested_simulations()
        unique = graph.job_counts()["simulations"]
        assert requested == 20  # (3 + 2 + 2 + 3) schemes x 2 benchmarks
        # predicate appears in all four, conventional in figure6 + ipc.
        assert unique == 12
        # Each experiment still addresses its own (benchmark, label) slots.
        for definition in definitions:
            table = graph.outputs[definition.name]
            assert set(table) == {
                (b, label)
                for b in BENCHMARKS
                for label in definition.labels()
            }

    def test_cells_group_by_benchmark_and_flavour(self, factory):
        graph = plan_graph([figure6_definition(BENCHMARKS)], factory)
        cells = graph.cells()
        assert set(cells) == {(b, IF_CONVERTED) for b in BENCHMARKS}
        assert all(len(jobs) == 3 for jobs in cells.values())


class TestKeys:
    def test_keys_are_stable_across_plans(self, factory):
        first = plan_graph([figure5_definition(BENCHMARKS)], factory)
        second = plan_graph([figure5_definition(BENCHMARKS)], factory)
        assert list(first.simulations) == list(second.simulations)
        assert list(first.traces) == list(second.traces)
        assert list(first.builds) == list(second.builds)

    def test_profile_budget_changes_build_keys(self):
        small = plan_graph([figure5_definition(BENCHMARKS)], BinaryFactory(profile_budget=500))
        large = plan_graph([figure5_definition(BENCHMARKS)], BinaryFactory(profile_budget=900))
        assert set(small.builds).isdisjoint(large.builds)

    def test_instruction_budget_changes_trace_keys_not_build_keys(self, factory):
        short = plan([figure5_definition(BENCHMARKS)], instructions=500, factory=factory)
        long = plan([figure5_definition(BENCHMARKS)], instructions=900, factory=factory)
        assert set(short.builds) == set(long.builds)
        assert set(short.traces).isdisjoint(long.traces)

    def test_code_fingerprint_changes_invalidate_every_key(self, monkeypatch, factory):
        from repro.engine import planner as planner_mod
        from repro.engine.hashing import code_fingerprint

        fingerprint = code_fingerprint()
        assert fingerprint == code_fingerprint()  # deterministic in-process
        base = plan_graph([figure5_definition(BENCHMARKS)], factory)
        monkeypatch.setattr(planner_mod, "code_fingerprint", lambda: "0" * 16)
        changed = plan_graph([figure5_definition(BENCHMARKS)], factory)
        assert set(base.builds).isdisjoint(changed.builds)
        assert set(base.traces).isdisjoint(changed.traces)
        assert set(base.simulations).isdisjoint(changed.simulations)

    def test_scheme_options_change_simulation_keys(self, factory):
        plain = sweep("x", BENCHMARKS, BASELINE, {"s": SchemeSpec.make("predicate")})
        tuned = sweep(
            "x", BENCHMARKS, BASELINE, {"s": SchemeSpec.make("predicate", split_pvt=True)}
        )
        graph_plain = plan_graph([plain], factory)
        graph_tuned = plan_graph([tuned], factory)
        assert set(graph_plain.simulations).isdisjoint(graph_tuned.simulations)
        assert set(graph_plain.traces) == set(graph_tuned.traces)


class TestPlanMemo:
    """Build and trace jobs are made once per (benchmark, flavour) per plan."""

    def _shootout(self):
        from repro.sweep.scenario import load_scenario
        from repro.sweep.spec import SweepSpec

        return SweepSpec(load_scenario("scheme-shootout")).definition()

    def test_shootout_fingerprints_each_benchmark_once(self, monkeypatch, factory):
        from repro.workloads import registry

        definition = self._shootout()
        calls = []
        original = registry.workload_fingerprint

        def counting(name):
            calls.append(name)
            return original(name)

        monkeypatch.setattr(registry, "workload_fingerprint", counting)
        plan_graph([definition], factory)
        assert len(definition.requests) == 220
        assert sorted(calls) == sorted(definition.benchmarks())
        assert len(calls) == 22

    def test_every_key_equals_the_standalone_job_key(self, factory):
        definition = self._shootout()
        graph = plan_graph([definition], factory)
        builds, traces, simulations = set(), set(), set()
        for request in definition.requests:
            build = make_build_job(request.benchmark, request.flavour, factory)
            trace = make_trace_job(build, 1_000)
            simulate = make_simulate_job(
                trace, request.scheme, request.machine, request.sampling
            )
            assert graph.builds[build.key] == build
            assert graph.traces[trace.key] == trace
            assert graph.simulations[simulate.key] == simulate
            assert graph.outputs[definition.name][(request.benchmark, request.label)] == (
                simulate.key
            )
            builds.add(build.key)
            traces.add(trace.key)
            simulations.add(simulate.key)
        assert (set(graph.builds), set(graph.traces), set(graph.simulations)) == (
            builds,
            traces,
            simulations,
        )

    def test_plan_keys_equal_a_stable_hash_reference_plan(self, factory):
        # The planner splices keys from per-part JSON texts; a reference
        # plan hashes every key's parts with stable_hash directly.
        from repro.emulator.trace import TRACE_FORMAT_VERSION
        from repro.engine import CellRequest, ExperimentDefinition
        from repro.engine.hashing import code_fingerprint, stable_hash
        from repro.engine.planner import machine_fingerprint
        from repro.engine.store import STORE_FORMAT_VERSION
        from repro.pipeline.machine import MachineSpec
        from repro.pipeline.windowed import SamplingSpec

        sampled = ExperimentDefinition(
            name="sampled",
            requests=[
                CellRequest(
                    benchmark="gzip",
                    flavour=BASELINE,
                    label="s",
                    scheme=SchemeSpec.make("predicate", split_pvt=True),
                    machine=MachineSpec.make(rob_entries=64),
                    sampling=SamplingSpec(interval=4, window=200, warmup=50),
                )
            ],
        )
        definitions = [
            self._shootout(),
            figure5_definition(BENCHMARKS),
            figure6_definition(BENCHMARKS),
            idealized_definition(IF_CONVERTED, BENCHMARKS),
            sampled,
        ]
        graph = plan_graph(definitions, factory)
        prefix = (STORE_FORMAT_VERSION, code_fingerprint())
        for build in graph.builds.values():
            fingerprint = factory.fingerprint(build.benchmark, build.flavour)
            assert build.key == stable_hash(*prefix, "binary", fingerprint)
        for trace in graph.traces.values():
            assert trace.key == stable_hash(
                *prefix, "trace", trace.build_key, 1_000, TRACE_FORMAT_VERSION
            )
        for job in graph.simulations.values():
            parts = [
                "result",
                job.trace_key,
                job.scheme.token(),
                machine_fingerprint(job.machine),
            ]
            if job.sampling is not None:
                parts.append(job.sampling.token())
            assert job.key == stable_hash(*prefix, *parts)
        assert sum(job.sampling is not None for job in graph.simulations.values()) == 1

    def test_a_spec_file_edited_between_plans_gets_a_new_build_key(
        self, tmp_path, factory
    ):
        import json

        path = tmp_path / "custom.json"

        def write(seed):
            path.write_text(
                json.dumps(
                    {
                        "workload": {"name": "custom", "category": "int", "seed": seed},
                        "hard_regions": [{"bias": 0.62, "body_size": 4}],
                    }
                )
            )

        def build_keys():
            definition = sweep(
                "x", ["gzip", str(path)], IF_CONVERTED, {"a": SchemeSpec.make("predicate")}
            )
            graph = plan_graph([definition], factory)
            return {job.benchmark: key for key, job in graph.builds.items()}

        write(5)
        before = build_keys()
        write(6)
        after = build_keys()
        assert after["gzip"] == before["gzip"]
        assert after[str(path)] != before[str(path)]
