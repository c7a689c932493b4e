"""The idealized study's static-oracle bound, taken from its own results."""

from __future__ import annotations

import dataclasses

import pytest

from repro.emulator.trace import trace_statistics
from repro.engine import BASELINE, IF_CONVERTED, ExecutionEngine
from repro.experiments.idealized import (
    CONVENTIONAL,
    PREDICATE,
    collect_idealized,
    idealized_definition,
    static_oracle_accuracy,
)
from repro.experiments.setup import ExperimentProfile
from repro.pipeline.windowed import SamplingSpec
from repro.workloads.spec_suite import workload_names

PROFILE = ExperimentProfile(
    name="oracle-test",
    instructions_per_benchmark=1_500,
    benchmarks=workload_names(),
    profile_budget=1_500,
)


@pytest.fixture(scope="module")
def engine():
    return ExecutionEngine(PROFILE, max_cached_traces=1)


@pytest.mark.parametrize("flavour", [BASELINE, IF_CONVERTED])
def test_oracle_from_results_equals_the_trace_oracle(engine, flavour):
    benchmarks = PROFILE.benchmarks
    definition = idealized_definition(flavour, benchmarks)
    outputs = engine.run([definition])[definition.name]
    study = collect_idealized(outputs, benchmarks, flavour)
    assert list(study.oracle_accuracy) == benchmarks
    for benchmark in benchmarks:
        trace = engine.collect_trace(benchmark, flavour)
        expected = trace_statistics(trace).static_oracle_accuracy()
        assert study.oracle_accuracy[benchmark] == expected, benchmark
        # Either scheme's result records every conditional branch.
        predicate = outputs[(benchmark, PREDICATE)]
        assert static_oracle_accuracy(predicate) == expected, benchmark
        assert outputs[(benchmark, CONVENTIONAL)].accuracy.branches == (
            trace_statistics(trace).conditional_branches
        )


def test_sampled_result_is_rejected(engine):
    definition = idealized_definition(BASELINE, ["gzip"])
    result = engine.run([definition])[definition.name][("gzip", CONVENTIONAL)]
    sampled = dataclasses.replace(result, sampling=SamplingSpec(interval=2))
    with pytest.raises(ValueError, match="full simulation"):
        static_oracle_accuracy(sampled)
