"""End-to-end shape tests.

These are the reproduction's acceptance tests: on a small (but not tiny)
instruction budget, the qualitative relations the paper reports must hold
for a representative benchmark subset.  The full-suite, larger-budget
numbers are produced by the benchmark harness.
"""

import pytest

from repro.core.early_resolution import accuracy_breakdown
from repro.engine import BASELINE, IF_CONVERTED, ExecutionEngine, SchemeSpec
from repro.experiments.setup import ExperimentProfile

BENCHMARKS = ["gzip", "crafty", "vpr"]


@pytest.fixture(scope="module")
def engine():
    profile = ExperimentProfile(
        name="shape",
        instructions_per_benchmark=12_000,
        benchmarks=BENCHMARKS,
        profile_budget=8_000,
    )
    return ExecutionEngine(profile)


def _run_schemes(engine, benchmark, flavour, kinds):
    """Simulate one benchmark under several schemes over the same trace."""
    return {kind: engine.simulate(benchmark, flavour, SchemeSpec.make(kind)) for kind in kinds}


@pytest.fixture(scope="module")
def if_converted_runs(engine):
    return {
        benchmark: _run_schemes(
            engine, benchmark, IF_CONVERTED, ["conventional", "pep-pa", "predicate"]
        )
        for benchmark in BENCHMARKS
    }


@pytest.fixture(scope="module")
def baseline_runs(engine):
    return {
        benchmark: _run_schemes(engine, benchmark, BASELINE, ["conventional", "predicate"])
        for benchmark in BENCHMARKS
    }


class TestFigure5Shape:
    def test_predicate_predictor_not_worse_on_average(self, baseline_runs):
        deltas = [
            runs["conventional"].misprediction_rate - runs["predicate"].misprediction_rate
            for runs in baseline_runs.values()
        ]
        assert sum(deltas) / len(deltas) > 0.0

    def test_rates_in_plausible_range(self, baseline_runs):
        for runs in baseline_runs.values():
            for run in runs.values():
                assert 0.0 < run.misprediction_rate < 0.35

    def test_some_branches_early_resolved(self, baseline_runs):
        early = [
            runs["predicate"].accuracy.early_resolved_fraction
            for runs in baseline_runs.values()
        ]
        assert max(early) > 0.02


class TestFigure6Shape:
    def test_predicate_predictor_is_best_on_if_converted_code(self, if_converted_runs):
        for benchmark, runs in if_converted_runs.items():
            best_other = min(
                runs["conventional"].misprediction_rate,
                runs["pep-pa"].misprediction_rate,
            )
            assert runs["predicate"].misprediction_rate <= best_other + 0.01, benchmark

    def test_peppa_not_better_than_conventional_on_average(self, if_converted_runs):
        deltas = [
            runs["pep-pa"].misprediction_rate - runs["conventional"].misprediction_rate
            for runs in if_converted_runs.values()
        ]
        assert sum(deltas) / len(deltas) >= 0.0

    def test_breakdown_components_positive_overall(self, if_converted_runs):
        early_total = 0.0
        improvement_total = 0.0
        for benchmark, runs in if_converted_runs.items():
            breakdown = accuracy_breakdown(
                benchmark,
                conventional=runs["conventional"].accuracy,
                predicate=runs["predicate"].accuracy,
            )
            early_total += breakdown.early_resolved_improvement
            improvement_total += breakdown.total_improvement
        assert improvement_total > 0.0
        assert early_total >= 0.0

    def test_if_conversion_gap_larger_than_baseline_gap(self, baseline_runs, if_converted_runs):
        baseline_gap = sum(
            runs["conventional"].misprediction_rate - runs["predicate"].misprediction_rate
            for runs in baseline_runs.values()
        )
        converted_gap = sum(
            runs["conventional"].misprediction_rate - runs["predicate"].misprediction_rate
            for runs in if_converted_runs.values()
        )
        assert converted_gap > baseline_gap


class TestSchemesSeeSameTrace:
    def test_branch_counts_identical_across_schemes(self, if_converted_runs):
        for runs in if_converted_runs.values():
            counts = {run.accuracy.branches for run in runs.values()}
            assert len(counts) == 1
