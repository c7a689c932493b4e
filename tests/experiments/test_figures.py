"""Structural tests of the figure/experiment harness on a tiny profile.

These tests verify that every experiment produces well-formed results and
that the headline quantities are computed consistently; the *shape* of the
results against the paper is checked by the integration tests and measured
by the benchmark harness.
"""

import pytest

from repro.experiments import (
    run_figure5,
    run_figure6,
    run_history_ablation,
    run_idealized_study,
    run_pvt_ablation,
    run_selective_ipc,
)
from repro.engine import BASELINE, IF_CONVERTED, ExecutionEngine
from repro.experiments.setup import ExperimentProfile


@pytest.fixture(scope="module")
def tiny_profile():
    return ExperimentProfile(
        name="tiny",
        instructions_per_benchmark=2_500,
        benchmarks=["gzip", "swim"],
        profile_budget=2_500,
    )


@pytest.fixture(scope="module")
def shared_engine(tiny_profile):
    return ExecutionEngine(tiny_profile)


class TestFigure5:
    def test_structure(self, tiny_profile, shared_engine):
        result = run_figure5(engine=shared_engine)
        assert set(result.table.benchmarks()) == {"gzip", "swim"}
        assert set(result.table.columns) == {"conventional", "predicate-predictor"}
        assert result.predicate_wins + result.conventional_wins <= 2
        for benchmark in result.table.benchmarks():
            assert 0.0 <= result.table.value(benchmark, "conventional") <= 1.0
        assert "accuracy increase" in result.render()
        assert result.early_resolved["gzip"] >= 0.0


class TestFigure6:
    def test_structure(self, tiny_profile, shared_engine):
        result = run_figure6(engine=shared_engine)
        assert set(result.table.columns) == {
            "pep-pa", "conventional", "predicate-predictor",
        }
        assert len(result.breakdown) == 2
        for item in result.breakdown:
            total = item.total_improvement
            assert total == pytest.approx(
                item.early_resolved_improvement + item.correlation_improvement
            )
        assert 0 <= result.predicate_best_count <= 2
        rendered = result.render()
        assert "Figure 6b" in rendered


class TestIdealized:
    def test_both_flavours(self, tiny_profile, shared_engine):
        baseline = run_idealized_study(BASELINE, engine=shared_engine)
        converted = run_idealized_study(IF_CONVERTED, engine=shared_engine)
        assert baseline.flavour == BASELINE
        assert converted.flavour == IF_CONVERTED
        assert baseline.table.benchmarks() == ["gzip", "swim"]
        assert "Idealized" in baseline.render() or "idealized" in baseline.render()

    def test_unknown_flavour_rejected(self, shared_engine):
        with pytest.raises(ValueError):
            run_idealized_study("debug", engine=shared_engine)


class TestAblations:
    def test_pvt_ablation(self, shared_engine):
        result = run_pvt_ablation(engine=shared_engine)
        assert "dual-hash single PVT" in result.table.columns
        assert "split PVT" in result.table.columns
        assert "design" in result.render()

    def test_history_ablation(self, shared_engine):
        result = run_history_ablation(engine=shared_engine)
        assert "oracle history" in result.table.columns


class TestSelectiveIPC:
    def test_structure(self, shared_engine):
        result = run_selective_ipc(engine=shared_engine)
        assert result.speedup_over_conservative > 0.0
        assert result.speedup_over_non_selective > 0.0
        for benchmark, fraction in result.cancelled_fraction.items():
            assert 0.0 <= fraction <= 1.0
        assert "IPC" in result.render()
