"""The unified :func:`repro.engine.run.run_cells` entrypoint.

Every consumer — the CLI experiments, the sweep runner, the serve
scheduler, the public :mod:`repro.api` facade — funnels cell requests
through this one function, so its validation and outcome contract are
pinned here, along with the experiments' ``resolve_engine`` helper.
"""

from __future__ import annotations

import inspect

import pytest

from repro import experiments
from repro.engine import (
    ArtifactStore,
    BASELINE,
    CellRequest,
    ExecutionEngine,
    SchemeSpec,
    run_cells,
)
from repro.engine.executor import resolve_engine
from repro.experiments.setup import ExperimentProfile

EXPERIMENTS = [
    "run_figure5",
    "run_figure6",
    "run_history_ablation",
    "run_pvt_ablation",
    "run_idealized_study",
    "run_selective_ipc",
    "run_all",
]


def _request(benchmark="gzip", label="conv", scheme_kind="conventional"):
    return CellRequest(
        benchmark=benchmark,
        flavour=BASELINE,
        label=label,
        scheme=SchemeSpec.make(scheme_kind),
    )


class TestRunCells:
    def test_runs_and_returns_outcome(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        outcome = run_cells([_request()], store=store, instructions=1500)
        assert outcome.stats.simulations_run == 1
        assert ("gzip", "conv") in outcome.results
        result = outcome.results[("gzip", "conv")]
        assert result.metrics.committed_instructions > 0
        assert outcome.engine is not None
        assert outcome.timings  # one JobTiming per simulate job

    def test_second_run_is_served_from_the_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        first = run_cells([_request()], store=store, instructions=1500)
        second = run_cells([_request()], store=store, instructions=1500)
        assert second.stats.simulations_run == 0
        assert second.stats.results_loaded == 1
        key = ("gzip", "conv")
        assert second.results[key].metrics.ipc == first.results[key].metrics.ipc

    def test_existing_engine_is_reused(self, tmp_path):
        profile = ExperimentProfile(
            name="reuse", instructions_per_benchmark=1500, profile_budget=1500
        )
        engine = ExecutionEngine(profile, store=None)
        outcome = run_cells([_request()], engine=engine)
        assert outcome.engine is engine

    def test_empty_requests_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            run_cells([], instructions=1500)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_cells([_request(), _request()], instructions=1500)

    def test_engine_and_construction_options_conflict(self, tmp_path):
        profile = ExperimentProfile(
            name="conflict", instructions_per_benchmark=1500, profile_budget=1500
        )
        engine = ExecutionEngine(profile, store=None)
        with pytest.raises(ValueError, match="engine"):
            run_cells([_request()], engine=engine, instructions=1500)


class TestResolveEngine:
    def test_engine_keyword_does_not_warn(self, recwarn):
        profile = ExperimentProfile(
            name="clean", instructions_per_benchmark=1500, profile_budget=1500
        )
        engine = ExecutionEngine(profile, store=None)
        assert resolve_engine(engine=engine) is engine
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    def test_runner_keyword_is_gone(self):
        with pytest.raises(TypeError, match="runner"):
            resolve_engine(runner=object())

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_experiments_take_engine_not_runner(self, name):
        experiment = getattr(experiments, name)
        parameters = inspect.signature(experiment).parameters
        assert parameters["engine"].default is None
        assert "runner" not in parameters
        with pytest.raises(TypeError, match="runner"):
            experiment(runner=object())
