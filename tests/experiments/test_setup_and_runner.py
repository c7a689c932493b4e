"""Tests for experiment configuration and the engine it drives."""

import pytest

from repro.engine import BASELINE, IF_CONVERTED, ExecutionEngine, SchemeSpec
from repro.experiments.setup import (
    FAST_PROFILE,
    PAPER_PROFILE,
    ExperimentProfile,
    make_conventional_scheme,
    make_peppa_scheme,
    make_predicate_scheme,
    paper_table1,
    profile_from_environment,
)


class TestTable1:
    def test_contains_every_row_of_the_paper_table(self):
        table = paper_table1()
        for key in (
            "Fetch Width",
            "Issue Queues",
            "Reorder Buffer",
            "L1D",
            "L1I",
            "L2 unified",
            "DTLB",
            "ITLB",
            "Main Memory",
            "Multilevel Branch Predictor",
            "Predicate Predictor",
        ):
            assert key in table

    def test_headline_values(self):
        table = paper_table1()
        assert "6 instructions" in table["Fetch Width"]
        assert "256 entries" in table["Reorder Buffer"]
        assert "120 cycles" in table["Main Memory"]
        assert "148KB" in table["Predicate Predictor"].replace("~", "")


class TestProfiles:
    def test_fast_profile_is_small(self):
        assert FAST_PROFILE.instructions_per_benchmark < PAPER_PROFILE.instructions_per_benchmark
        assert FAST_PROFILE.benchmarks is not None

    def test_with_benchmarks(self):
        profile = PAPER_PROFILE.with_benchmarks(["gzip"])
        assert profile.benchmarks == ["gzip"]
        assert profile.instructions_per_benchmark == PAPER_PROFILE.instructions_per_benchmark

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
        monkeypatch.setenv("REPRO_BENCH_BENCHMARKS", "gzip, swim")
        profile = profile_from_environment()
        assert profile.instructions_per_benchmark == 1234
        assert profile.benchmarks == ["gzip", "swim"]

    def test_environment_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_INSTRUCTIONS", raising=False)
        monkeypatch.delenv("REPRO_BENCH_BENCHMARKS", raising=False)
        profile = profile_from_environment()
        assert profile.instructions_per_benchmark == PAPER_PROFILE.instructions_per_benchmark


class TestSchemeFactories:
    def test_sizes_match_paper_budgets(self):
        conventional = make_conventional_scheme()
        peppa = make_peppa_scheme()
        predicate = make_predicate_scheme()
        assert 148 <= conventional.predictor.size_report().total_kib <= 160
        assert abs(peppa.predictor.size_report().total_kib - 144) < 1
        assert 140 <= predicate.predictor.size_report().total_kib <= 156

    def test_option_plumbing(self):
        scheme = make_predicate_scheme(
            selective_predication=False, ideal_no_alias=True, perfect_history=True
        )
        assert scheme.options.selective_predication is False
        assert scheme.options.ideal_no_alias is True
        assert scheme.options.perfect_history is True

    def test_split_pvt_option(self):
        scheme = make_predicate_scheme(split_pvt=True)
        assert scheme.predictor.config.split_pvt is True


class TestEngineOverProfile:
    """The experiments' shared engine, driven by an experiment profile.

    Binary/trace identity caching, unknown flavours and trace release are
    pinned by the engine's own tests (``tests/engine/test_engine_executor.py``).
    """

    @pytest.fixture(scope="class")
    def engine(self):
        profile = ExperimentProfile(
            name="tiny", instructions_per_benchmark=1_500,
            benchmarks=["gzip"], profile_budget=1_500,
        )
        return ExecutionEngine(profile)

    def test_benchmarks_come_from_profile(self, engine):
        assert engine.benchmarks() == ["gzip"]

    def test_flavours_differ(self, engine):
        baseline = engine.build_binary("gzip", BASELINE)
        converted = engine.build_binary("gzip", IF_CONVERTED)
        assert baseline.metadata["predication_enabled"] is False
        assert converted.metadata["predication_enabled"] is True

    def test_schemes_share_trace(self, engine):
        conv = engine.simulate("gzip", BASELINE, SchemeSpec.make("conventional"))
        pred = engine.simulate("gzip", BASELINE, SchemeSpec.make("predicate"))
        assert conv.accuracy.branches == pred.accuracy.branches
        assert conv.program_name == "gzip"
        assert engine.stats.traces_collected == 1
