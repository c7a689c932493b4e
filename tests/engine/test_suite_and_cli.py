"""End-to-end tests: figure tables via the engine, `repro all`, cache CLI."""

import os

import pytest

from repro.cli import main
from repro.engine import ArtifactStore, ExecutionEngine
from repro.experiments.figure5 import run_figure5
from repro.experiments.setup import ExperimentProfile
from repro.experiments.suite import run_all, write_reports

PROFILE = ExperimentProfile(
    name="suite-test",
    instructions_per_benchmark=1_000,
    benchmarks=["gzip", "swim"],
    profile_budget=1_000,
)


class TestParallelTables:
    def test_figure5_tables_bit_identical_across_job_counts(self):
        serial = run_figure5(engine=ExecutionEngine(PROFILE, jobs=1))
        parallel = run_figure5(engine=ExecutionEngine(PROFILE, jobs=4))
        assert serial.table.rows == parallel.table.rows
        assert serial.average_accuracy_increase == parallel.average_accuracy_increase
        assert serial.early_resolved == parallel.early_resolved
        assert serial.render() == parallel.render()


class TestRunAll:
    def test_shared_pass_produces_every_report(self, tmp_path):
        engine = ExecutionEngine(
            PROFILE, store=ArtifactStore(str(tmp_path / "cache"))
        )
        suite = run_all(engine=engine)
        assert set(suite.reports) == {
            "table1",
            "figure5",
            "figure6",
            "idealized_baseline",
            "idealized_if_converted",
            "ablation_pvt",
            "ablation_history",
            "selective_ipc",
        }
        # One deduplicated pass: 2 flavours x 2 benchmarks, built once each.
        assert engine.stats.binaries_built == 4
        assert engine.stats.traces_collected == 4
        # 32 requested simulations collapse to 24 unique ones.
        assert engine.stats.simulations_run == 24
        written = write_reports(suite, str(tmp_path / "reports"))
        assert len(written) == 8
        for path in written:
            assert os.path.getsize(path) > 0

    def test_rerun_is_served_from_store(self, tmp_path):
        store_root = str(tmp_path / "cache")
        cold = run_all(engine=ExecutionEngine(PROFILE, store=ArtifactStore(store_root)))
        again = ExecutionEngine(PROFILE, store=ArtifactStore(store_root))
        suite = run_all(engine=again)
        assert again.stats.binaries_built == 0
        assert again.stats.traces_collected == 0
        # The idealized oracle comes from the stored results: no trace is
        # even loaded.
        assert again.stats.traces_loaded == 0
        assert again.stats.simulations_run == 0
        assert again.stats.results_loaded == 24
        assert suite.reports == cold.reports


class TestCacheCli:
    @pytest.fixture
    def cache_env(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cli-cache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        return cache_dir

    def test_cache_path(self, cache_env, capsys):
        assert main(["cache", "path"]) == 0
        assert capsys.readouterr().out.strip() == cache_env

    def test_cache_dir_flag_overrides_env(self, cache_env, tmp_path, capsys):
        explicit = str(tmp_path / "explicit")
        assert main(["--cache-dir", explicit, "cache", "path"]) == 0
        assert capsys.readouterr().out.strip() == explicit

    def test_figure5_populates_cache_and_second_run_hits_it(self, cache_env, capsys):
        argv = ["--instructions", "1000", "--benchmarks", "swim", "figure5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Figure 5" in first
        store = ArtifactStore(cache_env)
        stats = store.stats()
        assert stats["binaries"]["count"] == 1
        assert stats["traces"]["count"] == 1
        assert stats["results"]["count"] == 2
        # Second run: identical report, nothing new in the store.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert second == first
        assert store.stats() == stats

    def test_no_cache_flag_leaves_store_empty(self, cache_env, capsys):
        argv = [
            "--instructions", "1000", "--benchmarks", "swim", "--no-cache", "figure5",
        ]
        assert main(argv) == 0
        assert not os.path.exists(cache_env)

    def test_cache_stats_and_clear(self, cache_env, capsys):
        main(["--instructions", "1000", "--benchmarks", "swim", "figure5"])
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "binaries" in out and "traces" in out and "results" in out
        assert main(["cache", "clear", "--kind", "results"]) == 0
        assert "removed 2 artifacts (results)" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 2 artifacts (all kinds)" in capsys.readouterr().out
        assert ArtifactStore(cache_env).stats()["binaries"]["count"] == 0

    def test_all_command_writes_reports(self, cache_env, tmp_path, capsys):
        out_dir = str(tmp_path / "reports")
        argv = [
            "--instructions", "1000", "--benchmarks", "swim",
            "all", "--output-dir", out_dir,
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "wrote 8 reports" in output
        assert sorted(os.listdir(out_dir)) == sorted(
            [
                "table1.txt",
                "figure5.txt",
                "figure6.txt",
                "idealized_baseline.txt",
                "idealized_if_converted.txt",
                "ablation_pvt.txt",
                "ablation_history.txt",
                "selective_ipc.txt",
            ]
        )

    def test_jobs_flag_accepted(self, cache_env, capsys):
        argv = [
            "--instructions", "1000", "--benchmarks", "gzip,swim",
            "--jobs", "2", "figure5",
        ]
        assert main(argv) == 0
        assert "Figure 5" in capsys.readouterr().out
