"""The ``repro sweep`` command: listing, running, writing, overrides."""

from __future__ import annotations

import os
import sys

import pytest

from repro.cli import main

HAVE_TOMLLIB = sys.version_info >= (3, 11)

needs_tomllib = pytest.mark.skipif(
    not HAVE_TOMLLIB, reason="built-in scenarios are TOML (Python 3.11+)"
)


class TestSweepCommand:
    def test_list_scenarios(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "rob-scaling" in out
        assert "rob_entries" in out  # the sweepable-parameter listing

    def test_bare_sweep_lists_too(self, capsys):
        assert main(["sweep"]) == 0
        assert "built-in scenarios" in capsys.readouterr().out

    def test_unknown_scenario_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["sweep", "no-such-scenario"])

    @needs_tomllib
    def test_non_positive_instruction_override_rejected(self):
        with pytest.raises(SystemExit, match="positive integer"):
            main(["--instructions", "0", "sweep", "rob-scaling", "--no-write"])

    @needs_tomllib
    def test_run_writes_report_and_rerun_hits_cache(self, tmp_path, capsys):
        output_dir = str(tmp_path / "results")
        argv = [
            "--instructions",
            "1500",
            "--benchmarks",
            "gzip",
            "sweep",
            "rob-scaling",
            "--output-dir",
            output_dir,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        path = os.path.join(output_dir, "sweep_rob_scaling.txt")
        assert os.path.exists(path)
        assert f"wrote {path}" in out
        assert "ran 8 simulations (0 cached)" in out
        with open(path, encoding="utf-8") as handle:
            cold = handle.read()
        # The engine line is printed, not written: the report file holds no
        # host time or cache state.
        assert "engine:" not in cold
        assert cold.rstrip("\n") in out

        # The rerun rebuilds nothing: every simulate job is served from the
        # persistent artifact store (the conftest points REPRO_CACHE_DIR at
        # this test's scratch directory).
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ran 0 simulations (8 cached)" in out
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == cold

    @needs_tomllib
    def test_jobs_accepted_after_subcommand(self, tmp_path, capsys):
        # The acceptance-criterion form: `repro sweep rob-scaling --jobs 4`.
        output_dir = str(tmp_path / "results")
        argv = [
            "--instructions",
            "1000",
            "--benchmarks",
            "gzip",
            "sweep",
            "rob-scaling",
            "--output-dir",
            output_dir,
            "--jobs",
            "2",
        ]
        assert main(argv) == 0
        assert os.path.exists(os.path.join(output_dir, "sweep_rob_scaling.txt"))

    @needs_tomllib
    def test_no_write(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [
            "--instructions",
            "1000",
            "--benchmarks",
            "gzip",
            "sweep",
            "predictor-budget",
            "--no-write",
        ]
        assert main(argv) == 0
        assert "entries" in capsys.readouterr().out
        assert not os.path.exists(tmp_path / "results")
