"""The bench harness, the regression gate and the CLI entry points."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.engine import IF_CONVERTED, ArtifactStore, ExecutionEngine, SchemeSpec
from repro.experiments.setup import ExperimentProfile
from repro.perf import bench
from repro.perf.compare import compare_reports, throughput_score
from repro.perf.report import render_table

TINY_CELLS = (bench.BenchCell("gzip", IF_CONVERTED, "conventional"),)


@pytest.fixture(scope="module")
def tiny_report():
    return bench.run_bench(quick=True, instructions=3_000, cells=TINY_CELLS)


class TestRunBench:
    def test_report_shape(self, tiny_report):
        report = tiny_report
        assert report["schema"] == bench.SCHEMA
        assert "optimized" not in report
        assert set(report["machine"]["lane_batching"]) == {"quick_batch_cells"}
        assert report["calibration_mops"] > 0
        assert len(report["cells"]) == 1
        cell = report["cells"][0]
        assert cell["benchmark"] == "gzip"
        assert cell["instructions"] == 3_000
        assert cell["cycles"] > 0
        assert cell["sim_seconds"] > 0
        assert cell["sim_instructions_per_second"] > 0
        aggregate = report["aggregate"]
        assert aggregate["total_instructions"] == 3_000
        assert aggregate["instructions_per_second"] > 0
        assert aggregate["normalized_score"] > 0

    def test_trace_metrics_present(self, tiny_report):
        cell = tiny_report["cells"][0]
        assert cell["trace_instructions"] == 3_000
        assert cell["trace_seconds"] > 0
        assert cell["trace_instructions_per_second"] > 0
        assert cell["trace_disk_bytes"] > 0
        assert cell["trace_peak_alloc_bytes"] > 0
        aggregate = tiny_report["aggregate"]
        assert aggregate["total_trace_disk_bytes"] == cell["trace_disk_bytes"]
        assert aggregate["trace_instructions_per_second"] > 0
        assert aggregate["peak_trace_alloc_bytes"] == cell["trace_peak_alloc_bytes"]

    def test_write_and_load_roundtrip(self, tiny_report, tmp_path):
        path = bench.write_report(tiny_report, str(tmp_path / "sub" / "bench.json"))
        assert bench.load_report(path)["schema"] == bench.SCHEMA

    def test_default_output_path_uses_revision(self, tiny_report):
        path = bench.default_output_path(tiny_report, directory="/tmp")
        assert path == f"/tmp/BENCH_{tiny_report['revision']}.json"

    def test_render_table_mentions_every_cell(self, tiny_report):
        table = render_table(tiny_report)
        assert "gzip" in table
        assert "aggregate:" in table
        assert "calibration" in table


    def test_run_bench_has_no_mode_switch(self):
        with pytest.raises(TypeError, match="optimized"):
            bench.run_bench(quick=True, cells=TINY_CELLS, optimized=False)


class TestCellFilter:
    def test_filter_selects_matching_cells(self):
        selected = bench.filter_cells(bench.QUICK_CELLS, "predicate")
        assert selected
        assert all("predicate" in cell.label() for cell in selected)

    def test_filter_matches_full_label_components(self):
        selected = bench.filter_cells(bench.QUICK_CELLS, "twolf/baseline")
        assert [cell.label() for cell in selected] == ["twolf/baseline/conventional"]

    def test_empty_filter_keeps_everything(self):
        assert bench.filter_cells(bench.QUICK_CELLS, None) == bench.QUICK_CELLS
        assert bench.filter_cells(bench.QUICK_CELLS, "") == bench.QUICK_CELLS

    def test_unmatched_filter_raises(self):
        with pytest.raises(ValueError, match="no bench cells match"):
            bench.filter_cells(bench.QUICK_CELLS, "no-such-cell")

    def test_run_bench_records_filter(self):
        report = bench.run_bench(
            quick=True, instructions=2_000, cell_filter="twolf/baseline"
        )
        assert report["filter"] == "twolf/baseline"
        assert len(report["cells"]) == 1
        assert report["cells"][0]["benchmark"] == "twolf"


class TestIngestCell:
    @pytest.fixture(scope="class")
    def ingest_report(self):
        cells = (bench.IngestBenchCell("synthetic", 5_000),)
        return bench.run_bench(quick=True, cells=cells)

    def test_ingest_cell_reports_through_trace_columns(self, ingest_report):
        (cell,) = ingest_report["cells"]
        assert cell["scheme"] == "ingest:synthetic-x5000"
        assert cell["ingest_lines"] == 5_000
        assert cell["trace_instructions"] == 5_000
        assert cell["trace_seconds"] > 0
        assert cell["trace_instructions_per_second"] > 0
        assert cell["trace_disk_bytes"] > 0
        assert cell["trace_peak_alloc_bytes"] > 0
        # No simulation ran: nothing leaks into the gated sim aggregate.
        assert cell["instructions"] == 0 and cell["sim_seconds"] == 0.0
        assert ingest_report["aggregate"]["total_instructions"] == 0

    def test_ingest_trajectory_lands_in_the_history_row(self, ingest_report):
        row = bench.history_row(ingest_report)
        assert row["ingest_lines_per_second"] > 0
        assert row["ingest_peak_alloc_bytes"] > 0

    def test_quick_suite_carries_one_ingest_cell(self):
        ingest = [
            cell
            for cell in bench.QUICK_CELLS
            if isinstance(cell, bench.IngestBenchCell)
        ]
        assert len(ingest) == 1
        assert "ingest:" in ingest[0].label()

    def test_render_table_handles_ingest_rows(self, ingest_report):
        table = render_table(ingest_report)
        assert "ingest:synthetic-x5000" in table


class TestHistory:
    def test_append_history_writes_jsonl_rows(self, tiny_report, tmp_path):
        directory = str(tmp_path / "history")
        path = bench.append_history(tiny_report, directory)
        bench.append_history(tiny_report, directory)
        with open(path, "r", encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
        assert len(rows) == 2
        assert rows[0]["revision"] == tiny_report["revision"]
        assert rows[0]["normalized_score"] == pytest.approx(
            tiny_report["aggregate"]["normalized_score"]
        )
        assert rows[0]["total_trace_disk_bytes"] > 0
        # Filtered runs must be distinguishable in the trajectory.
        assert rows[0]["filter"] is None
        assert rows[0]["cell_count"] == len(tiny_report["cells"])
        assert path.endswith("quick.jsonl")


class TestRegressionGate:
    def _report(self, ips, calibration=20.0):
        return {
            "revision": "test",
            "calibration_mops": calibration,
            "aggregate": {"instructions_per_second": ips},
        }

    def test_equal_reports_pass(self):
        ok, _ = compare_reports(self._report(100e3), self._report(100e3))
        assert ok

    def test_injected_30_percent_slowdown_fails(self):
        ok, lines = compare_reports(
            self._report(70e3), self._report(100e3), max_regression=0.25
        )
        assert not ok
        assert any("FAILED" in line for line in lines)

    def test_20_percent_slowdown_passes_at_default_threshold(self):
        ok, _ = compare_reports(self._report(80e3), self._report(100e3))
        assert ok

    def test_normalization_forgives_a_uniformly_slower_machine(self):
        # Same work on a machine half as fast: raw inst/s halves, but so
        # does the calibration -> normalized score is unchanged.
        fast_machine = self._report(100e3, calibration=20.0)
        slow_machine = self._report(50e3, calibration=10.0)
        score_fast, kind = throughput_score(fast_machine)
        score_slow, _ = throughput_score(slow_machine)
        assert kind == "normalized"
        assert score_fast == pytest.approx(score_slow)
        ok, _ = compare_reports(slow_machine, fast_machine)
        assert ok

    def test_falls_back_to_raw_when_calibration_missing(self):
        without = self._report(70e3, calibration=0.0)
        ok, _ = compare_reports(without, self._report(100e3))
        assert not ok

    def test_zero_baseline_skips_gate(self):
        ok, lines = compare_reports(self._report(100e3), self._report(0.0))
        assert ok
        assert any("skipped" in line for line in lines)

    def _report_with_traces(self, ips, trace_bytes):
        report = self._report(ips)
        report["aggregate"]["total_trace_disk_bytes"] = trace_bytes
        return report

    def test_trace_size_growth_fails(self):
        ok, lines = compare_reports(
            self._report_with_traces(100e3, 200_000),
            self._report_with_traces(100e3, 100_000),
            max_regression=0.25,
        )
        assert not ok
        assert any("trace-size gate FAILED" in line for line in lines)

    def test_trace_size_within_tolerance_passes(self):
        ok, lines = compare_reports(
            self._report_with_traces(100e3, 110_000),
            self._report_with_traces(100e3, 100_000),
            max_regression=0.25,
        )
        assert ok
        assert any("trace-size gate PASSED" in line for line in lines)

    def test_trace_size_shrink_passes(self):
        ok, _ = compare_reports(
            self._report_with_traces(100e3, 40_000),
            self._report_with_traces(100e3, 480_000),
        )
        assert ok

    def test_missing_trace_bytes_skips_size_gate(self):
        # v1 baseline reports carry no trace-size aggregate.
        ok, lines = compare_reports(
            self._report_with_traces(100e3, 40_000), self._report(100e3)
        )
        assert ok
        assert not any("trace-size" in line for line in lines)


class TestBenchCli:
    @pytest.fixture(autouse=True)
    def _tiny_suite(self, monkeypatch):
        monkeypatch.setattr(bench, "QUICK_CELLS", TINY_CELLS)
        monkeypatch.setattr(bench, "QUICK_INSTRUCTIONS", 2_000)

    def test_bench_quick_writes_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "aggregate:" in out
        written = [name for name in os.listdir(tmp_path) if name.startswith("BENCH_")]
        assert len(written) == 1
        report = bench.load_report(str(tmp_path / written[0]))
        assert report["suite"] == "quick"

    def test_bench_check_passes_against_its_own_output(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(["bench", "--quick", "--output", baseline]) == 0
        capsys.readouterr()
        # Tiny budgets make wall-clock noisy; the gate plumbing is what is
        # under test here, so tolerate a large regression.
        assert (
            main(
                ["bench", "--quick", "--no-write", "--check", baseline,
                 "--max-regression", "0.9"]
            )
            == 0
        )
        assert "PASSED" in capsys.readouterr().out

    def test_bench_check_fails_on_inflated_baseline(self, tmp_path, capsys):
        path = str(tmp_path / "inflated.json")
        report = bench.run_bench(quick=True)
        # Pretend the baseline machine-normalized score was 10x better.
        report["aggregate"]["instructions_per_second"] *= 10
        bench.write_report(report, path)
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick", "--no-write", "--check", path])
        assert "FAILED" in str(excinfo.value)

    def test_bench_legacy_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick", "--no-write", "--legacy"])
        assert excinfo.value.code == 2
        assert "--legacy" in capsys.readouterr().err

    def test_bench_filter_unmatched_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no bench cells match"):
            main(["bench", "--quick", "--no-write", "--filter", "no-such-cell"])

    def test_bench_check_refuses_filter(self, tmp_path):
        # A cell subset must not be gated against the full-suite baseline.
        baseline = str(tmp_path / "baseline.json")
        assert main(["bench", "--quick", "--output", baseline]) == 0
        with pytest.raises(SystemExit, match="--filter"):
            main(["bench", "--quick", "--no-write", "--filter", "gzip", "--check", baseline])

    def test_bench_filter_and_history(self, tmp_path, capsys):
        history = str(tmp_path / "history")
        path = str(tmp_path / "filtered.json")
        assert (
            main(
                ["bench", "--quick", "--output", path,
                 "--filter", "gzip", "--history", history]
            )
            == 0
        )
        report = bench.load_report(path)
        assert report["filter"] == "gzip"
        assert all(cell["benchmark"] == "gzip" for cell in report["cells"])
        history_file = os.path.join(history, "quick.jsonl")
        assert os.path.exists(history_file)
        with open(history_file, "r", encoding="utf-8") as handle:
            row = json.loads(handle.readline())
        assert row["revision"] == report["revision"]


class TestEngineTimings:
    def test_simulate_records_job_timing(self):
        profile = ExperimentProfile(
            name="t", instructions_per_benchmark=2_000,
            benchmarks=["gzip"], profile_budget=2_000,
        )
        engine = ExecutionEngine(profile, store=None)
        result = engine.simulate("gzip", IF_CONVERTED, SchemeSpec.make("conventional"))
        assert len(engine.job_timings) == 1
        timing = engine.job_timings[0]
        assert timing.benchmark == "gzip"
        assert not timing.cached
        assert timing.seconds > 0
        assert timing.instructions == result.metrics.committed_instructions
        assert timing.instructions_per_second() > 0
        assert engine.stats.simulate_seconds >= timing.seconds
        assert engine.stats.trace_seconds > 0

    def test_cached_results_are_flagged(self, tmp_path):
        profile = ExperimentProfile(
            name="t", instructions_per_benchmark=2_000,
            benchmarks=["gzip"], profile_budget=2_000,
        )
        store = ArtifactStore(str(tmp_path / "store"))
        spec = SchemeSpec.make("conventional")
        first = ExecutionEngine(profile, store=store)
        first.simulate("gzip", IF_CONVERTED, spec)
        second = ExecutionEngine(profile, store=store)
        second.simulate("gzip", IF_CONVERTED, spec)
        assert [t.cached for t in second.job_timings] == [True]


class TestCacheStatsLazyRoot:
    def test_stats_on_missing_root_reports_zero_and_creates_it(self, tmp_path):
        root = tmp_path / "not-there-yet"
        store = ArtifactStore(str(root))
        assert not root.exists()
        report = store.stats()
        assert all(entry == {"count": 0, "bytes": 0} for entry in report.values())
        assert root.exists()

    def test_cli_cache_stats_on_missing_root(self, tmp_path, capsys, monkeypatch):
        root = tmp_path / "fresh-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "0 artifacts" in out
        assert root.exists()

    def test_cli_cache_path_creates_root(self, tmp_path, capsys, monkeypatch):
        root = tmp_path / "fresh-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        assert main(["cache", "path"]) == 0
        assert str(root) in capsys.readouterr().out
        assert root.exists()
