"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        for command in ("table1", "list", "figure5", "figure6", "ablations", "ipc"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            ["--instructions", "500", "simulate", "gzip", "--scheme", "conventional"]
        )
        assert args.instructions == 500
        assert args.benchmark == "gzip"
        assert args.scheme == "conventional"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_command_is_retired(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_sampling_option_is_retired(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["simulate", "gzip", "--sampling", "4:4096:512"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --sampling" in capsys.readouterr().err


class TestCommands:
    def test_list_prints_suite(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "gzip" in output and "swim" in output

    def test_table1_prints_configuration(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Reorder Buffer" in output and "256 entries" in output

    def test_simulate_runs_small_budget(self, capsys):
        code = main(
            ["--instructions", "1500", "simulate", "swim", "--scheme", "predicate"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "misprediction rate" in output
        assert "IPC" in output

    def test_simulate_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["--instructions", "1000", "simulate", "doom3"])

    def test_figure5_on_subset(self, capsys):
        code = main(
            ["--instructions", "1200", "--benchmarks", "swim", "figure5"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 5" in output
        assert "swim" in output

    def test_unknown_benchmark_lists_registry_and_suggests(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--instructions", "1000", "--benchmarks", "gzpi", "figure5"])
        message = str(excinfo.value)
        assert "did you mean: gzip" in message
        assert "twolf" in message  # the registry listing

    def test_simulate_spec_file_path(self, capsys, tmp_path):
        import json

        spec = tmp_path / "mini.json"
        spec.write_text(
            json.dumps(
                {
                    "workload": {"name": "mini", "category": "int", "seed": 2},
                    "easy_branches": [{"bias": 0.9}],
                }
            )
        )
        assert main(["--instructions", "1000", "simulate", str(spec)]) == 0
        output = capsys.readouterr().out
        assert "misprediction rate" in output


class TestWorkloadsCommand:
    def test_list_shows_builtins_and_library(self, capsys):
        assert main(["workloads", "list"]) == 0
        output = capsys.readouterr().out
        assert "gzip" in output and "builtin" in output
        assert "branchy" in output and "library" in output
        assert "fingerprint" in output

    def test_describe_builtin(self, capsys):
        assert main(["workloads", "describe", "twolf"]) == 0
        output = capsys.readouterr().out
        assert "origin               builtin" in output
        assert "xor" in output  # twolf's exception-benchmark correlation

    def test_describe_requires_exactly_one(self):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["workloads", "describe"])

    def test_describe_unknown_suggests(self):
        with pytest.raises(SystemExit, match="did you mean: gzip"):
            main(["workloads", "describe", "gzpi"])

    def test_validate_reports_ok_and_fail(self, capsys, tmp_path):
        import json

        good = tmp_path / "good.json"
        good.write_text(
            json.dumps(
                {
                    "workload": {"name": "good", "category": "int", "seed": 2},
                    "easy_branches": [{"bias": 0.9}],
                }
            )
        )
        assert main(["workloads", "validate", str(good)]) == 0
        assert "ok  " in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text('{"workload": {"name": "bad"}}')
        with pytest.raises(SystemExit) as excinfo:
            main(["workloads", "validate", str(good), str(bad)])
        message = str(excinfo.value)
        assert "ok  " in message and "FAIL" in message

    def test_validate_requires_a_target(self):
        with pytest.raises(SystemExit, match="at least one"):
            main(["workloads", "validate"])

    def test_validate_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "cap.trace"
        trace.write_text("0x10 T\n0x10 N\n" * 40)
        assert main(["workloads", "validate", str(trace)]) == 0
        assert "ok  " in capsys.readouterr().out
