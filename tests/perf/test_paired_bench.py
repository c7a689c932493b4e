"""The regression gate's decision (``scripts/paired_bench.py``) on synthetic pairs.

The verdict is a pure function of the measured (base, head) result pairs
and the metric declarations of ``BENCHMARK.json``, so it is tested here
without running the benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SPEC = importlib.util.spec_from_file_location(
    "paired_bench", os.path.join(REPO_ROOT, "scripts", "paired_bench.py")
)
paired_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_bench)
METRICS = paired_bench.end_to_end_metrics()

#: One plausible run's end-to-end metrics.
VALUES = {
    "setup_s": 2.4,
    "sim_inst_per_s": 140_000.0,
    "cells_per_s": 11_000.0,
    "jobs_per_s": 50.0,
    "latency_p50_s": 0.02,
    "latency_p90_s": 0.023,
    "peak_rss_mb": 72.0,
}
#: Per-pair host speed, shared by both runs of a pair.
SPEEDS = (1.0, 0.97, 1.04, 0.99, 1.02, 0.96, 1.01, 1.03, 0.98, 1.0)


def _result(speed=1.0, failed=0, correct=True, **scale):
    def value(name):
        host = speed if name.endswith("_per_s") else 1 / speed
        return VALUES[name] * (1.0 if name == "peak_rss_mb" else host) * scale.get(name, 1.0)

    metrics = {name: {"value": value(name), "unit": "-"} for name in VALUES}
    return {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}


def _verdict(workload="shootout-cold", broken=None, **scale):
    """The verdict over ten pairs whose head side is scaled by ``scale``
    (and, with ``broken=(pair, side, result)``, one run replaced)."""
    pairs = [[_result(speed), _result(speed * 1.005, **scale)] for speed in SPEEDS]
    if broken:
        pairs[broken[0]][broken[1]] = broken[2]
    return paired_bench.verdict(workload, [tuple(pair) for pair in pairs], METRICS)


@pytest.mark.parametrize("workload", list(paired_bench.GATED))
def test_identical_pairs_pass(workload):
    pairs = [(_result(speed), _result(speed)) for speed in SPEEDS]
    verdict = paired_bench.verdict(workload, pairs, METRICS)
    assert verdict == {"ratios": {name: 1.0 for name in VALUES}, "failures": []}


@pytest.mark.parametrize("workload, metric", list(paired_bench.GATED.items()))
def test_uniform_ten_percent_throughput_loss_fails(workload, metric):
    verdict = _verdict(workload, **{metric: 0.9})
    assert verdict["ratios"][metric] == pytest.approx(0.9045, abs=1e-4)
    assert [f for f in verdict["failures"] if metric in f]


def test_noise_around_no_change_and_ungated_throughput_loss_pass():
    assert _verdict()["failures"] == []
    # cells_per_s is not shootout-cold's gated throughput: a 10% loss there
    # is within its 25% BENCHMARK.json bound.
    assert _verdict(cells_per_s=0.9)["failures"] == []
    # serve-mixed is gated on its jobs, not on its simulated instructions.
    assert paired_bench.GATED["serve-mixed"] == "jobs_per_s"
    assert _verdict("serve-mixed", sim_inst_per_s=0.9)["failures"] == []


@pytest.mark.parametrize(
    "run, reason",
    [
        (_result(failed=1), "1 failed operations"),
        (_result(correct=False), "0 failed operations"),
        ({"correct": False, "failed": 1, "metrics": {}, "error": "no output"}, "no output"),
    ],
)
@pytest.mark.parametrize("side", [0, 1])
def test_one_failed_run_fails(run, reason, side):
    verdict = _verdict("sweep-warm", broken=(3, side, run))
    expected = [f"sweep-warm seed 4 {('base', 'head')[side]}: {reason}"]
    if not run["metrics"]:
        expected.append("sweep-warm cells_per_s: no ratio for the gated throughput")
    assert verdict["failures"] == expected


def test_peak_rss_rise_past_its_fifteen_percent_bound_fails():
    assert _verdict("sweep-warm", peak_rss_mb=1.14)["failures"] == []
    verdict = _verdict("sweep-warm", peak_rss_mb=1.16)
    assert verdict["ratios"]["peak_rss_mb"] == pytest.approx(1 / 1.16, abs=1e-4)
    assert [f for f in verdict["failures"] if "peak_rss_mb" in f]


@pytest.mark.parametrize("metric", ["setup_s", "latency_p50_s", "latency_p90_s"])
def test_lower_is_better_metrics_are_oriented(metric):
    faster = _verdict(**{metric: 0.5})
    assert faster["ratios"][metric] > 1.9 and faster["failures"] == []
    slower = _verdict(**{metric: 1.3})
    assert slower["ratios"][metric] < 0.8
    assert [f for f in slower["failures"] if metric in f]


def test_gate_takes_exactly_one_revision(capsys):
    assert paired_bench.main([]) == paired_bench.main(["a", "b"]) == 2
    assert "paired_bench.py BASE" in capsys.readouterr().err


# -- ratios, floors and the table ------------------------------------------


def _with(name, value):
    return {"metrics": {name: {"value": value}}}


@pytest.mark.parametrize(
    "better, base, head, expected",
    [
        ("higher", 100.0, 90.0, 0.9),
        ("lower", 2.0, 2.5, 0.8),
        ("higher", 0.0, 0.0, 1.0),
        ("higher", 0.0, 5.0, None),
    ],
)
def test_ratio_is_oriented_and_undefined_on_a_zero_base(better, base, head, expected):
    ratio = paired_bench._ratio("m", better, _with("m", base), _with("m", head))
    assert ratio == (None if expected is None else pytest.approx(expected))


def test_metric_missing_from_one_pair_is_left_out_not_failed():
    pairs = [(_result(speed), _result(speed)) for speed in SPEEDS]
    del pairs[5][1]["metrics"]["jobs_per_s"]
    verdict = paired_bench.verdict("shootout-cold", pairs, METRICS)
    assert "jobs_per_s" not in verdict["ratios"]
    assert set(verdict["ratios"]) == set(VALUES) - {"jobs_per_s"}
    assert verdict["failures"] == []


@pytest.mark.parametrize("workload", list(paired_bench.GATED))
def test_gated_throughput_missing_from_one_pair_fails(workload):
    gated = paired_bench.GATED[workload]
    pairs = [(_result(speed), _result(speed)) for speed in SPEEDS]
    del pairs[5][0]["metrics"][gated]
    verdict = paired_bench.verdict(workload, pairs, METRICS)
    assert gated not in verdict["ratios"]
    assert verdict["failures"] == [f"{workload} {gated}: no ratio for the gated throughput"]


@pytest.mark.parametrize("workload", list(paired_bench.GATED))
def test_floor_is_the_threshold_only_for_the_workloads_gated_throughput(workload):
    by_name = {metric["name"]: metric for metric in METRICS}
    for name, metric in by_name.items():
        bound = metric["bound"]
        low = 1 / (1 + bound) if metric["better"] == "lower" else 1 - bound
        expected = max(low, paired_bench.THRESHOLD) if name == paired_bench.GATED[workload] else low
        assert paired_bench.floor(workload, metric) == pytest.approx(expected)
    gated = by_name[paired_bench.GATED[workload]]
    assert paired_bench.floor(workload, gated) == paired_bench.THRESHOLD


def test_table_shows_median_min_max_and_floor_of_each_reported_metric():
    scales = (0.9, 1.0, 1.2)
    pairs = [(_result(speed), _result(speed, sim_inst_per_s=s)) for speed, s in zip(SPEEDS, scales)]
    for _, head in pairs:
        del head["metrics"]["jobs_per_s"]
    rows = paired_bench.table("shootout-cold", pairs, METRICS).splitlines()
    assert rows[0].startswith("shootout-cold, 3 pairs")
    by_name = {row.split()[0]: row.split()[1:] for row in rows[2:]}
    assert set(by_name) == set(VALUES) - {"jobs_per_s"}
    assert by_name["sim_inst_per_s"] == ["1.000", "0.900", "1.200", "0.950"]
    assert by_name["peak_rss_mb"] == ["1.000", "1.000", "1.000", f"{1 / 1.15:.3f}"]


# -- running perfbench -----------------------------------------------------


def _fake_perfbench(root, body):
    """A checkout whose ``perfbench/run.py`` is ``body``."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("import json, sys\n" + body)
    return str(root)


def test_run_once_reads_the_last_json_line_and_passes_the_gate_arguments(tmp_path):
    checkout = _fake_perfbench(
        tmp_path,
        "print('warming up')\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'argv': sys.argv[1:]}))\n",
    )
    result = paired_bench.run_once(checkout, "sweep-warm", 3)
    assert result == {
        "correct": True,
        "failed": 0,
        "argv": ["--workload", "sweep-warm", "--seed", "3", "--seconds",
                 str(paired_bench.SECONDS), "--trace", "0"],
    }


@pytest.mark.parametrize(
    "body, reason",
    [
        ("sys.stderr.write('boom\\n')\nsys.exit(3)\n", "exit status 3: boom"),
        ("pass\n", "no output"),
        ("print('not json')\n", "no output"),
    ],
    ids=["exit-status", "no-output", "not-json"],
)
def test_run_once_turns_a_broken_run_into_a_failed_one(tmp_path, body, reason):
    result = paired_bench.run_once(_fake_perfbench(tmp_path, body), "shootout-cold", 1)
    assert (result["correct"], result["failed"], result["metrics"]) == (False, 1, {})
    assert result["error"].endswith(reason)


def test_measure_alternates_the_first_side_and_shares_each_pairs_seed(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((checkout, seed))
        result = _result(1.1 if checkout == "head" else 1.0)
        if seed == 2:
            del result["metrics"]["sim_inst_per_s"]
        return result

    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    pairs = paired_bench.measure("shootout-cold", "base", "head")
    assert len(pairs) == paired_bench.PAIRS
    assert calls[:6] == [("base", 1), ("head", 1), ("head", 2), ("base", 2),
                         ("base", 3), ("head", 3)]
    assert [paired_bench._ratio("cells_per_s", "higher", *pair) for pair in pairs] == [
        pytest.approx(1.1)
    ] * paired_bench.PAIRS
    assert capsys.readouterr().out.splitlines()[:3] == [
        "shootout-cold seed 1, base first: sim_inst_per_s 1.100",
        "shootout-cold seed 2, head first: sim_inst_per_s n/a",
        "shootout-cold seed 3, base first: sim_inst_per_s 1.100",
    ]


# -- the whole gate, on a throwaway repository -----------------------------


def _git(repo, *args):
    command = ["git", "-c", "user.name=gate", "-c", "user.email=gate@example.com",
               "-c", "commit.gpgsign=false", *args]
    return subprocess.run(command, cwd=repo, check=True, capture_output=True, text=True)


@pytest.fixture
def gate_repo(tmp_path, monkeypatch):
    """A repository whose first commit (returned) runs at host speed 1.0.

    The fake perfbench reads each checkout's ``speed`` file, so the base
    side must come from the archived revision, not from the working tree.
    The gate reads its metric declarations from the checkout's own
    ``BENCHMARK.json``, a copy of this repository's."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "speed").write_text("1.0")
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        (repo / "BENCHMARK.json").write_text(handle.read())
    _git(repo, "add", "speed", "BENCHMARK.json")
    _git(repo, "commit", "-q", "-m", "base")
    base = _git(repo, "rev-parse", "HEAD").stdout.strip()

    def fake_run(checkout, workload, seed):
        with open(os.path.join(checkout, "speed"), encoding="utf-8") as handle:
            return _result(float(handle.read()))

    monkeypatch.setattr(paired_bench, "ROOT", str(repo))
    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    return repo, base


def _head_speed(repo, speed):
    (repo / "speed").write_text(speed)
    _git(repo, "commit", "-q", "--allow-empty", "-am", "head")


def test_gate_passes_an_unchanged_head_and_ends_with_its_json_verdict(gate_repo, capsys):
    repo, base = gate_repo
    _head_speed(repo, "1.00")
    assert paired_bench.main([base[:8]]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    head = _git(repo, "rev-parse", "HEAD").stdout.strip()
    assert (summary["base"], summary["head"], summary["passed"]) == (base, head, True)
    assert list(summary["workloads"]) == list(paired_bench.GATED)
    assert all(entry["failures"] == [] for entry in summary["workloads"].values())
    assert (summary["pairs"], summary["threshold"]) == (paired_bench.PAIRS, 0.95)


def test_gate_fails_a_slower_working_tree_against_the_archived_base(gate_repo, capsys):
    repo, base = gate_repo
    _head_speed(repo, "1.0")
    (repo / "speed").write_text("0.8")  # uncommitted: only the checkout is slow
    assert paired_bench.main([base]) == 1
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["passed"] is False
    assert summary["workloads"]["shootout-cold"]["ratios"]["sim_inst_per_s"] == 0.8
    assert summary["workloads"]["sweep-warm"]["ratios"]["cells_per_s"] == 0.8
    assert summary["workloads"]["serve-mixed"]["ratios"]["jobs_per_s"] == 0.8
    assert [line for line in lines if line.startswith("FAIL shootout-cold sim_inst_per_s")]
    assert [line for line in lines if line.startswith("FAIL serve-mixed jobs_per_s")]


def test_gate_marks_an_uncommitted_head_dirty(gate_repo, capsys):
    repo, base = gate_repo
    _head_speed(repo, "1.00")
    head = _git(repo, "rev-parse", "HEAD").stdout.strip()
    (repo / "speed").write_text("1.0")  # same speed, but not the committed tree
    assert paired_bench.main([base]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1])["head"] == f"{head}+dirty"
    assert lines[0] == f"paired_bench: warning: uncommitted changes, head recorded as {head}+dirty"


def test_gate_refuses_an_unknown_revision(gate_repo):
    with pytest.raises(SystemExit, match="unknown revision 'no-such-rev'"):
        paired_bench.main(["no-such-rev"])
