"""The benchmark's own tests, at tiny budgets under a fixed seed.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

(The file is not named ``test_*.py`` so the repository's test suite does
not collect it.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _run(name, tmp_path, trace=False):
    work = tmp_path / "work"
    work.mkdir()
    return workloads.run_workload(
        name,
        SEED,
        0.0,
        trace,
        str(work),
        sizes=workloads.TINY,
        trace_path=str(tmp_path / "trace.json") if trace else None,
    )["result"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_prints_every_end_to_end_metric(name, tmp_path):
    result = _run(name, tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("end_to_end")
    assert {metric: value["unit"] for metric, value in result["metrics"].items()} == declared
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_traced_sweep_warm_simulates_nothing(tmp_path):
    result = _run("sweep-warm", tmp_path, trace=True)
    assert result["failed"] == 0
    metrics = {metric: value["value"] for metric, value in result["metrics"].items()}
    assert {metric: value["unit"] for metric, value in result["metrics"].items()} == _declared(
        "per_layer"
    )
    assert metrics["executor.simulations"] == 0
    assert metrics["store.results.get_calls"] > 0
    assert metrics["store.results.hit_ratio"] == 1.0
    for metric, value in metrics.items():
        if metric.startswith(("pipeline.", "compiler.")):
            assert value == 0, metric
    with open(tmp_path / "trace.json", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert {"pass", "planner.plan", "store.get", "sweep.render"} <= {e["name"] for e in events}


def test_wrappers_leave_results_and_digests_identical(tmp_path):
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in spans._targets()}

    def one_pass(tracer):
        work = tmp_path / f"work-{len(list(tmp_path.iterdir()))}"
        work.mkdir()
        workload = workloads.ShootoutCold(SEED, workloads.TINY, str(work))
        record = workload.run_pass(tracer)
        assert record.failed == 0
        return workloads.digest(record.cells_out)

    plain = one_pass(spans.NullTracer())
    tracer = spans.Tracer()
    wrappers = spans.Wrappers(tracer).install()
    try:
        traced = one_pass(tracer)
    finally:
        wrappers.remove()
    after = one_pass(spans.NullTracer())

    assert plain == traced == after
    assert {"compiler.build", "emulator.run_pack", "pipeline.lanes", "store.put"} <= {
        span.name for span in tracer.spans
    }
    assert all(owner.__dict__[attr] is original for (owner, attr), original in before.items())


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    self_times = tracer.self_times()
    assert self_times[inner.id] == pytest.approx(inner.duration)
    assert self_times[outer.id] == pytest.approx(outer.duration - inner.duration)
    assert tracer.covered(outer.start, outer.end) == pytest.approx(outer.duration)


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
