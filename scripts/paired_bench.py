#!/usr/bin/env python
"""Regression gate: a paired, same-host A/B of a base revision against this checkout.

Usage::

    python scripts/paired_bench.py BASE

``BASE`` is extracted with ``git archive BASE | tar -x`` into a temporary
directory; the other side is the checkout this script lives in.  For
``long-trace``, ``serve-mixed``, ``shootout-cold`` and then ``sweep-warm``
the gate runs ``PAIRS`` pairs of
``perfbench/run.py --workload W --seed k --seconds SECONDS --trace 0``:
pair *k* uses seed *k* on both sides, and the side that runs first
alternates.  Every end-to-end metric of ``BENCHMARK.json`` gets the median
over pairs of its per-pair ratio, oriented so that above 1 is better.  The
gate fails when any run has ``failed > 0`` or ``correct`` false, when the
gated throughput (``GATED``) has a median ratio below ``THRESHOLD``, or
when any metric is worse than at the base by more than its bound.

``THRESHOLD`` is the midpoint between no change (1.00) and the 10% loss
the gate must catch (0.90).  A rule such as "fail when a bootstrap
interval lies wholly below 0.90" cannot catch that loss: its true median
sits *at* 0.90, so such an interval lies below 0.90 only about half the
time.  On the 2-vCPU host the gate was sized on, one pair of identical
trees read 0.945-1.121 on ``sim_inst_per_s`` and 0.934-1.007 on
``cells_per_s``, and ten pairs read 0.870-1.084 on ``serve-mixed``'s
``jobs_per_s``; the full gate takes about 18 minutes there.  How often it
fails identical trees is not known, on that host or on CI runners (see
``docs/internals/performance.md``).

The last line of standard output is one JSON object with the verdict.  Its
``head`` is the checkout's commit, with ``+dirty`` appended (and a warning
printed) when the checkout has uncommitted changes, since the measured
tree is then not that commit.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SECONDS = 8
THRESHOLD = 0.95
#: The workloads the gate runs, in order (the order of the JSON verdict's
#: sorted keys), and the throughput each is gated on.
GATED = {
    "long-trace": "sim_inst_per_s",
    "serve-mixed": "jobs_per_s",
    "shootout-cold": "sim_inst_per_s",
    "sweep-warm": "cells_per_s",
}

Result = Dict[str, Any]
Pair = Tuple[Result, Result]


def end_to_end_metrics() -> List[Dict[str, Any]]:
    """The end-to-end metric declarations (name, better, bound) of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def run_once(checkout: str, workload: str, seed: int) -> Result:
    """One perfbench run in ``checkout``: its JSON result, or a failed stand-in."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        if done.returncode != 0:
            raise ValueError(f"exit status {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as error:
        reason = f"{error}: {(done.stderr.strip().splitlines() or ['no output'])[-1]}"
        return {"correct": False, "failed": 1, "metrics": {}, "error": reason}


def measure(workload: str, base_dir: str, head_dir: str) -> List[Pair]:
    """``PAIRS`` (base, head) result pairs of ``workload``, with seeds 1..PAIRS."""
    measured: List[Pair] = []
    for seed in range(1, PAIRS + 1):
        order = [("base", base_dir), ("head", head_dir)][:: 1 if seed % 2 else -1]
        results = {side: run_once(checkout, workload, seed) for side, checkout in order}
        measured.append((results["base"], results["head"]))
        ratio = _ratio(GATED[workload], "higher", *measured[-1])
        shown = "n/a" if ratio is None else f"{ratio:.3f}"
        print(f"{workload} seed {seed}, {order[0][0]} first: {GATED[workload]} {shown}", flush=True)
    return measured


def _ratio(name: str, better: str, base: Result, head: Result) -> Optional[float]:
    """head/base for a higher-is-better metric, base/head for a lower-is-better one."""
    try:
        old, new = base["metrics"][name]["value"], head["metrics"][name]["value"]
    except KeyError:
        return None
    if better == "lower":
        old, new = new, old
    return 1.0 if old == new else (new / old if old else None)


def _per_pair(metric: Dict[str, Any], pairs: Sequence[Pair]) -> Optional[List[float]]:
    """A metric's oriented ratio in every pair, or ``None`` if any pair lacks it."""
    values = [_ratio(metric["name"], metric["better"], base, head) for base, head in pairs]
    return None if not values or None in values else values


def floor(workload: str, metric: Dict[str, Any]) -> float:
    """The lowest median ratio ``metric`` may reach on ``workload``.

    A lower-is-better metric may grow to ``1 + bound`` times the base's
    value, a higher-is-better one shrink to ``1 - bound`` times it; the
    gated throughput must also stay at or above ``THRESHOLD``."""
    bound = metric["bound"]
    low = 1.0 / (1.0 + bound) if metric["better"] == "lower" else 1.0 - bound
    return max(low, THRESHOLD) if GATED.get(workload) == metric["name"] else low


def verdict(
    workload: str, pairs: Sequence[Pair], metrics: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """The gate's decision for one workload, from its measured pairs alone.

    Returns the median oriented ratio of every metric that both sides
    report in every pair, and the reasons the gate fails (none if it passes).
    A metric without a ratio in some pair is left out, except the gated
    throughput: without it the gate has gated nothing, so it fails."""
    failures = [
        f"{workload} seed {seed} {side}: "
        + (result.get("error") or f"{result.get('failed')} failed operations")
        for seed, pair in enumerate(pairs, start=1)
        for side, result in zip(("base", "head"), pair)
        if result.get("failed", 0) > 0 or not result.get("correct", False)
    ]
    ratios: Dict[str, float] = {}
    for metric in metrics:
        values = _per_pair(metric, pairs)
        if values is None:
            if metric["name"] == GATED.get(workload):
                failures.append(f"{workload} {metric['name']}: no ratio for the gated throughput")
            continue
        median = statistics.median(values)
        ratios[metric["name"]] = round(median, 4)
        if median < floor(workload, metric):
            failures.append(
                f"{workload} {metric['name']}: median ratio {median:.3f}"
                f" is below {floor(workload, metric):.3f}"
            )
    return {"ratios": ratios, "failures": failures}


def table(workload: str, pairs: Sequence[Pair], metrics: Sequence[Dict[str, Any]]) -> str:
    """Per metric: the median, lowest and highest per-pair ratio, and the floor."""
    rows = [f"{workload}, {len(pairs)} pairs (ratio > 1: the change is better)"]
    rows.append(f"  {'metric':<16} {'median':>7} {'min':>7} {'max':>7} {'floor':>7}")
    for metric in metrics:
        values = _per_pair(metric, pairs)
        if values is not None:
            stats = (statistics.median(values), min(values), max(values), floor(workload, metric))
            rows.append(f"  {metric['name']:<16}" + "".join(f" {v:>7.3f}" for v in stats))
    return "\n".join(rows)


def _revision(name: str) -> str:
    command = ["git", "rev-parse", "--verify", "--quiet", f"{name}^{{commit}}"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"paired_bench: unknown revision {name!r}")
    return done.stdout.strip()


def _head() -> str:
    """The checkout's commit, as ``<sha>+dirty`` if its tree has uncommitted changes."""
    head = _revision("HEAD")
    command = ["git", "status", "--porcelain"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    if not done.stdout.strip():
        return head
    print(f"paired_bench: warning: uncommitted changes, head recorded as {head}+dirty")
    return f"{head}+dirty"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python scripts/paired_bench.py BASE", file=sys.stderr)
        return 2
    started = time.perf_counter()
    metrics = end_to_end_metrics()
    summary: Dict[str, Any] = {"base": _revision(argv[0]), "head": _head()}
    summary.update(pairs=PAIRS, seconds=SECONDS, threshold=THRESHOLD, workloads={})
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as base_dir:
        extract = f"git archive {summary['base']} | tar -x -C '{base_dir}'"
        subprocess.run(extract, shell=True, cwd=ROOT, check=True)
        for workload in GATED:
            pairs = measure(workload, base_dir, ROOT)
            summary["workloads"][workload] = verdict(workload, pairs, metrics)
            print(table(workload, pairs, metrics))
    failures = [f for entry in summary["workloads"].values() for f in entry["failures"]]
    for failure in failures:
        print(f"FAIL {failure}")
    summary.update(passed=not failures, wall_s=round(time.perf_counter() - started, 1))
    print(json.dumps(summary, sort_keys=True), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
