"""The ``repro bench`` harness: standardized simulator-throughput cells.

A bench *cell* is one (benchmark, binary flavour, scheme) simulation at a
fixed fetched-instruction budget.  For every cell the harness measures the
wall-clock cost of trace collection and of the timing simulation itself and
reports **simulated instructions per second** and **simulated cycles per
second** — the two throughput numbers the CI gate tracks — plus the trace
layer's costs: trace-build throughput (instructions emulated per second
into the trace representation), the peak memory allocated while building
the trace (measured with :mod:`tracemalloc` in a dedicated pass), and the
trace's serialized on-disk size (which the gate also tracks, see
:mod:`repro.perf.compare`).

Cross-machine comparability: raw wall-clock throughput depends on the host,
so every report embeds a *calibration* measurement — the throughput of a
fixed pure-Python integer loop on the same machine, in million operations
per second.  The regression gate compares ``instructions_per_second /
calibration_ops_per_second`` (a dimensionless, machine-normalized score)
whenever both reports carry a calibration, falling back to raw throughput
otherwise.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
import tracemalloc
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.emulator.executor import Emulator
from repro.emulator.trace import serialize_trace
from repro.engine import BASELINE, IF_CONVERTED, ExecutionEngine, SchemeSpec
from repro.experiments.setup import ExperimentProfile
from repro.pipeline.machine import MachineSpec

#: Schema identifier embedded in every report.  v2 added the per-cell trace
#: metrics (build throughput, peak allocation, serialized size); v3 added
#: lane-batched sweep cells (``lanes``/``scalar_seconds``/``batch_speedup``
#: per batch cell, ``lane_batching`` under ``machine``, batch keys in
#: history rows); v4 added the streaming-ingest cell (``ingest_lines`` per
#: ingest cell — its throughput reports through the trace columns, its sim
#: columns are zero).  v1–v3 reports remain comparable through the
#: throughput gate, which reads only aggregate fields present in every
#: version.
SCHEMA = "repro-bench/v4"

#: Fetched-instruction budget per cell.
QUICK_INSTRUCTIONS = 12_000
FULL_INSTRUCTIONS = 40_000

#: Iterations of the calibration loop (one measurement).
_CALIBRATION_OPS = 200_000


@dataclass(frozen=True)
class BenchCell:
    """One standardized throughput measurement.

    ``machine`` selects the simulated machine configuration (default: the
    Table 1 machine).  A non-default machine marks a *sweep cell*: it keeps
    the throughput of non-default configurations — the job mix
    ``repro sweep`` runs — measured and gated alongside the Table 1 cells.
    """

    benchmark: str
    flavour: str
    scheme: str
    machine: MachineSpec = MachineSpec()

    def scheme_label(self) -> str:
        """Scheme plus machine overrides, e.g. ``predicate@rob_entries=64``."""
        if self.machine.is_default():
            return self.scheme
        return f"{self.scheme}@{self.machine.describe()}"

    def label(self) -> str:
        """The cell's full ``benchmark/flavour/scheme`` label (filter target)."""
        return f"{self.benchmark}/{self.flavour}/{self.scheme_label()}"


@dataclass(frozen=True)
class BatchBenchCell:
    """One lane-batched throughput measurement: N (scheme, machine) lanes
    stepped in lockstep over one shared trace.

    Batch cells measure the sweep-shaped workload ``repro sweep`` actually
    runs — many same-cell simulations over one trace — through the engine's
    lane-batching path (:meth:`~repro.engine.executor.ExecutionEngine.run_cell_jobs`).
    Each cell also times the per-lane scalar reference, so its report row
    carries the batch speedup alongside the gated throughput numbers.
    """

    benchmark: str
    flavour: str
    name: str
    lanes: Tuple[Tuple[str, MachineSpec], ...]

    def scheme_label(self) -> str:
        """The batch shape, e.g. ``batch:rob-sweep-x8``."""
        return f"batch:{self.name}-x{len(self.lanes)}"

    def label(self) -> str:
        """The cell's full ``benchmark/flavour/scheme`` label (filter target)."""
        return f"{self.benchmark}/{self.flavour}/{self.scheme_label()}"


@dataclass(frozen=True)
class IngestBenchCell:
    """One streaming-ingest throughput measurement.

    Times :func:`repro.workloads.trace_ingest.ingest_trace_file` over a
    synthetic ``.trace`` branch-outcome file generated once per run
    (deterministic content, never timed).  The cell reports through the
    trace columns — lines parsed as ``trace_instructions``, lines/second
    as the throughput, the input file size as ``trace_disk_bytes``, and
    the :mod:`tracemalloc` peak of a dedicated pass as
    ``trace_peak_alloc_bytes``, which is how the history log tracks that
    line-iterating ingestion stays flat (see docs/internals/traces.md).
    Its simulation columns are zero, so it adds nothing to the gated
    simulator-throughput aggregate.
    """

    name: str
    lines: int
    sites: int = 48

    def scheme_label(self) -> str:
        """The ingest shape, e.g. ``ingest:synthetic-x60000``."""
        return f"ingest:{self.name}-x{self.lines}"

    def label(self) -> str:
        """The cell's full ``benchmark/flavour/scheme`` label (filter target)."""
        return f"{self.name}/trace-file/{self.scheme_label()}"


#: The sweep-shaped batch cells of the quick suite: a pure-conventional ROB
#: sweep (the lane-bank fast path — one shared decision stream drives all
#: lanes) and a mixed-scheme cell mirroring the ``rob-scaling`` sweep
#: scenario's shape (conventional + predicate × ROB sizes), which exercises
#: stream lanes and hook lanes in one batch.
_ROB_SWEEP_POINTS = (32, 48, 64, 96, 128, 160, 192, 256)
QUICK_BATCH_CELLS: Sequence[BatchBenchCell] = (
    BatchBenchCell(
        "gzip",
        IF_CONVERTED,
        "rob-sweep",
        tuple(
            ("conventional", MachineSpec.make(rob_entries=size))
            for size in _ROB_SWEEP_POINTS
        ),
    ),
    BatchBenchCell(
        "gzip",
        IF_CONVERTED,
        "rob-scaling-mixed",
        tuple(
            (scheme, MachineSpec.make(rob_entries=size))
            for scheme in ("conventional", "predicate")
            for size in (32, 64, 128, 256)
        ),
    ),
)

#: The quick suite: one cell per scheme plus flavour coverage, on the
#: benchmarks the test-suite profile also uses (they compile fastest), plus
#: one sweep cell on a non-default machine and one custom-workload cell —
#: ``branchy`` is a *library spec file* (``workloads/library/branchy.json``),
#: so the throughput of the registry's spec-defined path is measured and
#: gated alongside the built-in programs.  The batch cells put the
#: lane-batched kernel under the same regression gate (their lanes count
#: into the aggregate the gate scores).
QUICK_CELLS: Sequence[Any] = (
    BenchCell("gzip", IF_CONVERTED, "conventional"),
    BenchCell("gzip", IF_CONVERTED, "predicate"),
    BenchCell("twolf", IF_CONVERTED, "pep-pa"),
    BenchCell("twolf", BASELINE, "conventional"),
    BenchCell("swim", IF_CONVERTED, "predicate"),
    BenchCell("gzip", IF_CONVERTED, "predicate", MachineSpec.make(rob_entries=64)),
    BenchCell("branchy", IF_CONVERTED, "predicate"),
    # Streaming-ingest throughput: the line-iterating `.trace` parser at a
    # size where whole-file buffering would already show in the peak.
    IngestBenchCell("synthetic", 60_000),
) + tuple(QUICK_BATCH_CELLS)

#: The full suite: broader benchmark coverage for every scheme.
FULL_CELLS: Sequence[Any] = QUICK_CELLS + (
    BenchCell("mcf", IF_CONVERTED, "predicate"),
    BenchCell("crafty", IF_CONVERTED, "conventional"),
    BenchCell("vpr", IF_CONVERTED, "pep-pa"),
    BenchCell("swim", BASELINE, "predicate"),
    BenchCell("art", IF_CONVERTED, "conventional"),
)


def calibration_mops(rounds: int = 5) -> float:
    """Throughput of a fixed pure-Python integer loop, in Mops/s.

    Best-of-``rounds`` to shrug off scheduler noise.  The loop shape is part
    of the bench schema: changing it invalidates normalized comparisons
    against older reports.
    """
    best = 0.0
    for _ in range(rounds):
        accumulator = 0
        started = perf_counter()
        for i in range(_CALIBRATION_OPS):
            accumulator = (accumulator + i) ^ (accumulator >> 3)
        elapsed = perf_counter() - started
        if elapsed > 0:
            best = max(best, _CALIBRATION_OPS / elapsed / 1e6)
    return best


def git_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else "unknown"


def _machine_metadata() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        # The shape of the suite's lane-batched cells.
        "lane_batching": {
            "quick_batch_cells": [
                {"label": cell.label(), "lanes": len(cell.lanes)}
                for cell in QUICK_BATCH_CELLS
            ],
        },
    }


def _trace_peak_alloc_bytes(engine: ExecutionEngine, cell: BenchCell, instructions: int) -> int:
    """Peak bytes allocated while collecting one cell's trace.

    Measured in a dedicated :mod:`tracemalloc` pass over a fresh emulator
    (tracing slows collection, so the timed measurement never runs under
    it).
    """
    if tracemalloc.is_tracing():  # pragma: no cover - foreign tracing active
        return 0
    program = engine.build_binary(cell.benchmark, cell.flavour)
    emulator = Emulator(program)
    tracemalloc.start()
    try:
        emulator.run_pack(instructions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def _measure_cell(cell: BenchCell, instructions: int, repeats: int) -> Dict[str, Any]:
    """Measure one cell with a fresh, cache-less engine; best-of-``repeats``."""
    profile = ExperimentProfile(
        name="bench",
        instructions_per_benchmark=instructions,
        benchmarks=[cell.benchmark],
        profile_budget=min(instructions, 20_000),
    )
    engine = ExecutionEngine(profile, store=None, oracle_stats=False)
    trace = engine.collect_trace(cell.benchmark, cell.flavour)  # timed via stats
    trace_seconds = engine.stats.trace_seconds
    trace_instructions = len(trace)
    trace_disk_bytes = len(serialize_trace(trace))
    trace_peak_alloc = _trace_peak_alloc_bytes(engine, cell, instructions)
    spec = SchemeSpec.make(cell.scheme)
    result = None
    for _ in range(max(1, repeats)):
        result = engine.simulate(cell.benchmark, cell.flavour, spec, machine=cell.machine)
    sim_seconds = min(t.seconds for t in engine.job_timings if not t.cached)
    committed = result.metrics.committed_instructions
    cycles = result.metrics.cycles
    return {
        "benchmark": cell.benchmark,
        "flavour": cell.flavour,
        "scheme": cell.scheme_label(),
        "machine": cell.machine.describe(),
        "instructions": committed,
        "cycles": cycles,
        "ipc": result.metrics.ipc,
        "misprediction_rate": result.accuracy.misprediction_rate,
        "trace_seconds": trace_seconds,
        "trace_instructions": trace_instructions,
        "trace_instructions_per_second": (
            trace_instructions / trace_seconds if trace_seconds else 0.0
        ),
        "trace_disk_bytes": trace_disk_bytes,
        "trace_peak_alloc_bytes": trace_peak_alloc,
        "sim_seconds": sim_seconds,
        "sim_instructions_per_second": committed / sim_seconds if sim_seconds else 0.0,
        "sim_cycles_per_second": cycles / sim_seconds if sim_seconds else 0.0,
    }


def _measure_batch_cell(cell: BatchBenchCell, instructions: int, repeats: int) -> Dict[str, Any]:
    """Measure one lane-batched cell: batched wall clock vs. the per-lane
    scalar reference, both best-of-``repeats`` over one shared trace."""
    from repro.engine.planner import make_build_job, make_simulate_job, make_trace_job
    from repro.pipeline.core import OutOfOrderCore

    profile = ExperimentProfile(
        name="bench",
        instructions_per_benchmark=instructions,
        benchmarks=[cell.benchmark],
        profile_budget=min(instructions, 20_000),
    )
    engine = ExecutionEngine(profile, store=None, oracle_stats=False)
    trace = engine.collect_trace(cell.benchmark, cell.flavour)
    trace_seconds = engine.stats.trace_seconds
    trace_instructions = len(trace)
    trace_disk_bytes = len(serialize_trace(trace))
    trace_peak_alloc = _trace_peak_alloc_bytes(engine, cell, instructions)
    build = make_build_job(cell.benchmark, cell.flavour, engine.factory)
    trace_job = make_trace_job(build, instructions)
    jobs = [
        make_simulate_job(trace_job, SchemeSpec.make(kind), machine)
        for kind, machine in cell.lanes
    ]
    # Scalar reference first (it also warms every shared code path), then
    # the batched launch through the engine's cell-execution entry point.
    scalar_seconds = float("inf")
    for _ in range(max(1, repeats)):
        started = perf_counter()
        for job in jobs:
            core = OutOfOrderCore(config=job.machine.build_config())
            core.run(trace, job.scheme.build(), program_name=cell.benchmark)
        scalar_seconds = min(scalar_seconds, perf_counter() - started)
    batched_seconds = float("inf")
    results = {}
    for _ in range(max(1, repeats)):
        started = perf_counter()
        results = engine.run_cell_jobs(jobs)
        batched_seconds = min(batched_seconds, perf_counter() - started)
    lane_results = [results[job.key] for job in jobs]
    committed = sum(r.metrics.committed_instructions for r in lane_results)
    cycles = sum(r.metrics.cycles for r in lane_results)
    mispredictions = [r.accuracy.misprediction_rate for r in lane_results]
    return {
        "benchmark": cell.benchmark,
        "flavour": cell.flavour,
        "scheme": cell.scheme_label(),
        "machine": f"lanes={len(cell.lanes)}",
        "lanes": len(cell.lanes),
        "instructions": committed,
        "cycles": cycles,
        "ipc": committed / cycles if cycles else 0.0,
        "misprediction_rate": sum(mispredictions) / len(mispredictions),
        "trace_seconds": trace_seconds,
        "trace_instructions": trace_instructions,
        "trace_instructions_per_second": (
            trace_instructions / trace_seconds if trace_seconds else 0.0
        ),
        "trace_disk_bytes": trace_disk_bytes,
        "trace_peak_alloc_bytes": trace_peak_alloc,
        "sim_seconds": batched_seconds,
        "scalar_seconds": scalar_seconds,
        "batch_speedup": scalar_seconds / batched_seconds if batched_seconds else 0.0,
        "sim_instructions_per_second": committed / batched_seconds if batched_seconds else 0.0,
        "sim_cycles_per_second": cycles / batched_seconds if batched_seconds else 0.0,
    }


def _write_synthetic_trace(path: str, lines: int, sites: int) -> None:
    """A deterministic biased branch-outcome file (generation is not timed)."""
    import random

    rng = random.Random(lines * 31 + sites)
    pcs = [f"0x{0x400000 + 16 * i:x}" for i in range(sites)]
    biases = [rng.random() for _ in range(sites)]
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(lines):
            site = rng.randrange(sites)
            taken = rng.random() < biases[site]
            handle.write(f"{pcs[site]} {'T' if taken else 'N'}\n")


def _measure_ingest_cell(cell: IngestBenchCell, repeats: int) -> Dict[str, Any]:
    """Measure one streaming-ingest cell; best-of-``repeats`` wall clock."""
    import tempfile

    from repro.workloads.trace_ingest import ingest_trace_file

    with tempfile.TemporaryDirectory(prefix="repro-bench-ingest-") as scratch:
        path = os.path.join(scratch, f"{cell.name}.trace")
        _write_synthetic_trace(path, cell.lines, cell.sites)
        disk_bytes = os.path.getsize(path)
        ingest_seconds = float("inf")
        for _ in range(max(1, repeats)):
            started = perf_counter()
            ingest_trace_file(path, name=cell.name)
            ingest_seconds = min(ingest_seconds, perf_counter() - started)
        peak = 0
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            try:
                ingest_trace_file(path, name=cell.name)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    return {
        "benchmark": cell.name,
        "flavour": "trace-file",
        "scheme": cell.scheme_label(),
        "machine": f"sites={cell.sites}",
        "ingest_lines": cell.lines,
        "instructions": 0,
        "cycles": 0,
        "ipc": 0.0,
        "misprediction_rate": 0.0,
        "trace_seconds": ingest_seconds,
        "trace_instructions": cell.lines,
        "trace_instructions_per_second": (
            cell.lines / ingest_seconds if ingest_seconds else 0.0
        ),
        "trace_disk_bytes": disk_bytes,
        "trace_peak_alloc_bytes": int(peak),
        "sim_seconds": 0.0,
        "sim_instructions_per_second": 0.0,
        "sim_cycles_per_second": 0.0,
    }


def filter_cells(cells: Sequence[Any], cell_filter: Optional[str]) -> Sequence[Any]:
    """Cells whose ``benchmark/flavour/scheme`` label contains the filter."""
    if not cell_filter:
        return cells
    selected = tuple(cell for cell in cells if cell_filter in cell.label())
    if not selected:
        labels = ", ".join(cell.label() for cell in cells)
        raise ValueError(f"no bench cells match filter {cell_filter!r} (suite: {labels})")
    return selected


def run_bench(
    quick: bool = False,
    instructions: Optional[int] = None,
    repeats: int = 1,
    cells: Optional[Sequence[BenchCell]] = None,
    cell_filter: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the bench suite and return the machine-readable report.

    ``cell_filter`` restricts the suite to cells whose
    ``benchmark/flavour/scheme`` label contains the given substring
    (:class:`ValueError` when nothing matches).
    """
    if cells is None:
        cells = QUICK_CELLS if quick else FULL_CELLS
    cells = filter_cells(cells, cell_filter)
    if instructions is None:
        instructions = QUICK_INSTRUCTIONS if quick else FULL_INSTRUCTIONS
    measured: List[Dict[str, Any]] = []
    for cell in cells:
        if isinstance(cell, BatchBenchCell):
            measured.append(_measure_batch_cell(cell, instructions, repeats))
        elif isinstance(cell, IngestBenchCell):
            measured.append(_measure_ingest_cell(cell, repeats))
        else:
            measured.append(_measure_cell(cell, instructions, repeats))
    total_instructions = sum(c["instructions"] for c in measured)
    total_cycles = sum(c["cycles"] for c in measured)
    total_sim_seconds = sum(c["sim_seconds"] for c in measured)
    total_trace_seconds = sum(c["trace_seconds"] for c in measured)
    total_trace_instructions = sum(c["trace_instructions"] for c in measured)
    total_trace_disk_bytes = sum(c["trace_disk_bytes"] for c in measured)
    peak_trace_alloc = max((c["trace_peak_alloc_bytes"] for c in measured), default=0)
    mops = calibration_mops()
    instructions_per_second = total_instructions / total_sim_seconds if total_sim_seconds else 0.0
    return {
        "schema": SCHEMA,
        "revision": git_revision(),
        "created_unix": time.time(),
        "suite": "quick" if quick else "full",
        "instructions_per_cell": instructions,
        "repeats": max(1, repeats),
        "filter": cell_filter,
        "machine": _machine_metadata(),
        "calibration_mops": mops,
        "cells": measured,
        "aggregate": {
            "total_instructions": total_instructions,
            "total_cycles": total_cycles,
            "total_sim_seconds": total_sim_seconds,
            "total_trace_seconds": total_trace_seconds,
            "total_trace_disk_bytes": total_trace_disk_bytes,
            "peak_trace_alloc_bytes": peak_trace_alloc,
            "instructions_per_second": instructions_per_second,
            "cycles_per_second": total_cycles / total_sim_seconds if total_sim_seconds else 0.0,
            "trace_instructions_per_second": (
                total_trace_instructions / total_trace_seconds if total_trace_seconds else 0.0
            ),
            "normalized_score": instructions_per_second / (mops * 1e6) if mops else 0.0,
        },
    }


def default_output_path(report: Dict[str, Any], directory: str = ".") -> str:
    """The canonical ``BENCH_<rev>.json`` path for a report."""
    return os.path.join(directory, f"BENCH_{report.get('revision', 'unknown')}.json")


def write_report(report: Dict[str, Any], path: str) -> str:
    """Write a report as JSON and return the path."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path: str) -> Dict[str, Any]:
    """Load a report written by :func:`write_report`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# The performance trajectory (``benchmarks/history/``)
# ----------------------------------------------------------------------
def history_row(report: Dict[str, Any]) -> Dict[str, Any]:
    """The compact one-line summary of a report kept in the history log."""
    aggregate = report.get("aggregate", {})
    batch_cells = [c for c in report.get("cells", []) if c.get("lanes", 1) > 1]
    batch_scalar = sum(c.get("scalar_seconds", 0.0) for c in batch_cells)
    batch_batched = sum(c.get("sim_seconds", 0.0) for c in batch_cells)
    ingest_cells = [c for c in report.get("cells", []) if c.get("ingest_lines")]
    ingest_lines = sum(c["ingest_lines"] for c in ingest_cells)
    ingest_seconds = sum(c.get("trace_seconds", 0.0) for c in ingest_cells)
    return {
        "revision": report.get("revision", "unknown"),
        "created_unix": report.get("created_unix", 0.0),
        "suite": report.get("suite", "?"),
        # Filtered runs measure a cell subset; the filter and cell count keep
        # their rows distinguishable from full-suite rows in the trajectory.
        "filter": report.get("filter"),
        "cell_count": len(report.get("cells", [])),
        "calibration_mops": report.get("calibration_mops", 0.0),
        "normalized_score": aggregate.get("normalized_score", 0.0),
        "instructions_per_second": aggregate.get("instructions_per_second", 0.0),
        "trace_instructions_per_second": aggregate.get("trace_instructions_per_second", 0.0),
        "total_trace_disk_bytes": aggregate.get("total_trace_disk_bytes", 0),
        "peak_trace_alloc_bytes": aggregate.get("peak_trace_alloc_bytes", 0),
        # Lane-batching trajectory: how many cells ran batched, how many
        # lanes they carried, and their aggregate batched-vs-scalar speedup
        # (0.0 in pre-v3 rows and in runs without batch cells).
        "batch_cell_count": len(batch_cells),
        "batch_lanes": sum(c.get("lanes", 0) for c in batch_cells),
        "batch_speedup": batch_scalar / batch_batched if batch_batched else 0.0,
        "batch_best_speedup": max(
            (c.get("batch_speedup", 0.0) for c in batch_cells), default=0.0
        ),
        # Streaming-ingest trajectory (0.0 in pre-v4 rows): `.trace`-file
        # lines parsed per second and the parser's peak allocation — the
        # flat-memory property of streaming ingestion, tracked over time.
        "ingest_lines_per_second": ingest_lines / ingest_seconds if ingest_seconds else 0.0,
        "ingest_peak_alloc_bytes": max(
            (c.get("trace_peak_alloc_bytes", 0) for c in ingest_cells), default=0
        ),
    }


def append_history(report: Dict[str, Any], directory: str) -> str:
    """Append one :func:`history_row` to ``<directory>/<suite>.jsonl``.

    The history directory is the repository's performance trajectory: one
    JSON line per measured revision, appended by CI and by
    ``scripts/update_bench_baseline.py``.  Returns the file appended to.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{report.get('suite', 'unknown')}.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(history_row(report), sort_keys=True) + "\n")
    return path
