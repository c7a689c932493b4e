#!/usr/bin/env python
"""CI streaming smoke: ingest a large synthetic trace, simulate in windows,
kill the worker mid-run, resume, and demand bit-identical results.

The streaming-scale pipeline end-to-end (see docs/internals/traces.md):

1. **Generate** a multi-million-line synthetic ``.trace`` branch-outcome
   file (streamed to disk, never held in memory).
2. **Ingest** it through ``ingest_trace_file`` under :mod:`tracemalloc`
   and fail if the peak allocation exceeds a fixed ceiling — the
   line-iterating parser with bounded per-site windows must stay flat no
   matter how long the input grows.
3. **Reference** run: a serial, store-less engine simulates the ingested
   workload (trace collection itself streamed through chunked segments).
4. **Chaos** run: ``--jobs 2`` onto a fresh store with checkpointing
   enabled and ``kill-worker-on-nth-checkpoint`` armed — the worker dies
   right after persisting a checkpoint, the engine re-plans the job, and
   the retry must resume from the checkpoint and land bit-identical
   counters, leaving no checkpoint behind.  Each cell's conventional,
   predicate and wish jobs run as one lane batch, so the resumed
   checkpoint holds a wish lane that replays the conventional lane's
   branch stream.

Usage::

    PYTHONPATH=src python scripts/streaming_smoke.py [lines] [budget]

``lines`` defaults to 2,000,000 trace lines; ``budget`` (the simulated
instruction budget) to 40,000.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import time
import tracemalloc

#: Ingest peak-allocation ceiling.  The bounded-window parser needs ~2 MiB
#: for this site count; the margin absorbs allocator/platform noise while
#: still catching any return to whole-file buffering (~10x the input size).
INGEST_PEAK_CEILING = 48 << 20

#: Synthetic trace shape: enough sites to exercise aliasing, biased
#: outcomes so predictors have something to learn.
SITES = 48


def write_synthetic_trace(path: str, lines: int) -> None:
    rng = random.Random(20070211)
    pcs = [f"0x{0x400000 + 16 * i:x}" for i in range(SITES)]
    biases = [rng.random() for _ in range(SITES)]
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(lines):
            site = rng.randrange(SITES)
            taken = rng.random() < biases[site]
            handle.write(f"{pcs[site]} {'T' if taken else 'N'}\n")
            if i % 500_000 == 0 and i:
                handle.flush()


def main() -> int:
    lines = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
    budget = int(sys.argv[2]) if len(sys.argv) > 2 else 40_000
    scratch = tempfile.mkdtemp(prefix="repro-streaming-")
    trace_path = os.path.join(scratch, "synthetic.trace")

    started = time.perf_counter()
    write_synthetic_trace(trace_path, lines)
    print(
        f"generated {lines} trace lines "
        f"({os.path.getsize(trace_path) >> 20} MiB) "
        f"in {time.perf_counter() - started:.1f}s"
    )

    # Import (and ingest) before arming any fault.
    os.environ.pop("REPRO_FAULTS", None)
    from repro import faults
    from repro.engine import (
        BASELINE,
        IF_CONVERTED,
        ArtifactStore,
        CellRequest,
        ExecutionEngine,
        ExperimentDefinition,
        SchemeSpec,
    )
    from repro.engine.store import CHECKPOINTS
    from repro.experiments.setup import ExperimentProfile
    from repro.workloads.trace_ingest import ingest_trace_file

    started = time.perf_counter()
    tracemalloc.start()
    try:
        ingested = ingest_trace_file(trace_path, name="synthetic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - started
    print(
        f"ingested {lines} lines in {elapsed:.1f}s "
        f"({lines / elapsed / 1e6:.2f}M lines/s), "
        f"peak alloc {peak >> 20} MiB, {len(ingested.sites)} sites"
    )
    if peak > INGEST_PEAK_CEILING:
        print(
            f"FAIL: ingest peak allocation {peak} exceeds the "
            f"{INGEST_PEAK_CEILING} ceiling — streaming ingestion regressed",
            file=sys.stderr,
        )
        return 1

    profile = ExperimentProfile(
        name="streaming-smoke",
        instructions_per_benchmark=budget,
        benchmarks=[trace_path],
        # Clamped because a long profiling pass marks so many branches
        # convertible that if-conversion exhausts the predicate register
        # file on this synthetic workload.
        profile_budget=min(budget, 20_000),
    )
    # Two (flavour) cells so --jobs 2 really fans out to worker processes;
    # the kill-on-checkpoint fault fires in whichever worker checkpoints
    # second, and the engine must recover that cell.
    definition = ExperimentDefinition(
        name="streaming-smoke",
        requests=[
            CellRequest(trace_path, flavour, f"{flavour}/{kind}", SchemeSpec.make(kind))
            for flavour in (BASELINE, IF_CONVERTED)
            for kind in ("conventional", "predicate", "wish")
        ],
    )
    segment_rows = max(1_000, budget // 8)

    def outputs_of(engine):
        run = engine.run([definition])[definition.name]
        return {
            slot: (
                result.metrics.summary(),
                result.metrics.counters.as_dict(),
            )
            for slot, result in run.items()
        }

    reference = outputs_of(ExecutionEngine(profile, trace_segment_rows=segment_rows))
    print(f"reference run complete ({budget} instructions, {len(reference)} simulations)")

    # Arm the kill: the worker dies immediately after writing its second
    # checkpoint, so the retried job has something to resume from.
    os.environ[faults.FAULTS_ENV] = f"{faults.KILL_CHECKPOINT}:2"
    os.environ[faults.FAULTS_STATE_ENV] = os.path.join(scratch, "fault-state")
    store = ArtifactStore(os.path.join(scratch, "cache"))
    chaos = ExecutionEngine(
        profile,
        store=store,
        jobs=2,
        checkpoint_every=max(2_000, budget // 6),
        trace_segment_rows=segment_rows,
    )
    chaos_outputs = outputs_of(chaos)
    os.environ.pop(faults.FAULTS_ENV, None)
    os.environ.pop(faults.FAULTS_STATE_ENV, None)

    stats = chaos.stats
    print(
        f"chaos run: workers_lost={stats.workers_lost} "
        f"jobs_retried={stats.jobs_retried} "
        f"checkpoints_written={stats.checkpoints_written} "
        f"checkpoints_resumed={stats.checkpoints_resumed} "
        f"batches_run={stats.batches_run}"
    )
    if chaos_outputs != reference:
        print(
            "FAIL: resumed run diverged from the uninterrupted reference",
            file=sys.stderr,
        )
        return 1
    if stats.workers_lost < 1 or stats.jobs_retried < 1:
        print(
            "FAIL: the kill-on-checkpoint fault never fired "
            f"(workers_lost={stats.workers_lost}, jobs_retried={stats.jobs_retried})",
            file=sys.stderr,
        )
        return 1
    if stats.checkpoints_written < 1 or stats.checkpoints_resumed < 1:
        print(
            "FAIL: the retried job restarted instead of resuming "
            f"(written={stats.checkpoints_written}, "
            f"resumed={stats.checkpoints_resumed})",
            file=sys.stderr,
        )
        return 1
    if stats.batches_run < 1:
        print(
            "FAIL: the checkpointed cells never ran as a lane batch",
            file=sys.stderr,
        )
        return 1
    leftovers = store.usage()[CHECKPOINTS]["count"]
    if leftovers:
        print(
            f"FAIL: {leftovers} checkpoint(s) left behind after results landed",
            file=sys.stderr,
        )
        return 1
    print("streaming smoke PASSED: flat-memory ingest, kill, resume, parity")
    return 0


if __name__ == "__main__":
    sys.exit(main())
