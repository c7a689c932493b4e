#!/usr/bin/env python
"""Trace-building layer figures, measured outside perfbench.

Usage::

    PYTHONPATH=src python scripts/trace_build_bench.py [--rounds N]

Builds the if-converted binary of every built-in workload at the quick
profile, then times, best of ``N`` rounds (default 5):

* ``Emulator.run_pack`` of every binary for 8,000 rows (``short``), and of
  six binaries for 60,000 rows cut into streamed 15,000-row segments that
  are dropped unencoded (``segmented``), as rows per second;
* ``TracePack.to_bytes`` and ``TracePack.from_bytes`` of the first
  15,000-row segment of four binaries (best of ``4 * N`` rounds), with
  the encoded bytes.

Each emulator is built outside the timed region, so the figures hold
``run_pack`` alone.  The last line of output is one JSON object.  To
compare two checkouts, run the script in each, alternating, on one quiet
host.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

from repro.emulator.executor import Emulator
from repro.emulator.tracepack import TracePack
from repro.engine import IF_CONVERTED, ExecutionEngine
from repro.experiments.setup import FAST_PROFILE
from repro.workloads.spec_suite import workload_names

SEGMENTED = ("gzip", "twolf", "swim", "gap", "gcc", "mcf")
SEGMENT_ROWS = 15_000


def best_of(rounds, prepare, measure):
    """Best wall time of ``measure(prepare())`` over ``rounds`` runs."""
    best = float("inf")
    for _ in range(rounds):
        arguments = prepare()
        gc.collect()
        start = time.perf_counter()
        measure(arguments)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    rounds = parser.parse_args().rounds

    engine = ExecutionEngine(FAST_PROFILE, store=None)
    binaries = {name: engine.build_binary(name, IF_CONVERTED) for name in workload_names()}
    segmented = [binaries[name] for name in SEGMENTED]

    def emulators(programs):
        return lambda: [Emulator(program) for program in programs]

    def short(batch):
        for emulator in batch:
            emulator.run_pack(8_000)

    def streamed(batch):
        for emulator in batch:
            emulator.run_pack(60_000, segment_rows=SEGMENT_ROWS, on_segment=lambda pack: None)

    short_rows = sum(len(Emulator(program).run_pack(8_000)) for program in binaries.values())
    short_s = best_of(rounds, emulators(binaries.values()), short)
    segmented_s = best_of(rounds, emulators(segmented), streamed)

    segments = []
    for program in segmented[:4]:
        Emulator(program).run_pack(
            SEGMENT_ROWS, segment_rows=SEGMENT_ROWS, on_segment=segments.append
        )
    blobs = [segment.to_bytes() for segment in segments]
    # A codec call takes milliseconds, so it gets more rounds.
    codec_rounds = 4 * rounds
    report = {
        "short_rows_per_s": round(short_rows / short_s),
        "segmented_rows_per_s": round(len(segmented) * 60_000 / segmented_s),
        "segment_bytes": [len(blob) for blob in blobs],
        "to_bytes_ms": [
            round(1e3 * best_of(codec_rounds, lambda: segment, TracePack.to_bytes), 2)
            for segment in segments
        ],
        "from_bytes_ms": [
            round(1e3 * best_of(codec_rounds, lambda: blob, TracePack.from_bytes), 2)
            for blob in blobs
        ],
    }
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
