#!/usr/bin/env python
"""Timing-loop and predictor layer figures, measured outside perfbench.

Usage::

    PYTHONPATH=src python scripts/lane_bench.py [--rounds N] [--rows 8000,40000]

Builds the if-converted binary of six fixed built-ins (one per cost
stratum of the shootout) at the quick profile and emulates each for every
row budget (default 8,000 and 40,000 rows).  Then, per budget and summed
over the six traces, it times, best of ``N`` rounds (default 3):

* ``decode``: building the span's ``_Rows`` (column decode and statics);
* ``walk``: the memory walk of those rows (``MemoryWalker.walk``);
* ``prepass``: the decision-stream prepass of the two stream sources
  (conventional and conventional-tage), cursors included;
* one ``_run_rows`` per shootout configuration, each a lone lane on fresh
  rows, so a hook lane also builds the cursors it reads (in a batch the
  first reader of a row builds its cursor for every lane);
* ``batch``: the whole 8-lane ``simulate_lanes`` call.

Everything a measured call reads (rows, walks, streams, schemes) is built
outside the timed region.  The last line of output is one JSON object.  To
compare two checkouts, run the script in each, alternating, on one quiet
host.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

from repro.emulator.executor import Emulator
from repro.engine import IF_CONVERTED, ExecutionEngine, SchemeSpec
from repro.experiments.setup import FAST_PROFILE
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.batched import LaneSpec, _drive_scheme_stream, simulate_lanes, stream_source
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import MemoryWalker, OutOfOrderCore, _Rows

#: One built-in per cost stratum of the shootout.
BENCHMARKS = ("lucas", "gzip", "gap", "swim", "twolf", "mesa")

#: The eight shootout configurations.
CONFIGS = {
    "conventional": SchemeSpec.make("conventional"),
    "conventional-tage": SchemeSpec.make("conventional", second_level="tage"),
    "predicate": SchemeSpec.make("predicate"),
    "predicate-tage": SchemeSpec.make("predicate", second_level="tage"),
    "wish": SchemeSpec.make("wish"),
    "wish-tage": SchemeSpec.make("wish", second_level="tage"),
    "pep-pa": SchemeSpec.make("pep-pa"),
    "predicate-aware": SchemeSpec.make("predicate-aware"),
}

#: The stream sources of the shootout's branch streams.
STREAM_CONFIGS = ("conventional", "conventional-tage")


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


def decoded(packs):
    return [_Rows(pack, 0, len(pack), {}) for pack in packs]


def walked(rows):
    return MemoryWalker(MemoryHierarchy()).walk(rows)


def lane_inputs(packs, spec):
    """Per trace: (core, fresh state, fresh rows, stream or None, walk).

    A stream comes from a prepass over other rows, so the timed rows hold
    no cursor yet.
    """
    inputs = []
    for pack in packs:
        rows = _Rows(pack, 0, len(pack), {})
        scheme = spec.build()
        source = stream_source(scheme)
        stream = None
        if source is not None:
            stream = _drive_scheme_stream(source, _Rows(pack, 0, len(pack), {}))
        core = OutOfOrderCore(config=PipelineConfig())
        inputs.append((core, core._loop_state(scheme), rows, stream, walked(rows)))
    return inputs


def measure_budget(packs, rounds):
    figures = {
        "decode": best_of(rounds, lambda: packs, decoded),
        "walk": best_of(
            rounds,
            lambda: decoded(packs),
            lambda rows: [walked(r) for r in rows],
        ),
        "prepass": best_of(
            rounds,
            lambda: [
                (CONFIGS[name].build(), rows)
                for name in STREAM_CONFIGS
                for rows in decoded(packs)
            ],
            lambda pairs: [_drive_scheme_stream(scheme, rows) for scheme, rows in pairs],
        ),
    }
    for name, spec in CONFIGS.items():
        figures[name] = best_of(
            rounds,
            lambda spec=spec: lane_inputs(packs, spec),
            lambda inputs: [core._run_rows(*rest) for core, *rest in inputs],
        )
    lanes = [LaneSpec(spec.build, PipelineConfig()) for spec in CONFIGS.values()]
    figures["batch"] = best_of(
        rounds,
        lambda: packs,
        lambda traces: [simulate_lanes(trace, lanes) for trace in traces],
    )
    return {name: round(seconds, 4) for name, seconds in figures.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--rows", default="8000,40000")
    arguments = parser.parse_args()
    budgets = [int(rows) for rows in arguments.rows.split(",")]

    engine = ExecutionEngine(FAST_PROFILE, store=None)
    binaries = [engine.build_binary(name, IF_CONVERTED) for name in BENCHMARKS]
    report = {"benchmarks": list(BENCHMARKS), "rounds": arguments.rounds, "seconds": {}}
    for rows in budgets:
        packs = [Emulator(program).run_pack(rows) for program in binaries]
        figures = measure_budget(packs, arguments.rounds)
        report["seconds"][str(rows)] = figures
        print(f"{rows} rows x {len(packs)} traces, best of {arguments.rounds} (s):")
        for name, seconds in figures.items():
            print(f"  {name:<18} {seconds:8.4f}")
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
