"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload shootout-cold --seed 1 --seconds 12 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it half untraced, half with layer spans and
prints the per-layer metrics (plus a Chrome trace under
``.perfbench-out/``).  Human-readable lines come first; the last line of
standard output is the JSON result object.  The package is imported from
``src/`` of the same checkout; without it the command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("shootout-cold", "sweep-warm", "serve-mixed", "long-trace")


def _import_package() -> None:
    """Import the checkout's own package, never an installed one."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    # Chaos-testing hooks must never fire inside a measurement.
    for name in ("REPRO_FAULTS", "REPRO_FAULTS_STATE"):
        os.environ.pop(name, None)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    work_dir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    trace_path = os.path.join(
        ROOT, ".perfbench-out", f"trace-{args.workload}-seed{args.seed}.json"
    )
    try:
        outcome = workloads.run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            work_dir,
            trace_path=trace_path,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
