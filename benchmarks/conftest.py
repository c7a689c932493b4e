"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper over the full
22-program synthetic suite.  The instruction budget per benchmark defaults
to a value that keeps the whole harness in the minutes range on a laptop;
set ``REPRO_BENCH_INSTRUCTIONS`` (e.g. 100000) for a longer, more stable run
and ``REPRO_BENCH_BENCHMARKS`` (comma-separated names) to restrict the
benchmark set.
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover
        sys.path.insert(0, _SRC)

import pytest

from repro.engine import ExecutionEngine
from repro.experiments.setup import ExperimentProfile, profile_from_environment

#: Default per-benchmark instruction budget of the harness.
DEFAULT_BENCH_INSTRUCTIONS = 20_000


def bench_profile() -> ExperimentProfile:
    """The profile used by every benchmark in this directory."""
    default = ExperimentProfile(
        name="bench",
        instructions_per_benchmark=DEFAULT_BENCH_INSTRUCTIONS,
        benchmarks=None,  # full 22-program suite
        profile_budget=10_000,
    )
    return profile_from_environment(default)


@pytest.fixture(scope="session")
def shared_engine() -> ExecutionEngine:
    """One engine for the whole harness, so compiled binaries are reused."""
    return ExecutionEngine(bench_profile())


#: Directory where every benchmark also archives its rendered result block.
#: Not ``results/``: the harness runs its own profile, and the committed
#: reports there are what ``repro all`` writes.
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench-results"
)


def emit(title: str, body: str, name: str = "") -> None:
    """Print a result block and archive it under ``results/``.

    The print is visible with ``pytest -s`` (or on failures); the archived
    copy makes the regenerated tables available even when pytest captures
    stdout, so a plain ``pytest benchmarks/ --benchmark-only`` run leaves the
    per-figure tables in ``.bench-results/*.txt``.

    ``name`` is the canonical file name of the report (matching the names
    ``repro all`` writes, see :data:`repro.experiments.suite.REPORT_TITLES`);
    it defaults to a slug of the title.
    """
    from repro.stats.reporting import report_block, report_slug

    block = report_block(title, body)
    print(f"\n{block}", flush=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    slug = name or report_slug(title)
    with open(os.path.join(RESULTS_DIR, f"{slug}.txt"), "w", encoding="utf-8") as handle:
        handle.write(block)
