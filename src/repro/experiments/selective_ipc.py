"""Selective predicated execution: the IPC side of the proposal (section 5).

Besides accuracy, the paper argues that the same predictor enables efficient
predicated execution on an out-of-order core: instructions whose predicate
is confidently predicted false are cancelled at rename (freeing issue-queue
entries and functional units), and confidently-true predictions remove both
the predicate data dependence and the old-destination dependence introduced
by conservative multiple-definition handling.  The prior work it builds on
([16]) reports an 11 % IPC improvement over previous predicated-execution
techniques; here we measure the IPC of the if-converted binaries under:

* the conventional scheme (conservative, conditional-move-style handling of
  every predicated instruction);
* the predicate scheme with selective predication disabled (predictions used
  for branches only);
* the full predicate scheme with selective predication enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.engine import (
    IF_CONVERTED,
    ExperimentDefinition,
    ExperimentOutputs,
    SchemeSpec,
    resolve_engine,
    sweep,
)
from repro.stats.tables import ResultTable

CONSERVATIVE = "conventional (conservative predication)"
NO_SELECTIVE = "predicate predictor, no selective predication"
SELECTIVE = "predicate predictor + selective predication"

SELECTIVE_IPC_SCHEMES = {
    CONSERVATIVE: SchemeSpec.make("conventional"),
    NO_SELECTIVE: SchemeSpec.make("predicate", selective_predication=False),
    SELECTIVE: SchemeSpec.make("predicate"),
}


@dataclass
class SelectiveIPCResult:
    """IPC comparison on if-converted binaries."""

    table: ResultTable
    #: geometric-mean-ish (arithmetic here) speed-up of selective predication
    #: over the conservative baseline.
    speedup_over_conservative: float
    speedup_over_non_selective: float
    #: instructions cancelled at rename per benchmark (resource savings).
    cancelled_fraction: Dict[str, float]

    def render(self) -> str:
        return "\n".join(
            [
                self.table.render(percent=False, decimals=3),
                "",
                f"selective predication IPC vs conservative baseline: "
                f"{self.speedup_over_conservative:.3f}x",
                f"selective predication IPC vs non-selective predicate scheme: "
                f"{self.speedup_over_non_selective:.3f}x "
                f"(the paper's prior work [16] reports ~1.11x over previous techniques)",
            ]
        )


def selective_ipc_definition(benchmarks: Sequence[str]) -> ExperimentDefinition:
    """Declare the IPC sweep over ``benchmarks``."""
    return sweep("selective-ipc", benchmarks, IF_CONVERTED, SELECTIVE_IPC_SCHEMES)


def collect_selective_ipc(
    outputs: ExperimentOutputs, benchmarks: Sequence[str]
) -> SelectiveIPCResult:
    """Assemble the IPC comparison from engine outputs."""
    table = ResultTable.from_results(
        title="Selective predicated execution - IPC on if-converted code",
        columns=[CONSERVATIVE, NO_SELECTIVE, SELECTIVE],
        benchmarks=benchmarks,
        outputs=outputs,
        value=lambda result: result.ipc,
    )
    cancelled: Dict[str, float] = {}
    for benchmark in benchmarks:
        metrics = outputs[(benchmark, SELECTIVE)].metrics
        fetched = metrics.fetched_instructions or 1
        cancelled[benchmark] = metrics.cancelled_at_rename / fetched

    conservative_mean = table.mean(CONSERVATIVE)
    non_selective_mean = table.mean(NO_SELECTIVE)
    selective_mean = table.mean(SELECTIVE)
    return SelectiveIPCResult(
        table=table,
        speedup_over_conservative=(
            selective_mean / conservative_mean if conservative_mean else 0.0
        ),
        speedup_over_non_selective=(
            selective_mean / non_selective_mean if non_selective_mean else 0.0
        ),
        cancelled_fraction=cancelled,
    )


def run_selective_ipc(
    profile=None,
    engine=None,
    jobs: Optional[int] = None,
) -> SelectiveIPCResult:
    """Measure IPC of if-converted code under the three handling policies."""
    engine = resolve_engine(engine=engine, profile=profile)
    benchmarks = engine.benchmarks()
    definition = selective_ipc_definition(benchmarks)
    outputs = engine.run([definition], jobs=jobs)[definition.name]
    return collect_selective_ipc(outputs, benchmarks)
