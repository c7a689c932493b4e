"""Design-choice ablations called out in section 3.3.

Two design decisions of the predicate predictor are argued qualitatively in
the paper; these ablations measure them:

* **single dual-hashed PVT vs split PVT** — "Having a split PVT table may
  result in a suboptimal utilization of the available space, producing an
  increase of aliasing conflicts.  Instead, we use an unique PVT table that
  is accessed with two different hash functions";
* **global-history corruption** — the accuracy lost to the corruption window
  between a wrong compare prediction and its repair, measured by comparing
  the real scheme against the same scheme with a perfect-history oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.engine import (
    IF_CONVERTED,
    ExperimentDefinition,
    ExperimentOutputs,
    SchemeSpec,
    resolve_engine,
    sweep,
)
from repro.stats.tables import ResultTable

PVT_PAPER = "dual-hash single PVT"
PVT_ALT = "split PVT"
HISTORY_REAL = "speculative history"
HISTORY_ORACLE = "oracle history"

PVT_SCHEMES = {
    PVT_PAPER: SchemeSpec.make("predicate"),
    PVT_ALT: SchemeSpec.make("predicate", split_pvt=True),
}

HISTORY_SCHEMES = {
    HISTORY_REAL: SchemeSpec.make("predicate"),
    HISTORY_ORACLE: SchemeSpec.make("predicate", perfect_history=True),
}


@dataclass
class AblationResult:
    """Comparison between the paper's design point and one alternative."""

    name: str
    table: ResultTable
    #: average accuracy advantage of the paper's design point (positive =
    #: the paper's choice is better).
    average_advantage: float

    def render(self) -> str:
        return "\n".join(
            [
                self.table.render(),
                "",
                f"{self.name}: average accuracy advantage of the paper's design "
                f"point = {100 * self.average_advantage:.2f}%",
            ]
        )


# ----------------------------------------------------------------------
# PVT organisation
# ----------------------------------------------------------------------
def pvt_ablation_definition(benchmarks: Sequence[str]) -> ExperimentDefinition:
    return sweep("ablation-pvt", benchmarks, IF_CONVERTED, PVT_SCHEMES)


def collect_pvt_ablation(
    outputs: ExperimentOutputs, benchmarks: Sequence[str]
) -> AblationResult:
    table = ResultTable.from_results(
        title="Ablation: PVT organisation (if-converted code)",
        columns=[PVT_PAPER, PVT_ALT],
        benchmarks=benchmarks,
        outputs=outputs,
    )
    return AblationResult(
        name="PVT organisation",
        table=table,
        average_advantage=table.delta(PVT_PAPER, PVT_ALT),
    )


def run_pvt_ablation(
    profile=None,
    engine=None,
    jobs: Optional[int] = None,
) -> AblationResult:
    """Single dual-hashed PVT (paper) vs statically split PVT."""
    engine = resolve_engine(engine=engine, profile=profile)
    benchmarks = engine.benchmarks()
    definition = pvt_ablation_definition(benchmarks)
    outputs = engine.run([definition], jobs=jobs)[definition.name]
    return collect_pvt_ablation(outputs, benchmarks)


# ----------------------------------------------------------------------
# Global-history corruption
# ----------------------------------------------------------------------
def history_ablation_definition(benchmarks: Sequence[str]) -> ExperimentDefinition:
    return sweep("ablation-history", benchmarks, IF_CONVERTED, HISTORY_SCHEMES)


def collect_history_ablation(
    outputs: ExperimentOutputs, benchmarks: Sequence[str]
) -> AblationResult:
    table = ResultTable.from_results(
        title="Ablation: global-history corruption (if-converted code)",
        columns=[HISTORY_REAL, HISTORY_ORACLE],
        benchmarks=benchmarks,
        outputs=outputs,
    )
    # Here the "paper design point" is the realistic scheme; the advantage is
    # negative (the oracle is better), quantifying the corruption cost.
    return AblationResult(
        name="global-history corruption cost",
        table=table,
        average_advantage=table.delta(HISTORY_REAL, HISTORY_ORACLE),
    )


def run_history_ablation(
    profile=None,
    engine=None,
    jobs: Optional[int] = None,
) -> AblationResult:
    """Real speculative history (with its corruption window) vs oracle update."""
    engine = resolve_engine(engine=engine, profile=profile)
    benchmarks = engine.benchmarks()
    definition = history_ablation_definition(benchmarks)
    outputs = engine.run([definition], jobs=jobs)[definition.name]
    return collect_history_ablation(outputs, benchmarks)
