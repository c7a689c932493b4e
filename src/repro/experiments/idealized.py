"""The idealized-predictor isolation study (sections 4.2 and 4.3).

To separate the benefit of early-resolved branches and correlation from the
two negative side effects of predicate prediction (alias conflicts from the
extra predictions, and the global-history corruption window), the paper
repeats both experiments with *idealized* predictors: "without alias
conflicts and with perfect global-history update".  It reports that the
idealized predicate predictor is consistently better on every benchmark,
with an average accuracy increase of 2.24 % on non-if-converted code and
almost 2 % on if-converted code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.engine import (
    BASELINE,
    IF_CONVERTED,
    ExperimentDefinition,
    ExperimentOutputs,
    SchemeSpec,
    resolve_engine,
    sweep,
)
from repro.pipeline.core import SimulationResult
from repro.stats.tables import ResultTable

CONVENTIONAL = "ideal-conventional"
PREDICATE = "ideal-predicate-predictor"

#: The idealized scheme pair, keyed by column label.
IDEALIZED_SCHEMES = {
    CONVENTIONAL: SchemeSpec.make(
        "conventional", ideal_no_alias=True, perfect_history=True
    ),
    PREDICATE: SchemeSpec.make(
        "predicate", ideal_no_alias=True, perfect_history=True
    ),
}


@dataclass
class IdealizedResult:
    """Idealized comparison for one binary flavour."""

    flavour: str
    table: ResultTable
    average_accuracy_increase: float
    predicate_wins: int
    #: Per-benchmark accuracy of the per-site static oracle — the alias-free,
    #: perfect-history limit of a static predictor, computed from the
    #: branch outcomes the study's own results recorded.
    oracle_accuracy: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        target = "2.24%" if self.flavour == BASELINE else "~2%"
        lines = [
            self.table.render(),
            "",
            f"average accuracy increase (idealized predictors, {self.flavour} code): "
            f"{100 * self.average_accuracy_increase:.2f}% (paper: {target}, "
            f"consistent win on every benchmark)",
        ]
        if self.oracle_accuracy:
            mean = sum(self.oracle_accuracy.values()) / len(self.oracle_accuracy)
            lines.append(
                f"static per-site oracle (trace-level upper bound, {self.flavour} "
                f"code): {100 * mean:.2f}% mean accuracy over "
                f"{len(self.oracle_accuracy)} benchmarks"
            )
        return "\n".join(lines)


def idealized_definition(
    flavour: str, benchmarks: Sequence[str]
) -> ExperimentDefinition:
    """Declare the idealized sweep for one binary flavour."""
    if flavour not in (BASELINE, IF_CONVERTED):
        raise ValueError(f"unknown binary flavour {flavour!r}")
    return sweep(f"idealized-{flavour}", benchmarks, flavour, IDEALIZED_SCHEMES)


def collect_idealized(
    outputs: ExperimentOutputs,
    benchmarks: Sequence[str],
    flavour: str,
) -> IdealizedResult:
    """Assemble the idealized-study result from engine outputs."""
    table = ResultTable.from_results(
        title=f"Idealized predictors (no aliasing, perfect history) - {flavour} code",
        columns=[CONVENTIONAL, PREDICATE],
        benchmarks=benchmarks,
        outputs=outputs,
    )
    return IdealizedResult(
        flavour=flavour,
        table=table,
        average_accuracy_increase=table.delta(PREDICATE, CONVENTIONAL),
        predicate_wins=table.wins(PREDICATE, CONVENTIONAL),
        oracle_accuracy={
            benchmark: static_oracle_accuracy(outputs[(benchmark, CONVENTIONAL)])
            for benchmark in benchmarks
        },
    )


def static_oracle_accuracy(result: SimulationResult) -> float:
    """The per-site static-oracle accuracy of one simulated trace.

    A full result records the actual outcome of every conditional branch
    of its trace, so the oracle needs no trace (see
    :meth:`~repro.stats.accuracy.BranchAccuracy.static_oracle_accuracy`).
    """
    return result.accuracy.static_oracle_accuracy()


def run_idealized_study(
    flavour: str = BASELINE,
    profile=None,
    engine=None,
    jobs: Optional[int] = None,
) -> IdealizedResult:
    """Run the idealized comparison on one binary flavour."""
    engine = resolve_engine(engine=engine, profile=profile)
    benchmarks = engine.benchmarks()
    definition = idealized_definition(flavour, benchmarks)
    outputs = engine.run([definition], jobs=jobs)[definition.name]
    return collect_idealized(outputs, benchmarks, flavour)
