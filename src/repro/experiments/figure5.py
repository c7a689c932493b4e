"""Figure 5: branch misprediction rates on **non-if-converted** code.

The paper compares a 148 KB conventional two-level branch predictor against
the 148 KB predicate predictor on binaries compiled *without* predication,
and reports that the predicate predictor achieves better accuracy on all but
three benchmarks, with an average accuracy increase of 1.86 %.

``run_figure5`` regenerates the same comparison on the synthetic suite and
returns both the per-benchmark table and the headline summary numbers.  The
sweep itself is declared as an :class:`~repro.engine.ExperimentDefinition`
and executed by the job-graph engine, so binaries, traces and results are
shared (in memory and, with a store, on disk) with every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.engine import (
    BASELINE,
    ExperimentDefinition,
    ExperimentOutputs,
    SchemeSpec,
    resolve_engine,
    sweep,
)
from repro.stats.tables import ResultTable

CONVENTIONAL = "conventional"
PREDICATE = "predicate-predictor"

#: The schemes Figure 5 sweeps, keyed by column label.
FIGURE5_SCHEMES = {
    CONVENTIONAL: SchemeSpec.make("conventional"),
    PREDICATE: SchemeSpec.make("predicate"),
}


@dataclass
class Figure5Result:
    """Everything Figure 5 shows, plus the numbers quoted in the text."""

    table: ResultTable
    #: average accuracy increase of the predicate predictor over the
    #: conventional predictor (positive = predicate predictor better).
    average_accuracy_increase: float
    #: benchmarks where the predicate predictor is strictly better.
    predicate_wins: int
    #: benchmarks where the conventional predictor is strictly better
    #: (the paper reports three such exceptions).
    conventional_wins: int
    #: fraction of dynamic branches that were early-resolved, per benchmark.
    early_resolved: Dict[str, float]

    def render(self) -> str:
        lines = [self.table.render()]
        lines.append("")
        lines.append(
            f"average accuracy increase of the predicate predictor: "
            f"{100 * self.average_accuracy_increase:.2f}% "
            f"(paper: 1.86%)"
        )
        lines.append(
            f"benchmarks where the predicate predictor wins: "
            f"{self.predicate_wins}/{len(self.table.benchmarks())} "
            f"(paper: all but 3)"
        )
        return "\n".join(lines)


def figure5_definition(benchmarks: Sequence[str]) -> ExperimentDefinition:
    """Declare the Figure 5 sweep over ``benchmarks``."""
    return sweep("figure5", benchmarks, BASELINE, FIGURE5_SCHEMES)


def collect_figure5(
    outputs: ExperimentOutputs, benchmarks: Sequence[str]
) -> Figure5Result:
    """Assemble the Figure 5 result from engine outputs."""
    table = ResultTable.from_results(
        title="Figure 5 - branch misprediction rate, non-if-converted code",
        columns=[CONVENTIONAL, PREDICATE],
        benchmarks=benchmarks,
        outputs=outputs,
    )
    early_resolved = {
        benchmark: outputs[(benchmark, PREDICATE)].accuracy.early_resolved_fraction
        for benchmark in benchmarks
    }
    return Figure5Result(
        table=table,
        average_accuracy_increase=table.delta(PREDICATE, CONVENTIONAL),
        predicate_wins=table.wins(PREDICATE, CONVENTIONAL),
        conventional_wins=table.wins(CONVENTIONAL, PREDICATE),
        early_resolved=early_resolved,
    )


def run_figure5(
    profile=None,
    engine=None,
    jobs: Optional[int] = None,
) -> Figure5Result:
    """Regenerate Figure 5 over the selected benchmarks."""
    engine = resolve_engine(engine=engine, profile=profile)
    benchmarks = engine.benchmarks()
    definition = figure5_definition(benchmarks)
    outputs = engine.run([definition], jobs=jobs)[definition.name]
    return collect_figure5(outputs, benchmarks)
