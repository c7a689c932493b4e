"""Figure 6: branch prediction accuracy on **if-converted** code.

Figure 6a compares three schemes on binaries compiled with if-conversion:
a 144 KB PEP-PA predictor, a 148 KB conventional two-level predictor, and
the 148 KB predicate predictor.  The paper reports the predicate predictor
as the most accurate on every benchmark but one (twolf), with a 1.5 %
average accuracy increase over the best other scheme, and PEP-PA —
surprisingly — behind the conventional predictor.

Figure 6b breaks the accuracy difference between the predicate predictor and
the conventional predictor into an *early-resolved* contribution (counted as
branches that were early-resolved while the conventional predictor
mispredicted them) and a *correlation* contribution (the remainder, which
also absorbs the scheme's negative effects and can therefore be negative).
The paper reports roughly +1 % from correlation and +0.5 % from
early-resolved branches on average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.early_resolution import AccuracyBreakdown, accuracy_breakdown
from repro.engine import (
    IF_CONVERTED,
    ExperimentDefinition,
    ExperimentOutputs,
    SchemeSpec,
    resolve_engine,
    sweep,
)
from repro.stats.tables import ResultTable

PEPPA = "pep-pa"
CONVENTIONAL = "conventional"
PREDICATE = "predicate-predictor"

#: The schemes Figure 6a sweeps, keyed by column label.
FIGURE6_SCHEMES = {
    PEPPA: SchemeSpec.make("pep-pa"),
    CONVENTIONAL: SchemeSpec.make("conventional"),
    PREDICATE: SchemeSpec.make("predicate"),
}


@dataclass
class Figure6Result:
    """Figure 6a table + Figure 6b breakdown + headline numbers."""

    table: ResultTable
    breakdown: List[AccuracyBreakdown]
    #: accuracy increase of the predicate predictor over the best other
    #: scheme, averaged over benchmarks (paper: 1.5%).
    average_increase_over_best: float
    #: benchmarks where the predicate predictor has the lowest rate.
    predicate_best_count: int
    #: average early-resolved contribution (paper: ~0.5%).
    average_early_resolved_improvement: float
    #: average correlation contribution (paper: ~1%).
    average_correlation_improvement: float

    def render(self) -> str:
        lines = [self.table.render(), ""]
        lines.append("Figure 6b - accuracy difference breakdown (percentage points)")
        lines.append(f"{'benchmark':12s} {'early-resolved':>15s} {'correlation':>12s}")
        for item in self.breakdown:
            lines.append(
                f"{item.benchmark:12s} {100 * item.early_resolved_improvement:15.2f} "
                f"{100 * item.correlation_improvement:12.2f}"
            )
        lines.append("")
        lines.append(
            f"average increase over best other scheme: "
            f"{100 * self.average_increase_over_best:.2f}% (paper: 1.5%)"
        )
        lines.append(
            f"average early-resolved / correlation contributions: "
            f"{100 * self.average_early_resolved_improvement:.2f}% / "
            f"{100 * self.average_correlation_improvement:.2f}% "
            f"(paper: 0.5% / 1%)"
        )
        return "\n".join(lines)


def figure6_definition(benchmarks: Sequence[str]) -> ExperimentDefinition:
    """Declare the Figure 6 sweep over ``benchmarks``."""
    return sweep("figure6", benchmarks, IF_CONVERTED, FIGURE6_SCHEMES)


def collect_figure6(
    outputs: ExperimentOutputs, benchmarks: Sequence[str]
) -> Figure6Result:
    """Assemble the Figure 6a/6b result from engine outputs."""
    table = ResultTable.from_results(
        title="Figure 6a - branch misprediction rate, if-converted code",
        columns=[PEPPA, CONVENTIONAL, PREDICATE],
        benchmarks=benchmarks,
        outputs=outputs,
    )
    breakdown = [
        accuracy_breakdown(
            benchmark,
            conventional=outputs[(benchmark, CONVENTIONAL)].accuracy,
            predicate=outputs[(benchmark, PREDICATE)].accuracy,
        )
        for benchmark in benchmarks
    ]

    increases = []
    predicate_best = 0
    for benchmark in table.benchmarks():
        best_other = min(
            table.value(benchmark, PEPPA), table.value(benchmark, CONVENTIONAL)
        )
        predicate_rate = table.value(benchmark, PREDICATE)
        increases.append(best_other - predicate_rate)
        if predicate_rate <= best_other:
            predicate_best += 1

    early = [b.early_resolved_improvement for b in breakdown]
    correlation = [b.correlation_improvement for b in breakdown]
    count = len(breakdown) or 1
    return Figure6Result(
        table=table,
        breakdown=breakdown,
        average_increase_over_best=sum(increases) / len(increases) if increases else 0.0,
        predicate_best_count=predicate_best,
        average_early_resolved_improvement=sum(early) / count,
        average_correlation_improvement=sum(correlation) / count,
    )


def run_figure6(
    profile=None,
    engine=None,
    jobs: Optional[int] = None,
) -> Figure6Result:
    """Regenerate Figure 6a and 6b over the selected benchmarks."""
    engine = resolve_engine(engine=engine, profile=profile)
    benchmarks = engine.benchmarks()
    definition = figure6_definition(benchmarks)
    outputs = engine.run([definition], jobs=jobs)[definition.name]
    return collect_figure6(outputs, benchmarks)
