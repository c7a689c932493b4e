"""Run the entire evaluation through one shared engine pass.

``run_all`` is the whole-paper sweep behind the ``repro all`` CLI command:
it plans every experiment's definition into a *single* job graph, so the
deduplicated DAG executes each shared (benchmark, flavour, scheme) cell
exactly once — e.g. the predicate scheme on if-converted code is simulated
once and its result feeds Figure 6a, both ablations and the IPC study.
With an artifact store configured, a re-run serves everything from disk.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional

from repro.engine import BASELINE, IF_CONVERTED, resolve_engine
from repro.experiments.ablations import (
    collect_history_ablation,
    collect_pvt_ablation,
    history_ablation_definition,
    pvt_ablation_definition,
)
from repro.experiments.figure5 import collect_figure5, figure5_definition
from repro.experiments.figure6 import collect_figure6, figure6_definition
from repro.experiments.idealized import (
    collect_idealized,
    idealized_definition,
    oracle_accuracies,
)
from repro.experiments.selective_ipc import (
    collect_selective_ipc,
    selective_ipc_definition,
)
from repro.experiments.setup import paper_table1
from repro.stats.reporting import report_block

#: Descriptive banner titles of each report (keys double as file names; the
#: benchmark harness archives its figures under the same names).
REPORT_TITLES = {
    "table1": "Table 1 - main architectural parameters",
    "figure5": "Figure 5 - misprediction rates (non-if-converted binaries)",
    "figure6": "Figure 6 - misprediction rates and breakdown (if-converted binaries)",
    "idealized_baseline": "Idealized predictors - non-if-converted code",
    "idealized_if_converted": "Idealized predictors - if-converted code",
    "ablation_pvt": "Ablation - PVT organisation",
    "ablation_history": "Ablation - global-history corruption",
    "selective_ipc": "Selective predicated execution - IPC on if-converted code",
}


@dataclass
class SuiteResult:
    """Every report of the evaluation, rendered, in presentation order."""

    reports: "OrderedDict[str, str]" = field(default_factory=OrderedDict)
    #: what the engine did to produce them (for the CLI summary line).
    stats_line: str = ""

    def render(self) -> str:
        blocks = [
            report_block(REPORT_TITLES.get(name, name), body)
            for name, body in self.reports.items()
        ]
        if self.stats_line:
            blocks.append(f"engine: {self.stats_line}")
        return "\n".join(blocks)


def run_all(
    profile=None,
    engine=None,
    jobs: Optional[int] = None,
) -> SuiteResult:
    """Regenerate every table and figure in one deduplicated engine pass."""
    engine = resolve_engine(engine=engine, profile=profile)
    benchmarks = engine.benchmarks()

    figure5 = figure5_definition(benchmarks)
    figure6 = figure6_definition(benchmarks)
    ideal_base = idealized_definition(BASELINE, benchmarks)
    ideal_conv = idealized_definition(IF_CONVERTED, benchmarks)
    pvt = pvt_ablation_definition(benchmarks)
    history = history_ablation_definition(benchmarks)
    ipc = selective_ipc_definition(benchmarks)

    outputs = engine.run(
        [figure5, figure6, ideal_base, ideal_conv, pvt, history, ipc], jobs=jobs
    )

    reports: "OrderedDict[str, str]" = OrderedDict()
    reports["table1"] = "\n".join(
        f"{key:28s} {value}" for key, value in paper_table1().items()
    )
    reports["figure5"] = collect_figure5(outputs[figure5.name], benchmarks).render()
    reports["figure6"] = collect_figure6(outputs[figure6.name], benchmarks).render()
    reports["idealized_baseline"] = collect_idealized(
        outputs[ideal_base.name],
        benchmarks,
        BASELINE,
        oracle_accuracy=oracle_accuracies(engine, benchmarks, BASELINE),
    ).render()
    reports["idealized_if_converted"] = collect_idealized(
        outputs[ideal_conv.name],
        benchmarks,
        IF_CONVERTED,
        oracle_accuracy=oracle_accuracies(engine, benchmarks, IF_CONVERTED),
    ).render()
    reports["ablation_pvt"] = collect_pvt_ablation(
        outputs[pvt.name], benchmarks
    ).render()
    reports["ablation_history"] = collect_history_ablation(
        outputs[history.name], benchmarks
    ).render()
    reports["selective_ipc"] = collect_selective_ipc(
        outputs[ipc.name], benchmarks
    ).render()

    return SuiteResult(reports=reports, stats_line=engine.stats.render())


def write_reports(suite: SuiteResult, output_dir: str) -> List[str]:
    """Write each report to ``<output_dir>/<name>.txt``; return the paths."""
    import os

    os.makedirs(output_dir, exist_ok=True)
    written: List[str] = []
    for name, body in suite.reports.items():
        path = os.path.join(output_dir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report_block(REPORT_TITLES.get(name, name), body))
        written.append(path)
    return written
