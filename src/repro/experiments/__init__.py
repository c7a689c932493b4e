"""Experiment harness: everything needed to regenerate the paper's results.

* :mod:`repro.experiments.setup` — the Table 1 machine configuration, the
  scheme factories used by every experiment, and the instruction budgets
  (``fast`` for the test-suite, ``paper`` for the benchmark harness);
* :mod:`repro.experiments.figure5` — Figure 5 (non-if-converted binaries);
* :mod:`repro.experiments.figure6` — Figure 6a and the Figure 6b breakdown
  (if-converted binaries);
* :mod:`repro.experiments.idealized` — the idealized (no-alias, perfect
  history) isolation study of sections 4.2/4.3;
* :mod:`repro.experiments.ablations` — design-choice ablations called out in
  section 3.3 (single dual-hashed PVT vs split PVT; history corruption);
* :mod:`repro.experiments.selective_ipc` — the predicated-execution IPC
  comparison behind the section 5 claim that the same hardware enables
  efficient predicated execution;
* :mod:`repro.experiments.suite` — the whole evaluation in one shared,
  deduplicated engine pass (the ``repro all`` command).
"""

from repro.experiments.setup import (
    ExperimentProfile,
    PAPER_PROFILE,
    FAST_PROFILE,
    make_conventional_scheme,
    make_peppa_scheme,
    make_predicate_scheme,
    paper_table1,
)
from repro.experiments.figure5 import Figure5Result, figure5_definition, run_figure5
from repro.experiments.figure6 import Figure6Result, figure6_definition, run_figure6
from repro.experiments.idealized import (
    IdealizedResult,
    idealized_definition,
    run_idealized_study,
)
from repro.experiments.ablations import (
    AblationResult,
    history_ablation_definition,
    pvt_ablation_definition,
    run_pvt_ablation,
    run_history_ablation,
)
from repro.experiments.selective_ipc import (
    SelectiveIPCResult,
    run_selective_ipc,
    selective_ipc_definition,
)
from repro.experiments.suite import SuiteResult, run_all, write_reports

__all__ = [
    "ExperimentProfile",
    "PAPER_PROFILE",
    "FAST_PROFILE",
    "make_conventional_scheme",
    "make_peppa_scheme",
    "make_predicate_scheme",
    "paper_table1",
    "Figure5Result",
    "figure5_definition",
    "run_figure5",
    "Figure6Result",
    "figure6_definition",
    "run_figure6",
    "IdealizedResult",
    "idealized_definition",
    "run_idealized_study",
    "AblationResult",
    "pvt_ablation_definition",
    "history_ablation_definition",
    "run_pvt_ablation",
    "run_history_ablation",
    "SelectiveIPCResult",
    "selective_ipc_definition",
    "run_selective_ipc",
    "SuiteResult",
    "run_all",
    "write_reports",
]
