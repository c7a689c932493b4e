#!/usr/bin/env python
"""Quickstart: simulate one benchmark under all three prediction schemes.

This example walks the full public API path:

1. build a synthetic SPEC2000-like benchmark (``twolf``);
2. compile it twice — without predication and with if-conversion;
3. run both binaries on the out-of-order core under the conventional
   two-level predictor, the PEP-PA predictor and the paper's predicate
   predictor;
4. print misprediction rates, early-resolved fractions and IPC, next to the
   Table 1 machine configuration.

Run with::

    python examples/quickstart.py [benchmark-name] [instruction-budget]
"""

import sys

from repro.compiler import BinaryFactory
from repro.core import ConventionalScheme, PEPPAScheme, PredicatePredictionScheme
from repro.emulator import Emulator
from repro.experiments.setup import paper_table1
from repro.pipeline import OutOfOrderCore
from repro.stats.reporting import format_table
from repro.workloads import build_workload, workload_names


def simulate(program, scheme, budget):
    """Run ``program`` for ``budget`` fetched instructions under ``scheme``."""
    core = OutOfOrderCore()
    trace = Emulator(program).run_pack(budget)
    return core.run(trace, scheme, program_name=program.name)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "twolf"
    budget = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
    if benchmark not in workload_names():
        raise SystemExit(f"unknown benchmark {benchmark!r}; pick one of {workload_names()}")

    print("Simulated machine (Table 1)")
    print("-" * 60)
    for key, value in paper_table1().items():
        print(f"{key:28s} {value}")
    print()

    factory = BinaryFactory()
    pair = factory.build_pair(benchmark, lambda: build_workload(benchmark))
    print(
        f"benchmark {benchmark!r}: if-conversion removed "
        f"{pair.removed_branches} hard-to-predict branches"
    )
    print()

    schemes = {
        "conventional": ConventionalScheme,
        "pep-pa": PEPPAScheme,
        "predicate-predictor": PredicatePredictionScheme,
    }

    for flavour, program in (("non-if-converted", pair.baseline),
                             ("if-converted", pair.if_converted)):
        rows = []
        for label, scheme_class in schemes.items():
            result = simulate(program, scheme_class(), budget)
            rows.append(
                [
                    label,
                    f"{100 * result.misprediction_rate:.2f}%",
                    f"{100 * result.accuracy.early_resolved_fraction:.1f}%",
                    f"{result.ipc:.3f}",
                    f"{result.metrics.cancelled_at_rename}",
                ]
            )
        print(
            format_table(
                ["scheme", "mispredict", "early-resolved", "IPC", "cancelled@rename"],
                rows,
                title=f"{benchmark} - {flavour} binary ({budget} instructions)",
            )
        )
        print()


if __name__ == "__main__":
    main()
