"""PEP-PA branch-handling scheme on the out-of-order core.

The simulator "models in detail a 144 KB sized PEP-PA branch predictor with
14-bit local history ... Since we assume an out-of-order processor, in order
to correctly model this predictor, the simulator maintains the state of a
logical predicate register file" (section 4.1).  That logical file is written
at writeback time — i.e. out of program order — and its content at the time
a branch is fetched selects which of the branch's two local histories is
used.  The paper observes that this out-of-order writing is what makes
PEP-PA, designed for an in-order EPIC machine, lose accuracy on the
out-of-order core.

Predicated instructions are handled conservatively, like the conventional
scheme.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.emulator.executor import DynInst
from repro.isa.registers import NUM_PREDICATE_REGISTERS
from repro.pipeline.scheme_api import BRANCH_HANDLING, BranchHandling, BranchHandlingScheme
from repro.predictors.base import BranchPlans
from repro.predictors.peppa import PEPPAConfig, PEPPAPredictor


class _LogicalPredicateFile:
    """The logical predicate register file written at writeback time.

    Every predicate write is recorded with the cycle at which it reaches the
    register file.  The value visible at time ``t`` is the value of the
    write with the **latest completion time not exceeding ``t``** — which on
    an out-of-order core is not necessarily the program-order latest
    definition.  That is precisely the hazard the paper describes.
    """

    #: how many recent writers to remember per register.
    DEPTH = 8

    def __init__(self) -> None:
        self._writes: List[List[Tuple[int, bool]]] = [
            [(0, False)] for _ in range(NUM_PREDICATE_REGISTERS)
        ]
        self._writes[0] = [(0, True)]  # p0 is hard-wired true

    def record_write(self, index: int, cycle: int, value: bool) -> None:
        if index == 0:
            return
        writes = self._writes[index]
        writes.append((cycle, value))
        if len(writes) > self.DEPTH:
            writes.pop(0)

    def value_at(self, index: int, cycle: int) -> bool:
        best_cycle = -1
        best_value = False
        for write_cycle, value in self._writes[index]:
            if write_cycle <= cycle and write_cycle >= best_cycle:
                best_cycle = write_cycle
                best_value = value
        return best_value


class PEPPAScheme(BranchHandlingScheme):
    """Predicate Enhanced Prediction on the out-of-order core."""

    name = "pep-pa"

    def __init__(self, config: PEPPAConfig = PEPPAConfig()) -> None:
        super().__init__()
        self.predictor = PEPPAPredictor(config)
        self.plans = BranchPlans(self.predictor)
        self.logical_predicates = _LogicalPredicateFile()
        #: Pending (plan, selector, actual) training info per dynamic branch.
        self._pending: Dict[int, Tuple[tuple, bool, bool]] = {}

    # ------------------------------------------------------------------
    def on_compare_complete(self, dyn: DynInst, complete_cycle: int) -> None:
        for index, value in dyn.pred_writes:
            self.logical_predicates.record_write(index, complete_cycle, value)

    def on_branch_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> BranchHandling:
        selector = self.logical_predicates.value_at(dyn.inst.qp.index, fetch_cycle)
        plan = self.plans.of(dyn.pc)
        prediction = self.predictor.output_planned(plan[0], plan[1], selector) >= 0
        actual = bool(dyn.taken)

        self.accuracy.add(dyn.pc, actual, prediction, prediction)
        self.counters.bump("branches")
        if prediction != actual:
            self.counters.bump("mispredictions")
        if selector == actual:
            self.counters.bump("selector_matched_outcome")

        self._pending[dyn.seq] = (plan, selector, actual)
        return BRANCH_HANDLING[prediction, prediction, False]

    def on_branch_resolved(self, dyn: DynInst, resolve_cycle: int, mispredicted: bool) -> None:
        pending = self._pending.pop(dyn.seq, None)
        if pending is None:
            return
        (fold, pair), selector, actual = pending
        self.predictor.train_planned(fold, pair, selector, actual)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        size = self.predictor.size_report().total_kib
        return f"PEP-PA local-history predictor ({size:.0f} KiB)"
