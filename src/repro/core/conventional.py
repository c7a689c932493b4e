"""Conventional two-level override branch prediction scheme.

This is the baseline of both evaluation sections, the Alpha 21264 / POWER4
override organisation of Table 1: a fast 4 KB gshare makes a single-cycle
prediction at fetch, and a 148 KB global+local perceptron (3-cycle access)
overrides it before rename.  When the two levels disagree, the front end is
flushed and refetched from the second prediction, costing a few cycles but
keeping the final accuracy that of the second level.  Branches are
predicted with their own PC; the global history register is fed with
branch outcomes.  The scheme plans each branch PC once for both levels
(:class:`~repro.predictors.base.BranchPlans`) and calls one kernel per
level per prediction and per update.

Predicated instructions are handled conservatively (no predicate prediction):
they keep their guard as a data dependence and depend on the previous value
of their destination registers, exactly the multiple-definition handling the
paper's selective predicate prediction removes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.emulator.executor import DynInst
from repro.pipeline.scheme_api import BRANCH_HANDLING, BranchHandling, BranchHandlingScheme
from repro.predictors.base import BranchPlans
from repro.predictors.gshare import GsharePredictor
from repro.predictors.history import GlobalHistoryRegister
from repro.predictors.ideal import NoAliasPerceptron
from repro.predictors.perceptron import PerceptronConfig, PerceptronPredictor
from repro.predictors.tage import TAGEConfig, TAGEPredictor


class ConventionalScheme(BranchHandlingScheme):
    """Two-level override branch predictor (Table 1)."""

    name = "conventional"

    #: Every hook ignores its cycle arguments: the prediction stream is a
    #: pure function of the branch rows of the trace.  The lane-batched
    #: kernel exploits this by replaying the scheme once per spec and
    #: sharing the stream across all machine lanes of a batch.  (The
    #: history evolution is trace-determined too: see ``on_branch_rename``.)
    timing_independent = True

    def __init__(
        self,
        perceptron_config: Optional[PerceptronConfig] = None,
        ideal_no_alias: bool = False,
        perfect_history: bool = False,
        second_level: str = "perceptron",
    ) -> None:
        super().__init__()
        self.perceptron_config = perceptron_config or PerceptronConfig()
        self.second_level = second_level
        if second_level == "tage":
            # The geometric-history backend replaces the perceptron as the
            # slow level; the GHR widens to its longest history length.
            if ideal_no_alias:
                raise ValueError(
                    "ideal_no_alias is a perceptron idealization; it cannot "
                    "be combined with second_level='tage'"
                )
            slow = TAGEPredictor(TAGEConfig())
            history_bits = slow.config.history_bits
        elif second_level == "perceptron":
            slow = (
                NoAliasPerceptron(self.perceptron_config)
                if ideal_no_alias
                else PerceptronPredictor(self.perceptron_config)
            )
            history_bits = self.perceptron_config.global_bits
        else:
            raise ValueError(
                f"unknown second_level {second_level!r}; "
                "expected 'perceptron' or 'tage'"
            )
        #: The first level (fetch) and the second level (rename), which wins.
        self.fast = GsharePredictor(history_bits=14)
        self.predictor = slow
        self.plans = BranchPlans(self.fast, slow)
        self.ghr = GlobalHistoryRegister(history_bits)
        self.ideal_no_alias = ideal_no_alias
        #: With perfect history the GHR is updated with the architectural
        #: outcome at prediction time.  For a conventional predictor on a
        #: correct-path trace this is equivalent to speculative update with
        #: repair by the same branch, so the flag only exists for symmetry
        #: with the predicate scheme's idealization.
        self.perfect_history = perfect_history
        #: Pending training information keyed by dynamic sequence number:
        #: ``(plan, history at prediction, outcome)``.
        self._pending: Dict[int, Tuple[tuple, int, bool]] = {}

    # ------------------------------------------------------------------
    def on_branch_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> BranchHandling:
        plan = self.plans.of(dyn.pc)
        fast_key, fast_local, key, local_slot = plan
        history = self.ghr.value
        fast = self.fast.output_planned(fast_key, fast_local, history) >= 0
        final = self.predictor.output_planned(key, local_slot, history) >= 0
        actual = bool(dyn.taken)

        self.accuracy.add(dyn.pc, actual, final, fast)
        self.counters.bump("branches")
        if final != actual:
            self.counters.bump("mispredictions")

        # Speculative history update with the final prediction, repaired by
        # the same branch on a misprediction before any correct-path
        # instruction is fetched: net, the outcome is pushed.
        self.ghr.push_resolved(actual)

        self._pending[dyn.seq] = (plan, history, actual)
        return BRANCH_HANDLING[fast, final, False]

    def on_branch_resolved(self, dyn: DynInst, resolve_cycle: int, mispredicted: bool) -> None:
        pending = self._pending.pop(dyn.seq, None)
        if pending is None:
            return
        (fast_key, fast_local, key, local_slot), history, actual = pending
        self.fast.train_planned(fast_key, fast_local, history, actual)
        self.predictor.train_planned(key, local_slot, history, actual)

    # ------------------------------------------------------------------
    def stream_key(self):
        """The constructor arguments, which fix the decision stream.

        Subclasses may override hooks, so they opt out.
        """
        if type(self) is not ConventionalScheme:
            return None
        return (
            "conventional",
            self.perceptron_config,
            self.ideal_no_alias,
            self.perfect_history,
            self.second_level,
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        size = sum(table.size_report().total_kib for table in self.plans.tables)
        return f"conventional two-level override predictor ({size:.0f} KiB)"
