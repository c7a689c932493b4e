"""Conventional two-level override branch prediction scheme.

This is the baseline of both evaluation sections: a fast 4 KB gshare makes a
single-cycle prediction at fetch, and a 148 KB global+local perceptron
(3-cycle access) overrides it before rename.  Branches are predicted with
their own PC; the global history register is fed with branch outcomes.

Predicated instructions are handled conservatively (no predicate prediction):
they keep their guard as a data dependence and depend on the previous value
of their destination registers, exactly the multiple-definition handling the
paper's selective predicate prediction removes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.emulator.executor import DynInst
from repro.pipeline.scheme_api import BranchHandling, BranchHandlingScheme
from repro.predictors.gshare import GsharePredictor
from repro.predictors.history import GlobalHistoryRegister
from repro.predictors.ideal import NoAliasPerceptron
from repro.predictors.multilevel import TwoLevelOverridePredictor
from repro.predictors.perceptron import PerceptronConfig, PerceptronPredictor
from repro.predictors.tage import TAGEConfig, TAGEPredictor


class ConventionalScheme(BranchHandlingScheme):
    """Two-level override branch predictor (Table 1)."""

    name = "conventional"

    #: Every hook ignores its cycle arguments: the prediction stream is a
    #: pure function of the branch rows of the trace.  The lane-batched
    #: kernel exploits this by replaying the scheme once per spec and
    #: sharing the stream across all machine lanes of a batch.  (The
    #: speculative GHR push + same-branch repair in ``on_branch_rename`` is
    #: net-equivalent to pushing the architectural outcome, so even the
    #: history evolution is trace-determined.)
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
        self.predictor = TwoLevelOverridePredictor(
            fast=GsharePredictor(history_bits=14),
            slow=slow,  # type: ignore[arg-type]
        )
        self.ghr = GlobalHistoryRegister(history_bits)
        self.ideal_no_alias = ideal_no_alias
        #: With perfect history the GHR is updated with the architectural
        #: outcome at prediction time.  For a conventional predictor on a
        #: correct-path trace this is equivalent to speculative update with
        #: repair by the same branch, so the flag only exists for symmetry
        #: with the predicate scheme's idealization.
        self.perfect_history = perfect_history
        #: Pending training information keyed by dynamic sequence number.
        self._pending: Dict[int, Tuple[int, int, bool]] = {}

    # ------------------------------------------------------------------
    def on_branch_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> BranchHandling:
        history = self.ghr.value
        prediction = self.predictor.predict_both(dyn.pc, history)
        actual = bool(dyn.taken)

        self.accuracy.add(dyn.pc, actual, prediction.final, prediction.fast)
        self.counters.bump("branches")
        if prediction.final != actual:
            self.counters.bump("mispredictions")

        # Speculative history update with the final prediction; the same
        # branch repairs the bit on a misprediction, and no correct-path
        # instruction is fetched before that repair, so younger correct-path
        # branches always observe the corrected bit.
        token = self.ghr.push(prediction.final)
        if prediction.final != actual:
            self.ghr.repair(token, actual)

        self._pending[dyn.seq] = (dyn.pc, history, actual)
        return BranchHandling(
            final_prediction=prediction.final,
            fetch_prediction=prediction.fast,
            early_resolved=False,
            override_flush=prediction.overridden,
        )

    def on_branch_resolved(self, dyn: DynInst, resolve_cycle: int, mispredicted: bool) -> None:
        pending = self._pending.pop(dyn.seq, None)
        if pending is None:
            return
        pc, history, actual = pending
        self.predictor.update(pc, history, actual)

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
        size = self.predictor.size_report().total_kib
        return f"conventional two-level override predictor ({size:.0f} KiB)"
