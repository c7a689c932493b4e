"""Wish branches: confidence-gated fallback from predication to branching.

Kim, Mutlu, Stark & Patt (MICRO 2005) observe that if-conversion is a bet
made at compile time: predicating a hammock wins when its branch would have
mispredicted, and loses (wasted fetch/execute bandwidth, serialized guard
dependences) when the branch was easy.  A *wish branch* keeps both encodings
alive and lets the hardware pick per dynamic instance: when the guard
predictor is **confident**, the hammock executes in *branch mode* — the
predicted guard steers rename exactly like a predicted branch (false guards
cancel, true guards drop the predicate dependence) and a wrong guess costs a
pipeline flush when the compare computes the true value; when the predictor
is **not confident**, the hammock falls back to *predicate mode* and executes
conservatively predicated, exactly like the baseline.

The scheme composes existing machinery rather than inventing new structures:

* branches use the conventional two-level override organisation (fast gshare
  + a perceptron or TAGE second level, selected by ``second_level``);
* guards are predicted per compare target by the dual-hash predicate
  perceptron (:mod:`repro.predictors.predicate_perceptron`), trained with
  computed values at compare completion;
* the gate is the paper's own saturating-counter
  :class:`~repro.predictors.confidence.ConfidenceEstimator`, one counter per
  guard-predictor entry.

The scheme is *timing-dependent* (``timing_independent = False``): the
branch-vs-predicate decision compares the guard-ready cycle against the
rename cycle, so the lane-batched kernel runs wish lanes as hook lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.emulator.executor import DynInst
from repro.isa.compare import CompareInstruction
from repro.isa.registers import NUM_PREDICATE_REGISTERS
from repro.pipeline.scheme_api import (
    BranchHandling,
    BranchHandlingScheme,
    PredicatedHandling,
)
from repro.pipeline.uop import RenameDecision
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.gshare import GsharePredictor
from repro.predictors.history import GlobalHistoryRegister
from repro.predictors.multilevel import TwoLevelOverridePredictor
from repro.predictors.perceptron import PerceptronConfig, PerceptronPredictor
from repro.predictors.predicate_perceptron import (
    PredicatePerceptronPredictor,
    PredicatePredictorConfig,
)
from repro.predictors.tage import TAGEConfig, TAGEPredictor


@dataclass
class _GuardState:
    """The in-flight guard prediction of one logical predicate register."""

    producer_seq: int
    predicted: bool
    confident: bool


@dataclass
class _PendingGuard:
    """Training book-keeping for one predicted compare target."""

    logical_index: int
    slot: int
    history_at_prediction: int
    predicted: bool
    confidence_index: int


class WishBranchScheme(BranchHandlingScheme):
    """Per-hammock branch-mode/predicate-mode selection by guard confidence."""

    name = "wish"

    #: The branch-vs-predicate gate reads the guard-ready and rename cycles,
    #: so hook results depend on pipeline timing (hook lane in the batched
    #: kernel).
    timing_independent = False

    def __init__(
        self,
        second_level: str = "perceptron",
        confidence_bits: int = 4,
        perceptron_config: Optional[PerceptronConfig] = None,
        guard_config: Optional[PredicatePredictorConfig] = None,
    ) -> None:
        super().__init__()
        self.second_level = second_level
        self.perceptron_config = perceptron_config or PerceptronConfig()
        if second_level == "tage":
            slow = TAGEPredictor(TAGEConfig())
            branch_history_bits = slow.config.history_bits
        elif second_level == "perceptron":
            slow = PerceptronPredictor(self.perceptron_config)
            branch_history_bits = self.perceptron_config.global_bits
        else:
            raise ValueError(
                f"unknown second_level {second_level!r}; "
                "expected 'perceptron' or 'tage'"
            )
        self.predictor = TwoLevelOverridePredictor(
            fast=GsharePredictor(history_bits=14),
            slow=slow,  # type: ignore[arg-type]
        )
        self.ghr = GlobalHistoryRegister(branch_history_bits)

        self.guard_config = guard_config or PredicatePredictorConfig()
        self.guard_predictor = PredicatePerceptronPredictor(self.guard_config)
        self.confidence = ConfidenceEstimator(
            self.guard_config.entries, bits=confidence_bits
        )
        #: Guard-predictor history, fed with computed values at completion
        #: (no speculative push: wish guards repair nothing, they flush).
        self.guard_ghr = GlobalHistoryRegister(self.guard_config.global_bits)

        #: Committed values of the logical predicate registers.
        self._logical_values: List[bool] = [False] * NUM_PREDICATE_REGISTERS
        self._logical_values[0] = True
        #: Latest in-flight guard prediction per logical predicate register.
        self._inflight: Dict[int, _GuardState] = {}
        #: Guard training state keyed by the compare's sequence number.
        self._pending_guards: Dict[int, List[_PendingGuard]] = {}
        #: Branch training state keyed by the branch's sequence number.
        self._pending_branches: Dict[int, Tuple[int, int, bool]] = {}

    # ------------------------------------------------------------------
    # Compare handling: predict guards, gate on confidence
    # ------------------------------------------------------------------
    def on_compare_rename(self, dyn: DynInst, fetch_cycle: int, rename_cycle: int) -> None:
        inst = dyn.inst
        if not isinstance(inst, CompareInstruction):
            return
        pending: List[_PendingGuard] = []
        for slot, target in enumerate((inst.pt, inst.pf)):
            if target.is_hardwired:
                continue
            history = self.guard_ghr.value
            predicted, _output = self.guard_predictor.predict_slot(dyn.pc, slot, history)
            confidence_index = self.guard_predictor.index_for_slot(dyn.pc, slot)
            self._inflight[target.index] = _GuardState(
                producer_seq=dyn.seq,
                predicted=predicted,
                confident=self.confidence.is_confident(confidence_index),
            )
            pending.append(
                _PendingGuard(
                    logical_index=target.index,
                    slot=slot,
                    history_at_prediction=history,
                    predicted=predicted,
                    confidence_index=confidence_index,
                )
            )
            self.counters.bump("wish_guard_predictions")
        if pending:
            self._pending_guards[dyn.seq] = pending

    def _computed_value_for(self, dyn: DynInst, logical_index: int) -> bool:
        for index, value in dyn.pred_writes:
            if index == logical_index:
                return value
        return self._logical_values[logical_index]

    def on_compare_complete(self, dyn: DynInst, complete_cycle: int) -> None:
        pending = self._pending_guards.pop(dyn.seq, None)
        if pending is not None:
            for item in pending:
                computed = self._computed_value_for(dyn, item.logical_index)
                correct = item.predicted == computed
                self.confidence.record(item.confidence_index, correct)
                self.guard_predictor.update_slot(
                    dyn.pc, item.slot, item.history_at_prediction, computed
                )
                self.guard_ghr.push_resolved(computed)
                if correct:
                    self.counters.bump("wish_guard_predictions_correct")
                else:
                    self.counters.bump("wish_guard_predictions_wrong")
        for index, value in dyn.pred_writes:
            self._logical_values[index] = value

    # ------------------------------------------------------------------
    # Predicated instructions: the wish gate
    # ------------------------------------------------------------------
    def on_predicated_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> PredicatedHandling:
        guard = self._inflight.get(dyn.inst.qp.index)
        actual = bool(dyn.qp_value)

        if guard is None or guard_ready_cycle <= rename_cycle:
            # The guard value is available at rename: act on it outright
            # (no speculation, no flush risk) — in wish-branch terms the
            # hammock resolved before the mode choice mattered.
            self.counters.bump("wish_resolved_at_rename")
            decision = RenameDecision.ASSUME_TRUE if actual else RenameDecision.CANCEL
            return PredicatedHandling(decision)

        if guard.confident:
            # Branch mode: speculate on the predicted guard like a branch.
            self.counters.bump("wish_branch_mode")
            decision = (
                RenameDecision.ASSUME_TRUE if guard.predicted else RenameDecision.CANCEL
            )
            if guard.predicted == actual:
                return PredicatedHandling(decision)
            # Wrong guess: the flush is discovered when the producing
            # compare computes the true guard value.
            self.counters.bump("wish_flushes")
            discovery = max(guard_ready_cycle, rename_cycle + 1)
            return PredicatedHandling(decision, flush_discovery_cycle=discovery)

        # Predicate mode: not confident enough to branch — execute
        # conservatively predicated, like the baseline.
        self.counters.bump("wish_predicate_mode")
        return PredicatedHandling(RenameDecision.CONSERVATIVE)

    # ------------------------------------------------------------------
    # Branch handling: conventional two-level override prediction
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

        # Speculative push + same-branch repair, as in the conventional
        # scheme: no younger correct-path branch observes a stale bit.
        token = self.ghr.push(prediction.final)
        if prediction.final != actual:
            self.ghr.repair(token, actual)

        self._pending_branches[dyn.seq] = (dyn.pc, history, actual)
        return BranchHandling(
            final_prediction=prediction.final,
            fetch_prediction=prediction.fast,
            early_resolved=False,
            override_flush=prediction.overridden,
        )

    def on_branch_resolved(self, dyn: DynInst, resolve_cycle: int, mispredicted: bool) -> None:
        pending = self._pending_branches.pop(dyn.seq, None)
        if pending is None:
            return
        pc, history, actual = pending
        self.predictor.update(pc, history, actual)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        branch_kib = self.predictor.size_report().total_kib
        guard_kib = self.guard_predictor.size_report().total_kib
        return (
            f"wish branches (guard-confidence gate, {self.second_level} second "
            f"level, {branch_kib:.0f}+{guard_kib:.0f} KiB)"
        )
