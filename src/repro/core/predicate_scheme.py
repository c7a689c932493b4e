"""The paper's predicate prediction scheme (sections 3.1–3.3).

How a prediction flows through the machine:

1. When a **compare** is fetched, the predicate predictor starts a
   (multi-cycle) prediction for each of its useful predicate targets, using
   the compare PC and the predicate global history; the history is
   speculatively updated with the predicted bits at this point.
2. When the compare **renames**, each target is allocated a fresh physical
   predicate register in the PPRF and the prediction is written into it with
   the speculative bit set; the confidence bit is copied from the confidence
   estimator.
3. When a **conditional branch** renames, it renames its guarding predicate
   and reads the corresponding PPRF entry.  If the compare has already
   executed the entry holds the *computed* value (early-resolved branch,
   always correct); otherwise the branch uses the prediction, which
   overrides the fetch-time first-level prediction.
4. When an **if-converted (predicated) instruction** renames, the selective
   policy consults the same entry: confident-false predictions cancel the
   instruction at rename, confident-true predictions drop the predicate
   dependence, anything else is handled conservatively.  The first
   speculative consumer is recorded in the entry's ROB pointer.
5. When the compare **executes**, the computed values are written into the
   same physical registers (clearing the speculative bit), the predictor and
   the confidence estimator are trained, and — if a consumer speculated on a
   wrong prediction — the pipeline is flushed from the recorded ROB pointer
   and the corrupted global-history bit is repaired.

Negative effects modelled (and removable through the idealization options):
aliasing pressure from the extra predictions of two-target compares, and the
global-history corruption window between a wrong compare prediction and its
consumer-triggered repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.emulator.executor import DynInst
from repro.isa.compare import CompareInstruction
from repro.isa.registers import NUM_PREDICATE_REGISTERS
from repro.pipeline.pprf import PPRFEntry, PredicatePhysicalRegisterFile
from repro.pipeline.scheme_api import (
    BranchHandling,
    BranchHandlingScheme,
    PredicatedHandling,
)
from repro.pipeline.uop import RenameDecision
from repro.core.selective import SelectivePredicationPolicy
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.gshare import GsharePredictor
from repro.predictors.history import GlobalHistoryRegister
from repro.predictors.ideal import NoAliasPredicatePerceptron
from repro.predictors.predicate_perceptron import (
    PredicatePerceptronPredictor,
    PredicatePredictorConfig,
)
from repro.predictors.tage import TAGEConfig, TagePredicatePredictor


@dataclass
class PredicateSchemeOptions:
    """Configuration switches of the predicate prediction scheme."""

    #: Predictor geometry (148 KB by default, Table 1).
    predictor_config: Optional[PredicatePredictorConfig] = None
    #: Enable selective predicate prediction for if-converted instructions.
    selective_predication: bool = True
    #: Keep the fast first-level gshare at fetch (Table 1 keeps it; it only
    #: affects front-end flushes, never final accuracy).
    use_first_level: bool = True
    #: Idealization: give every (compare, slot) a private predictor entry.
    ideal_no_alias: bool = False
    #: Idealization: update the predicate global history with computed
    #: values at prediction time (no corruption window).
    perfect_history: bool = False
    #: Confidence counter width (saturated counter per predictor entry).  A
    #: prediction is used for speculation only when the counter is saturated,
    #: i.e. after 2**confidence_bits - 1 consecutive correct predictions.
    confidence_bits: int = 4
    #: Predicate-predictor structure: the paper's dual-hash perceptron
    #: (``"perceptron"``) or the TAGE-class backend behind the same slot
    #: interface (``"tage"``, see :mod:`repro.predictors.tage`).
    second_level: str = "perceptron"


@dataclass
class _PendingPrediction:
    """Book-keeping attached to each predicted compare target."""

    entry: PPRFEntry
    slot: int
    history_at_prediction: int


class PredicatePredictionScheme(BranchHandlingScheme):
    """Branch prediction and predicated execution through predicate prediction."""

    name = "predicate-predictor"

    def __init__(self, options: Optional[PredicateSchemeOptions] = None) -> None:
        super().__init__()
        self.options = options or PredicateSchemeOptions()
        config = self.options.predictor_config or PredicatePredictorConfig()
        self.predictor_config = config
        if self.options.second_level == "tage":
            if self.options.ideal_no_alias:
                raise ValueError(
                    "ideal_no_alias is a perceptron idealization; it cannot "
                    "be combined with second_level='tage'"
                )
            self.predictor = TagePredicatePredictor(TAGEConfig())
            confidence_entries = self.predictor.confidence_entries
            history_bits = self.predictor.config.history_bits
        elif self.options.second_level == "perceptron":
            if self.options.ideal_no_alias:
                self.predictor = NoAliasPredicatePerceptron(config)
                confidence_entries = 1 << 20
            else:
                self.predictor = PredicatePerceptronPredictor(config)
                confidence_entries = config.entries
            history_bits = config.global_bits
        else:
            raise ValueError(
                f"unknown second_level {self.options.second_level!r}; "
                "expected 'perceptron' or 'tage'"
            )
        self.confidence = ConfidenceEstimator(
            confidence_entries, bits=self.options.confidence_bits
        )
        self.selective = SelectivePredicationPolicy(self.options.selective_predication)
        self.pprf = PredicatePhysicalRegisterFile()
        #: Global history of the predicate predictor, fed by compares only.
        self.ghr = GlobalHistoryRegister(history_bits)
        #: First-level branch predictor (fetch-time, overridden at rename).
        self.first_level = (
            GsharePredictor(history_bits=14) if self.options.use_first_level else None
        )
        self._branch_ghr = GlobalHistoryRegister(14)
        #: Architectural (committed) values of logical predicate registers.
        self._logical_values: List[bool] = [False] * NUM_PREDICATE_REGISTERS
        self._logical_values[0] = True
        #: Predictions awaiting their compare's execution, keyed by the
        #: compare's dynamic sequence number.
        self._pending: Dict[int, List[_PendingPrediction]] = {}

    # ------------------------------------------------------------------
    # Compare handling: produce predictions
    # ------------------------------------------------------------------
    def on_compare_rename(self, dyn: DynInst, fetch_cycle: int, rename_cycle: int) -> None:
        inst = dyn.inst
        if not isinstance(inst, CompareInstruction):
            return
        pending: List[_PendingPrediction] = []
        for slot, target in enumerate((inst.pt, inst.pf)):
            if target.is_hardwired:
                continue
            history = self.ghr.value
            predicted, _output = self.predictor.predict_slot(dyn.pc, slot, history)
            entry = self.pprf.allocate(target.index, dyn.pc, slot, dyn.seq)
            entry.predicted_value = predicted
            entry.predicted_cycle = rename_cycle
            entry.predictor_index = self.predictor.index_for_slot(dyn.pc, slot)
            entry.confident = self.confidence.is_confident(entry.predictor_index)
            entry.speculative = True
            # Speculative history update: one bit per predicted target.  With
            # the perfect-history idealization the architecturally-correct
            # value is pushed instead, eliminating the corruption window.
            if self.options.perfect_history:
                pushed = self._computed_value_for(dyn, target.index)
            else:
                pushed = predicted
            entry.history_token = self.ghr.push(pushed)
            pending.append(_PendingPrediction(entry, slot, history))
            self.counters.bump("predicate_predictions")
        if pending:
            self._pending[dyn.seq] = pending

    def _computed_value_for(self, dyn: DynInst, logical_index: int) -> bool:
        for index, value in dyn.pred_writes:
            if index == logical_index:
                return value
        return self._logical_values[logical_index]

    def on_compare_complete(self, dyn: DynInst, complete_cycle: int) -> None:
        pending = self._pending.pop(dyn.seq, None)
        if pending is None:
            return
        for item in pending:
            entry = item.entry
            computed = self._computed_value_for(dyn, entry.logical_index)
            entry.computed_value = computed
            entry.computed_cycle = complete_cycle
            entry.speculative = False
            correct = entry.predicted_value == computed
            if entry.predictor_index is not None:
                self.confidence.record(entry.predictor_index, correct)
            self.predictor.update_slot(
                entry.producer_pc, item.slot, item.history_at_prediction, computed
            )
            if correct:
                self.counters.bump("predicate_predictions_correct")
            else:
                self.counters.bump("predicate_predictions_wrong")
                # The computed value corrects the speculatively-pushed history
                # bit (if it is still within the register).  Compares fetched
                # between the wrong prediction and this point have already
                # predicted with the corrupted bit — that window is the
                # negative effect quantified in sections 4.2/4.3.
                if not self.options.perfect_history and entry.history_token is not None:
                    if self.ghr.repair(entry.history_token, computed):
                        self.counters.bump("history_repairs_at_writeback")
        # Track committed logical values (trace is the correct path, so every
        # architectural write eventually commits).
        for index, value in dyn.pred_writes:
            self._logical_values[index] = value

    # ------------------------------------------------------------------
    # Branch handling: consume predictions
    # ------------------------------------------------------------------
    def on_branch_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> BranchHandling:
        actual = bool(dyn.taken)
        fetch_prediction: Optional[bool] = None
        if self.first_level is not None:
            fetch_prediction = self.first_level.predict(dyn.pc, self._branch_ghr.value)

        entry = self.pprf.current(dyn.inst.qp.index)
        if entry is None:
            # No in-flight producer: the branch reads the committed
            # architectural value from its renamed predicate register.
            final = bool(dyn.qp_value)
            early_resolved = True
            self.counters.bump("branches_architecturally_resolved")
        elif entry.is_resolved_at(rename_cycle):
            # Early-resolved: the compare executed before the branch renamed,
            # so the physical register already holds the computed value.
            final = bool(dyn.qp_value)
            early_resolved = True
            self.counters.bump("branches_early_resolved")
        else:
            final = bool(entry.predicted_value)
            early_resolved = False
            if entry.rob_pointer is None:
                entry.rob_pointer = dyn.seq
            self.counters.bump("branches_used_prediction")
            if final != actual and entry.history_token is not None:
                # The branch will trigger recovery when the compare computes
                # the true value; the corrupted history bit is repaired as
                # part of that recovery.  Compares fetched in between have
                # already predicted with the corrupted history.
                self.ghr.repair(entry.history_token, bool(dyn.qp_value))
                self.counters.bump("history_repairs")

        self.accuracy.add(dyn.pc, actual, final, fetch_prediction, early_resolved)
        self.counters.bump("branches")
        if final != actual:
            self.counters.bump("mispredictions")

        override_flush = fetch_prediction is not None and fetch_prediction != final
        # The first-level predictor trains on branch outcomes as usual.
        self._branch_ghr.push(actual)
        return BranchHandling(
            final_prediction=final,
            fetch_prediction=fetch_prediction,
            early_resolved=early_resolved,
            override_flush=override_flush,
        )

    def on_branch_resolved(self, dyn: DynInst, resolve_cycle: int, mispredicted: bool) -> None:
        if self.first_level is not None:
            self.first_level.update(dyn.pc, self._branch_ghr.value, bool(dyn.taken))

    # ------------------------------------------------------------------
    # If-converted instruction handling: selective predicate prediction
    # ------------------------------------------------------------------
    def on_predicated_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> PredicatedHandling:
        entry = self.pprf.current(dyn.inst.qp.index)
        decision = self.selective.decide(entry, rename_cycle, bool(dyn.qp_value))

        if decision.decision is RenameDecision.CANCEL:
            self.counters.bump("predicated_cancelled")
        elif decision.decision is RenameDecision.ASSUME_TRUE:
            self.counters.bump("predicated_assumed_true")
        else:
            self.counters.bump("predicated_conservative")

        if not decision.speculative:
            return PredicatedHandling(decision.decision)

        assert entry is not None  # speculative decisions require an entry
        if entry.rob_pointer is None:
            entry.rob_pointer = dyn.seq
        if decision.assumed_value == bool(dyn.qp_value):
            return PredicatedHandling(decision.decision)

        # Wrong speculation: the flush is discovered when the producing
        # compare executes (its completion is the guard-ready cycle the
        # pipeline computed), and the corrupted history bit is repaired as
        # part of the recovery.
        self.counters.bump("predicate_flushes")
        if entry.history_token is not None:
            self.ghr.repair(entry.history_token, bool(dyn.qp_value))
        discovery = max(guard_ready_cycle, rename_cycle + 1)
        return PredicatedHandling(decision.decision, flush_discovery_cycle=discovery)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        size = self.predictor.size_report().total_kib
        flags = []
        if self.options.selective_predication:
            flags.append("selective predication")
        if self.options.ideal_no_alias:
            flags.append("no-alias")
        if self.options.perfect_history:
            flags.append("perfect history")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"predicate perceptron predictor ({size:.0f} KiB){suffix}"
