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
from typing import Dict, List, Optional, Tuple

from repro.emulator.executor import DynInst
from repro.isa.compare import CompareInstruction
from repro.isa.registers import NUM_PREDICATE_REGISTERS
from repro.pipeline.pprf import PPRFEntry, PredicatePhysicalRegisterFile
from repro.pipeline.scheme_api import (
    BRANCH_HANDLING,
    PREDICATED_HANDLING,
    BranchHandling,
    BranchHandlingScheme,
    PredicatedHandling,
)
from repro.pipeline.uop import RenameDecision
from repro.core.selective import SelectivePredicationPolicy
from repro.predictors.base import BranchPlans
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


#: One predicted target of a static compare: ``(slot, logical predicate
#: register, predictor key, local-history slot, confidence slot)``.  The
#: predictor key and local-history slot are what the predictor's
#: ``plan_slot`` returns; the hooks pass them back to its
#: ``output_planned``/``train_planned`` kernels.
CompareTarget = Tuple[int, int, object, int, int]


def plan_compare(
    inst, pc: int, predictor, confidence: ConfidenceEstimator
) -> Tuple[CompareTarget, ...]:
    """The per-target plan of the static compare ``inst`` at ``pc`` (empty
    for a non-compare).

    Every field is a pure function of the static instruction and the
    predictor geometry, so a scheme builds it once per compare PC and its
    hooks do one lookup per target instead of re-hashing the PC for every
    table they touch.
    """
    if not isinstance(inst, CompareInstruction):
        return ()
    plan = []
    for slot, target in enumerate((inst.pt, inst.pf)):
        if target.is_hardwired:
            continue
        key, local_slot, confidence_index = predictor.plan_slot(pc, slot)
        plan.append((slot, target.index, key, local_slot, confidence.slot(confidence_index)))
    return tuple(plan)


class ComparePlans:
    """The :func:`plan_compare` memo of one scheme, per compare PC.

    A pure cache of the predictor geometry: pickling keeps only the
    predictor and confidence estimator it plans for, never the memo.
    """

    __slots__ = ("predictor", "confidence", "memo")

    def __init__(self, predictor, confidence: ConfidenceEstimator) -> None:
        self.predictor = predictor
        self.confidence = confidence
        self.memo: Dict[int, Tuple[CompareTarget, ...]] = {}

    def __getstate__(self):
        return self.predictor, self.confidence

    def __setstate__(self, state) -> None:
        self.predictor, self.confidence = state
        self.memo = {}

    def of(self, dyn: DynInst) -> Tuple[CompareTarget, ...]:
        """The plan of the compare ``dyn`` is an instance of."""
        plan = self.memo.get(dyn.pc)
        if plan is None:
            plan = self.memo[dyn.pc] = plan_compare(
                dyn.inst, dyn.pc, self.predictor, self.confidence
            )
        return plan


def computed_value(dyn: DynInst, logical_index: int, committed: List[bool]) -> bool:
    """The value the compare ``dyn`` computes for ``p<logical_index>``.

    A compare that does not write the register (its qualifying predicate
    was false) leaves the committed value in place.
    """
    for index, value in dyn.pred_writes:
        if index == logical_index:
            return value
    return committed[logical_index]


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
        #: Per-branch-PC first-level plans (``None`` without a first level).
        self.branch_plans = (
            BranchPlans(self.first_level) if self.first_level is not None else None
        )
        #: First-level plan and history each in-flight branch predicted
        #: with, keyed by its dynamic sequence number: the branch trains the
        #: entry it read, not the one after its own outcome was pushed.
        self._fetch_histories: Dict[int, Tuple[tuple, int]] = {}
        #: Architectural (committed) values of logical predicate registers.
        self._logical_values: List[bool] = [False] * NUM_PREDICATE_REGISTERS
        self._logical_values[0] = True
        #: PPRF entries awaiting their compare's execution, keyed by the
        #: compare's dynamic sequence number.
        self._pending: Dict[int, List[PPRFEntry]] = {}
        #: Per-compare-PC prediction plans.
        self.plans = ComparePlans(self.predictor, self.confidence)

    # ------------------------------------------------------------------
    # Compare handling: produce predictions
    # ------------------------------------------------------------------
    def on_compare_rename(self, dyn: DynInst, fetch_cycle: int, rename_cycle: int) -> None:
        plan = self.plans.of(dyn)
        if not plan:
            return
        ghr = self.ghr
        output = self.predictor.output_planned
        confidence = self.confidence.counters
        saturated = self.confidence.saturated
        allocate = self.pprf.allocate
        perfect_history = self.options.perfect_history
        pc = dyn.pc
        seq = dyn.seq
        entries = []
        for target in plan:
            slot, logical_index, key, local_slot, confidence_slot = target
            history = ghr.value
            predicted = output(key, local_slot, history) >= 0
            entry = allocate(
                logical_index,
                pc,
                slot,
                seq,
                predicted,
                rename_cycle,
                confidence[confidence_slot] == saturated,
                target,
                history,
            )
            # Speculative history update: one bit per predicted target.  With
            # the perfect-history idealization the architecturally-correct
            # value is pushed instead, eliminating the corruption window.
            if perfect_history:
                pushed = computed_value(dyn, logical_index, self._logical_values)
            else:
                pushed = predicted
            entry.history_token = ghr.push(pushed)
            entries.append(entry)
        self._pending[seq] = entries
        self.counters.bump("predicate_predictions", len(entries))

    def on_compare_complete(self, dyn: DynInst, complete_cycle: int) -> None:
        entries = self._pending.pop(dyn.seq, None)
        if entries is None:
            return
        train = self.predictor.train_planned
        record = self.confidence.record_slot
        committed = self._logical_values
        wrong = 0
        for entry in entries:
            _slot, logical_index, key, local_slot, confidence_slot = entry.target
            computed = computed_value(dyn, logical_index, committed)
            entry.computed_value = computed
            entry.computed_cycle = complete_cycle
            entry.speculative = False
            correct = entry.predicted_value == computed
            record(confidence_slot, correct)
            train(key, local_slot, entry.history, computed)
            if not correct:
                wrong += 1
                # The computed value corrects the speculatively-pushed history
                # bit (if it is still within the register).  Compares fetched
                # between the wrong prediction and this point have already
                # predicted with the corrupted bit — that window is the
                # negative effect quantified in sections 4.2/4.3.
                if not self.options.perfect_history and entry.history_token is not None:
                    if self.ghr.repair(entry.history_token, computed):
                        self.counters.bump("history_repairs_at_writeback")
        counters = self.counters
        if wrong < len(entries):
            counters.bump("predicate_predictions_correct", len(entries) - wrong)
        if wrong:
            counters.bump("predicate_predictions_wrong", wrong)
        # Track committed logical values (trace is the correct path, so every
        # architectural write eventually commits).
        for index, value in dyn.pred_writes:
            committed[index] = value

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
            plan = self.branch_plans.of(dyn.pc)
            history = self._branch_ghr.value
            fetch_prediction = self.first_level.output_planned(plan[0], plan[1], history) >= 0
            self._fetch_histories[dyn.seq] = (plan, history)

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

        # The first-level predictor trains on branch outcomes as usual.
        self._branch_ghr.push_resolved(actual)
        return BRANCH_HANDLING[fetch_prediction, final, early_resolved]

    def on_branch_resolved(self, dyn: DynInst, resolve_cycle: int, mispredicted: bool) -> None:
        pending = self._fetch_histories.pop(dyn.seq, None)
        if pending is not None:
            (key, local_slot), history = pending
            self.first_level.train_planned(key, local_slot, history, bool(dyn.taken))

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
        actual = bool(dyn.qp_value)
        decision = self.selective.decide(entry, rename_cycle, actual)

        if decision.decision is RenameDecision.CANCEL:
            self.counters.bump("predicated_cancelled")
        elif decision.decision is RenameDecision.ASSUME_TRUE:
            self.counters.bump("predicated_assumed_true")
        else:
            self.counters.bump("predicated_conservative")

        if not decision.speculative:
            return PREDICATED_HANDLING[decision.decision]

        assert entry is not None  # speculative decisions require an entry
        if entry.rob_pointer is None:
            entry.rob_pointer = dyn.seq
        if decision.assumed_value == actual:
            return PREDICATED_HANDLING[decision.decision]

        # Wrong speculation: the flush is discovered when the producing
        # compare executes (its completion is the guard-ready cycle the
        # pipeline computed), and the corrupted history bit is repaired as
        # part of the recovery.
        self.counters.bump("predicate_flushes")
        if entry.history_token is not None:
            self.ghr.repair(entry.history_token, actual)
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
