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

* branches are the conventional scheme's: wish composes a
  :class:`~repro.core.conventional.ConventionalScheme` (fast gshare + a
  perceptron or TAGE second level, selected by ``second_level``) and
  delegates both branch hooks to it, so its branch predictions are the
  conventional scheme's one for one;
* guards are predicted per compare target by the dual-hash predicate
  perceptron (:mod:`repro.predictors.predicate_perceptron`), trained with
  computed values at compare completion;
* the gate is the paper's own saturating-counter
  :class:`~repro.predictors.confidence.ConfidenceEstimator`, one counter per
  guard-predictor entry.

The scheme is *timing-dependent* (``timing_independent = False``): the
branch-vs-predicate decision compares the guard-ready cycle against the
rename cycle, so the lane-batched kernel runs wish lanes as hook lanes.
Their branch half is timing-independent, though, so the kernel replays the
conventional decision stream on a wish lane's branch rows
(:meth:`WishBranchScheme.branch_scheme`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.conventional import ConventionalScheme
from repro.core.predicate_scheme import ComparePlans, CompareTarget, computed_value
from repro.emulator.executor import DynInst
from repro.isa.registers import NUM_PREDICATE_REGISTERS
from repro.pipeline.scheme_api import (
    PREDICATED_HANDLING,
    BranchHandling,
    BranchHandlingScheme,
    PredicatedHandling,
)
from repro.pipeline.uop import RenameDecision
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.history import GlobalHistoryRegister
from repro.predictors.perceptron import PerceptronConfig
from repro.predictors.predicate_perceptron import (
    PredicatePerceptronPredictor,
    PredicatePredictorConfig,
)

_ASSUME_TRUE = RenameDecision.ASSUME_TRUE
_CANCEL = RenameDecision.CANCEL


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
        #: The branch half: the conventional two-level override scheme,
        #: recording into this scheme's accuracy and counters.
        self.branches = ConventionalScheme(
            perceptron_config=perceptron_config, second_level=second_level
        )
        self.branches.accuracy = self.accuracy
        self.branches.counters = self.counters

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
        #: Latest in-flight guard prediction per logical predicate register:
        #: ``(predicted, confident)``.
        self._inflight: Dict[int, Tuple[bool, bool]] = {}
        #: Guard training state keyed by the compare's sequence number:
        #: ``(target plan, history at prediction, predicted)`` per target.
        self._pending_guards: Dict[int, List[Tuple[CompareTarget, int, bool]]] = {}
        #: Per-compare-PC guard prediction plans.
        self.plans = ComparePlans(self.guard_predictor, self.confidence)

    # ------------------------------------------------------------------
    # Compare handling: predict guards, gate on confidence
    # ------------------------------------------------------------------
    def on_compare_rename(self, dyn: DynInst, fetch_cycle: int, rename_cycle: int) -> None:
        plan = self.plans.of(dyn)
        if not plan:
            return
        history = self.guard_ghr.value
        output = self.guard_predictor.output_planned
        confidence = self.confidence.counters
        saturated = self.confidence.saturated
        inflight = self._inflight
        pending = []
        for target in plan:
            _slot, logical_index, key, local_slot, confidence_slot = target
            predicted = output(key, local_slot, history) >= 0
            inflight[logical_index] = (predicted, confidence[confidence_slot] == saturated)
            pending.append((target, history, predicted))
        self._pending_guards[dyn.seq] = pending
        self.counters.bump("wish_guard_predictions", len(pending))

    def on_compare_complete(self, dyn: DynInst, complete_cycle: int) -> None:
        committed = self._logical_values
        pending = self._pending_guards.pop(dyn.seq, None)
        if pending is not None:
            train = self.guard_predictor.train_planned
            record = self.confidence.record_slot
            push = self.guard_ghr.push_resolved
            wrong = 0
            for target, history, predicted in pending:
                _slot, logical_index, key, local_slot, confidence_slot = target
                computed = computed_value(dyn, logical_index, committed)
                correct = predicted == computed
                record(confidence_slot, correct)
                train(key, local_slot, history, computed)
                push(computed)
                if not correct:
                    wrong += 1
            if wrong < len(pending):
                self.counters.bump("wish_guard_predictions_correct", len(pending) - wrong)
            if wrong:
                self.counters.bump("wish_guard_predictions_wrong", wrong)
        for index, value in dyn.pred_writes:
            committed[index] = value

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
            return PREDICATED_HANDLING[_ASSUME_TRUE if actual else _CANCEL]

        predicted, confident = guard
        if confident:
            # Branch mode: speculate on the predicted guard like a branch.
            self.counters.bump("wish_branch_mode")
            decision = _ASSUME_TRUE if predicted else _CANCEL
            if predicted == actual:
                return PREDICATED_HANDLING[decision]
            # Wrong guess: the flush is discovered when the producing
            # compare computes the true guard value.
            self.counters.bump("wish_flushes")
            discovery = max(guard_ready_cycle, rename_cycle + 1)
            return PredicatedHandling(decision, flush_discovery_cycle=discovery)

        # Predicate mode: not confident enough to branch — execute
        # conservatively predicated, like the baseline.
        self.counters.bump("wish_predicate_mode")
        return PREDICATED_HANDLING[RenameDecision.CONSERVATIVE]

    # ------------------------------------------------------------------
    # Branch handling: the conventional scheme's
    # ------------------------------------------------------------------
    def on_branch_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> BranchHandling:
        return self.branches.on_branch_rename(dyn, fetch_cycle, rename_cycle, guard_ready_cycle)

    def on_branch_resolved(self, dyn: DynInst, resolve_cycle: int, mispredicted: bool) -> None:
        self.branches.on_branch_resolved(dyn, resolve_cycle, mispredicted)

    def branch_scheme(self) -> BranchHandlingScheme:
        return self.branches

    def share_branch_scheme(self, scheme: BranchHandlingScheme) -> None:
        self.branches = scheme

    # ------------------------------------------------------------------
    def describe(self) -> str:
        branch_kib = sum(table.size_report().total_kib for table in self.branches.plans.tables)
        guard_kib = self.guard_predictor.size_report().total_kib
        return (
            f"wish branches (guard-confidence gate, {self.second_level} second "
            f"level, {branch_kib:.0f}+{guard_kib:.0f} KiB)"
        )
