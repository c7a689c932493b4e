"""Predicate-aware branch prediction as a branch-handling scheme.

The scheme drives :class:`~repro.predictors.predicate_aware.PredicateAwarePredictor`
(Simon/Calder/Ferrante, HPCA 2003): branches are handled exactly like the
conventional override organisation — a fast fetch-time gshare overridden by
the slow predictor before rename — but the global history both levels index
with is *mixed*: besides speculatively-pushed branch outcomes, every
predicate value computed by a compare is folded in at completion, and the
most recent resolved predicate values additionally feed the second level as
a dedicated snapshot input.  If-converted instructions stay conservatively
predicated (this scheme recovers the *correlation* that if-conversion
removes, not the predication cost).

Every hook ignores its cycle arguments — predictions are a pure function of
the trace rows — so the scheme declares ``timing_independent = True``; it
still runs as a *hook* lane in the batched kernel because the compare-
completion hook observes rows the stream replay never visits.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.emulator.executor import DynInst
from repro.pipeline.scheme_api import BRANCH_HANDLING, BranchHandling, BranchHandlingScheme
from repro.predictors.base import BranchPlans
from repro.predictors.gshare import GsharePredictor
from repro.predictors.history import GlobalHistoryRegister
from repro.predictors.predicate_aware import (
    PredicateAwareConfig,
    PredicateAwarePredictor,
)


class PredicateAwareScheme(BranchHandlingScheme):
    """Two-level override prediction over mixed branch/predicate history."""

    name = "predicate-aware"

    #: Hooks ignore every cycle argument (the compare hook folds trace-
    #: determined predicate values).  The overridden compare hook still
    #: routes the scheme as a hook lane — see
    #: :func:`repro.pipeline.batched.stream_eligible`.
    timing_independent = True

    def __init__(self, config: Optional[PredicateAwareConfig] = None) -> None:
        super().__init__()
        self.config = config or PredicateAwareConfig()
        self.fast = GsharePredictor(history_bits=14)
        self.predictor = PredicateAwarePredictor(self.config)
        self.plans = BranchPlans(self.fast, self.predictor)
        #: Mixed global history: branch outcomes + resolved predicate bits.
        self.ghr = GlobalHistoryRegister(self.config.global_bits)
        #: Shift register of the most recently resolved predicate values.
        self._snapshot = 0
        self._snapshot_mask = (1 << self.config.predicate_bits) - 1
        #: Training state keyed by the branch's dynamic sequence number:
        #: ``(plan, mixed global history, second-level history input,
        #: outcome)``.
        self._pending: Dict[int, Tuple[tuple, int, int, bool]] = {}

    # ------------------------------------------------------------------
    def on_compare_complete(self, dyn: DynInst, complete_cycle: int) -> None:
        for _index, value in dyn.pred_writes:
            bit = bool(value)
            self._snapshot = ((self._snapshot << 1) | (1 if bit else 0)) & self._snapshot_mask
            self.ghr.push_resolved(bit)
            self.counters.bump("predicate_bits_folded")

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
        slow_history = self.predictor.input_history(history, self._snapshot)
        fast = self.fast.output_planned(fast_key, fast_local, history) >= 0
        final = self.predictor.output_planned(key, local_slot, slow_history) >= 0
        actual = bool(dyn.taken)

        self.accuracy.add(dyn.pc, actual, final, fast)
        self.counters.bump("branches")
        if final != actual:
            self.counters.bump("mispredictions")

        # Speculative push + same-branch repair, net the outcome, exactly as
        # in the conventional scheme.
        self.ghr.push_resolved(actual)

        self._pending[dyn.seq] = (plan, history, slow_history, actual)
        return BRANCH_HANDLING[fast, final, False]

    def on_branch_resolved(self, dyn: DynInst, resolve_cycle: int, mispredicted: bool) -> None:
        pending = self._pending.pop(dyn.seq, None)
        if pending is None:
            return
        (fast_key, fast_local, key, local_slot), history, slow_history, actual = pending
        self.fast.train_planned(fast_key, fast_local, history, actual)
        self.predictor.train_planned(key, local_slot, slow_history, actual)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        size = self.predictor.size_report().total_kib
        cfg = self.config
        return (
            f"predicate-aware branch predictor ({size:.0f} KiB, "
            f"{cfg.global_bits}-bit mixed GHR + {cfg.predicate_bits}-bit "
            "predicate snapshot)"
        )
