"""Idealized predictor variants used by the paper's isolation experiments.

Sections 4.2 and 4.3 repeat the main experiments with "idealized branch
predictor and predicate predictor schemes, without alias conflicts and with
perfect global-history update" to isolate the benefit of early-resolved
branches and correlation from the two negative side effects of predicate
prediction.  Two building blocks implement that idealization:

* :class:`NoAliasPerceptron` / :class:`NoAliasPredicatePerceptron` — the same
  perceptron algorithm, but each static PC (or PC/slot pair) gets a private
  weight row, so no two instructions ever share an entry;
* :class:`IdealHistoryOracle` — a marker policy consumed by the scheme layer
  meaning "update global history with architecturally correct outcomes at
  prediction time" (no corruption window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.predictors.base import PredictorSizeReport
from repro.predictors.history import LocalHistoryTable
from repro.predictors.perceptron import (
    PerceptronConfig,
    perceptron_output,
    perceptron_train,
)
from repro.predictors.predicate_perceptron import PredicatePredictorConfig


@dataclass(frozen=True)
class IdealHistoryOracle:
    """Marker policy: feed global history with oracle outcomes.

    When a scheme is configured with this policy it pushes the *computed*
    value of every condition into the history register at prediction time,
    eliminating the corruption window described in section 3.3.
    """

    description: str = "perfect global-history update"


class NoAliasPerceptron:
    """Branch perceptron with a private weight row per static branch."""

    def __init__(self, config: Optional[PerceptronConfig] = None) -> None:
        self.config = config or PerceptronConfig()
        self._rows: Dict[int, List[int]] = {}
        self.local_histories = LocalHistoryTable(
            self.config.local_history_entries, self.config.local_bits
        )

    def _row(self, pc: int) -> List[int]:
        row = self._rows.get(pc)
        if row is None:
            row = [0] * self.config.num_weights
            self._rows[pc] = row
        return row

    def _combined_history(self, pc: int, global_history: int) -> int:
        cfg = self.config
        global_part = global_history & ((1 << cfg.global_bits) - 1)
        local_part = self.local_histories.read(pc) & ((1 << cfg.local_bits) - 1)
        return (local_part << cfg.global_bits) | global_part

    def predict_with_output(self, pc: int, global_history: int) -> Tuple[bool, int]:
        output = perceptron_output(self._row(pc), self._combined_history(pc, global_history))
        return output >= 0, output

    def predict(self, pc: int, global_history: int) -> bool:
        return self.predict_with_output(pc, global_history)[0]

    def update(self, pc: int, global_history: int, outcome: bool) -> None:
        cfg = self.config
        row = self._row(pc)
        combined = self._combined_history(pc, global_history)
        output = perceptron_output(row, combined)
        if (output >= 0) != outcome or abs(output) <= cfg.theta:
            perceptron_train(row, combined, outcome, cfg.weight_min, cfg.weight_max)
        self.local_histories.update(pc, outcome)

    def size_report(self) -> PredictorSizeReport:
        report = PredictorSizeReport()
        report.add(
            "no-alias-perceptron (unbounded)",
            len(self._rows) * self.config.num_weights * self.config.weight_bits,
        )
        return report


class NoAliasPredicatePerceptron:
    """Predicate perceptron with a private weight row per (compare, slot)."""

    SLOT_FIRST = 0
    SLOT_SECOND = 1

    def __init__(self, config: Optional[PredicatePredictorConfig] = None) -> None:
        self.config = config or PredicatePredictorConfig()
        self._rows: Dict[Tuple[int, int], List[int]] = {}
        self.local_histories = LocalHistoryTable(
            self.config.local_history_entries, self.config.local_bits
        )

    def _row(self, pc: int, slot: int) -> List[int]:
        key = (pc, slot)
        row = self._rows.get(key)
        if row is None:
            row = [0] * self.config.num_weights
            self._rows[key] = row
        return row

    def index_for_slot(self, pc: int, slot: int) -> int:
        """Stable per-(pc, slot) index used for confidence-counter pairing."""
        return (pc << 1) | (slot & 1)

    def _local_key(self, pc: int, slot: int) -> int:
        return pc + (slot << 1)

    # ------------------------------------------------------------------
    # Planned access (the predicate perceptron's contract): the private
    # weight row itself stands in for the PVT index.
    # ------------------------------------------------------------------
    def plan_slot(self, pc: int, slot: int) -> Tuple[List[int], int, int]:
        """``(weight_row, local_slot, confidence_index)`` of one compare target."""
        return (
            self._row(pc, slot),
            self.local_histories.index(self._local_key(pc, slot)),
            self.index_for_slot(pc, slot),
        )

    def _combined(self, local_slot: int, global_history: int) -> int:
        cfg = self.config
        global_part = global_history & ((1 << cfg.global_bits) - 1)
        return (self.local_histories.histories[local_slot] << cfg.global_bits) | global_part

    def output_planned(self, row: List[int], local_slot: int, global_history: int) -> int:
        return perceptron_output(row, self._combined(local_slot, global_history))

    def train_planned(
        self, row: List[int], local_slot: int, global_history: int, outcome: bool
    ) -> None:
        cfg = self.config
        combined = self._combined(local_slot, global_history)
        output = perceptron_output(row, combined)
        if (output >= 0) != outcome or abs(output) <= cfg.theta:
            perceptron_train(row, combined, outcome, cfg.weight_min, cfg.weight_max)
        self.local_histories.shift(local_slot, outcome)

    # ------------------------------------------------------------------
    def predict_slot(self, pc: int, slot: int, global_history: int) -> Tuple[bool, int]:
        row, local_slot, _ = self.plan_slot(pc, slot)
        output = self.output_planned(row, local_slot, global_history)
        return output >= 0, output

    def predict_compare(self, pc: int, global_history: int) -> Tuple[bool, bool]:
        return (
            self.predict_slot(pc, self.SLOT_FIRST, global_history)[0],
            self.predict_slot(pc, self.SLOT_SECOND, global_history)[0],
        )

    def update_slot(self, pc: int, slot: int, global_history: int, outcome: bool) -> None:
        row, local_slot, _ = self.plan_slot(pc, slot)
        self.train_planned(row, local_slot, global_history, outcome)

    def size_report(self) -> PredictorSizeReport:
        report = PredictorSizeReport()
        report.add(
            "no-alias-pvt (unbounded)",
            len(self._rows) * self.config.num_weights * self.config.weight_bits,
        )
        return report
