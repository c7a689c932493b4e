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
from typing import Dict, Optional, Tuple

from repro.predictors.base import PredictorSizeReport
from repro.predictors.perceptron import PerceptronConfig, PerceptronTable
from repro.predictors.predicate_perceptron import PredicatePredictorConfig


@dataclass(frozen=True)
class IdealHistoryOracle:
    """Marker policy: feed global history with oracle outcomes.

    When a scheme is configured with this policy it pushes the *computed*
    value of every condition into the history register at prediction time,
    eliminating the corruption window described in section 3.3.
    """

    description: str = "perfect global-history update"


class NoAliasPerceptron(PerceptronTable):
    """Branch perceptron with a private weight row per static branch.

    The reference weight backend, with a row appended the first time a
    ``(pc, slot)`` is planned; the row index is the plan's key, so the
    kernels are the perceptron's own.
    """

    _size_label = "no-alias-perceptron (unbounded)"

    def __init__(self, config: Optional[PerceptronConfig] = None) -> None:
        config = config or PerceptronConfig()
        super().__init__(config, config.global_bits, optimized=False, rows=0)
        #: The row of every planned ``(pc, slot)``.
        self._row_of: Dict[Tuple[int, int], int] = {}

    def plan_slot(self, pc: int, slot: int) -> Tuple[int, int, int]:
        """``(private row, local_slot, confidence_index)`` of ``(pc, slot)``."""
        row = self._row_of.get((pc, slot))
        if row is None:
            row = self._row_of[(pc, slot)] = len(self._rows)
            self._rows.append([0] * self.config.num_weights)
        local_slot = self.local_histories.index(pc + (slot << 1))
        return row, local_slot, (pc << 1) | (slot & 1)

    def size_report(self) -> PredictorSizeReport:
        report = PredictorSizeReport()
        report.add(
            self._size_label,
            len(self._rows) * self.config.num_weights * self.config.weight_bits,
        )
        return report


class NoAliasPredicatePerceptron(NoAliasPerceptron):
    """Predicate perceptron with a private weight row per (compare, slot)."""

    _size_label = "no-alias-pvt (unbounded)"

    def __init__(self, config: Optional[PredicatePredictorConfig] = None) -> None:
        super().__init__(config or PredicatePredictorConfig())  # type: ignore[arg-type]
