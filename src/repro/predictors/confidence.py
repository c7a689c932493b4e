"""Confidence estimation for selective predicate prediction (section 3.2).

"In order to implement the confidence predictor, each predicate predictor
entry is extended with a saturated counter, that is incremented with every
correct prediction and zeroed if a misprediction occurs.  The prediction is
considered confident if its associated counter is saturated."
"""

from __future__ import annotations

from repro.predictors.base import PredictorSizeReport
from repro.predictors.counters import unsigned_array


class ConfidenceEstimator:
    """Per-entry saturating confidence counters.

    ``entries`` should match the predicate predictor's PVT entry count so
    that each perceptron row has exactly one associated confidence counter
    (the paper extends "each predicate predictor entry").
    """

    def __init__(self, entries: int, bits: int = 3) -> None:
        if entries < 1:
            raise ValueError("confidence estimator needs at least one entry")
        self.entries = entries
        self.bits = bits
        #: The saturated counter value: a prediction is confident at it.
        self.saturated = (1 << bits) - 1
        #: One counter per entry; :meth:`slot` maps a predictor index to
        #: its counter, so a caller that planned the slot reads it directly.
        self.counters = unsigned_array(bits, entries)

    def slot(self, index: int) -> int:
        """The counter paired with predictor index ``index``."""
        return index % self.entries

    # ------------------------------------------------------------------
    def record_slot(self, slot: int, correct: bool) -> None:
        """Train counter ``slot``: count a correct prediction up, zero a wrong one."""
        counters = self.counters
        if not correct:
            counters[slot] = 0
        elif counters[slot] < self.saturated:
            counters[slot] += 1

    # ------------------------------------------------------------------
    def size_report(self) -> PredictorSizeReport:
        report = PredictorSizeReport()
        report.add("confidence-counters", self.entries * self.bits)
        return report
