"""Gshare: the fast, single-cycle first-level predictor (Table 1).

A pattern history table of 2-bit counters indexed by the exclusive-or of the
folded branch PC and the global history register.  The paper's first level
is a 4 KB gshare with a 14-bit GHR: 16384 two-bit counters.

The predictor has two access paths over one table state: the reference path
(``optimized=False``, the parity oracle) goes through
:class:`~repro.predictors.counters.CounterTable`, while the optimized path
(the default) indexes the backing counter list directly with mask
arithmetic.  Both paths share the same list, so they are bit-identical by
construction; the property-based parity tests drive both with common
random branch streams to prove it.
"""

from __future__ import annotations

from repro.predictors.base import DirectionPredictor, PredictorSizeReport, fold_pc
from repro.predictors.counters import CounterTable


class GsharePredictor(DirectionPredictor):
    """Classic gshare with n-bit counters."""

    def __init__(
        self,
        history_bits: int = 14,
        counter_bits: int = 2,
        optimized: bool = True,
    ) -> None:
        self.history_bits = history_bits
        self.counter_bits = counter_bits
        self.entries = 1 << history_bits
        self.table = CounterTable(self.entries, bits=counter_bits, initial=1)
        self.optimized = optimized
        # Array fast path: direct access to the table's backing list.  The
        # entry count is a power of two, so ``% entries`` is ``& mask``, and
        # ``fold_pc`` already masks to ``history_bits`` bits, which makes
        # ``(f ^ (g & mask)) & mask`` equal to ``(f ^ g) & mask``.
        self._values = self.table.values
        self._mask = self.entries - 1
        self._threshold = 1 << (counter_bits - 1)
        self._cmax = (1 << counter_bits) - 1

    # ------------------------------------------------------------------
    def _index(self, pc: int, global_history: int) -> int:
        mask = self.entries - 1
        return (fold_pc(pc, self.history_bits) ^ (global_history & mask)) & mask

    def predict(self, pc: int, global_history: int) -> bool:
        if self.optimized:
            index = (fold_pc(pc, self.history_bits) ^ global_history) & self._mask
            return self._values[index] >= self._threshold
        return self.table.taken(self._index(pc, global_history))

    def update(self, pc: int, global_history: int, outcome: bool) -> None:
        if self.optimized:
            values = self._values
            index = (fold_pc(pc, self.history_bits) ^ global_history) & self._mask
            value = values[index]
            if outcome:
                if value < self._cmax:
                    values[index] = value + 1
            elif value > 0:
                values[index] = value - 1
            return
        self.table.train(self._index(pc, global_history), outcome)

    def size_report(self) -> PredictorSizeReport:
        report = PredictorSizeReport()
        report.add("gshare-pht", self.entries * self.counter_bits)
        report.add("gshare-ghr", self.history_bits)
        return report
