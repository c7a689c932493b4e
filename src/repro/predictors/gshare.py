"""Gshare: the fast, single-cycle first-level predictor (Table 1).

A pattern history table of 2-bit counters indexed by the exclusive-or of the
folded branch PC and the global history register.  The paper's first level
is a 4 KB gshare with a 14-bit GHR: 16384 two-bit counters.

A plan is the folded PC; the kernels index the table with it and the
history.  They have two access paths over one table state: the reference
path (``optimized=False``, the parity oracle) goes through
:class:`~repro.predictors.counters.CounterTable`, while the optimized path
(the default) indexes the backing counter list directly.  Both paths share
the same list, so they are bit-identical by construction; the
property-based parity tests drive both with common random branch streams
to prove it.
"""

from __future__ import annotations

from typing import Tuple

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
        # entry count is a power of two, so ``% entries`` is ``& mask``.
        self._values = self.table.values
        self._mask = self.entries - 1
        self._threshold = 1 << (counter_bits - 1)
        self._cmax = (1 << counter_bits) - 1

    # ------------------------------------------------------------------
    def plan_slot(self, pc: int, slot: int) -> Tuple[int, int, int]:
        """``(folded pc, 0, folded pc)``: gshare keeps no local history."""
        folded = fold_pc(pc, self.history_bits)
        return folded, 0, folded

    def output_planned(self, folded: int, _local_slot: int, history: int) -> int:
        """The counter of the entry minus the taken threshold."""
        index = (folded ^ history) & self._mask
        if self.optimized:
            return self._values[index] - self._threshold
        return self.table.value(index) - self._threshold

    def train_planned(
        self, folded: int, _local_slot: int, history: int, outcome: bool
    ) -> None:
        index = (folded ^ history) & self._mask
        if not self.optimized:
            self.table.train(index, outcome)
            return
        values = self._values
        value = values[index]
        if outcome:
            if value < self._cmax:
                values[index] = value + 1
        elif value > 0:
            values[index] = value - 1

    def size_report(self) -> PredictorSizeReport:
        report = PredictorSizeReport()
        report.add("gshare-pht", self.entries * self.counter_bits)
        report.add("gshare-ghr", self.history_bits)
        return report
