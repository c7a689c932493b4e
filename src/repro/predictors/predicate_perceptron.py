"""The paper's predicate perceptron predictor (section 3.3, Figure 4).

Differences with the conventional perceptron of
:mod:`repro.predictors.perceptron`:

* it is indexed with the **compare** PC, not the branch PC — branches never
  touch the predictor at all;
* each compare may need **two** predictions (one per predicate target).
  Rather than splitting the perceptron vector table (PVT), which would waste
  space because many compares use the read-only ``p0`` as their second
  target, a single PVT is accessed with two hash functions: ``f1`` folds the
  PC over the table, and ``f2`` simply inverts the most significant index
  bit of ``f1``;
* its global history register is fed by *predicate predictions* (one bit per
  predicted predicate target), not by branch outcomes — that policy lives in
  the scheme layer, the structure itself just consumes the supplied history
  value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.predictors.base import PredictorSizeReport, fold_pc
from repro.predictors.perceptron import PerceptronConfig, PerceptronTable


@dataclass(frozen=True)
class PredicatePredictorConfig:
    """Geometry of the predicate perceptron (148 KB, Table 1)."""

    global_bits: int = 30
    local_bits: int = 10
    weight_bits: int = 8
    entries: int = 3634
    local_history_entries: int = 2048
    #: When True the PVT is statically split in two halves, one per predicate
    #: target, instead of sharing a single table through two hash functions.
    #: Section 3.3 argues (and the ablation benchmark confirms) that the
    #: split wastes capacity because many compares only need one prediction.
    split_pvt: bool = False

    @property
    def num_weights(self) -> int:
        return self.global_bits + self.local_bits + 1

    @property
    def theta(self) -> int:
        return int(1.93 * (self.global_bits + self.local_bits) + 14)

    @property
    def weight_min(self) -> int:
        return -(1 << (self.weight_bits - 1))

    @property
    def weight_max(self) -> int:
        return (1 << (self.weight_bits - 1)) - 1

    @classmethod
    def matching(cls, perceptron: PerceptronConfig) -> "PredicatePredictorConfig":
        """Build a configuration with the same geometry as a conventional
        perceptron configuration (used to keep the comparison size-fair)."""
        return cls(
            global_bits=perceptron.global_bits,
            local_bits=perceptron.local_bits,
            weight_bits=perceptron.weight_bits,
            entries=perceptron.entries,
            local_history_entries=perceptron.local_history_entries,
        )


class PredicatePerceptronPredictor(PerceptronTable):
    """Perceptron predictor over compare instructions with a dual-hash PVT."""

    #: Index of the first (true-sense) predicate target of a compare.
    SLOT_FIRST = 0
    #: Index of the second (false-sense) predicate target of a compare.
    SLOT_SECOND = 1

    def __init__(
        self,
        config: Optional[PredicatePredictorConfig] = None,
        optimized: bool = True,
    ) -> None:
        config = config or PredicatePredictorConfig()
        super().__init__(config, config.global_bits, optimized)

    # ------------------------------------------------------------------
    # Hashing: f1 folds the PC; f2 inverts the MSB of f1's index.
    # ------------------------------------------------------------------
    def _f1(self, pc: int) -> int:
        return fold_pc(pc, 24) % self.config.entries

    def _f2(self, pc: int) -> int:
        index = self._f1(pc)
        if self.config.entries < 2:
            return index
        # Invert the most significant bit of the index (section 3.3).  The
        # MSB position is taken from the index width needed to address the
        # table, so the flipped index is always different from f1's.
        msb = 1 << ((self.config.entries - 1).bit_length() - 1)
        return (index ^ msb) % self.config.entries

    def _local_key(self, pc: int, slot: int) -> int:
        # Distinguish the two targets' local histories without a second table.
        return pc + (slot << 1)

    # ------------------------------------------------------------------
    def plan_slot(self, pc: int, slot: int) -> Tuple[int, int, int]:
        """``(row, local_slot, confidence_index)`` of one compare target.

        ``row`` is the PVT entry, ``local_slot`` the local-history entry and
        ``confidence_index`` the index the paired confidence counter is
        keyed by (the PVT entry: one counter per perceptron row).  A
        ``slot`` other than 0 or 1 raises :class:`ValueError`.
        """
        if slot not in (self.SLOT_FIRST, self.SLOT_SECOND):
            raise ValueError(f"invalid predicate slot {slot}")
        if self.config.split_pvt:
            half = max(1, self.config.entries // 2)
            row = fold_pc(pc, 24) % half + slot * half
        else:
            row = self._f2(pc) if slot else self._f1(pc)
        return row, self.local_histories.index(self._local_key(pc, slot)), row

    # ------------------------------------------------------------------
    def size_report(self) -> PredictorSizeReport:
        cfg = self.config
        report = PredictorSizeReport()
        report.add("pvt", cfg.entries * cfg.num_weights * cfg.weight_bits)
        report.add("local-history-table", self.local_histories.storage_bits())
        report.add("ghr", cfg.global_bits)
        return report
