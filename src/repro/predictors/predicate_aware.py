"""Predicate-enhanced branch prediction (Simon, Calder & Ferrante, HPCA 2003).

If-conversion removes branches but the *predicates* those branches tested
keep flowing through the pipeline — and they carry exactly the correlation
the removed branches used to feed into the global history.  A predicate-
aware predictor folds that information back in: its input vector is the
branch-outcome global history *interleaved with resolved predicate bits*
(the hosting scheme pushes compare-computed values into the shared history
register) plus a snapshot of the most recently resolved predicate values.

The structure is a perceptron (the second level of the conventional
scheme's override organisation) whose combined input concatenates

* ``global_bits`` of the mixed branch/predicate global history,
* ``predicate_bits`` of the recent-predicate-value snapshot, and
* ``local_bits`` of per-PC local history,

so the learning rule can weight each resolved predicate independently of
the branch outcomes around it.  It shares the
branch perceptron's planning, kernels and weight backends; only its history
input differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.predictors.base import PredictorSizeReport
from repro.predictors.perceptron import PerceptronPredictor, PerceptronTable


@dataclass(frozen=True)
class PredicateAwareConfig:
    """Geometry of the predicate-aware perceptron.

    The default splits the conventional second level's 30 history bits into
    24 bits of mixed global history plus a 6-bit resolved-predicate
    snapshot, keeping the input width — and therefore the table budget —
    comparable to the paper's 148 KB perceptron.
    """

    global_bits: int = 24
    predicate_bits: int = 6
    local_bits: int = 10
    weight_bits: int = 8
    entries: int = 3634
    local_history_entries: int = 2048

    @property
    def num_weights(self) -> int:
        return self.global_bits + self.predicate_bits + self.local_bits + 1

    @property
    def theta(self) -> int:
        history_length = self.global_bits + self.predicate_bits + self.local_bits
        return int(1.93 * history_length + 14)

    @property
    def weight_min(self) -> int:
        return -(1 << (self.weight_bits - 1))

    @property
    def weight_max(self) -> int:
        return (1 << (self.weight_bits - 1)) - 1

    def storage_bits(self) -> int:
        table = self.entries * self.num_weights * self.weight_bits
        local = self.local_history_entries * self.local_bits
        return table + local + self.global_bits + self.predicate_bits


class PredicateAwarePredictor(PerceptronTable):
    """Perceptron over mixed branch/predicate history + predicate snapshot.

    Planned like the branch perceptron (one row per hashed branch PC); the
    kernels' ``history`` is :meth:`input_history`, the predicate snapshot
    above the mixed global history.
    """

    plan_slot = PerceptronPredictor.plan_slot

    def __init__(
        self,
        config: Optional[PredicateAwareConfig] = None,
        optimized: bool = True,
    ) -> None:
        config = config or PredicateAwareConfig()
        super().__init__(config, config.global_bits + config.predicate_bits, optimized)

    def input_history(self, global_history: int, predicate_bits: int) -> int:
        """The kernels' history input of a mixed history and a snapshot."""
        cfg = self.config
        return ((predicate_bits & ((1 << cfg.predicate_bits) - 1)) << cfg.global_bits) | (
            global_history & ((1 << cfg.global_bits) - 1)
        )

    # ------------------------------------------------------------------
    def size_report(self) -> PredictorSizeReport:
        cfg = self.config
        report = PredictorSizeReport()
        report.add(
            "predicate-aware-table", cfg.entries * cfg.num_weights * cfg.weight_bits
        )
        report.add("local-history-table", self.local_histories.storage_bits())
        report.add("mixed-ghr", cfg.global_bits)
        report.add("predicate-snapshot", cfg.predicate_bits)
        return report
