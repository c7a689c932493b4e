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
the branch outcomes around it.  Like
:class:`~repro.predictors.perceptron.PerceptronPredictor`, weight storage
has a reference list-of-rows backend (``optimized=False``) and an optimized
packed backend with equal results, and both are driven by the hypothesis
parity tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.predictors.base import PredictorSizeReport
from repro.predictors.history import LocalHistoryTable
from repro.predictors.perceptron import (
    FlatWeightTable,
    entry_index,
    perceptron_output,
    perceptron_train,
)


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


class PredicateAwarePredictor:
    """Perceptron over mixed branch/predicate history + predicate snapshot."""

    def __init__(
        self,
        config: Optional[PredicateAwareConfig] = None,
        optimized: bool = True,
    ) -> None:
        self.config = config or PredicateAwareConfig()
        cfg = self.config
        self.optimized = optimized
        self._global_mask = (1 << cfg.global_bits) - 1
        self._predicate_mask = (1 << cfg.predicate_bits) - 1
        self._local_mask = (1 << cfg.local_bits) - 1
        if self.optimized:
            self._flat: Optional[FlatWeightTable] = FlatWeightTable(
                cfg.entries, cfg.num_weights, cfg.theta, cfg.weight_min, cfg.weight_max
            )
            self._rows: Optional[List[List[int]]] = None
        else:
            self._flat = None
            self._rows = [[0] * cfg.num_weights for _ in range(cfg.entries)]
        self.local_histories = LocalHistoryTable(cfg.local_history_entries, cfg.local_bits)
        # Pure memo of the pc -> entry hash (never pickled).
        self._pc_index: dict = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_pc_index"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._pc_index = {}

    # ------------------------------------------------------------------
    @property
    def _weights(self) -> List[List[int]]:
        """Row view of the weight table (both backends), for introspection."""
        if self._rows is not None:
            return self._rows
        return [self._flat.row(index) for index in range(self.config.entries)]

    def weight_row(self, index: int) -> List[int]:
        """A copy of the weights of entry ``index`` (parity tests)."""
        if self._rows is not None:
            return list(self._rows[index])
        return self._flat.row(index)

    # ------------------------------------------------------------------
    def _index(self, pc: int) -> int:
        index = self._pc_index.get(pc)
        if index is None:
            index = entry_index(pc, self.config.entries)
            self._pc_index[pc] = index
        return index

    def _combined(self, pc: int, global_history: int, predicate_bits: int) -> int:
        cfg = self.config
        global_part = global_history & self._global_mask
        predicate_part = predicate_bits & self._predicate_mask
        local_part = self.local_histories.read(pc) & self._local_mask
        return (
            (local_part << (cfg.global_bits + cfg.predicate_bits))
            | (predicate_part << cfg.global_bits)
            | global_part
        )

    # ------------------------------------------------------------------
    def predict_with_output(
        self, pc: int, global_history: int, predicate_bits: int
    ) -> Tuple[bool, int]:
        """Return (direction, raw perceptron output)."""
        combined = self._combined(pc, global_history, predicate_bits)
        if self._flat is not None:
            output = self._flat.output(self._index(pc), combined)
        else:
            output = perceptron_output(self._rows[self._index(pc)], combined)
        return output >= 0, output

    def predict(self, pc: int, global_history: int, predicate_bits: int) -> bool:
        taken, _ = self.predict_with_output(pc, global_history, predicate_bits)
        return taken

    def update(
        self, pc: int, global_history: int, predicate_bits: int, outcome: bool
    ) -> None:
        """Train the entry for ``pc`` and update its local history."""
        combined = self._combined(pc, global_history, predicate_bits)
        if self._flat is not None:
            self._flat.train(self._index(pc), combined, outcome)
        else:
            cfg = self.config
            row = self._rows[self._index(pc)]
            output = perceptron_output(row, combined)
            if (output >= 0) != outcome or abs(output) <= cfg.theta:
                perceptron_train(row, combined, outcome, cfg.weight_min, cfg.weight_max)
        self.local_histories.update(pc, outcome)

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
