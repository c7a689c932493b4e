"""Perceptron predictor (Jiménez & Lin, HPCA 2001) with global + local history.

This is the paper's second-level branch predictor and — re-indexed by compare
PC — the basis of the predicate predictor (section 3.3): "The Perceptron
branch predictor ... obtains a very high accuracy ... the slow computation
time of the prediction function may suppose an important drawback to use
perceptrons as a single cycle branch predictor.  As explained before, our
scheme supports multicycle predicate predictions, so it makes the perceptron
a good candidate."

The implementation follows the original algorithm:

* each table entry holds one signed weight per history bit plus a bias
  weight;
* the prediction is the sign of the dot product between the weights and the
  bipolar (+1/−1) history bits;
* training bumps each weight towards agreement with the outcome whenever the
  prediction was wrong or the magnitude of the output was below the
  threshold θ = ⌊1.93·h + 14⌋.

The history input concatenates ``global_bits`` bits of global history with
``local_bits`` bits of per-PC local history (Table 1: 30-bit GHR, 10-bit
LHR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.predictors.base import DirectionPredictor, PredictorSizeReport, fold_pc
from repro.predictors.history import LocalHistoryTable


@dataclass(frozen=True)
class PerceptronConfig:
    """Geometry of a perceptron predictor.

    The default values reproduce the 148 KB configuration of Table 1:
    30 bits of global history, 10 bits of local history, 8-bit weights and
    as many entries as fit in the 148 KB budget
    (table + local-history storage together come to ~148 KB at 3634 entries).
    """

    global_bits: int = 30
    local_bits: int = 10
    weight_bits: int = 8
    entries: int = 3634
    local_history_entries: int = 2048

    @property
    def num_weights(self) -> int:
        return self.global_bits + self.local_bits + 1

    @property
    def theta(self) -> int:
        history_length = self.global_bits + self.local_bits
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
        return table + local + self.global_bits


#: Pure memo of the pc -> table-entry hash, shared by every predictor
#: instance and every lane of a batched run: the fold is a pure function of
#: ``(pc, entries)`` and the key set is bounded by the static branch PCs of
#: the simulated programs.
_ENTRY_INDEX_MEMO: dict = {}


def entry_index(pc: int, entries: int) -> int:
    """The perceptron table entry of ``pc`` (memoised fold-and-mod hash)."""
    key = (pc, entries)
    index = _ENTRY_INDEX_MEMO.get(key)
    if index is None:
        index = fold_pc(pc, 24) % entries
        _ENTRY_INDEX_MEMO[key] = index
    return index


def perceptron_output(row: List[int], combined_history: int) -> int:
    """Dot product of a weight row with bipolar history bits (+ bias).

    ``row[0]`` is the bias weight; history bit ``i`` maps to ``row[i + 1]``.
    Shared by the branch perceptron and the predicate perceptron.
    """
    total = row[0]
    history = combined_history
    for i in range(1, len(row)):
        if history & 1:
            total += row[i]
        else:
            total -= row[i]
        history >>= 1
    return total


def perceptron_train(
    row: List[int],
    combined_history: int,
    outcome: bool,
    weight_min: int,
    weight_max: int,
) -> None:
    """Apply the perceptron learning rule to one weight row in place."""
    delta = 1 if outcome else -1
    row[0] = min(weight_max, max(weight_min, row[0] + delta))
    history = combined_history
    for i in range(1, len(row)):
        bit_agrees = bool(history & 1) == outcome
        step = 1 if bit_agrees else -1
        row[i] = min(weight_max, max(weight_min, row[i] + step))
        history >>= 1


def flat_perceptron_output(
    weights: List[int], base: int, num_weights: int, combined_history: int
) -> int:
    """:func:`perceptron_output` over one row of a flat weight table.

    ``weights[base]`` is the bias weight of the row; history bit ``i`` maps
    to ``weights[base + 1 + i]``.  Identical arithmetic to the row-based
    reference, without the per-row list indirection.
    """
    total = weights[base]
    history = combined_history
    for i in range(base + 1, base + num_weights):
        if history & 1:
            total += weights[i]
        else:
            total -= weights[i]
        history >>= 1
    return total


def flat_perceptron_train(
    weights: List[int],
    base: int,
    num_weights: int,
    combined_history: int,
    outcome: bool,
    weight_min: int,
    weight_max: int,
) -> None:
    """:func:`perceptron_train` over one row of a flat weight table."""
    delta = 1 if outcome else -1
    weights[base] = min(weight_max, max(weight_min, weights[base] + delta))
    history = combined_history
    for i in range(base + 1, base + num_weights):
        bit_agrees = bool(history & 1) == outcome
        step = 1 if bit_agrees else -1
        weights[i] = min(weight_max, max(weight_min, weights[i] + step))
        history >>= 1


class PerceptronPredictor(DirectionPredictor):
    """A global+local perceptron predictor.

    Weight storage has two backends sharing identical arithmetic: the
    reference list-of-rows layout (``optimized=False``), and by default one
    flat list indexed by ``entry * num_weights``, which removes a list indirection and a function
    call from every prediction.  The hypothesis parity tests drive both
    backends with common random streams and assert identical predictions
    and weight state.
    """

    def __init__(
        self,
        config: Optional[PerceptronConfig] = None,
        optimized: bool = True,
    ) -> None:
        self.config = config or PerceptronConfig()
        cfg = self.config
        self.optimized = optimized
        self._num_weights = cfg.num_weights
        self._global_mask = (1 << cfg.global_bits) - 1
        self._local_mask = (1 << cfg.local_bits) - 1
        if self.optimized:
            self._flat: Optional[List[int]] = [0] * (cfg.entries * cfg.num_weights)
            self._rows: Optional[List[List[int]]] = None
        else:
            self._flat = None
            self._rows = [[0] * cfg.num_weights for _ in range(cfg.entries)]
        self.local_histories = LocalHistoryTable(cfg.local_history_entries, cfg.local_bits)
        self._pc_index: dict = {}

    # ------------------------------------------------------------------
    @property
    def _weights(self) -> List[List[int]]:
        """Row view of the weight table (both backends), for introspection."""
        if self._rows is not None:
            return self._rows
        nw = self._num_weights
        flat = self._flat
        return [flat[base : base + nw] for base in range(0, len(flat), nw)]

    def weight_row(self, index: int) -> List[int]:
        """A copy of the weights of entry ``index`` (parity tests)."""
        if self._rows is not None:
            return list(self._rows[index])
        base = index * self._num_weights
        return self._flat[base : base + self._num_weights]

    # ------------------------------------------------------------------
    def _index(self, pc: int) -> int:
        index = self._pc_index.get(pc)
        if index is None:
            index = entry_index(pc, self.config.entries)
            self._pc_index[pc] = index
        return index

    def _output(self, row: List[int], combined_history: int) -> int:
        return perceptron_output(row, combined_history)

    def _combined_history(self, pc: int, global_history: int) -> int:
        global_part = global_history & self._global_mask
        local_part = self.local_histories.read(pc) & self._local_mask
        return (local_part << self.config.global_bits) | global_part

    # ------------------------------------------------------------------
    def predict_with_output(self, pc: int, global_history: int) -> Tuple[bool, int]:
        """Return (direction, raw perceptron output)."""
        combined = self._combined_history(pc, global_history)
        if self._flat is not None:
            base = self._index(pc) * self._num_weights
            output = flat_perceptron_output(self._flat, base, self._num_weights, combined)
        else:
            output = self._output(self._rows[self._index(pc)], combined)
        return output >= 0, output

    def predict(self, pc: int, global_history: int) -> bool:
        taken, _ = self.predict_with_output(pc, global_history)
        return taken

    def update(self, pc: int, global_history: int, outcome: bool) -> None:
        """Train the entry for ``pc`` and update its local history."""
        cfg = self.config
        combined = self._combined_history(pc, global_history)
        if self._flat is not None:
            nw = self._num_weights
            base = self._index(pc) * nw
            output = flat_perceptron_output(self._flat, base, nw, combined)
            if (output >= 0) != outcome or abs(output) <= cfg.theta:
                flat_perceptron_train(
                    self._flat, base, nw, combined, outcome, cfg.weight_min, cfg.weight_max
                )
        else:
            row = self._rows[self._index(pc)]
            output = self._output(row, combined)
            prediction = output >= 0
            if prediction != outcome or abs(output) <= cfg.theta:
                self._train_row(row, combined, outcome)
        self.local_histories.update(pc, outcome)

    def _train_row(self, row: List[int], combined_history: int, outcome: bool) -> None:
        cfg = self.config
        perceptron_train(row, combined_history, outcome, cfg.weight_min, cfg.weight_max)

    # ------------------------------------------------------------------
    def size_report(self) -> PredictorSizeReport:
        cfg = self.config
        report = PredictorSizeReport()
        report.add("perceptron-table", cfg.entries * cfg.num_weights * cfg.weight_bits)
        report.add("local-history-table", self.local_histories.storage_bits())
        report.add("ghr", cfg.global_bits)
        return report
