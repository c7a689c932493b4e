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
from itertools import compress
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


#: ``_BITS8[b]`` is the eight low bits of ``b`` as booleans, least
#: significant first: the selector :func:`flat_perceptron_output` feeds to
#: :func:`itertools.compress` one history byte at a time.
_BITS8 = tuple(tuple(bool((byte >> k) & 1) for k in range(8)) for byte in range(256))


def flat_perceptron_output(
    weights: List[int], base: int, num_weights: int, combined_history: int
) -> int:
    """:func:`perceptron_output` over one row of a flat weight table.

    ``weights[base]`` is the bias weight of the row; history bit ``i`` maps
    to ``weights[base + 1 + i]``.  The dot product with bipolar bits is
    ``bias + 2 * (sum of weights whose bit is set) - (sum of all weights)``,
    which runs as three C-level passes instead of one Python step per bit;
    the integer arithmetic is exact, so the result equals the reference.
    """
    row = weights[base + 1 : base + num_weights]
    bits = _BITS8[combined_history & 255]
    history = combined_history >> 8
    while history:
        bits += _BITS8[history & 255]
        history >>= 8
    return weights[base] + 2 * sum(compress(row, bits)) - sum(row)


def flat_perceptron_train(
    weights: List[int],
    base: int,
    num_weights: int,
    combined_history: int,
    outcome: bool,
    weight_min: int,
    weight_max: int,
) -> None:
    """:func:`perceptron_train` over one row of a flat weight table.

    Weights never leave ``[weight_min, weight_max]``, so the reference's
    clamp of ``w + 1`` is ``w < weight_max`` and that of ``w - 1`` is
    ``w > weight_min``: one comparison per weight, no ``min``/``max`` call.
    """
    history = combined_history
    if outcome:
        value = weights[base]
        if value < weight_max:
            weights[base] = value + 1
        for i in range(base + 1, base + num_weights):
            value = weights[i]
            if history & 1:
                if value < weight_max:
                    weights[i] = value + 1
            elif value > weight_min:
                weights[i] = value - 1
            history >>= 1
    else:
        value = weights[base]
        if value > weight_min:
            weights[base] = value - 1
        for i in range(base + 1, base + num_weights):
            value = weights[i]
            if history & 1:
                if value > weight_min:
                    weights[i] = value - 1
            elif value < weight_max:
                weights[i] = value + 1
            history >>= 1


class FlatWeightTable:
    """A flat perceptron weight table with a per-row output memo.

    Row ``r`` occupies ``weights[r * num_weights : (r + 1) * num_weights]``.
    A scheme predicts a row and later trains it with the same combined
    history; the memo keeps the last ``(combined history, output)`` per row
    so the training reuses the prediction's dot product.  Training a row
    drops its entry, so the memo is a pure cache of the weights: at most one
    entry per row, and never pickled (checkpoints carry only the weights).
    """

    __slots__ = ("weights", "num_weights", "theta", "weight_min", "weight_max", "_memo")

    def __init__(
        self, entries: int, num_weights: int, theta: int, weight_min: int, weight_max: int
    ) -> None:
        self.weights = [0] * (entries * num_weights)
        self.num_weights = num_weights
        self.theta = theta
        self.weight_min = weight_min
        self.weight_max = weight_max
        self._memo: dict = {}

    def __getstate__(self):
        return (self.weights, self.num_weights, self.theta, self.weight_min, self.weight_max)

    def __setstate__(self, state) -> None:
        (
            self.weights,
            self.num_weights,
            self.theta,
            self.weight_min,
            self.weight_max,
        ) = state
        self._memo = {}

    def row(self, index: int) -> List[int]:
        base = index * self.num_weights
        return self.weights[base : base + self.num_weights]

    def output(self, index: int, combined_history: int) -> int:
        """The perceptron output of row ``index`` (memoised)."""
        cached = self._memo.get(index)
        if cached is not None and cached[0] == combined_history:
            return cached[1]
        value = flat_perceptron_output(
            self.weights, index * self.num_weights, self.num_weights, combined_history
        )
        self._memo[index] = (combined_history, value)
        return value

    def train(self, index: int, combined_history: int, outcome: bool) -> None:
        """Apply the threshold training rule to row ``index``."""
        output = self.output(index, combined_history)
        if (output >= 0) != outcome or abs(output) <= self.theta:
            flat_perceptron_train(
                self.weights,
                index * self.num_weights,
                self.num_weights,
                combined_history,
                outcome,
                self.weight_min,
                self.weight_max,
            )
            del self._memo[index]


class PerceptronPredictor(DirectionPredictor):
    """A global+local perceptron predictor.

    Weight storage has two backends sharing identical arithmetic: the
    reference list-of-rows layout (``optimized=False``), and by default a
    :class:`FlatWeightTable` (one flat list indexed by
    ``entry * num_weights``, plus the per-row output memo).  The hypothesis
    parity tests drive both backends with common random streams and assert
    identical predictions and weight state.
    """

    def __init__(
        self,
        config: Optional[PerceptronConfig] = None,
        optimized: bool = True,
    ) -> None:
        self.config = config or PerceptronConfig()
        cfg = self.config
        self.optimized = optimized
        self._global_mask = (1 << cfg.global_bits) - 1
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

    def _combined_history(self, pc: int, global_history: int) -> int:
        global_part = global_history & self._global_mask
        local_part = self.local_histories.read(pc) & self._local_mask
        return (local_part << self.config.global_bits) | global_part

    # ------------------------------------------------------------------
    def predict_with_output(self, pc: int, global_history: int) -> Tuple[bool, int]:
        """Return (direction, raw perceptron output)."""
        combined = self._combined_history(pc, global_history)
        if self._flat is not None:
            output = self._flat.output(self._index(pc), combined)
        else:
            output = perceptron_output(self._rows[self._index(pc)], combined)
        return output >= 0, output

    def predict(self, pc: int, global_history: int) -> bool:
        taken, _ = self.predict_with_output(pc, global_history)
        return taken

    def update(self, pc: int, global_history: int, outcome: bool) -> None:
        """Train the entry for ``pc`` and update its local history."""
        combined = self._combined_history(pc, global_history)
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
        report.add("perceptron-table", cfg.entries * cfg.num_weights * cfg.weight_bits)
        report.add("local-history-table", self.local_histories.storage_bits())
        report.add("ghr", cfg.global_bits)
        return report
