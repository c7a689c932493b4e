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


def entry_index(pc: int, entries: int) -> int:
    """The perceptron table entry of ``pc`` (fold-and-mod hash)."""
    return fold_pc(pc, 24) % entries


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


#: Byte tables of :func:`_spread_tables`, one pair per lane width, built on
#: first use.
_SPREAD_TABLES: dict = {}


def _spread_tables(lane: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(forward, reversed)`` byte tables of one lane width.

    ``forward[b]`` puts bit ``t`` of the byte ``b`` at lane ``t`` (a 1 at
    bit ``t * lane``); ``reversed[b]`` puts it at lane ``7 - t``.
    """
    tables = _SPREAD_TABLES.get(lane)
    if tables is None:
        forward = [0] * 256
        backward = [0] * 256
        for byte in range(1, 256):
            low = (byte & -byte).bit_length() - 1
            rest = byte & (byte - 1)
            forward[byte] = forward[rest] | (1 << (low * lane))
            backward[byte] = backward[rest] | (1 << ((7 - low) * lane))
        tables = _SPREAD_TABLES[lane] = (tuple(forward), tuple(backward))
    return tables


class FlatWeightTable:
    """A packed perceptron weight table with a per-row output memo.

    Row ``r`` is one Python int, ``rows[r]``, of ``num_weights + 1`` lanes
    of ``lane`` bits each.  Lane ``k < num_weights`` holds weight ``k``
    (``k = 0`` the bias, ``k = i + 1`` history bit ``i``) plus ``offset =
    -weight_min``, so every lane is a non-negative value below
    ``2**weight_bits`` (``weight_max - weight_min`` is ``2**weight_bits -
    1``); the top lane holds the sum of those lanes.  The
    lane width is the least one in which ``num_weights`` such values sum
    without a carry, so no lane ever spills into the next.

    Weights are read against a history extended with a set bit 0 for the
    bias: ``bits = (combined_history << 1) | 1``.

    * **Output.** Multiplying a row by the bit-reversed spread of ``bits``
      (a 1 at lane ``top - j`` for every set bit ``j``) sums the lanes of
      the set bits in lane ``top``, carry-free; the output is twice that
      sum minus the row total, corrected for the offsets.
    * **Training.** One add and one subtract of lane-wise 1s move every
      weight towards the outcome; lanes already at a bound are masked out
      first (a lane's bit ``weight_bits`` after adding 1, or ``2**weight_bits
      - 1``, flags it ``saturated`` or ``nonzero``), which is the reference
      clamp.

    The arithmetic is exact, so outputs and weights equal the per-bit
    reference (:func:`perceptron_output`, :func:`perceptron_train`).  A
    scheme predicts a row and later trains it with the same combined
    history; the memo keeps the last ``(combined history, output)`` per row
    so the training reuses the prediction's output.  Training a row drops
    its entry, so the memo is a pure cache of the rows: at most one entry
    per row, and never pickled.
    """

    __slots__ = (
        "rows",
        "num_weights",
        "theta",
        "weight_min",
        "weight_max",
        "_memo",
        "_forward",
        "_reversed",
        "_lane",
        "_step",
        "_nbytes",
        "_top",
        "_total",
        "_mask",
        "_ones",
        "_full",
        "_weight_bits",
        "_offset",
    )

    def __init__(
        self, entries: int, num_weights: int, theta: int, weight_min: int, weight_max: int
    ) -> None:
        self.num_weights = num_weights
        self.theta = theta
        self.weight_min = weight_min
        self.weight_max = weight_max
        self._geometry()
        zero = self._offset * self._ones + ((num_weights * self._offset) << self._total)
        self.rows = [zero] * entries
        self._memo: dict = {}

    def _geometry(self) -> None:
        """Derive the lane layout from the weight range and count."""
        n = self.num_weights
        span = self.weight_max - self.weight_min
        # A lane also holds a weight plus ``span`` while training, so it is
        # never narrower than ``2 * span`` needs (one weight and no history).
        lane = (max(n, 2) * span).bit_length()
        self._lane = lane
        self._weight_bits = span.bit_length()
        self._offset = -self.weight_min
        self._step = 8 * lane
        self._nbytes = (n + 7) // 8
        self._top = (8 * self._nbytes - 1) * lane
        self._total = n * lane
        self._mask = (1 << lane) - 1
        self._ones = sum(1 << (k * lane) for k in range(n))
        self._full = span * self._ones
        self._forward, self._reversed = _spread_tables(lane)

    def __getstate__(self):
        return (self.rows, self.num_weights, self.theta, self.weight_min, self.weight_max)

    def __setstate__(self, state) -> None:
        (
            self.rows,
            self.num_weights,
            self.theta,
            self.weight_min,
            self.weight_max,
        ) = state
        self._geometry()
        self._memo = {}

    def row(self, index: int) -> List[int]:
        """The weights of row ``index``, bias first."""
        packed = self.rows[index]
        lane, mask, offset = self._lane, self._mask, self._offset
        return [((packed >> (k * lane)) & mask) - offset for k in range(self.num_weights)]

    def output(self, index: int, combined_history: int) -> int:
        """The perceptron output of row ``index`` (memoised)."""
        cached = self._memo.get(index)
        if cached is not None and cached[0] == combined_history:
            return cached[1]
        value = self.compute(index, combined_history)
        self._memo[index] = (combined_history, value)
        return value

    def compute(self, index: int, combined_history: int) -> int:
        """The perceptron output of row ``index``, computed afresh.

        ``combined_history`` has at most ``num_weights - 1`` bits.
        """
        bits = (combined_history << 1) | 1
        spread = 0
        step = self._step
        table = self._reversed
        for byte in bits.to_bytes(self._nbytes, "little"):
            spread = (spread << step) | table[byte]
        packed = self.rows[index]
        return (
            2 * (((packed * spread) >> self._top) & self._mask)
            - (packed >> self._total)
            - self._offset * (2 * bits.bit_count() - self.num_weights)
        )

    def train(self, index: int, combined_history: int, outcome: bool) -> None:
        """Apply the threshold training rule to row ``index``."""
        cached = self._memo.get(index)
        if cached is not None and cached[0] == combined_history:
            output = cached[1]
        else:
            output = self.output(index, combined_history)
        if (output >= 0) != outcome or abs(output) <= self.theta:
            bits = ((combined_history << 1) | 1).to_bytes(self._nbytes, "big")
            spread = 0
            step = self._step
            table = self._forward
            for byte in bits:
                spread = (spread << step) | table[byte]
            ones = self._ones
            if outcome:
                up, down = spread, ones ^ spread
            else:
                up, down = ones ^ spread, spread
            packed = self.rows[index]
            weight_bits = self._weight_bits
            saturated = (packed + ones) >> weight_bits
            nonzero = (packed + self._full) >> weight_bits
            up &= ~saturated
            down &= nonzero
            self.rows[index] = (
                packed
                + up
                - down
                + ((up.bit_count() - down.bit_count()) << self._total)
            )
            del self._memo[index]


class PerceptronTable(DirectionPredictor):
    """The planned kernels every perceptron-family predictor shares.

    A plan is ``(row, local_slot)``: a weight row and a local-history entry.
    The kernels read the row against the local history of ``local_slot``
    concatenated above ``history_bits`` bits of ``history`` (the global
    input, plus whatever other input a subclass folds into it), and training
    shifts the outcome into that local history.  Subclasses provide the
    config, :meth:`plan_slot` and :meth:`size_report`.

    Weight storage has two backends with equal results: by default a
    :class:`FlatWeightTable` (one packed int per row, plus the per-row
    output memo), and the reference list-of-rows layout with per-bit
    arithmetic (``optimized=False``).  The hypothesis parity tests drive
    both with common random streams and assert identical predictions and
    weight state.  ``rows`` overrides the reference backend's row count
    (``config.entries``).
    """

    def __init__(
        self, config, history_bits: int, optimized: bool = True, rows: Optional[int] = None
    ) -> None:
        self.config = config
        self.optimized = optimized
        self._history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        if optimized:
            self._flat: Optional[FlatWeightTable] = FlatWeightTable(
                config.entries,
                config.num_weights,
                config.theta,
                config.weight_min,
                config.weight_max,
            )
            self._rows: Optional[List[List[int]]] = None
        else:
            self._flat = None
            rows = config.entries if rows is None else rows
            self._rows = [[0] * config.num_weights for _ in range(rows)]
        self.local_histories = LocalHistoryTable(
            config.local_history_entries, config.local_bits
        )

    # ------------------------------------------------------------------
    @property
    def _weights(self) -> List[List[int]]:
        """Row view of the weight table (both backends), for introspection."""
        if self._rows is not None:
            return self._rows
        return [self._flat.row(index) for index in range(self.config.entries)]

    def weight_row(self, index: int) -> List[int]:
        """A copy of the weights of row ``index`` (parity tests)."""
        if self._rows is not None:
            return list(self._rows[index])
        return self._flat.row(index)

    # ------------------------------------------------------------------
    def output_planned(self, row: int, local_slot: int, history: int) -> int:
        """The raw perceptron output of a planned target."""
        combined = (self.local_histories.histories[local_slot] << self._history_bits) | (
            history & self._history_mask
        )
        if self._flat is not None:
            return self._flat.output(row, combined)
        return perceptron_output(self._rows[row], combined)

    def train_planned(self, row: int, local_slot: int, history: int, outcome: bool) -> None:
        """Train a planned target with its resolved outcome.

        The local history is read again here: another target may have
        shifted it since the prediction.
        """
        local_histories = self.local_histories
        combined = (local_histories.histories[local_slot] << self._history_bits) | (
            history & self._history_mask
        )
        if self._flat is not None:
            self._flat.train(row, combined, outcome)
        else:
            cfg = self.config
            weights = self._rows[row]
            output = perceptron_output(weights, combined)
            if (output >= 0) != outcome or abs(output) <= cfg.theta:
                perceptron_train(weights, combined, outcome, cfg.weight_min, cfg.weight_max)
        local_histories.shift(local_slot, outcome)


class PerceptronPredictor(PerceptronTable):
    """A global+local perceptron predictor, one row per (hashed) branch PC."""

    def __init__(
        self,
        config: Optional[PerceptronConfig] = None,
        optimized: bool = True,
    ) -> None:
        config = config or PerceptronConfig()
        super().__init__(config, config.global_bits, optimized)

    def plan_slot(self, pc: int, slot: int) -> Tuple[int, int, int]:
        """``(row, local_slot, row)`` of the branch at ``pc``."""
        row = entry_index(pc, self.config.entries)
        return row, self.local_histories.index(pc), row

    def size_report(self) -> PredictorSizeReport:
        cfg = self.config
        report = PredictorSizeReport()
        report.add("perceptron-table", cfg.entries * cfg.num_weights * cfg.weight_bits)
        report.add("local-history-table", self.local_histories.storage_bits())
        report.add("ghr", cfg.global_bits)
        return report
