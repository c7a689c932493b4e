"""Lane-axis predictor state: step N conventional predictors in lockstep.

The lane-batched kernel (:mod:`repro.pipeline.batched`) replays the branch
rows of one trace once per *timing-independent* scheme spec to obtain the
spec's prediction stream.  When a batch carries several such specs with the
same predictor geometry (e.g. ``conventional`` next to
``conventional(perfect_history=True)`` in an idealization study), their
evolutions differ only in predictor *state*, not in the access pattern: each
branch touches the same table entry, with the same history input, in every
lane.  :class:`ConventionalLaneBank` therefore keeps the divergent state —
the perceptron weight tables — as one ``(lanes, entries, num_weights)``
array and issues a single vectorized predict/train across all lanes per
branch.

State that is *provably identical* across lanes is deliberately stored
once, not per lane:

* the global history register — the scheme's speculative push + same-branch
  repair is net-equivalent to pushing the architectural outcome
  (:meth:`~repro.predictors.history.GlobalHistoryRegister.push_resolved`),
  which is lane-independent;
* the gshare table and the local history table — both train
  unconditionally toward the architectural outcome at trace-determined
  indices, so every lane would hold the same counters bit for bit.

Only the perceptron weights actually diverge: the training condition
(``wrong or |output| <= theta``) depends on each lane's own output.  The
arithmetic is exact integer arithmetic identical to
:func:`repro.predictors.perceptron.perceptron_output` /
:func:`~repro.predictors.perceptron.perceptron_train`; the hypothesis
parity tests drive a bank and independent scalar schemes with common random
branch streams and assert bit-identical predictions and records.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as _np

from repro.predictors.gshare import GsharePredictor
from repro.predictors.history import GlobalHistoryRegister, LocalHistoryTable
from repro.predictors.perceptron import PerceptronConfig, entry_index


class ConventionalLaneBank:
    """N same-geometry conventional predictors stepped in lockstep.

    ``profile`` is the geometry token produced by
    :meth:`repro.core.conventional.ConventionalScheme.lane_bank_profile`:
    ``(PerceptronConfig, gshare_history_bits, gshare_counter_bits)``.
    """

    def __init__(self, profile: Tuple[PerceptronConfig, int, int], lanes: int) -> None:
        if lanes < 1:
            raise ValueError("a lane bank needs at least one lane")
        config, gshare_bits, gshare_counter_bits = profile
        self.config = config
        self.lanes = lanes
        self.gshare = GsharePredictor(
            history_bits=gshare_bits, counter_bits=gshare_counter_bits, optimized=True
        )
        self.ghr = GlobalHistoryRegister(config.global_bits)
        self.local_histories = LocalHistoryTable(
            config.local_history_entries, config.local_bits
        )
        #: The lane axis: per-lane weight tables, bias weight at column 0.
        self.weights = _np.zeros(
            (lanes, config.entries, config.num_weights), dtype=_np.int32
        )
        self._global_mask = (1 << config.global_bits) - 1
        self._local_mask = (1 << config.local_bits) - 1
        history_bits = config.num_weights - 1
        #: Bit-extraction shifts for the vectorized bipolar input (history
        #: lengths beyond int64 would need the per-bit fallback; the paper's
        #: geometries are 40 bits).
        if history_bits <= 62:
            self._shifts = _np.arange(history_bits, dtype=_np.int64)
        else:  # pragma: no cover - no evaluated geometry is this wide
            self._shifts = None

    # ------------------------------------------------------------------
    def _input_bits(self, combined: int):
        """The history input as a 0/1 vector (bit ``i`` -> weight ``i+1``)."""
        if self._shifts is not None:
            return (combined >> self._shifts) & 1
        bits = _np.empty(self.config.num_weights - 1, dtype=_np.int64)
        for i in range(bits.shape[0]):  # pragma: no cover - >62-bit fallback
            bits[i] = (combined >> i) & 1
        return bits

    def step(self, pc: int, actual: bool) -> Tuple[bool, List[bool], List[bool]]:
        """Predict and train one branch across all lanes.

        Returns ``(fast, finals, overrides)``: the (shared) first-level
        prediction, and the per-lane final predictions and override flags.
        Exactly equivalent to each lane's ``ConventionalScheme`` performing
        ``on_branch_rename`` immediately followed by ``on_branch_resolved``
        — the order the pipeline's one-pass loop calls them in.
        """
        config = self.config
        history = self.ghr.value
        # First level (shared): predict, then train toward the outcome —
        # the same (pc, history) index serves both, see GsharePredictor.step.
        fast = self.gshare.step(pc, history, actual)

        # Second level, all lanes at once.
        local = self.local_histories.read_then_update(pc, actual)
        combined = ((local & self._local_mask) << config.global_bits) | (
            history & self._global_mask
        )
        index = entry_index(pc, config.entries)
        rows = self.weights[:, index, :]  # (lanes, num_weights) view
        bits = self._input_bits(combined)
        bipolar = bits * 2 - 1
        outputs = rows[:, 0] + rows[:, 1:] @ bipolar
        finals = outputs >= 0

        # Train the lanes that were wrong or under-confident (exact
        # perceptron_train arithmetic: every weight steps +/-1 and saturates
        # at the configured width).
        train = (finals != actual) | (_np.abs(outputs) <= config.theta)
        if train.any():
            deltas = _np.empty(config.num_weights, dtype=_np.int32)
            deltas[0] = 1 if actual else -1
            if actual:
                deltas[1:] = bipolar
            else:
                deltas[1:] = -bipolar
            trained = rows[train] + deltas
            _np.clip(trained, config.weight_min, config.weight_max, out=trained)
            rows[train] = trained

        # Shared speculative-push-plus-repair, collapsed to the resolved bit.
        self.ghr.push_resolved(actual)

        finals_list = finals.tolist()
        return fast, finals_list, [final != fast for final in finals_list]

    # ------------------------------------------------------------------
    def weight_row(self, lane: int, index: int) -> List[int]:
        """A copy of one lane's weights at ``index`` (parity tests)."""
        return self.weights[lane, index, :].tolist()
