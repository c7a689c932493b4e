"""PEP-PA: Predicate Enhanced Prediction (August et al., HPCA 1997).

The comparison predictor of section 4.3.  PEP-PA improves a local-history
branch predictor by correlating with the *previous definition* of the
branch's guarding predicate: each branch entry keeps **two** local history
registers, and the previous architectural value of the guarding predicate
register selects which one is used — both for making the prediction and for
updating it afterwards.

On an in-order machine the "previous definition" is well defined; on the
out-of-order core modelled here the logical predicate register file is
written at writeback time, out of program order, which can make the selector
stale or premature.  The paper attributes PEP-PA's poor showing on the
out-of-order core exactly to this effect ("it may be produced by the
out-of-order writing of the predicate registers, which causes it to choose
the local history with a wrong predicate"); the scheme layer reproduces that
behaviour by feeding this structure the logical predicate value as seen at
fetch time of the branch, which reflects whatever writebacks happened to
have completed by then.

The configuration defaults reproduce the 144 KB / 14-bit-local-history
predictor the paper simulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.predictors.base import DirectionPredictor, PredictorSizeReport, fold_pc
from repro.predictors.counters import CounterTable, unsigned_array


@dataclass(frozen=True)
class PEPPAConfig:
    """Geometry of the PEP-PA predictor (144 KB by default)."""

    local_bits: int = 14
    branch_entries: int = 40960
    pht_counter_bits: int = 2

    @property
    def pht_entries(self) -> int:
        return 1 << self.local_bits

    def storage_bits(self) -> int:
        histories = self.branch_entries * 2 * self.local_bits
        pht = self.pht_entries * self.pht_counter_bits
        return histories + pht


class PEPPAPredictor(DirectionPredictor):
    """Local-history predictor with predicate-selected dual histories.

    The kernels' ``history`` is the selector: the previous value of the
    branch's guarding predicate register, as currently visible in the
    logical predicate register file.  The same selector must train as
    predicted.
    """

    def __init__(self, config: PEPPAConfig = PEPPAConfig()) -> None:
        self.config = config
        # Two local histories per branch entry, selected by the previous
        # value of the guarding predicate (False -> 0, True -> 1): entry
        # ``e``'s pair is ``_histories[2 * e : 2 * e + 2]``.
        self._histories = unsigned_array(config.local_bits, 2 * config.branch_entries)
        self.pht = CounterTable(config.pht_entries, bits=config.pht_counter_bits, initial=1)

    # ------------------------------------------------------------------
    def plan_slot(self, pc: int, slot: int) -> Tuple[int, int, int]:
        """``(pc fold, first history of the pair, branch entry)`` of ``pc``."""
        cfg = self.config
        entry = fold_pc(pc, 24) % cfg.branch_entries
        return fold_pc(pc, cfg.local_bits), 2 * entry, entry

    def output_planned(self, fold: int, pair: int, selector: bool) -> int:
        history = self._histories[pair + (1 if selector else 0)]
        return 1 if self.pht.taken((history ^ fold) & (self.config.pht_entries - 1)) else -1

    def train_planned(self, fold: int, pair: int, selector: bool, outcome: bool) -> None:
        """Train with the resolved outcome, under the selector the prediction
        used, and shift the outcome into the selected history."""
        slot = pair + (1 if selector else 0)
        history = self._histories[slot]
        self.pht.train((history ^ fold) & (self.config.pht_entries - 1), outcome)
        mask = (1 << self.config.local_bits) - 1
        self._histories[slot] = ((history << 1) | (1 if outcome else 0)) & mask

    # ------------------------------------------------------------------
    def size_report(self) -> PredictorSizeReport:
        cfg = self.config
        report = PredictorSizeReport()
        report.add("peppa-local-histories", cfg.branch_entries * 2 * cfg.local_bits)
        report.add("peppa-pht", cfg.pht_entries * cfg.pht_counter_bits)
        return report
