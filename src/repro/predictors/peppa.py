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
from repro.predictors.base import PredictorSizeReport, fold_pc
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


class PEPPAPredictor:
    """Local-history predictor with predicate-selected dual histories."""

    def __init__(self, config: PEPPAConfig = PEPPAConfig()) -> None:
        self.config = config
        # Two local histories per branch entry, selected by the previous
        # value of the guarding predicate (False -> 0, True -> 1): entry
        # ``e``'s pair is ``_histories[2 * e : 2 * e + 2]``.
        self._histories = unsigned_array(config.local_bits, 2 * config.branch_entries)
        self.pht = CounterTable(config.pht_entries, bits=config.pht_counter_bits, initial=1)
        # Pure memos of the per-PC hashes (bounded by static branch count).
        self._entry_cache: dict = {}
        self._fold_cache: dict = {}

    # ------------------------------------------------------------------
    def _entry_index(self, pc: int) -> int:
        index = self._entry_cache.get(pc)
        if index is None:
            index = fold_pc(pc, 24) % self.config.branch_entries
            self._entry_cache[pc] = index
        return index

    def _pht_index(self, pc: int, history: int) -> int:
        fold = self._fold_cache.get(pc)
        if fold is None:
            fold = fold_pc(pc, self.config.local_bits)
            self._fold_cache[pc] = fold
        return (history ^ fold) & (self.config.pht_entries - 1)

    # ------------------------------------------------------------------
    def predict(self, pc: int, predicate_value: bool) -> bool:
        """Predict the branch at ``pc`` given the previous value of its
        guarding predicate register (as currently visible in the logical
        predicate register file)."""
        history = self._histories[2 * self._entry_index(pc) + (1 if predicate_value else 0)]
        return self.pht.taken(self._pht_index(pc, history))

    def update(self, pc: int, predicate_value: bool, outcome: bool) -> None:
        """Train with the resolved outcome, using the same selector that was
        used for the prediction."""
        slot = 2 * self._entry_index(pc) + (1 if predicate_value else 0)
        history = self._histories[slot]
        self.pht.train(self._pht_index(pc, history), outcome)
        mask = (1 << self.config.local_bits) - 1
        self._histories[slot] = ((history << 1) | (1 if outcome else 0)) & mask

    # ------------------------------------------------------------------
    def size_report(self) -> PredictorSizeReport:
        cfg = self.config
        report = PredictorSizeReport()
        report.add("peppa-local-histories", cfg.branch_entries * 2 * cfg.local_bits)
        report.add("peppa-pht", cfg.pht_entries * cfg.pht_counter_bits)
        return report
