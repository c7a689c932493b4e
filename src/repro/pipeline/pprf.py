"""The Predicate Physical Register File (PPRF).

Section 3.1/3.2 of the paper: every predicate (like every other register) is
renamed to a physical location.  The predicate prediction produced at the
compare's fetch is written into the physical register allocated at rename;
the computed value is written into the *same* physical register when the
compare executes.  Consumers (branches and if-converted instructions) rename
their guarding predicate and read that physical register — if the compare
has already executed they read the computed value (early-resolved, always
correct), otherwise they read the prediction.

For selective predicate prediction each entry is extended with three fields
(Figure 3): a confidence bit, a speculative bit, and a ROB pointer to the
first speculative consumer (used to flush the pipeline from that point when
the prediction turns out wrong).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(slots=True)
class PPRFEntry:
    """One physical predicate register."""

    physical_id: int
    #: Logical predicate register this physical register currently renames.
    logical_index: int
    #: PC of the compare that allocated the entry.
    producer_pc: int
    #: Which of the compare's two predicate targets this entry holds (0/1).
    producer_slot: int
    #: Dynamic sequence number of the producer compare.
    producer_seq: int
    #: Predicted value written at rename (None when no prediction was made).
    predicted_value: Optional[bool] = None
    #: Computed value written at execute (None until the compare executes).
    computed_value: Optional[bool] = None
    #: Cycle at which the prediction was written (producer rename).
    predicted_cycle: Optional[int] = None
    #: Cycle at which the computed value becomes available (producer complete).
    computed_cycle: Optional[int] = None
    #: Speculative bit: set when a prediction is written, cleared when the
    #: computed value arrives.
    speculative: bool = True
    #: Confidence bit: set when the confidence estimator deemed the
    #: prediction usable for speculation.
    confident: bool = False
    #: ROB pointer: sequence number of the first speculative consumer.
    rob_pointer: Optional[int] = None
    #: The producer's per-target plan (predictor and confidence positions),
    #: for training at completion.
    target: Optional[tuple] = None
    #: Global history the prediction read (training uses the same value).
    history: int = 0
    #: Token identifying the global-history bit pushed for this prediction.
    history_token: Optional[int] = None

    def value_at(self, cycle: int) -> Optional[bool]:
        """Value a consumer reading this entry at ``cycle`` observes."""
        if self.computed_cycle is not None and self.computed_cycle <= cycle:
            return self.computed_value
        return self.predicted_value

    def is_resolved_at(self, cycle: int) -> bool:
        """True when the computed value is available at ``cycle``."""
        return self.computed_cycle is not None and self.computed_cycle <= cycle


class PredicatePhysicalRegisterFile:
    """Rename map + physical storage for predicate registers.

    The file is unbounded (physical ids grow monotonically) because the
    trace-driven pipeline never needs to reclaim predicate registers to make
    progress; the number of *live* mappings is still exactly 64, one per
    logical predicate register.
    """

    def __init__(self) -> None:
        self._next_id = 0
        #: logical predicate index -> current physical entry.
        self._map: Dict[int, PPRFEntry] = {}
        self.allocations = 0

    # ------------------------------------------------------------------
    def allocate(
        self,
        logical_index: int,
        producer_pc: int,
        producer_slot: int,
        producer_seq: int,
        predicted_value: Optional[bool] = None,
        predicted_cycle: Optional[int] = None,
        confident: bool = False,
        target: Optional[tuple] = None,
        history: int = 0,
    ) -> PPRFEntry:
        """Allocate a fresh physical register for a compare target, holding
        its prediction (if any) with the speculative bit set."""
        # Every field positionally: the predicate scheme allocates one entry
        # per predicted target, and a keyword dataclass call costs more.
        entry = PPRFEntry(
            self._next_id,
            logical_index,
            producer_pc,
            producer_slot,
            producer_seq,
            predicted_value,
            None,
            predicted_cycle,
            None,
            True,
            confident,
            None,
            target,
            history,
        )
        self._next_id += 1
        self.allocations += 1
        self._map[logical_index] = entry
        return entry

    def current(self, logical_index: int) -> Optional[PPRFEntry]:
        """The physical entry a consumer of ``p<logical_index>`` renames to."""
        return self._map.get(logical_index)

    def live_entries(self) -> List[PPRFEntry]:
        return list(self._map.values())

    def __len__(self) -> int:
        return len(self._map)
