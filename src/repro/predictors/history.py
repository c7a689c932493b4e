"""Global and local history structures with speculative update and repair.

The history machinery is where the conventional and the predicate-prediction
schemes differ most (section 3.3 of the paper):

* A conventional predictor speculatively updates the global history register
  (GHR) at prediction time and the *same branch* repairs it on a
  misprediction, so no correct-path instruction ever observes a stale bit.
* The predicate predictor's GHR is updated by *compare* instructions, but
  recovery is triggered by the predicate *consumer* (a branch or an
  if-converted instruction).  Compares fetched between the producer and the
  consumer observe the corrupted bit — a genuine accuracy cost that the
  idealized experiments remove.

:class:`GlobalHistoryRegister` therefore assigns a *token* to every pushed
bit so a scheme can later repair exactly that bit (if it is still within the
register) when the computed value disagrees with the prediction.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.predictors.base import fold_pc


class GlobalHistoryRegister:
    """A fixed-width shift register of branch/predicate outcome bits."""

    __slots__ = ("bits", "_value", "_next_token", "_tokens")

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise ValueError("history register needs at least one bit")
        self.bits = bits
        self._value = 0
        self._next_token = 0
        #: tokens of the bits currently in the register, oldest first.  A
        #: bounded deque makes every push O(1) (a plain list pays an O(bits)
        #: ``pop(0)`` once the register is full).
        self._tokens: Deque[int] = deque(maxlen=bits)

    # ------------------------------------------------------------------
    @property
    def value(self) -> int:
        """Current contents as an integer (bit 0 = most recent outcome)."""
        return self._value

    # ------------------------------------------------------------------
    def push(self, outcome: bool) -> int:
        """Shift ``outcome`` in and return the token identifying this bit."""
        token = self._next_token
        self._next_token += 1
        self._value = ((self._value << 1) | (1 if outcome else 0)) & ((1 << self.bits) - 1)
        self._tokens.append(token)  # maxlen evicts the oldest token
        return token

    def push_resolved(self, outcome: bool) -> None:
        """Shift in an already-resolved outcome (no token bookkeeping).

        Equivalent to a :meth:`push` that the same instruction repairs to
        ``outcome``.  For bits no one repairs: the computed predicate values
        that the wish scheme's guard history and the predicate-aware
        scheme's mixed history fold in at compare completion.
        """
        self._value = (
            (self._value << 1) | (1 if outcome else 0)
        ) & ((1 << self.bits) - 1)
        self._tokens.append(self._next_token)  # keep repair() positions valid
        self._next_token += 1

    def repair(self, token: int, correct_outcome: bool) -> bool:
        """Correct the bit identified by ``token`` if it is still present.

        Returns ``True`` when the bit was found and corrected.  Bits that
        have already been shifted out cannot be repaired — by then they have
        stopped influencing predictions anyway.
        """
        try:
            position_from_old = self._tokens.index(token)
        except ValueError:
            return False
        # tokens list is oldest-first; bit 0 of _value is the newest bit.
        shift = len(self._tokens) - 1 - position_from_old
        mask = 1 << shift
        if correct_outcome:
            self._value |= mask
        else:
            self._value &= ~mask
        return True

    def __repr__(self) -> str:
        return f"<GHR {self._value:0{self.bits}b}>"


class LocalHistoryTable:
    """A table of per-PC local history registers.

    The paper's second-level perceptron uses a 10-bit local history; PEP-PA
    uses 14-bit local histories.  Following the paper's own simplification,
    local histories are updated with resolved outcomes ("updated
    speculatively and correctly recovered on a branch misprediction"), which
    in a correct-path, trace-driven simulation is equivalent to updating with
    the actual outcome at prediction time.
    """

    __slots__ = ("entries", "bits", "histories", "_mask", "_pc_index")

    def __init__(self, entries: int, bits: int) -> None:
        self.entries = entries
        self.bits = bits
        #: One history register per entry; :meth:`index` maps a PC to its
        #: entry, so a caller that planned the index reads it directly.
        self.histories: List[int] = [0] * entries
        self._mask = (1 << bits) - 1
        # Pure memo of the pc -> index hash: the set of keys is bounded by
        # the static instructions of a program, and the hash is hot (every
        # perceptron access folds a PC through here).  Never pickled.
        self._pc_index: Dict[int, int] = {}

    def __getstate__(self):
        return self.entries, self.bits, self.histories

    def __setstate__(self, state) -> None:
        self.entries, self.bits, self.histories = state
        self._mask = (1 << self.bits) - 1
        self._pc_index = {}

    def index(self, pc: int) -> int:
        """The entry holding the local history of ``pc``."""
        index = self._pc_index.get(pc)
        if index is None:
            index = fold_pc(pc, 16) % self.entries
            self._pc_index[pc] = index
        return index

    def read(self, pc: int) -> int:
        return self.histories[self.index(pc)]

    def update(self, pc: int, outcome: bool) -> None:
        self.shift(self.index(pc), outcome)

    def shift(self, index: int, outcome: bool) -> None:
        """Shift ``outcome`` into the history of entry ``index``."""
        histories = self.histories
        histories[index] = ((histories[index] << 1) | (1 if outcome else 0)) & self._mask

    def storage_bits(self) -> int:
        return self.entries * self.bits

    def __len__(self) -> int:
        return self.entries

