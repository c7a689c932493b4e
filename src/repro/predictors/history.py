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

from typing import List

from repro.predictors.base import fold_pc


class GlobalHistoryRegister:
    """A fixed-width shift register of branch/predicate outcome bits.

    Tokens are consecutive integers from 0, one per shifted-in bit, so the
    bit of token ``t`` sits ``_next_token - 1 - t`` places from the newest
    bit, and it is still in the register exactly while that distance is
    below ``bits``.
    """

    __slots__ = ("bits", "value", "_next_token", "_mask")

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise ValueError("history register needs at least one bit")
        self.bits = bits
        #: Current contents as an integer (bit 0 = most recent outcome).
        self.value = 0
        self._next_token = 0
        self._mask = (1 << bits) - 1

    # ------------------------------------------------------------------
    def push(self, outcome: bool) -> int:
        """Shift ``outcome`` in and return the token identifying this bit."""
        token = self._next_token
        self._next_token = token + 1
        self.value = ((self.value << 1) | (1 if outcome else 0)) & self._mask
        return token

    def push_resolved(self, outcome: bool) -> None:
        """Shift in an already-resolved outcome (its token is not returned).

        Equivalent to a :meth:`push` that the same instruction repairs to
        ``outcome``: for branches whose outcome is known when they push, and
        for the computed predicate values that the wish scheme's guard
        history and the predicate-aware scheme's mixed history fold in at
        compare completion.
        """
        self._next_token += 1
        self.value = ((self.value << 1) | (1 if outcome else 0)) & self._mask

    def repair(self, token: int, correct_outcome: bool) -> bool:
        """Correct the bit identified by ``token`` if it is still present.

        Returns ``True`` when the bit was found and corrected.  Bits that
        have already been shifted out cannot be repaired — by then they have
        stopped influencing predictions anyway.
        """
        shift = self._next_token - 1 - token
        if token < 0 or not 0 <= shift < self.bits:
            return False
        mask = 1 << shift
        if correct_outcome:
            self.value |= mask
        else:
            self.value &= ~mask
        return True

    def __repr__(self) -> str:
        return f"<GHR {self.value:0{self.bits}b}>"


class LocalHistoryTable:
    """A table of per-PC local history registers.

    The paper's second-level perceptron uses a 10-bit local history; PEP-PA
    uses 14-bit local histories.  Following the paper's own simplification,
    local histories are updated with resolved outcomes ("updated
    speculatively and correctly recovered on a branch misprediction"), which
    in a correct-path, trace-driven simulation is equivalent to updating with
    the actual outcome at prediction time.
    """

    __slots__ = ("entries", "bits", "histories", "_mask")

    def __init__(self, entries: int, bits: int) -> None:
        self.entries = entries
        self.bits = bits
        #: One history register per entry; :meth:`index` maps a PC to its
        #: entry, so a caller that planned the index reads it directly.
        self.histories: List[int] = [0] * entries
        self._mask = (1 << bits) - 1

    def index(self, pc: int) -> int:
        """The entry holding the local history of ``pc``."""
        return fold_pc(pc, 16) % self.entries

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

