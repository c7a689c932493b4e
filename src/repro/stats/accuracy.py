"""Branch-prediction accuracy accounting.

Every scheme adds one outcome per dynamic conditional branch.  Keeping the
full per-branch vector (rather than only aggregate counts) is what allows
the Figure 6b breakdown, which needs to intersect "early-resolved in the
predicate scheme" with "mispredicted by the conventional scheme" on a
per-dynamic-branch basis.

The vector is stored as two columns — branch PCs in an ``array('q')`` and
one flags byte per branch — plus running aggregate counts, so a result
costs nine bytes per branch, its aggregates are O(1) and it unpickles
without any per-branch Python work.  :class:`BranchRecord` is the
per-branch *read view* built from the columns on demand.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import List, Optional

#: Flag bits of one branch's byte in :attr:`BranchAccuracy.flags`.
ACTUAL = 1
PREDICTED = 2
HAS_FETCH = 4
FETCH = 8
EARLY = 16


def _table(predicate) -> bytes:
    """A ``bytes.translate`` table mapping each flags byte to 0 or 1."""
    return bytes(1 if predicate(flags) else 0 for flags in range(256))


_TAKEN = _table(lambda f: bool(f & ACTUAL))
_MISPREDICTED = _table(lambda f: bool(f & ACTUAL) != bool(f & PREDICTED))
_EARLY_RESOLVED = _table(lambda f: bool(f & EARLY))


@dataclass
class BranchRecord:
    """Outcome of predicting one dynamic conditional branch."""

    pc: int
    actual: bool
    predicted: bool
    #: Prediction made by the fast first-level predictor at fetch (if any).
    fetch_prediction: Optional[bool] = None
    #: True when the guarding predicate's computed value was already
    #: available when the branch renamed (the paper's early-resolved case).
    early_resolved: bool = False

    @property
    def mispredicted(self) -> bool:
        return self.predicted != self.actual

    @property
    def overridden(self) -> bool:
        return self.fetch_prediction is not None and self.fetch_prediction != self.predicted


class BranchAccuracy:
    """Prediction accuracy over one simulation run, one column per field.

    ``pcs`` holds each branch's PC and ``flags`` one byte per branch
    (:data:`ACTUAL`, :data:`PREDICTED`, :data:`HAS_FETCH`, :data:`FETCH`,
    :data:`EARLY`), both in fetch order.  ``mispredictions``,
    ``early_resolved_count`` and ``override_count`` are kept up to date by
    :meth:`add` and :meth:`truncate`.
    """

    __slots__ = ("pcs", "flags", "mispredictions", "early_resolved_count", "override_count")

    def __init__(self) -> None:
        self.pcs = array("q")
        self.flags = bytearray()
        self.mispredictions = 0
        self.early_resolved_count = 0
        self.override_count = 0

    def add(
        self,
        pc: int,
        actual: bool,
        predicted: bool,
        fetch_prediction: Optional[bool] = None,
        early_resolved: bool = False,
    ) -> None:
        """Append one dynamic conditional branch's outcome."""
        self.pcs.append(pc)
        if fetch_prediction is None:
            flags = actual | predicted << 1
        else:
            flags = actual | predicted << 1 | HAS_FETCH | fetch_prediction << 3
            if fetch_prediction != predicted:
                self.override_count += 1
        if early_resolved:
            flags |= EARLY
            self.early_resolved_count += 1
        if predicted != actual:
            self.mispredictions += 1
        self.flags.append(flags)

    def copy(self) -> "BranchAccuracy":
        """An independent copy (the columns are copied at C level)."""
        other = BranchAccuracy.__new__(BranchAccuracy)
        other.pcs = self.pcs[:]
        other.flags = self.flags[:]
        other.mispredictions = self.mispredictions
        other.early_resolved_count = self.early_resolved_count
        other.override_count = self.override_count
        return other

    def __reduce__(self):
        return (
            _restore,
            (
                self.pcs.tobytes(),
                bytes(self.flags),
                self.mispredictions,
                self.early_resolved_count,
                self.override_count,
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BranchAccuracy):
            return NotImplemented
        return self.pcs == other.pcs and self.flags == other.flags

    # ------------------------------------------------------------------
    @property
    def branches(self) -> int:
        return len(self.flags)

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions per conditional branch, in [0, 1]."""
        return self.mispredictions / self.branches if self.branches else 0.0

    @property
    def accuracy(self) -> float:
        return 1.0 - self.misprediction_rate

    @property
    def early_resolved_fraction(self) -> float:
        return self.early_resolved_count / self.branches if self.branches else 0.0

    def static_oracle_accuracy(self) -> float:
        """Accuracy of a per-site oracle static predictor on these branches.

        Every site (PC) is predicted in its dominant actual direction: the
        alias-free, perfect-history limit of any per-site static predictor.
        A full simulation records every conditional branch of its trace,
        so on a full result this equals
        ``trace_statistics(trace).static_oracle_accuracy()``.
        """
        if not self.flags:
            return 1.0
        executions = Counter(self.pcs)
        taken = Counter(compress(self.pcs, self.flags.translate(_TAKEN)))
        correct = sum(
            max(taken[pc], count - taken[pc]) for pc, count in executions.items()
        )
        return correct / len(self.flags)

    # ------------------------------------------------------------------
    @property
    def records(self) -> List[BranchRecord]:
        """Per-branch records in fetch order, built from the columns."""
        return [
            BranchRecord(
                pc=pc,
                actual=bool(flags & ACTUAL),
                predicted=bool(flags & PREDICTED),
                fetch_prediction=bool(flags & FETCH) if flags & HAS_FETCH else None,
                early_resolved=bool(flags & EARLY),
            )
            for pc, flags in zip(self.pcs, self.flags)
        ]

    def mispredicted_vector(self) -> List[bool]:
        """Per-dynamic-branch mispredict flags (in fetch order)."""
        return list(map(bool, self.flags.translate(_MISPREDICTED)))

    def early_resolved_vector(self) -> List[bool]:
        """Per-dynamic-branch early-resolved flags (in fetch order)."""
        return list(map(bool, self.flags.translate(_EARLY_RESOLVED)))

    def __repr__(self) -> str:
        return (
            f"<BranchAccuracy {self.branches} branches, "
            f"{100 * self.misprediction_rate:.2f}% mispredicted>"
        )


def _restore(pcs, flags, mispredictions, early_resolved_count, override_count):
    """Unpickle a :class:`BranchAccuracy` from its column bytes and counts."""
    accuracy = BranchAccuracy.__new__(BranchAccuracy)
    accuracy.pcs = array("q")
    accuracy.pcs.frombytes(pcs)
    accuracy.flags = bytearray(flags)
    accuracy.mispredictions = mispredictions
    accuracy.early_resolved_count = early_resolved_count
    accuracy.override_count = override_count
    return accuracy
