"""Common predictor interfaces and hardware-budget accounting."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass
class PredictorSizeReport:
    """Hardware budget of a predictor, in bits, broken down by structure.

    The paper compares predictors of equal size (148 KB conventional vs
    148 KB predicate predictor, 144 KB PEP-PA); this report lets the
    experiment setup assert that the configurations are in fact comparable.
    """

    components: Dict[str, int] = field(default_factory=dict)

    def add(self, name: str, bits: int) -> None:
        self.components[name] = self.components.get(name, 0) + int(bits)

    @property
    def total_bits(self) -> int:
        return sum(self.components.values())

    @property
    def total_kib(self) -> float:
        return self.total_bits / 8 / 1024

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}b" for k, v in self.components.items())
        return f"<PredictorSizeReport {self.total_kib:.1f} KiB ({parts})>"


class DirectionPredictor(abc.ABC):
    """Interface of a direction predictor: three planned kernels.

    A scheme resolves each PC to a plan once (:meth:`plan_slot`) and then
    calls one kernel per table per prediction (:meth:`output_planned`) and
    per update (:meth:`train_planned`).  The same trio serves branch
    predictors (indexed by branch PC, slot 0) and predicate predictors
    (indexed by compare PC, one slot per predicate target).

    The raw predictors are *stateless with respect to history*: the history
    value is passed in by the scheme layer, which owns the speculative-update
    and recovery policy.  Every kernel reads or writes only the entries that
    ``(plan, history)`` select, so a training with the history a prediction
    used lands on the entries that prediction read.
    """

    @abc.abstractmethod
    def plan_slot(self, pc: int, slot: int) -> Tuple[Any, int, int]:
        """``(key, local_slot, confidence_index)`` of one target of ``pc``.

        All three are pure functions of ``(pc, slot)`` and the geometry:
        ``key`` selects the table entries, ``local_slot`` the local-history
        entry (0 for a predictor without local history) and
        ``confidence_index`` the entry a paired confidence counter is keyed
        by.
        """

    @abc.abstractmethod
    def output_planned(self, key: Any, local_slot: int, history: int) -> int:
        """The raw output of a planned target; ``>= 0`` predicts taken/true."""

    @abc.abstractmethod
    def train_planned(self, key: Any, local_slot: int, history: int, outcome: bool) -> None:
        """Train a planned target with the resolved outcome."""

    @abc.abstractmethod
    def size_report(self) -> PredictorSizeReport:
        """Return the hardware budget of this predictor."""

    # ------------------------------------------------------------------
    # Unplanned access (tests and one-off callers): plan, then one kernel.
    # ------------------------------------------------------------------
    def predict(self, pc: int, history: int) -> bool:
        """Predict taken/true (``True``) or not-taken/false (``False``)."""
        key, local_slot, _ = self.plan_slot(pc, 0)
        return self.output_planned(key, local_slot, history) >= 0

    def update(self, pc: int, history: int, outcome: bool) -> None:
        """Train the predictor with the resolved outcome."""
        key, local_slot, _ = self.plan_slot(pc, 0)
        self.train_planned(key, local_slot, history, outcome)


class BranchPlans:
    """The per-branch-PC plans of a scheme's tables, memoised.

    ``of(pc)`` is the ``(key, local_slot)`` of slot 0 of every table, in
    table order, flattened into one tuple.  A pure cache of the tables'
    geometry: pickling keeps only the tables, never the memo.
    """

    __slots__ = ("tables", "memo")

    def __init__(self, *tables: DirectionPredictor) -> None:
        self.tables = tables
        self.memo: Dict[int, tuple] = {}

    def __getstate__(self):
        return self.tables

    def __setstate__(self, tables) -> None:
        self.tables = tables
        self.memo = {}

    def of(self, pc: int) -> tuple:
        plan = self.memo.get(pc)
        if plan is None:
            plan = self.memo[pc] = tuple(
                part for table in self.tables for part in table.plan_slot(pc, 0)[:2]
            )
        return plan


def fold_pc(pc: int, bits: int) -> int:
    """Fold a program counter into ``bits`` bits by xor-ing 16-bit chunks.

    Instruction addresses are 4-byte aligned, so the two low bits are dropped
    first.  This is the hash every table-indexed structure uses, keeping
    aliasing behaviour consistent across predictors.
    """
    value = pc >> 2
    folded = 0
    while value:
        folded ^= value & 0xFFFF
        value >>= 16
    mask = (1 << bits) - 1
    return (folded ^ (folded >> bits)) & mask if bits < 16 else folded & mask
