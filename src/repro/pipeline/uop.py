"""Dynamic micro-operations flowing through the pipeline."""

from __future__ import annotations

import enum
from repro.emulator.executor import DynInst


class RenameDecision(enum.Enum):
    """How the rename stage handles a predicated (non-branch) instruction.

    ``CONSERVATIVE``
        Keep the predicate as a data dependence and add a dependence on the
        previous value of every destination (the standard solution to the
        multiple-register-definition problem: the instruction behaves like a
        conditional move).  This is what the baseline schemes do.

    ``ASSUME_TRUE``
        Selective predicate prediction predicted the guard confidently true:
        the instruction is dispatched as if it were not predicated at all
        (no predicate dependence, no old-destination dependence).

    ``CANCEL``
        Selective predicate prediction predicted the guard confidently
        false: the instruction is cancelled at rename and never consumes an
        issue-queue entry or functional unit.
    """

    CONSERVATIVE = "conservative"
    ASSUME_TRUE = "assume-true"
    CANCEL = "cancel"


class Uop:
    """Per-dynamic-instruction pipeline bookkeeping (stage timestamps)."""

    __slots__ = (
        "dyn",
        "fetch_cycle",
        "rename_cycle",
        "dispatch_cycle",
        "ready_cycle",
        "issue_cycle",
        "complete_cycle",
        "commit_cycle",
        "rename_decision",
        "cancelled",
        "predicate_flush",
        "override_flush",
        "branch_mispredicted",
    )

    def __init__(self, dyn: DynInst) -> None:
        self.dyn = dyn
        self.fetch_cycle: int = 0
        self.rename_cycle: int = 0
        self.dispatch_cycle: int = 0
        self.ready_cycle: int = 0
        self.issue_cycle: int = 0
        self.complete_cycle: int = 0
        self.commit_cycle: int = 0
        self.rename_decision: RenameDecision = RenameDecision.CONSERVATIVE
        #: True when the uop was removed from the pipeline at rename.
        self.cancelled: bool = False
        #: True when this uop was refetched because of a predicate
        #: misprediction discovered by its own guard's producer.
        self.predicate_flush: bool = False
        #: True when the uop is a branch whose slow prediction overrode the
        #: fetch-time prediction (front-end flush).
        self.override_flush: bool = False
        #: True when the uop is a branch whose final prediction was wrong.
        self.branch_mispredicted: bool = False

    # ------------------------------------------------------------------
    @property
    def inst(self):
        return self.dyn.inst

    @property
    def pc(self) -> int:
        return self.dyn.pc

    @property
    def is_branch(self) -> bool:
        return self.dyn.is_branch

    @property
    def is_conditional_branch(self) -> bool:
        return self.dyn.is_conditional_branch

    @property
    def is_compare(self) -> bool:
        return self.dyn.is_compare

    def __repr__(self) -> str:
        return (
            f"<Uop #{self.dyn.seq} pc={self.pc:#x} F{self.fetch_cycle} "
            f"R{self.rename_cycle} I{self.issue_cycle} C{self.complete_cycle} "
            f"X{self.commit_cycle}>"
        )
