"""Architectural state: register files and memory."""

from __future__ import annotations

from typing import Dict, Optional

from repro.emulator.memory_image import MemoryImage, to_signed64
from repro.isa.registers import (
    NUM_BRANCH_REGISTERS,
    NUM_GENERAL_REGISTERS,
    NUM_PREDICATE_REGISTERS,
    Register,
    RegisterKind,
)
from repro.program.program import Program


class ArchState:
    """Complete architectural state of the machine.

    The state is deliberately simple: integer general registers, float
    registers, boolean predicate registers (``p0`` pinned to true), branch
    registers, and a sparse word-addressed memory.
    """

    __slots__ = ("general", "floating", "predicate", "branch", "memory")

    def __init__(self, memory: Optional[MemoryImage] = None) -> None:
        self.general = [0] * NUM_GENERAL_REGISTERS
        self.floating = [0.0] * NUM_GENERAL_REGISTERS
        self.predicate = [False] * NUM_PREDICATE_REGISTERS
        self.predicate[0] = True
        self.branch = [0] * NUM_BRANCH_REGISTERS
        self.memory = memory if memory is not None else MemoryImage()

    # ------------------------------------------------------------------
    @classmethod
    def for_program(cls, program: Program) -> "ArchState":
        """Create the initial state for ``program`` (data segment loaded).

        The data segment already holds memory words (see
        :class:`~repro.program.program.DataSegment`), so each state gets a
        plain copy of it.
        """
        return cls(memory=MemoryImage(program.data.words))

    # ------------------------------------------------------------------
    def read(self, reg: Register):
        """Read an architectural register."""
        kind = reg.kind
        if kind is RegisterKind.GENERAL:
            return self.general[reg.index]
        if kind is RegisterKind.PREDICATE:
            return self.predicate[reg.index]
        if kind is RegisterKind.FLOAT:
            return self.floating[reg.index]
        if kind is RegisterKind.BRANCH:
            return self.branch[reg.index]
        raise AssertionError(f"unknown register kind {kind}")  # pragma: no cover

    def write(self, reg: Register, value) -> bool:
        """Write an architectural register.

        Returns ``True`` when the write took architectural effect; writes to
        hard-wired registers (``r0``, ``p0``) are discarded and return
        ``False``.
        """
        if reg.is_hardwired:
            return False
        kind = reg.kind
        if kind is RegisterKind.GENERAL:
            self.general[reg.index] = to_signed64(int(value))
            return True
        if kind is RegisterKind.PREDICATE:
            self.predicate[reg.index] = bool(value)
            return True
        if kind is RegisterKind.FLOAT:
            self.floating[reg.index] = float(value)
            return True
        if kind is RegisterKind.BRANCH:
            self.branch[reg.index] = int(value)
            return True
        raise AssertionError(f"unknown register kind {kind}")  # pragma: no cover

    # ------------------------------------------------------------------
    def snapshot_predicates(self) -> Dict[int, bool]:
        """Return a copy of the predicate register file (for debugging)."""
        return {i: v for i, v in enumerate(self.predicate)}

    def __repr__(self) -> str:
        nonzero = sum(1 for v in self.general if v)
        true_preds = sum(1 for v in self.predicate if v)
        return f"<ArchState {nonzero} non-zero GRs, {true_preds} true PRs>"
