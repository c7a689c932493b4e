"""The top-level program container and address layout.

A :class:`Program` owns a set of routines, an entry routine, and a *data
segment* describing the initial contents of memory.  :meth:`Program.layout`
assigns program-counter addresses to every instruction — the addresses branch
predictors and the predicate predictor index with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.isa.instructions import Instruction
from repro.program.routine import Routine

#: Byte distance between consecutive instruction slots in the laid-out image.
#: IA-64 packs three 41-bit instructions in a 16-byte bundle; we use a
#: fixed per-slot stride which keeps addresses unique and realistically sparse.
INSTRUCTION_STRIDE = 4

#: Base address of the text segment.
TEXT_BASE = 0x4000_0000

#: Base address of the data segment.
DATA_BASE = 0x6000_0000


#: Bytes per data word: memory is word-granular.
WORD_BYTES = 8

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63


def to_signed64(value: int) -> int:
    """Wrap ``value`` to a signed 64-bit integer."""
    value &= _WORD_MASK
    if value & _SIGN_BIT:
        return value - (1 << 64)
    return value


def word_image(initial: Dict[int, int]) -> Dict[int, int]:
    """``initial`` as word-granular memory holds it: each address aligned
    down to its word, each value wrapped to signed 64 bits, a later address
    of the same word winning.  One pass over the data."""
    return {
        address - address % WORD_BYTES: ((int(value) + _SIGN_BIT) & _WORD_MASK) - _SIGN_BIT
        for address, value in initial.items()
    }


@dataclass
class DataSegment:
    """Initial memory contents: a dictionary of word-addressed values.

    Keys are word-aligned byte addresses and values signed integers stored
    in 8-byte words, exactly as the emulator's memory image holds them:
    the constructor and :meth:`store_array` normalise what they are given
    (:func:`word_image`), once per program, so every emulator of the program
    copies ``words`` as it is.  The workload generators populate arrays here.
    """

    words: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.words = word_image(self.words)

    def store_array(self, base: int, values: List[int], stride: int = 8) -> None:
        """Store ``values`` as consecutive words starting at ``base``; a
        value that shares a word with a later one is overwritten by it."""
        words = self.words
        for i, value in enumerate(values):
            address = base + i * stride
            words[address - address % WORD_BYTES] = to_signed64(int(value))

    def __len__(self) -> int:
        return len(self.words)


class Program:
    """A complete program: routines + data + entry point."""

    def __init__(self, name: str, entry: str = "main") -> None:
        self.name = name
        self.entry_name = entry
        self.routines: Dict[str, Routine] = {}
        self.data = DataSegment()
        #: True once :meth:`layout` has assigned addresses.
        self.laid_out = False
        #: Free-form metadata (workload traits, compilation flags, ...).
        self.metadata: dict = {}

    # ------------------------------------------------------------------
    def add_routine(self, routine: Routine) -> Routine:
        if routine.name in self.routines:
            raise ValueError(f"duplicate routine {routine.name!r}")
        self.routines[routine.name] = routine
        self.laid_out = False
        return routine

    def routine(self, name: str) -> Routine:
        return self.routines[name]

    @property
    def entry_routine(self) -> Routine:
        return self.routines[self.entry_name]

    def instructions(self) -> Iterator[Instruction]:
        for routine in self.routines.values():
            yield from routine.instructions()

    @property
    def size(self) -> int:
        return sum(r.size for r in self.routines.values())

    # ------------------------------------------------------------------
    def layout(self, text_base: int = TEXT_BASE) -> None:
        """Assign addresses to every block and instruction.

        Routines are placed sequentially in insertion order; blocks within a
        routine in layout order; instructions at a fixed stride.  The layout
        is deterministic so predictor indexing is reproducible.
        """
        address = text_base
        for routine in self.routines.values():
            for block in routine.blocks:
                block.address = address
                for inst in block.instructions:
                    inst.address = address
                    address += INSTRUCTION_STRIDE
                # Align the next block so addresses do not depend on whether
                # earlier blocks grew by a couple of instructions after
                # compilation — keeps cross-binary comparisons stable.
                address = _align(address, 64)
            address = _align(address, 256)
        self.laid_out = True

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"<Program {self.name}: {len(self.routines)} routines, "
            f"{self.size} instructions>"
        )


def _align(value: int, alignment: int) -> int:
    remainder = value % alignment
    if remainder == 0:
        return value
    return value + (alignment - remainder)
