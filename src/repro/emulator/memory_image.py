"""Sparse memory image used by the functional emulator.

Memory is modelled as a sparse dictionary of 8-byte words.  Unwritten
locations read as zero, which matches the workloads' expectation of
zero-initialised data and keeps the image cheap for large address ranges.
"""

from __future__ import annotations

from typing import Dict, Optional

# The word format is the data segment's.
from repro.program.program import WORD_BYTES, to_signed64


class MemoryImage:
    """Word-granular sparse memory."""

    __slots__ = ("_words",)

    def __init__(self, initial: Optional[Dict[int, int]] = None) -> None:
        """A memory holding a copy of ``initial``, a word image: aligned
        addresses, signed 64-bit values (as a program's data segment holds
        them, see :func:`~repro.program.program.word_image`)."""
        self._words: Dict[int, int] = dict(initial) if initial else {}

    # ------------------------------------------------------------------
    @staticmethod
    def _align(address: int) -> int:
        return address - (address % WORD_BYTES)

    def read_word(self, address: int) -> int:
        """Read the 8-byte word containing ``address`` (unaligned accesses
        are clamped to their containing word)."""
        return self._words.get(self._align(address), 0)

    def write_word(self, address: int, value: int) -> None:
        """Write an 8-byte word, wrapping the value to 64 bits."""
        self._words[self._align(address)] = to_signed64(int(value))

    # ------------------------------------------------------------------
    def copy(self) -> "MemoryImage":
        return MemoryImage(self._words)

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, address: int) -> bool:
        return self._align(address) in self._words
