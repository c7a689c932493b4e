"""Sparse memory image used by the functional emulator.

Memory is modelled as a sparse dictionary of 8-byte words.  Unwritten
locations read as zero, which matches the workloads' expectation of
zero-initialised data and keeps the image cheap for large address ranges.
"""

from __future__ import annotations

from typing import Dict, Optional

WORD_BYTES = 8

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63


def to_signed64(value: int) -> int:
    """Wrap ``value`` to a signed 64-bit integer."""
    value &= _WORD_MASK
    if value & _SIGN_BIT:
        return value - (1 << 64)
    return value


class MemoryImage:
    """Word-granular sparse memory."""

    __slots__ = ("_words",)

    def __init__(self, initial: Optional[Dict[int, int]] = None) -> None:
        # One pass over the data image, storing each word as write_word
        # would: aligned, wrapped to signed 64 bits, a later address of the
        # same word winning.
        self._words: Dict[int, int] = {}
        if initial:
            self._words = {
                address - address % WORD_BYTES: ((int(value) + _SIGN_BIT) & _WORD_MASK) - _SIGN_BIT
                for address, value in initial.items()
            }

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
        clone = MemoryImage()
        clone._words = dict(self._words)
        return clone

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, address: int) -> bool:
        return self._align(address) in self._words
