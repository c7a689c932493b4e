"""Saturating counters and counter tables."""

from __future__ import annotations

from array import array
from typing import MutableSequence

from repro.predictors.base import PredictorSizeReport


def unsigned_array(bits: int, entries: int, initial: int = 0) -> MutableSequence[int]:
    """``entries`` unsigned ``bits``-wide values, all ``initial``.

    A ``bytearray`` when the values fit in a byte, else an ``array`` of the
    narrowest unsigned type that holds them (a list past 64 bits).
    """
    if bits <= 8:
        return bytearray([initial]) * entries
    for typecode in "HILQ":
        if bits <= 8 * array(typecode).itemsize:
            return array(typecode, [initial]) * entries
    return [initial] * entries


class SaturatingCounter:
    """An n-bit up/down saturating counter.

    Used for pattern-history-table entries (2 bits) and for the confidence
    estimator of the selective predicate predictor (the paper increments on a
    correct prediction, zeroes on a misprediction, and considers the
    prediction confident only when the counter is saturated).
    """

    __slots__ = ("bits", "value")

    def __init__(self, bits: int = 2, initial: int = 0) -> None:
        if bits < 1:
            raise ValueError("counter needs at least one bit")
        self.bits = bits
        self.value = int(initial)
        if not 0 <= self.value <= self.maximum:
            raise ValueError(f"initial value {initial} out of range for {bits}-bit counter")

    @property
    def maximum(self) -> int:
        return (1 << self.bits) - 1

    @property
    def is_saturated(self) -> bool:
        return self.value == self.maximum

    @property
    def taken(self) -> bool:
        """Direction encoded by the counter (MSB set => taken)."""
        return self.value >= (1 << (self.bits - 1))

    def increment(self) -> None:
        if self.value < self.maximum:
            self.value += 1

    def decrement(self) -> None:
        if self.value > 0:
            self.value -= 1

    def reset(self) -> None:
        self.value = 0

    def train(self, outcome: bool) -> None:
        """Move the counter towards ``outcome``."""
        if outcome:
            self.increment()
        else:
            self.decrement()

    def __repr__(self) -> str:
        return f"<SaturatingCounter {self.value}/{self.maximum}>"


class CounterTable:
    """A table of n-bit saturating counters, one byte each where they fit."""

    __slots__ = ("bits", "entries", "_values", "_max", "_threshold")

    def __init__(self, entries: int, bits: int = 2, initial: int = 1) -> None:
        if entries < 1:
            raise ValueError("table needs at least one entry")
        self.bits = bits
        self.entries = entries
        self._max = (1 << bits) - 1
        self._threshold = 1 << (bits - 1)
        initial = max(0, min(int(initial), self._max))
        self._values = unsigned_array(bits, entries, initial)

    def _index(self, index: int) -> int:
        return index % self.entries

    @property
    def values(self) -> MutableSequence[int]:
        """The backing counter array.

        Shared with array-backed fast paths (see
        :class:`repro.predictors.gshare.GsharePredictor`) so both access
        paths observe one table state; also used by the parity tests.
        """
        return self._values

    def value(self, index: int) -> int:
        return self._values[self._index(index)]

    def taken(self, index: int) -> bool:
        return self._values[self._index(index)] >= self._threshold

    def train(self, index: int, outcome: bool) -> None:
        i = self._index(index)
        value = self._values[i]
        if outcome:
            if value < self._max:
                self._values[i] = value + 1
        elif value > 0:
            self._values[i] = value - 1

    def size_report(self, name: str = "counter-table") -> PredictorSizeReport:
        report = PredictorSizeReport()
        report.add(name, self.entries * self.bits)
        return report

    def __len__(self) -> int:
        return self.entries
