"""A small named-counter container used across the simulator."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Tuple


class CounterSet:
    """A dictionary of named integer counters with convenience helpers."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)

    def bump(self, name: str, amount: int = 1) -> None:
        self._counters[name] += amount

    def set(self, name: str, value: int) -> None:
        self._counters[name] = value

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def ratio(self, numerator: str, denominator: str) -> float:
        denom = self.get(denominator)
        return self.get(numerator) / denom if denom else 0.0

    def merge(self, other: "CounterSet") -> None:
        for name, value in other.items():
            self._counters[name] += value

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counters.items()))

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counters)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __repr__(self) -> str:
        return f"<CounterSet {dict(self._counters)!r}>"
