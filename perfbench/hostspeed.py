"""Host speed, sampled while the timed work runs.

On a small shared virtual machine the speed of one vCPU swings by up to
1.7x, on time scales from a second to tens of seconds (another tenant
loads the sibling hyperthread), so two runs of identical code a minute
apart can differ by more than any regression worth catching.  The
benchmark therefore times a fixed pure-Python reference loop every 0.2 s
*during* each pass and reports the pass in *reference seconds*: host
seconds scaled by ``NOMINAL_S`` over the median reference time sampled in
the pass.  The reference is code of this directory, not of the package,
so a change to the package moves the scaled numbers exactly as it moves
the raw ones.
"""

from __future__ import annotations

import signal
import sys
import time

#: Reference-loop duration the scaled seconds are expressed against (the
#: loop's fast-phase duration on the 2-vCPU host the benchmark was sized on).
NOMINAL_S = 0.0025


def _reference_once() -> float:
    started = time.perf_counter()
    table: dict = {}
    items = []
    total = 0
    for i in range(12_000):
        key = i & 127
        total += (i * 31 + key) % 7
        table[key] = table.get(key, 0) + total
        items.append(key)
    items.sort()
    return time.perf_counter() - started


class Sampler:
    """Times the reference loop every ``period`` seconds while work runs.

    The loop runs from a ``SIGALRM`` handler on the main thread, so it
    samples the host's speed during a pass, not only around it; the GIL
    switch interval is raised for the loop's few milliseconds so busy
    worker threads cannot stretch it.  The samples cost about 1% of the
    timed wall clock, the same on every commit.
    """

    def __init__(self, period: float = 0.2) -> None:
        self.period = period
        self.samples: list = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            self.samples.append((time.perf_counter(), _reference_once()))
        finally:
            sys.setswitchinterval(interval)

    def __enter__(self) -> "Sampler":
        self.samples.append((time.perf_counter(), _reference_once()))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Host seconds → reference seconds over ``[start, end]``.

        Uses the samples taken inside the interval, or the nearest one
        when the interval is shorter than the sampling period."""
        inside = sorted(duration for at, duration in self.samples if start <= at <= end)
        if not inside:
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - end))[1]]
        return NOMINAL_S / inside[len(inside) // 2]
