"""Windowed simulation: checkpoint/resume and sampled execution.

The timing loop (:meth:`~repro.pipeline.core.OutOfOrderCore._run_rows`)
is a pure fold over trace rows: all of its mutable state lives in one
:class:`~repro.pipeline.core._LoopState`.  Driving that fold in fixed-size
**windows** of a pack's rows buys two things the streaming-scale
methodology needs:

* **Checkpoint/resume** — after each window the state (predictor weight
  tables included) can be pickled into a :class:`SimulationCheckpoint`;
  restoring it and draining the remaining rows is bit-identical to a
  straight-through run, because the windowed fold *is* the straight-through
  fold with pauses.  Full runs are windowed by the lane driver
  (:func:`repro.pipeline.batched.simulate_lanes`), whose checkpoint holds
  every lane of a batch; :func:`simulate_windowed` without sampling is its
  one-lane case.  The execution engine writes checkpoints through the
  artifact store so a killed worker's retry resumes mid-trace.
* **Sampled simulation** — for huge traces, simulate every ``k``-th window
  (plus a warmup prefix whose events are excluded from the counters) and
  skip the rest.  Measured cycles are the sum of per-window commit-cycle
  deltas; whole-run observables that cannot be windowed (memory hierarchy
  statistics, functional-unit utilisation) reflect only the simulated rows
  — a documented approximation.  Sampled results carry their
  :class:`SamplingSpec` so tables can flag them, and so do their
  checkpoints: a checkpoint never resumes a run of the other mode.

Both modes require a columnar trace and the optimized core; anything else
is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.emulator.tracepack import ChunkedTracePack, TracePack
from repro.pipeline.batched import (
    CHECKPOINT_VERSION,
    SimulationCheckpoint,
    resumable,
    run_lanes,
    run_span,
)
from repro.pipeline.core import MemoryWalker, OutOfOrderCore, SimulationResult
from repro.pipeline.scheme_api import BranchHandlingScheme

#: Default rows per simulation window when only sampling asks for windows.
DEFAULT_WINDOW_ROWS = 4096

#: Default warmup rows simulated (but not measured) before each sampled
#: window.
DEFAULT_WARMUP_ROWS = 512


@dataclass(frozen=True)
class SamplingSpec:
    """Sampled-simulation parameters: every ``interval``-th window measured.

    ``window`` is the row count of one window, ``warmup`` the number of
    rows simulated-but-not-counted immediately before each measured window
    (clamped to the gap since the previous measured window, so no row is
    simulated twice).  ``interval=1`` degenerates to a full windowed run.
    """

    interval: int
    window: int = DEFAULT_WINDOW_ROWS
    warmup: int = DEFAULT_WARMUP_ROWS

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"sampling interval must be >= 1, got {self.interval}")
        if self.window < 1:
            raise ValueError(f"sampling window must be >= 1, got {self.window}")
        if self.warmup < 0:
            raise ValueError(f"sampling warmup must be >= 0, got {self.warmup}")

    @classmethod
    def parse(cls, text: str) -> "SamplingSpec":
        """Parse ``interval[:window[:warmup]]`` (the CLI/scenario syntax)."""
        parts = str(text).split(":")
        if len(parts) > 3 or not parts[0]:
            raise ValueError(
                f"sampling spec {text!r} is not 'interval[:window[:warmup]]'"
            )
        try:
            values = [int(part) for part in parts]
        except ValueError:
            raise ValueError(
                f"sampling spec {text!r} has a non-integer field"
            ) from None
        interval = values[0]
        window = values[1] if len(values) > 1 else DEFAULT_WINDOW_ROWS
        warmup = values[2] if len(values) > 2 else DEFAULT_WARMUP_ROWS
        return cls(interval=interval, window=window, warmup=warmup)

    def token(self) -> Dict[str, int]:
        """Stable cache-key payload (folded into simulate-job keys)."""
        return {
            "interval": self.interval,
            "window": self.window,
            "warmup": self.warmup,
        }

    def describe(self) -> str:
        return (
            f"1/{self.interval} windows of {self.window} rows"
            f" (warmup {self.warmup})"
        )


def _snapshot_scheme(scheme: BranchHandlingScheme):
    """Measurement state of a scheme before a warmup region."""
    return scheme.accuracy.branches, scheme.counters.snapshot()


def _restore_scheme(scheme: BranchHandlingScheme, snapshot) -> None:
    """Roll the scheme's *measurement* state (not predictor state) back."""
    branches, counters = snapshot
    scheme.accuracy.truncate(branches)
    scheme.counters.restore(counters)


def simulate_windowed(
    core: OutOfOrderCore,
    trace,
    scheme: BranchHandlingScheme,
    program_name: str = "program",
    *,
    window_rows: Optional[int] = None,
    sampling: Optional[SamplingSpec] = None,
    checkpoint: Optional[SimulationCheckpoint] = None,
    on_checkpoint: Optional[Callable[[SimulationCheckpoint], None]] = None,
) -> SimulationResult:
    """Run ``trace`` under ``scheme`` in windows; optionally sampled/resumed.

    ``window_rows`` sets the checkpoint cadence (``on_checkpoint`` receives
    one :class:`SimulationCheckpoint` after each completed window);
    ``sampling`` selects sampled mode, whose windows are ``sampling.window``
    rows.  Without sampling this is the one-lane case of
    :func:`repro.pipeline.batched.simulate_lanes`.  ``checkpoint`` —
    typically loaded from the artifact store — resumes mid-trace; one of
    another row count or sampling mode is ignored with a warning.

    Raises :class:`TypeError` when ``trace`` is not a
    :class:`~repro.emulator.tracepack.TracePack` or
    :class:`~repro.emulator.tracepack.ChunkedTracePack`, and
    :class:`ValueError` when ``core`` is the reference core
    (``optimized=False``), which has no windowed fold, or when the trace
    is empty.
    """
    if not isinstance(trace, (TracePack, ChunkedTracePack)):
        raise TypeError(
            "windowed simulation needs a TracePack or ChunkedTracePack, "
            f"got {type(trace).__name__}"
        )
    if not core.optimized:
        raise ValueError("windowed simulation needs a core built with optimized=True")
    if sampling is None:
        return run_lanes(
            trace,
            [core],
            lambda: [scheme],
            program_name,
            window_rows=window_rows,
            checkpoint=checkpoint,
            on_checkpoint=on_checkpoint,
        )[0]

    total = len(trace)
    if total == 0:
        raise ValueError("empty trace: nothing to simulate")
    if window_rows is not None and window_rows < 1:
        raise ValueError(f"window_rows must be positive, got {window_rows}")

    checkpoint = resumable(checkpoint, total, sampling)
    if checkpoint is not None:
        state = checkpoint.states[0]
        walker = checkpoint.walkers[0]
        rows_done = checkpoint.rows_done
    else:
        state = core._loop_state(scheme)
        state.sampled_cycles = 0
        walker = MemoryWalker(core.memory)
        rows_done = 0

    decodes: dict = {}

    def run_rows(start: int, stop: int) -> None:
        run_span(trace, start, stop, decodes, [core], [state], [None], [walker])

    interval = sampling.interval
    # Warmup cannot reach into (or past) the previous measured window:
    # those rows were already simulated.
    max_warmup = (
        min(sampling.warmup, (interval - 1) * sampling.window) if interval > 1 else 0
    )
    while rows_done < total:
        index = rows_done // sampling.window
        start = index * sampling.window
        stop = min(start + sampling.window, total)
        if index % interval == 0:
            warmup_start = start if index == 0 else start - max_warmup
            if warmup_start < start:
                # Simulate the warmup rows for predictor/cache warmth,
                # then roll the *measurement* state back so their events
                # never reach the counters or the accuracy records.
                counters = state.counter_snapshot()
                scheme_snapshot = _snapshot_scheme(state.scheme)
                run_rows(warmup_start, start)
                state.restore_counters(counters)
                _restore_scheme(state.scheme, scheme_snapshot)
            commit_before = state.last_commit
            run_rows(start, stop)
            state.sampled_cycles += state.last_commit - commit_before
        rows_done = stop
        if on_checkpoint is not None and rows_done < total:
            on_checkpoint(
                SimulationCheckpoint(
                    version=CHECKPOINT_VERSION,
                    rows_done=rows_done,
                    total_rows=total,
                    sampling=sampling,
                    states=[state],
                    sources=[None],
                    walkers=[walker],
                )
            )

    result = core._finalize(state, program_name, walker)
    result.sampling = sampling
    return result
