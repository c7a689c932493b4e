"""Windowed simulation: checkpoint/resume and sampled execution.

The timing loop (:meth:`~repro.pipeline.core.OutOfOrderCore._run_rows`)
is a pure fold over trace rows: all of its mutable state lives in one
:class:`~repro.pipeline.core._LoopState`.  This module drives that fold in
fixed-size **windows** of a pack's rows, which buys two things the
streaming-scale methodology needs:

* **Checkpoint/resume** — after each window the state (predictor weight
  tables included) can be pickled into a :class:`SimulationCheckpoint`;
  restoring it and draining the remaining rows is bit-identical to a
  straight-through run, because the windowed fold *is* the straight-through
  fold with pauses.  The execution engine writes checkpoints through the
  artifact store so a killed worker's retry resumes mid-trace.
* **Sampled simulation** — for huge traces, simulate every ``k``-th window
  (plus a warmup prefix whose events are excluded from the counters) and
  skip the rest.  Measured cycles are the sum of per-window commit-cycle
  deltas; whole-run observables that cannot be windowed (memory hierarchy
  statistics, functional-unit utilisation) reflect only the simulated rows
  — a documented approximation.  Sampled results carry their
  :class:`SamplingSpec` so tables can flag them.

Both modes require a columnar trace and the optimized core; anything else
is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.emulator.tracepack import ChunkedTracePack, TracePack
from repro.log import get_logger
from repro.pipeline.core import OutOfOrderCore, SimulationResult, _LoopState
from repro.pipeline.scheme_api import BranchHandlingScheme

_log = get_logger(__name__)

#: Bump when the pickled checkpoint layout changes; a mismatched checkpoint
#: is ignored (the run restarts from row zero) rather than mis-restored.
CHECKPOINT_VERSION = 4

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


@dataclass
class SimulationCheckpoint:
    """A resumable mid-trace snapshot of one windowed simulation.

    ``state`` is the pickled-together timing-loop state graph; ``rows_done``
    / ``total_rows`` locate it within the trace.  Checkpoints are only
    taken at window boundaries, so ``rows_done`` is always a boundary.
    """

    version: int
    rows_done: int
    total_rows: int
    state: _LoopState

    def matches(self, total_rows: int) -> bool:
        """True when this checkpoint can resume a run over ``total_rows``."""
        return (
            self.version == CHECKPOINT_VERSION
            and self.total_rows == total_rows
            and 0 < self.rows_done <= total_rows
            and isinstance(self.state, _LoopState)
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
    ``sampling`` selects sampled mode (its ``window`` is used when
    ``window_rows`` is not given).  ``checkpoint`` — typically loaded from
    the artifact store — resumes mid-trace; an incompatible checkpoint is
    ignored.

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

    total = len(trace)
    if total == 0:
        raise ValueError("empty trace: nothing to simulate")
    window = window_rows if window_rows is not None else (
        sampling.window if sampling is not None else total
    )
    if window < 1:
        raise ValueError(f"window_rows must be positive, got {window}")

    if checkpoint is not None and checkpoint.matches(total):
        state = checkpoint.state
        scheme = state.scheme
    else:
        if checkpoint is not None:
            _log.warning(
                "ignoring incompatible checkpoint (version %s, %s/%s rows)",
                checkpoint.version,
                checkpoint.rows_done,
                checkpoint.total_rows,
            )
        state = core._loop_state(scheme)
        if sampling is not None:
            state.sampled_cycles = 0

    decodes: dict = {}

    def run_rows(start: int, stop: int) -> None:
        core._run_span(state, trace, start, stop, decodes)

    def emit_checkpoint() -> None:
        if on_checkpoint is not None and state.rows_done < total:
            on_checkpoint(
                SimulationCheckpoint(
                    version=CHECKPOINT_VERSION,
                    rows_done=state.rows_done,
                    total_rows=total,
                    state=state,
                )
            )

    if sampling is None:
        while state.rows_done < total:
            stop = min(state.rows_done + window, total)
            run_rows(state.rows_done, stop)
            state.rows_done = stop
            emit_checkpoint()
    else:
        interval = sampling.interval
        # Warmup cannot reach into (or past) the previous measured window:
        # those rows were already simulated.
        max_warmup = (
            min(sampling.warmup, (interval - 1) * sampling.window)
            if interval > 1
            else 0
        )
        while state.rows_done < total:
            index = state.rows_done // sampling.window
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
            state.rows_done = stop
            emit_checkpoint()

    result = core._finalize(state, program_name)
    result.sampling = sampling
    return result
