"""The lane driver: N (scheme, machine) cells over one trace, in windows.

Sweep-shaped workloads (the ROB-scaling scenario, predictor-geometry
studies, Table 4 idealization ladders, the scheme shootout) simulate the
*same benchmark trace* under many (scheme, machine) configurations.  This
module runs all cells of one trace — a
:class:`~repro.emulator.tracepack.TracePack` or a segmented
:class:`~repro.emulator.tracepack.ChunkedTracePack` — as *lanes* of a single
batched job, and it is the one driver of windowed runs (checkpoint/resume);
a lone cell is a one-lane batch (:func:`simulate_windowed`).

* **Shared, once per segment span** — the span's column decode (one
  ``tolist`` per column), the per-static-instruction decode records,
  fetch-group-ending flags and the timing-independent row counts: one
  :class:`~repro.pipeline.core._Rows`, freed before the next span is
  decoded.  Beside it, the **memory stream**: a
  :class:`~repro.pipeline.core.MemoryWalker` per distinct memory
  configuration (today always one) walks the span's cache and TLB
  accesses once, in row order, and every lane reads the latencies it
  recorded.
* **Per lane** — everything cycle-dependent: the MSHRs and write buffer
  (:class:`~repro.memory.hierarchy.MemoryLane`, replayed only on a
  first-level miss or a store), store forwarding, load/store and issue
  queues, ROB window, register timing and functional-unit slots.

Every lane runs the core's one timing loop
(:meth:`~repro.pipeline.core.OutOfOrderCore._run_rows`) over the shared
rows.  What differs is what the loop calls:

* **Stream lanes** — schemes that declare
  :attr:`~repro.pipeline.scheme_api.BranchHandlingScheme.timing_independent`
  and override no hook beyond the branch pair.  Their prediction evolution
  is a pure function of the branch rows, so it is replayed *once per
  stream* in a prepass (the **decision stream**: per-conditional-branch
  override and mispredict flags) and every machine lane carries a
  :class:`~repro.pipeline.core.DecisionStream` of it, which the loop reads
  without any hook call.
* **Hook lanes** — every other scheme (predicate prediction, PEP-PA and
  wish read cycles; predicate-aware folds compare results) runs as itself,
  one instance per lane; the loop calls only the hooks it overrides.  A
  hook lane whose branch half is a stream-eligible scheme
  (:meth:`~repro.pipeline.scheme_api.BranchHandlingScheme.branch_scheme`:
  wish composes the conventional scheme) carries that scheme's stream too,
  so only its compare and predicated hooks run.

Lanes share a stream when their branch schemes return equal
:meth:`~repro.pipeline.scheme_api.BranchHandlingScheme.stream_key` tokens.
The stream's **source** is a lane that is its own branch scheme when there
is one (a wish lane replays the conventional lane of the same second
level), else the first lane's branch half (a wish-only sweep shares one
prepass over it).  A lane that replays another lane's source keeps no
private branch half
(:meth:`~repro.pipeline.scheme_api.BranchHandlingScheme.share_branch_scheme`).
Each distinct stream is computed one way, by its source's own hooks, once
per span.

**Windows and checkpoints.**  With ``window_rows`` the lanes pause every
that many rows; ``on_checkpoint`` then receives one
:class:`SimulationCheckpoint` of the whole batch — every lane's
:class:`~repro.pipeline.core._LoopState` and the stream sources, pickled as
one object graph so shared objects stay shared, with the memory walkers —
and resuming from it is bit-identical to the straight-through run, because
the walk, the prepass and the loop are folds over rows with pauses.

Bit-exactness contract: every lane's :class:`SimulationResult` — metrics,
counters, per-branch accuracy records — is identical to what the scalar
engine produces for that (scheme, machine) cell.  The parity suites
(``tests/perf/test_batched_parity.py``,
``tests/perf/test_streaming_parity.py``) enforce this over randomized lane
sets, windows and chunkings; any change here must keep them green.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.emulator.tracepack import ChunkedTracePack, TracePack
from repro.log import get_logger
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import (
    DecisionStream,
    MemoryWalker,
    OutOfOrderCore,
    SimulationResult,
    _LoopState,
    _Rows,
)
from repro.pipeline.scheme_api import BranchHandlingScheme, overridden_hooks

_log = get_logger(__name__)

#: Bump when the pickled checkpoint layout changes; a mismatched checkpoint
#: is ignored (the run restarts from row zero) rather than mis-restored.
#: Version 9 moves the cache and TLB tags from each lane's state to the
#: batch's memory walkers, and gives each lane its own MSHRs, write buffer
#: and load/store queues; version 10 drops the interval-run spec field;
#: version 11 drops the lane state's ``last_commit``, keeps its register
#: file in a list and pickles the version ahead of the lanes.
CHECKPOINT_VERSION = 11


@dataclass
class SimulationCheckpoint:
    """A resumable mid-trace snapshot of one windowed run, every lane of it.

    ``states`` holds each lane's timing-loop state (its scheme included),
    ``sources`` the scheme whose decision stream each lane replays
    (``None`` for a lane that runs its branch hooks itself) and ``walkers``
    the :class:`~repro.pipeline.core.MemoryWalker` whose walk each lane
    reads; the three are pickled as one object graph, so a source or a
    walker shared by several lanes, or a source that is a lane's own
    scheme, is still shared after a restore.
    ``rows_done`` / ``total_rows`` locate the snapshot within the
    trace; checkpoints are only taken at window boundaries.

    A checkpoint pickles as its version and row counts followed by its
    lanes as one nested pickle, which is unpickled only when the version
    is this code's: one of another version loads with no lanes, whatever
    layout its lane states had, and :func:`resumable` ignores it.
    """

    version: int
    rows_done: int
    total_rows: int
    states: List[_LoopState]
    sources: List[Optional[BranchHandlingScheme]]
    walkers: List[MemoryWalker]

    def __reduce__(self):
        fields = dict(vars(self))
        header = (fields.pop("version"), fields.pop("rows_done"), fields.pop("total_rows"))
        return _restore_checkpoint, header + (
            pickle.dumps(fields, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def matches(self, total_rows: int, lanes: int = 1) -> bool:
        """True when this checkpoint can resume a run of ``lanes`` lanes over
        ``total_rows`` rows."""
        return (
            self.version == CHECKPOINT_VERSION
            and self.total_rows == total_rows
            and 0 < self.rows_done <= total_rows
            and len(self.states) == len(self.sources) == len(self.walkers) == lanes
            and all(isinstance(state, _LoopState) for state in self.states)
        )


def _restore_checkpoint(
    version: int, rows_done: int, total_rows: int, lanes: bytes
) -> SimulationCheckpoint:
    """Unpickle a :class:`SimulationCheckpoint`; its lanes only when
    ``version`` is :data:`CHECKPOINT_VERSION`."""
    checkpoint = SimulationCheckpoint(version, rows_done, total_rows, [], [], [])
    if version == CHECKPOINT_VERSION:
        vars(checkpoint).update(pickle.loads(lanes))
    return checkpoint


class _UnreadLaneState:
    """Stands in for the lane states of a checkpoint pickled before the
    version led the pickle (version 10 and older): their fields are dropped
    unread, since they may name slots today's ``_LoopState`` lacks."""

    def __setstate__(self, state) -> None:
        pass


class _CheckpointUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if module == _LoopState.__module__ and name == _LoopState.__qualname__:
            return _UnreadLaneState
        return super().find_class(module, name)


def load_checkpoint(data) -> object:
    """Unpickle a stored checkpoint (``data``: bytes or a buffer).

    A current one restores whole.  One of another version restores without
    lanes (see :class:`SimulationCheckpoint`), so it is stale, not damaged,
    even when its lane states were laid out differently; that holds for the
    older, unframed pickles too, whose lane states load as placeholders.
    """
    return _CheckpointUnpickler(io.BytesIO(data)).load()


def resumable(
    checkpoint: Optional[SimulationCheckpoint],
    total_rows: int,
    lanes: int = 1,
) -> Optional[SimulationCheckpoint]:
    """``checkpoint`` when it matches the run, else ``None`` (with a warning
    when one was given: the run restarts from row zero)."""
    if checkpoint is None or checkpoint.matches(total_rows, lanes):
        return checkpoint
    _log.warning(
        "ignoring incompatible checkpoint (version %s, %s/%s rows)",
        checkpoint.version,
        checkpoint.rows_done,
        checkpoint.total_rows,
    )
    return None


class LaneSpec:
    """One cell of a batch: how to build its scheme, and its machine config."""

    __slots__ = ("scheme_factory", "config")

    def __init__(self, scheme_factory, config: PipelineConfig) -> None:
        self.scheme_factory = scheme_factory
        self.config = config


def stream_eligible(scheme: BranchHandlingScheme) -> bool:
    """True when ``scheme`` can run as a decision-stream lane.

    Requires the scheme's declaration that its hooks ignore pipeline
    timestamps, *and* that it overrides no hook beyond the branch pair —
    an overridden compare/fetch/predicate hook means the scheme observes
    (or steers) rows the stream replay never visits.
    """
    return scheme.timing_independent and overridden_hooks(type(scheme)) <= {
        "on_branch_resolved"
    }


def stream_source(scheme: BranchHandlingScheme) -> Optional[BranchHandlingScheme]:
    """The scheme whose decision stream can stand in for ``scheme``'s
    branch hooks, or ``None`` when its branches must run as hooks."""
    source = scheme.branch_scheme()
    return source if stream_eligible(source) else None


def _shared_sources(
    schemes: Sequence[BranchHandlingScheme],
) -> List[Optional[BranchHandlingScheme]]:
    """The stream source of each lane: one per stream key.

    A key's source is its first lane that is its own branch scheme, else
    its first lane's branch half; every other lane of the key gives up its
    own branch half for that source.  A branch scheme without a key
    replays a private stream.
    """
    own = [stream_source(scheme) for scheme in schemes]
    keys = [None if source is None else source.stream_key() for source in own]
    shared: Dict[object, BranchHandlingScheme] = {}
    for scheme, source, key in zip(schemes, own, keys):
        if key is not None and source is scheme:
            shared.setdefault(key, source)
    sources: List[Optional[BranchHandlingScheme]] = []
    for scheme, source, key in zip(schemes, own, keys):
        if key is not None:
            chosen = shared.setdefault(key, source)
            if chosen is not source:
                scheme.share_branch_scheme(chosen)
            source = chosen
        sources.append(source)
    return sources


def _shared_walkers(cores: Sequence[OutOfOrderCore]) -> List[MemoryWalker]:
    """The memory walker of each lane: one per distinct hierarchy
    configuration, walking the first such core's hierarchy (so cores of
    one configuration must hold equal hierarchies, as fresh ones are)."""
    walkers: List[MemoryWalker] = []
    chosen: List[MemoryWalker] = []
    for core in cores:
        walker = next((w for w in walkers if w.memory.config == core.memory.config), None)
        if walker is None:
            walker = MemoryWalker(core.memory)
            walkers.append(walker)
        chosen.append(walker)
    return chosen


def _distinct(objects) -> list:
    """``objects`` without ``None`` and repeats (by identity), in order."""
    return list({id(o): o for o in objects if o is not None}.values())


def run_span(
    trace,
    start: int,
    stop: int,
    decodes: dict,
    cores: Sequence[OutOfOrderCore],
    states: Sequence[_LoopState],
    sources: Sequence[Optional[BranchHandlingScheme]],
    walkers: Sequence[MemoryWalker],
) -> None:
    """Run rows ``[start, stop)`` of ``trace`` through every lane, one
    decoded segment at a time: each distinct walker and stream source makes
    one pass over a segment, and every lane reads theirs."""
    for pack, low, high in trace.spans(start, stop):
        rows = _Rows(pack, low, high, decodes, shared=len(cores) > 1)
        walks = {id(w): w.walk(rows) for w in _distinct(walkers)}
        streams = {id(s): _drive_scheme_stream(s, rows) for s in _distinct(sources)}
        for core, state, source, walker in zip(cores, states, sources, walkers):
            stream = None if source is None else streams[id(source)]
            core._run_rows(state, rows, stream, walks[id(walker)])
        # Free this segment's rows and streams before decoding the next.
        del rows, walks, streams


def _drive_scheme_stream(scheme: BranchHandlingScheme, rows: _Rows) -> DecisionStream:
    """Replay the branch rows through a scheme's own hooks (one stream).

    Cycle arguments are zero: a ``timing_independent`` scheme ignores them
    by contract.  The hook call sequence per branch (rename immediately
    followed by resolved) is exactly the timing loop's, so the scheme's
    accuracy and counters come out bit-identical: the scheme keeps the
    record of the stream's branches.  Each branch's cursor comes from
    :meth:`~repro.pipeline.core._Rows.cursor`, so in a batch it is the
    row's shared one, which hook lanes over the same rows read too.
    """
    on_rename = scheme.on_branch_rename
    on_resolved = scheme.on_branch_resolved
    cursors = rows.cursors
    cursor = rows.cursor
    overrides: List[bool] = []
    mispreds: List[bool] = []
    for i in rows.cond_rows:
        cur = cursors[i] or cursor(i)
        handling = on_rename(cur, 0, 0, 0)
        mispredicted = handling.final_prediction != cur.taken
        on_resolved(cur, 0, mispredicted)
        overrides.append(handling.override_flush)
        mispreds.append(mispredicted)
    return DecisionStream(overrides, mispreds)


def simulate_lanes(
    trace,
    lanes: Sequence[LaneSpec],
    program_name: str = "program",
    *,
    window_rows: Optional[int] = None,
    checkpoint: Optional[SimulationCheckpoint] = None,
    on_checkpoint: Optional[Callable[[SimulationCheckpoint], None]] = None,
) -> List[SimulationResult]:
    """Simulate every lane over one trace; results in lane order.

    ``trace`` is a :class:`~repro.emulator.tracepack.TracePack` or a
    :class:`~repro.emulator.tracepack.ChunkedTracePack`.  Each result is
    bit-identical to running that lane's (scheme, machine) cell through the
    scalar engine.  Lanes whose branches are a stream-eligible scheme's
    share one decision-stream prepass per
    :meth:`~repro.pipeline.scheme_api.BranchHandlingScheme.stream_key` and
    carry it into the timing loop; their other hooks, if any, still run.

    ``window_rows`` sets the checkpoint cadence: ``on_checkpoint`` receives
    one :class:`SimulationCheckpoint` of all lanes after each completed
    window but the last.  ``checkpoint`` resumes mid-trace; one of another
    run shape (row count, lane count) is ignored with a warning.
    An empty trace raises ``ValueError``, as in the scalar engine.
    """
    # Every lane has the Table 1 hierarchy, so one walker walks it for all.
    memory = MemoryHierarchy()
    cores = [OutOfOrderCore(config=lane.config, memory=memory) for lane in lanes]
    return run_lanes(
        trace,
        cores,
        lambda: [lane.scheme_factory() for lane in lanes],
        program_name,
        window_rows=window_rows,
        checkpoint=checkpoint,
        on_checkpoint=on_checkpoint,
    )


def run_lanes(
    trace,
    cores: Sequence[OutOfOrderCore],
    build_schemes: Callable[[], List[BranchHandlingScheme]],
    program_name: str = "program",
    *,
    window_rows: Optional[int] = None,
    checkpoint: Optional[SimulationCheckpoint] = None,
    on_checkpoint: Optional[Callable[[SimulationCheckpoint], None]] = None,
) -> List[SimulationResult]:
    """:func:`simulate_lanes` over prepared cores, one per lane.

    ``build_schemes`` returns the lane schemes in lane order; it is not
    called when the run resumes from ``checkpoint``, whose states carry
    their schemes.
    """
    total = len(trace)
    if total == 0:
        raise ValueError("empty trace: nothing to simulate")
    window = total if window_rows is None else window_rows
    if window < 1:
        raise ValueError(f"window_rows must be positive, got {window}")

    checkpoint = resumable(checkpoint, total, len(cores))
    if checkpoint is not None:
        states, sources = checkpoint.states, checkpoint.sources
        walkers = checkpoint.walkers
        rows_done = checkpoint.rows_done
    else:
        schemes = build_schemes()
        sources = _shared_sources(schemes)
        walkers = _shared_walkers(cores)
        states = [core._loop_state(scheme) for core, scheme in zip(cores, schemes)]
        rows_done = 0

    decodes: dict = {}
    while rows_done < total:
        stop = min(rows_done + window, total)
        run_span(trace, rows_done, stop, decodes, cores, states, sources, walkers)
        rows_done = stop
        if on_checkpoint is not None and rows_done < total:
            on_checkpoint(
                SimulationCheckpoint(
                    version=CHECKPOINT_VERSION,
                    rows_done=rows_done,
                    total_rows=total,
                    states=states,
                    sources=sources,
                    walkers=walkers,
                )
            )

    results: List[SimulationResult] = []
    for core, state, source, walker in zip(cores, states, sources, walkers):
        # A lane replaying another lane's stream reports a copy of its record.
        if source is not None and state.scheme.accuracy is not source.accuracy:
            state.scheme.accuracy = source.accuracy.copy()
        results.append(core._finalize(state, program_name, walker))
    return results


def simulate_windowed(
    core: OutOfOrderCore,
    trace,
    scheme: BranchHandlingScheme,
    program_name: str = "program",
    *,
    window_rows: Optional[int] = None,
    checkpoint: Optional[SimulationCheckpoint] = None,
    on_checkpoint: Optional[Callable[[SimulationCheckpoint], None]] = None,
) -> SimulationResult:
    """Run ``trace`` under ``scheme`` on ``core`` in windows: the one-lane
    case of :func:`run_lanes`.

    ``window_rows`` sets the checkpoint cadence (``on_checkpoint`` receives
    one :class:`SimulationCheckpoint` after each completed window but the
    last); ``checkpoint`` — typically loaded from the artifact store —
    resumes mid-trace, and one of another row count is ignored with a
    warning.

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
    return run_lanes(
        trace,
        [core],
        lambda: [scheme],
        program_name,
        window_rows=window_rows,
        checkpoint=checkpoint,
        on_checkpoint=on_checkpoint,
    )[0]
