"""Lane-batched multi-cell simulation: N (scheme, machine) cells, one trace.

Sweep-shaped workloads (the ROB-scaling scenario, predictor-geometry
studies, Table 4 idealization ladders, the scheme shootout) simulate the
*same benchmark trace* under many (scheme, machine) configurations.  This
module runs all cells of one :class:`~repro.emulator.tracepack.TracePack`
as *lanes* of a single batched job:

* **Shared, once per batch** — the pack's column decode (one ``tolist`` per
  column), the per-static-instruction decode records, fetch-block ids,
  fetch-group-ending flags and the timing-independent row counts: one
  :class:`~repro.pipeline.core._Rows`.
* **Per lane** — everything cycle-dependent: the memory hierarchy (the
  shared L2 makes fetch stalls a function of the lane's own data-side
  traffic), load/store unit, issue queues, ROB window, register timing and
  functional-unit slots.

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
:meth:`~repro.pipeline.scheme_api.BranchHandlingScheme.stream_key` tokens:
a wish lane replays the stream of the batch's conventional lane of the same
second level, or, in a batch without one, a prepass over its own branch
half that every such wish lane shares.  Each distinct stream is computed
one way, by its scheme's own hooks, once per batch.

Bit-exactness contract: every lane's :class:`SimulationResult` — metrics,
counters, per-branch accuracy records — is identical to what the scalar
engine produces for that (scheme, machine) cell.  The parity suite
(``tests/perf/test_batched_parity.py``) enforces this over randomized lane
sets; any change here must keep it green.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.emulator.tracepack import PackCursor, TracePack
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import DecisionStream, OutOfOrderCore, SimulationResult, _Rows
from repro.pipeline.scheme_api import BranchHandlingScheme, overridden_hooks


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


def _drive_scheme_stream(scheme: BranchHandlingScheme, rows: _Rows) -> DecisionStream:
    """Replay the branch rows through a scheme's own hooks (one stream).

    Cycle arguments are zero: a ``timing_independent`` scheme ignores them
    by contract.  The hook call sequence per branch (rename immediately
    followed by resolved) is exactly the timing loop's, so the scheme's
    accuracy and counters come out bit-identical.
    """
    cur = PackCursor()
    on_rename = scheme.on_branch_rename
    on_resolved = scheme.on_branch_resolved
    fill = rows.fill
    overrides: List[bool] = []
    mispreds: List[bool] = []
    for i in rows.cond_rows:
        fill(cur, i)
        handling = on_rename(cur, 0, 0, 0)
        mispredicted = handling.final_prediction != cur.taken
        on_resolved(cur, 0, mispredicted)
        overrides.append(handling.override_flush)
        mispreds.append(mispredicted)
    return DecisionStream(overrides, mispreds, scheme.accuracy)


def simulate_lanes(
    pack: TracePack,
    lanes: Sequence[LaneSpec],
    program_name: str = "program",
) -> List[SimulationResult]:
    """Simulate every lane over one trace pack; results in lane order.

    Each result is bit-identical to running that lane's (scheme, machine)
    cell through the scalar engine.  Lanes whose branches are a
    stream-eligible scheme's share one decision-stream prepass per
    :meth:`~repro.pipeline.scheme_api.BranchHandlingScheme.stream_key`
    and carry it into the timing loop; their other hooks, if any, still
    run.  An empty pack raises ``ValueError``, as in the scalar engine.
    """
    if len(pack) == 0:
        raise ValueError("empty trace: nothing to simulate")
    rows = _Rows(pack, 0, len(pack), {})
    schemes = [lane.scheme_factory() for lane in lanes]

    # One prepass per stream key, driven on its first lane's branch scheme;
    # a source without a key gets a private stream.
    streams: Dict[object, DecisionStream] = {}
    lane_streams: List[Optional[DecisionStream]] = [None] * len(lanes)
    for i, scheme in enumerate(schemes):
        source = stream_source(scheme)
        if source is None:
            continue
        key = source.stream_key()
        if key is None:
            key = ("__lane__", i)
        stream = streams.get(key)
        if stream is None:
            # The first lane takes the prepass's own accuracy record.
            stream = streams[key] = _drive_scheme_stream(source, rows)
            scheme.accuracy = stream.accuracy
        else:
            scheme.accuracy = stream.accuracy.copy()
        lane_streams[i] = stream

    results: List[SimulationResult] = []
    for lane, scheme, stream in zip(lanes, schemes, lane_streams):
        core = OutOfOrderCore(config=lane.config)
        state = core._loop_state(scheme)
        core._run_rows(state, rows, stream)
        results.append(core._finalize(state, program_name))
    return results
