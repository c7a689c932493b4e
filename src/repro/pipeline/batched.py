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
rows.  What differs is the scheme the loop sees:

* **Stream lanes** — schemes that declare
  :attr:`~repro.pipeline.scheme_api.BranchHandlingScheme.timing_independent`
  and override no hook beyond the branch pair.  Their prediction evolution
  is a pure function of the branch rows, so it is replayed *once per scheme
  spec* in a prepass (the **decision stream**: per-conditional-branch
  override and mispredict flags) and every machine lane of that spec runs a
  :class:`~repro.pipeline.core.DecisionReplay` of it, which the loop reads
  without any hook call.
* **Hook lanes** — every other scheme (predicate prediction, PEP-PA and
  wish read cycles; predicate-aware folds compare results) runs as itself,
  one instance per lane; the loop calls only the hooks it overrides.

When a batch carries several *distinct* stream specs with the same
predictor geometry (``lane_bank_profile``), the prepass steps them in
lockstep through a :class:`~repro.predictors.batched.ConventionalLaneBank`,
which keeps the divergent perceptron weights as one lane-axis numpy array.

Bit-exactness contract: every lane's :class:`SimulationResult` — metrics,
counters, per-branch accuracy records — is identical to what the scalar
engine produces for that (scheme, machine) cell.  The parity suite
(``tests/perf/test_batched_parity.py``) enforces this over randomized lane
sets; any change here must keep it green.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.emulator.tracepack import PackCursor, TracePack
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import DecisionReplay, OutOfOrderCore, SimulationResult, _Rows
from repro.pipeline.scheme_api import BranchHandlingScheme, overridden_hooks
from repro.predictors.batched import ConventionalLaneBank
from repro.stats.accuracy import BranchAccuracy


class LaneSpec:
    """One cell of a batch: how to build its scheme, and its machine config.

    ``group_key`` identifies the scheme *spec* (any hashable; the engine
    passes the :class:`~repro.engine.jobs.SchemeSpec`).  Lanes with equal
    keys share one decision stream in the prepass; ``None`` opts a lane out
    of sharing.
    """

    __slots__ = ("scheme_factory", "config", "group_key")

    def __init__(self, scheme_factory, config: PipelineConfig, group_key=None) -> None:
        self.scheme_factory = scheme_factory
        self.config = config
        self.group_key = group_key


class _DecisionStream:
    """One scheme spec's prediction evolution over the batch's trace."""

    __slots__ = ("overrides", "mispreds", "accuracy")

    def __init__(
        self,
        overrides: List[bool],
        mispreds: List[bool],
        accuracy: BranchAccuracy,
    ) -> None:
        self.overrides = overrides
        self.mispreds = mispreds
        self.accuracy = accuracy


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


def _drive_scheme_stream(scheme: BranchHandlingScheme, rows: _Rows) -> _DecisionStream:
    """Replay the branch rows through a scheme's own hooks (one spec).

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
    return _DecisionStream(overrides, mispreds, scheme.accuracy)


def _drive_bank(
    profile, schemes: Sequence[BranchHandlingScheme], rows: _Rows
) -> List[_DecisionStream]:
    """Replay the branch rows through a lane-axis predictor bank.

    ``schemes`` are the representatives of distinct same-geometry specs;
    their accuracies are filled exactly as their own hooks would have,
    while the perceptron state steps as one ``(lanes, entries,
    num_weights)`` array (:class:`ConventionalLaneBank`).
    """
    lanes = len(schemes)
    bank = ConventionalLaneBank(profile, lanes)
    step = bank.step
    adds = [scheme.accuracy.add for scheme in schemes]
    override_lists: List[List[bool]] = [[] for _ in range(lanes)]
    mispred_lists: List[List[bool]] = [[] for _ in range(lanes)]
    pcs = rows.pcs
    takens = rows.takens
    for i in rows.cond_rows:
        pc = pcs[i]
        actual = takens[i] is True
        fast, finals, overrides = step(pc, actual)
        for k in range(lanes):
            final = finals[k]
            adds[k](pc, actual, final, fast)
            override_lists[k].append(overrides[k])
            mispred_lists[k].append(final != actual)
    return [
        _DecisionStream(override_lists[k], mispred_lists[k], schemes[k].accuracy)
        for k in range(lanes)
    ]


def simulate_lanes(
    pack: TracePack,
    lanes: Sequence[LaneSpec],
    program_name: str = "program",
) -> List[SimulationResult]:
    """Simulate every lane over one trace pack; results in lane order.

    Each result is bit-identical to running that lane's (scheme, machine)
    cell through the scalar engine.  Stream-eligible lanes share one
    decision-stream prepass per scheme spec (lane-axis banked across
    same-geometry specs) and replay it; the rest run their own scheme.
    """
    rows = _Rows(pack, 0, len(pack), {})
    schemes = [lane.scheme_factory() for lane in lanes]

    # One decision stream per scheme spec (lanes without a group key get a
    # private stream).
    spec_groups: Dict[object, List[int]] = {}
    for i, scheme in enumerate(schemes):
        if stream_eligible(scheme):
            key = lanes[i].group_key
            if key is None:
                key = ("__lane__", i)
            spec_groups.setdefault(key, []).append(i)

    # Distinct same-geometry specs step in lockstep through the lane bank.
    streams: Dict[object, _DecisionStream] = {}
    profile_groups: Dict[object, List[object]] = {}
    for key, members in spec_groups.items():
        profile = schemes[members[0]].lane_bank_profile()
        if profile is not None:
            profile_groups.setdefault(profile, []).append(key)
    for profile, keys in profile_groups.items():
        if len(keys) < 2:
            continue
        reps = [schemes[spec_groups[key][0]] for key in keys]
        for key, stream in zip(keys, _drive_bank(profile, reps, rows)):
            streams[key] = stream

    for key, members in spec_groups.items():
        if key not in streams:
            streams[key] = _drive_scheme_stream(schemes[members[0]], rows)
        stream = streams[key]
        for position, i in enumerate(members):
            if position == 0:
                # The spec representative's scheme already holds the
                # stream's accuracy (its hooks — or the bank — built it).
                accuracy = stream.accuracy
            else:
                accuracy = stream.accuracy.copy()
            schemes[i] = DecisionReplay(
                schemes[i].name, accuracy, stream.overrides, stream.mispreds
            )

    results: List[SimulationResult] = []
    for lane, scheme in zip(lanes, schemes):
        core = OutOfOrderCore(config=lane.config)
        state = core._loop_state(scheme)
        core._run_rows(state, rows)
        results.append(core._finalize(state, program_name))
    return results
