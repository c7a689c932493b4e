"""Lane-batched multi-cell simulation: N (scheme, machine) cells, one trace.

Sweep-shaped workloads (the ROB-scaling scenario, predictor-geometry
studies, Table 4 idealization ladders) simulate the *same benchmark trace*
under many (scheme, machine) configurations.  The scalar engine runs each
cell through :meth:`~repro.pipeline.core.OutOfOrderCore._run_fast`, paying
the trace-decoding and per-row bookkeeping cost once per cell.  This module
runs all cells of one :class:`~repro.emulator.tracepack.TracePack` as
*lanes* of a single batched job:

* **Shared, once per batch** — the pack's column decode (one ``tolist`` per
  column), the per-static-instruction decode records (register keys, issue
  queue selection, functional-unit class — the ``_Decode`` work of the
  scalar fast loop), fetch-block ids, fetch-group-ending flags, and the
  per-unit issue totals.
* **Per lane** — everything cycle-dependent: the memory hierarchy (the
  shared L2 makes fetch stalls a function of the lane's own data-side
  traffic), load/store unit, issue queues, ROB window, register timing and
  functional-unit slots.

Lanes come in two tiers:

* **Stream lanes** — schemes that declare
  :attr:`~repro.pipeline.scheme_api.BranchHandlingScheme.timing_independent`
  and override no other hook.  Their prediction evolution is a pure
  function of the branch rows, so it is replayed *once per scheme spec* in
  a prepass (the **decision stream**: per-conditional-branch override and
  mispredict flags) and shared by every machine lane of that spec.  The
  timing loop for these lanes (:func:`_run_stream_lane`) makes no scheme
  calls at all: it reads two precomputed flags per conditional branch and
  keeps the fetch engine and rename slotter inlined as locals.
* **Hook lanes** — timing-dependent schemes (predicate prediction, PEP-PA
  read producer/consumer cycles).  These run the *scalar* fast loop with a
  per-lane scheme over a shared-column cursor, so their semantics are the
  scalar path's by construction; they still save the per-lane column
  decode.

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

from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.emulator.tracepack import PackCursor, TracePack
from repro.isa.branches import BranchInstruction
from repro.isa.compare import CompareInstruction
from repro.isa.opcodes import FunctionalUnitClass, OpClass
from repro.isa.registers import Register
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import OutOfOrderCore, SimulationResult, _reg_key
from repro.pipeline.lsq import LoadStoreUnit
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.resources import FunctionalUnitPool
from repro.pipeline.scheme_api import BranchHandlingScheme
from repro.predictors.batched import ConventionalLaneBank
from repro.stats.accuracy import BranchAccuracy, BranchRecord

#: Stable small-integer ids for functional-unit classes, shared by every
#: lane of a batch (the per-lane slot tables are plain lists indexed by
#: these instead of dicts keyed by enum members).
_UNITS: Tuple[FunctionalUnitClass, ...] = tuple(FunctionalUnitClass)
_UNIT_INDEX: Dict[FunctionalUnitClass, int] = {u: i for i, u in enumerate(_UNITS)}


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


class _StaticDecode:
    """Machine-independent decode record of one static instruction.

    The pure subset of the scalar fast loop's ``_Decode``: everything that
    does not capture run-local resource objects, so one record serves every
    lane of the batch.  Lanes map ``unit_index`` / ``queue_sel`` to their
    own slot lists and deques.
    """

    __slots__ = (
        "kind",  # 0 = simple, 1 = branch, 2 = compare
        "latency",
        "unit",
        "unit_index",
        "queue_sel",  # -1 = memory (LSQ), 0 = int, 1 = fp, 2 = branch
        "is_memory",
        "is_load",
        "is_store",
        "is_predicated",
        "qp_key",
        "is_cond_branch",
        "src_keys",
        "cons_keys",
        "cmp_src_keys",
        "dest_keys",
        "stream_keys",  # source set of a stream lane (always conservative)
    )


def _build_static(inst) -> _StaticDecode:
    """Shared-decode one static instruction (reference: ``_build_decode``)."""
    info = inst.info
    opclass = info.opclass
    de = _StaticDecode()
    de.latency = info.latency
    de.is_load = opclass is OpClass.LOAD
    de.is_store = opclass is OpClass.STORE
    de.is_memory = de.is_load or de.is_store
    de.is_predicated = inst.is_predicated
    de.qp_key = _reg_key(inst.qp) if de.is_predicated else -1

    if opclass is OpClass.BRANCH:
        de.kind = 1
        unit = FunctionalUnitClass.BRANCH_UNIT
        de.is_cond_branch = isinstance(inst, BranchInstruction) and inst.is_conditional
    elif opclass is OpClass.COMPARE:
        de.kind = 2
        unit = info.unit
        de.is_cond_branch = False
    else:
        de.kind = 0
        unit = info.unit
        de.is_cond_branch = False
    de.unit = unit
    de.unit_index = _UNIT_INDEX[unit]

    if de.is_memory:
        de.queue_sel = -1
    elif opclass is OpClass.BRANCH:
        de.queue_sel = 2
    elif info.unit is FunctionalUnitClass.FP_UNIT:
        de.queue_sel = 1
    else:
        de.queue_sel = 0

    src_regs = [s for s in inst.srcs if isinstance(s, Register)]
    de.src_keys = tuple(_reg_key(r) for r in src_regs if not r.is_hardwired)
    de.dest_keys = tuple(_reg_key(r) for r in inst.destination_registers())
    cons = list(de.src_keys)
    if de.is_predicated:
        cons.append(de.qp_key)
    cons.extend(de.dest_keys)
    de.cons_keys = tuple(cons)
    cmp_keys = list(de.src_keys)
    if de.is_predicated:
        cmp_keys.append(de.qp_key)
    if isinstance(inst, CompareInstruction) and inst.ctype.depends_on_previous_values:
        cmp_keys.extend(_reg_key(r) for r in inst.predicate_destinations())
    de.cmp_src_keys = cmp_keys and tuple(cmp_keys) or ()
    # A stream lane handles every predicated instruction conservatively
    # (the base scheme's on_predicated_rename), so its source set is fixed.
    de.stream_keys = de.cons_keys if de.is_predicated else de.src_keys
    return de


class _SharedTrace:
    """One pack decoded into row lists + static decodes, shared by all lanes."""

    __slots__ = (
        "n_rows",
        "insts",
        "statics",
        "inst_idx",
        "seqs",
        "pcs",
        "qps",
        "execs",
        "takens",
        "targets",
        "nexts",
        "mems",
        "writes",
        "producers",
        "branch_flags",
        "compare_flags",
        "cond_flags",
        "row_decodes",
        "blocks",
        "ends_group",
        "branch_row_indices",
        "n_cond",
        "executed_count",
        "conservative_count",
        "unit_counts",
    )

    def __init__(self, pack: TracePack) -> None:
        self.insts = pack.insts
        self.inst_idx = pack.inst_index.tolist()
        self.seqs = pack.seq.tolist()
        self.pcs = pack.pc.tolist()
        self.qps = (pack.qp_value != 0).tolist()
        self.execs = (pack.executed != 0).tolist()
        self.takens = [None if t < 0 else bool(t) for t in pack.taken.tolist()]
        self.targets = [None if t < 0 else t for t in pack.target_pc.tolist()]
        self.nexts = [None if t < 0 else t for t in pack.next_pc.tolist()]
        self.mems = [
            m if v else None
            for m, v in zip(pack.mem_address.tolist(), pack.mem_valid.tolist())
        ]
        self.writes = pack._materialise_pred_writes()
        self.producers = pack.guard_producer_seq.tolist()
        branch_f, compare_f, cond_f = pack._cursor_static_flags()
        self.branch_flags = branch_f
        self.compare_flags = compare_f
        self.cond_flags = cond_f
        self.n_rows = len(self.seqs)

        statics = [_build_static(inst) for inst in self.insts]
        self.statics = statics
        inst_idx = self.inst_idx
        self.row_decodes = [statics[j] for j in inst_idx]
        self.blocks = [pc >> 6 for pc in self.pcs]
        self.ends_group = [
            branch_f[j] and t is True for j, t in zip(inst_idx, self.takens)
        ]
        self.branch_row_indices = [
            i for i, j in enumerate(inst_idx) if cond_f[j]
        ]
        self.n_cond = len(self.branch_row_indices)
        self.executed_count = sum(self.execs)

        # Lane-invariant issue accounting of stream lanes: every dynamic
        # row issues exactly once there (no rename-stage cancels without
        # predicate prediction), so the per-unit totals are row counts.
        unit_counts: Dict[FunctionalUnitClass, int] = {}
        conservative = 0
        for de in self.row_decodes:
            unit = de.unit
            unit_counts[unit] = unit_counts.get(unit, 0) + 1
            if de.kind == 0 and de.is_predicated:
                conservative += 1
        self.unit_counts = unit_counts
        self.conservative_count = conservative

    # ------------------------------------------------------------------
    def cursor(self) -> Iterator[PackCursor]:
        """A pack-cursor view over the shared row lists (hook lanes).

        Field-for-field the generator of :meth:`TracePack.cursor`, minus
        the per-lane column decode — hook lanes feed this straight into
        the scalar fast loop.
        """
        cur = PackCursor()
        insts = self.insts
        inst_idx = self.inst_idx
        seqs = self.seqs
        pcs = self.pcs
        qps = self.qps
        execs = self.execs
        takens = self.takens
        targets = self.targets
        nexts = self.nexts
        mems = self.mems
        writes = self.writes
        producers = self.producers
        branch_f = self.branch_flags
        compare_f = self.compare_flags
        cond_f = self.cond_flags
        for i in range(self.n_rows):
            static = inst_idx[i]
            cur.seq = seqs[i]
            cur.inst = insts[static]
            cur.pc = pcs[i]
            cur.qp_value = qps[i]
            cur.executed = execs[i]
            cur.taken = takens[i]
            cur.target_pc = targets[i]
            cur.next_pc = nexts[i]
            cur.mem_address = mems[i]
            cur.pred_writes = writes[i]
            cur.guard_producer_seq = producers[i]
            cur.is_branch = branch_f[static]
            cur.is_compare = compare_f[static]
            cur.is_conditional_branch = cond_f[static]
            yield cur

    def _branch_cursor_at(self, cur: PackCursor, i: int) -> PackCursor:
        """Populate ``cur`` with conditional-branch row ``i`` (prepass)."""
        static = self.inst_idx[i]
        cur.seq = self.seqs[i]
        cur.inst = self.insts[static]
        cur.pc = self.pcs[i]
        cur.qp_value = self.qps[i]
        cur.executed = self.execs[i]
        cur.taken = self.takens[i]
        cur.target_pc = self.targets[i]
        cur.next_pc = self.nexts[i]
        cur.mem_address = self.mems[i]
        cur.pred_writes = self.writes[i]
        cur.guard_producer_seq = self.producers[i]
        cur.is_branch = True
        cur.is_compare = False
        cur.is_conditional_branch = True
        return cur


class _DecisionStream:
    """One scheme spec's prediction evolution over the batch's trace."""

    __slots__ = ("overrides", "mispreds", "override_count", "mispredict_count", "records")

    def __init__(
        self,
        overrides: List[bool],
        mispreds: List[bool],
        records: List[BranchRecord],
    ) -> None:
        self.overrides = overrides
        self.mispreds = mispreds
        self.override_count = sum(overrides)
        self.mispredict_count = sum(mispreds)
        self.records = records


def stream_eligible(scheme: BranchHandlingScheme) -> bool:
    """True when ``scheme`` can run as a decision-stream lane.

    Requires the scheme's declaration that its hooks ignore pipeline
    timestamps, *and* that it overrides no hook beyond the branch pair —
    an overridden compare/fetch/predicate hook means the scheme observes
    (or steers) rows the stream replay never visits.
    """
    cls = type(scheme)
    base = BranchHandlingScheme
    return (
        scheme.timing_independent
        and cls.on_fetch is base.on_fetch
        and cls.on_compare_rename is base.on_compare_rename
        and cls.on_compare_complete is base.on_compare_complete
        and cls.on_predicated_rename is base.on_predicated_rename
    )


def _drive_scheme_stream(
    scheme: BranchHandlingScheme, shared: _SharedTrace
) -> _DecisionStream:
    """Replay the branch rows through a scheme's own hooks (one spec).

    Cycle arguments are zero: a ``timing_independent`` scheme ignores them
    by contract.  The hook call sequence per branch (rename immediately
    followed by resolved) is exactly the scalar fast loop's, so the
    scheme's accuracy records and counters come out bit-identical.
    """
    cur = PackCursor()
    on_rename = scheme.on_branch_rename
    on_resolved = scheme.on_branch_resolved
    fill = shared._branch_cursor_at
    overrides: List[bool] = []
    mispreds: List[bool] = []
    for i in shared.branch_row_indices:
        fill(cur, i)
        handling = on_rename(cur, 0, 0, 0)
        mispredicted = handling.final_prediction != cur.taken
        on_resolved(cur, 0, mispredicted)
        overrides.append(handling.override_flush)
        mispreds.append(mispredicted)
    return _DecisionStream(overrides, mispreds, scheme.accuracy.records)


def _drive_bank(
    profile, schemes: Sequence[BranchHandlingScheme], shared: _SharedTrace
) -> List[_DecisionStream]:
    """Replay the branch rows through a lane-axis predictor bank.

    ``schemes`` are the representatives of distinct same-geometry specs;
    their accuracy records are filled exactly as their own hooks would
    have, while the perceptron state steps as one ``(lanes, entries,
    num_weights)`` array (:class:`ConventionalLaneBank`).
    """
    lanes = len(schemes)
    bank = ConventionalLaneBank(profile, lanes)
    step = bank.step
    record_lists = [scheme.accuracy.records for scheme in schemes]
    override_lists: List[List[bool]] = [[] for _ in range(lanes)]
    mispred_lists: List[List[bool]] = [[] for _ in range(lanes)]
    pcs = shared.pcs
    takens = shared.takens
    for i in shared.branch_row_indices:
        pc = pcs[i]
        actual = takens[i] is True
        fast, finals, overrides = step(pc, actual)
        for k in range(lanes):
            final = finals[k]
            record_lists[k].append(
                BranchRecord(
                    pc=pc,
                    actual=actual,
                    predicted=final,
                    fetch_prediction=fast,
                    early_resolved=False,
                )
            )
            override_lists[k].append(overrides[k])
            mispred_lists[k].append(final != actual)
    return [
        _DecisionStream(override_lists[k], mispred_lists[k], record_lists[k])
        for k in range(lanes)
    ]


def _run_stream_lane(
    shared: _SharedTrace,
    cfg: PipelineConfig,
    stream: _DecisionStream,
    accuracy: BranchAccuracy,
    scheme_name: str,
    program_name: str,
) -> SimulationResult:
    """The stream-lane timing loop: scalar-fast-loop semantics, no scheme.

    Per conditional branch the loop reads two precomputed flags from the
    spec's decision stream; the fetch engine, rename/commit slotters and
    sliding windows are inlined as locals (with ``-1`` sentinels replacing
    the scalar path's ``None`` states).  Any edit here must keep the
    batched parity suite bit-identical against ``_run_fast``.
    """
    memory = MemoryHierarchy()
    fetch_latency = memory.fetch_latency
    lsu = LoadStoreUnit(cfg, memory)
    fus = FunctionalUnitPool(cfg.fu_counts)
    slot_table = [fus._next_free.get(unit) for unit in _UNITS]

    rob_q: deque = deque()
    rob_cap = cfg.rob_entries
    int_q: deque = deque()
    fp_q: deque = deque()
    br_q: deque = deque()
    queues = (int_q, fp_q, br_q)
    caps = (cfg.int_queue_entries, cfg.fp_queue_entries, cfg.branch_queue_entries)
    br_cap = cfg.branch_queue_entries
    rn_width = cfg.rename_width
    cm_width = cfg.commit_width
    fetch_width = cfg.fetch_width
    fetch_to_rename = cfg.fetch_to_rename
    override_flush_penalty = cfg.override_flush_penalty
    branch_mispredict_penalty = cfg.branch_mispredict_penalty

    queue_constraint = lsu.queue_constraint
    load_complete_cycle = lsu.load_complete_cycle
    store_execute = lsu.store_execute
    store_commit_penalty = lsu.store_commit_penalty
    record_allocation = lsu.record_allocation

    regs: Dict[int, int] = {}
    regs_get = regs.get

    overrides = stream.overrides
    mispreds = stream.mispreds
    bi = 0  # decision-stream position (conditional branches, fetch order)

    # Inlined FetchEngine state (-1 sentinels for "no block"/"no redirect").
    group_cycle = 0
    group_slots = 0
    last_block = -1
    pending_redirect = -1
    icache_stalls = 0
    redirects = 0
    # Inlined rename/commit slotters.
    rn_cycle = -1
    rn_used = 0
    cm_cycle = -1
    cm_used = 0
    last_commit = 0

    for de, pc, block, ends_group, execd, mem in zip(
        shared.row_decodes,
        shared.pcs,
        shared.blocks,
        shared.ends_group,
        shared.execs,
        shared.mems,
    ):
        # ----------------------------------------------------- fetch
        cycle = group_cycle
        if pending_redirect >= 0:
            if pending_redirect > cycle:
                cycle = pending_redirect
                group_slots = 0
            pending_redirect = -1
        if group_slots >= fetch_width:
            cycle += 1
            group_slots = 0
        if block != last_block:
            last_block = block
            latency = fetch_latency(pc, cycle)
            if latency > 1:
                stall = latency - 1
                cycle += stall
                icache_stalls += stall
                group_slots = 0
        fetch_cycle = cycle
        group_slots += 1
        group_cycle = cycle
        if ends_group:  # taken control transfer ends the fetch group
            group_cycle = cycle + 1
            group_slots = 0
            last_block = -1

        # ---------------------------------------------------- rename
        cycle = fetch_cycle + fetch_to_rename
        if len(rob_q) >= rob_cap and rob_q[0] > cycle:
            cycle = rob_q[0]
        qsel = de.queue_sel
        if qsel < 0:
            cycle = queue_constraint(de.is_store, cycle)
        else:
            queue = queues[qsel]
            if len(queue) >= caps[qsel] and queue[0] > cycle:
                cycle = queue[0]
        if cycle < rn_cycle:
            cycle = rn_cycle
        if cycle == rn_cycle and rn_used >= rn_width:
            cycle += 1
        if cycle > rn_cycle:
            rn_cycle = cycle
            rn_used = 1
        else:
            rn_used += 1
        rename_cycle = cycle

        kind = de.kind
        # ------------------------------------------- per-class handling
        if kind == 1:  # branch
            ready = rename_cycle + 2
            if de.is_predicated:
                guard_ready = regs_get(de.qp_key, 0)
                if guard_ready > ready:
                    ready = guard_ready
            slots = slot_table[de.unit_index]
            best = min(slots)
            issue = ready if ready > best else best
            slots[slots.index(best)] = issue + 1
            if len(br_q) >= br_cap:
                br_q.popleft()
            br_q.append(issue)
            complete = issue + de.latency

            if de.is_cond_branch:
                over = overrides[bi]
                mis = mispreds[bi]
                bi += 1
                if mis:
                    redirects += 1
                    redirect = complete + branch_mispredict_penalty
                    if redirect > pending_redirect:
                        pending_redirect = redirect
                elif over:
                    redirects += 1
                    redirect = rename_cycle + override_flush_penalty
                    if redirect > pending_redirect:
                        pending_redirect = redirect

        elif kind == 2:  # compare
            ready = rename_cycle + 2
            for key in de.cmp_src_keys:
                t = regs_get(key, 0)
                if t > ready:
                    ready = t
            slots = slot_table[de.unit_index]
            best = min(slots)
            issue = ready if ready > best else best
            slots[slots.index(best)] = issue + 1
            queue = queues[qsel]
            if len(queue) >= caps[qsel]:
                queue.popleft()
            queue.append(issue)
            complete = issue + de.latency
            for key in de.dest_keys:
                regs[key] = complete

        else:  # simple; always conservative (no predicate prediction)
            ready = rename_cycle + 2
            for key in de.stream_keys:
                t = regs_get(key, 0)
                if t > ready:
                    ready = t
            slots = slot_table[de.unit_index]
            best = min(slots)
            issue = ready if ready > best else best
            slots[slots.index(best)] = issue + 1
            if qsel < 0:
                address = mem if execd else None
                if de.is_load:
                    complete = load_complete_cycle(address, issue)
                else:
                    complete = issue + de.latency
                    store_execute(address, complete)
            else:
                queue = queues[qsel]
                if len(queue) >= caps[qsel]:
                    queue.popleft()
                queue.append(issue)
                complete = issue + de.latency
            for key in de.dest_keys:
                regs[key] = complete

        # ---------------------------------------------------- commit
        commit = complete + 1
        if de.is_store and execd:
            commit += store_commit_penalty(mem, complete)
        if commit < cm_cycle:
            commit = cm_cycle
        if commit == cm_cycle and cm_used >= cm_width:
            commit += 1
        if commit > cm_cycle:
            cm_cycle = commit
            cm_used = 0
        cm_used += 1
        if commit > last_commit:
            last_commit = commit

        if len(rob_q) >= rob_cap:
            rob_q.popleft()
        rob_q.append(commit)
        if qsel < 0:
            record_allocation(de.is_store, commit)

    metrics = PipelineMetrics()
    n = shared.n_rows
    metrics.fetched_instructions = n
    metrics.committed_instructions = n
    metrics.executed_instructions = shared.executed_count
    metrics.nullified_instructions = n - shared.executed_count
    metrics.conditional_branches = shared.n_cond
    metrics.branch_mispredictions = stream.mispredict_count
    metrics.override_flushes = stream.override_count
    metrics.predicate_flushes = 0
    metrics.cancelled_at_rename = 0
    metrics.conservative_predicated = shared.conservative_count
    metrics.assume_true_predicated = 0
    metrics.cycles = last_commit
    metrics.memory_stats = memory.statistics()
    issue_counts = fus.issue_counts
    for unit, count in shared.unit_counts.items():
        issue_counts[unit] = issue_counts.get(unit, 0) + count
    metrics.fu_utilisation = fus.utilisation()
    metrics.counters.set("lsq_forwarded_loads", lsu.forwarded_loads)
    metrics.counters.set("fetch_redirects", redirects)
    metrics.counters.set("icache_stall_cycles", icache_stalls)

    return SimulationResult(
        program_name=program_name,
        scheme_name=scheme_name,
        metrics=metrics,
        accuracy=accuracy,
        uops=None,
    )


def simulate_lanes(
    pack: TracePack,
    lanes: Sequence[LaneSpec],
    program_name: str = "program",
) -> List[SimulationResult]:
    """Simulate every lane over one trace pack; results in lane order.

    Each result is bit-identical to running that lane's (scheme, machine)
    cell through the scalar engine.  Stream-eligible lanes share one
    decision-stream prepass per scheme spec (lane-axis banked across
    same-geometry specs); the rest run the scalar fast loop over the
    shared column decode.
    """
    shared = _SharedTrace(pack)
    schemes = [lane.scheme_factory() for lane in lanes]
    results: List[Optional[SimulationResult]] = [None] * len(lanes)

    stream_idx = [i for i, s in enumerate(schemes) if stream_eligible(s)]
    hook_idx = [i for i in range(len(lanes)) if i not in set(stream_idx)]

    # One decision stream per scheme spec (lanes without a group key get a
    # private stream).
    spec_groups: Dict[object, List[int]] = {}
    for i in stream_idx:
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
        for key, stream in zip(keys, _drive_bank(profile, reps, shared)):
            streams[key] = stream

    for key, members in spec_groups.items():
        if key not in streams:
            streams[key] = _drive_scheme_stream(schemes[members[0]], shared)

    for key, members in spec_groups.items():
        stream = streams[key]
        for position, i in enumerate(members):
            if position == 0:
                # The spec representative's scheme already holds the
                # stream's records (its hooks — or the bank — built them).
                accuracy = schemes[i].accuracy
            else:
                accuracy = BranchAccuracy(records=list(stream.records))
            results[i] = _run_stream_lane(
                shared,
                lanes[i].config,
                stream,
                accuracy,
                schemes[i].name,
                program_name,
            )

    for i in hook_idx:
        core = OutOfOrderCore(config=lanes[i].config, optimized=True)
        results[i] = core._run_fast(shared.cursor(), schemes[i], program_name)

    return results
