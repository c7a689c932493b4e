"""The out-of-order core: a one-pass, trace-driven timing engine.

For every dynamic instruction the engine computes the cycle at which it
passes each stage of the eight-stage pipeline, subject to the fetch, rename,
window, functional-unit and memory constraints configured in
:class:`~repro.pipeline.config.PipelineConfig`, and calls the branch-handling
scheme's hooks at the pipeline positions the paper's mechanisms care about:

* predictions are initiated at **fetch** (``on_fetch``);
* the PPRF is written and read at **rename** (``on_compare_rename``,
  ``on_branch_rename``, ``on_predicated_rename``) — this is where the
  prediction stored by the compare overrides the fetch-time prediction, and
  where early-resolved branches read the already-computed value;
* computed predicate values appear at **execute/writeback**
  (``on_compare_complete``), which is also when mispredictions caused by
  consumed predictions are discovered and flushes are charged;
* branches train their predictors when they **resolve**
  (``on_branch_resolved``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.emulator.executor import DynInst
from repro.emulator.tracepack import ChunkedTracePack, TracePack
from repro.isa.branches import BranchInstruction
from repro.isa.compare import CompareInstruction
from repro.isa.opcodes import FunctionalUnitClass, OpClass
from repro.isa.registers import Register, RegisterKind
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import PipelineConfig
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.lsq import LoadStoreUnit
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.resources import (
    FunctionalUnitPool,
    RegisterTimingTable,
    SlidingWindowResource,
)
from repro.pipeline.scheme_api import BranchHandlingScheme
from repro.pipeline.uop import RenameDecision, Uop
from repro.stats.accuracy import BranchAccuracy


@dataclass
class SimulationResult:
    """Everything a simulation run produces."""

    program_name: str
    scheme_name: str
    metrics: PipelineMetrics
    accuracy: BranchAccuracy
    uops: Optional[List[Uop]] = field(default=None, repr=False)
    #: Set by the windowed runner when the run was *sampled* (a
    #: :class:`repro.pipeline.windowed.SamplingSpec`): the metrics cover
    #: only the measured windows, so result tables must flag them.
    sampling: Optional[object] = None

    @property
    def sampled(self) -> bool:
        return self.sampling is not None

    @property
    def ipc(self) -> float:
        return self.metrics.ipc

    @property
    def misprediction_rate(self) -> float:
        return self.accuracy.misprediction_rate


class _InOrderSlotter:
    """Width-limited, in-order slot assignment (rename and commit stages)."""

    __slots__ = ("width", "_cycle", "_used")

    def __init__(self, width: int) -> None:
        self.width = width
        self._cycle = -1
        self._used = 0

    def place(self, earliest: int) -> int:
        cycle = max(earliest, self._cycle)
        if cycle == self._cycle and self._used >= self.width:
            cycle += 1
        if cycle > self._cycle:
            self._cycle = cycle
            self._used = 0
        self._used += 1
        return cycle


#: Compact integer keys for architectural registers, used by the fast
#: path's register-timing dict (hashing a small int is much cheaper than
#: hashing a frozen ``Register`` dataclass).
_KIND_CODE = {
    RegisterKind.GENERAL: 0,
    RegisterKind.PREDICATE: 1,
    RegisterKind.BRANCH: 2,
    RegisterKind.FLOAT: 3,
}


def _reg_key(reg: Register) -> int:
    return (_KIND_CODE[reg.kind] << 8) | reg.index


class _Decode:
    """Per-static-instruction decode/dispatch record of the fast path.

    Everything the timing loop derives from an :class:`Instruction` through
    property chains (``info`` -> ``opclass`` -> ``is_*``, issue queue
    selection, source/destination register sets) is computed once per
    static instruction and reused for every dynamic instance.  Built per
    run because it captures run-local resource objects (functional-unit
    slot lists, issue-queue deques).
    """

    __slots__ = (
        "kind",  # 0 = simple, 1 = branch, 2 = compare
        "latency",
        "unit",
        "slots",  # functional-unit next-free list (fast acquire)
        "count_cell",  # shared per-unit issue counter cell
        "queue",  # issue-queue deque (None for memory operations)
        "queue_cap",
        "is_memory",
        "is_load",
        "is_store",
        "is_predicated",
        "qp_key",
        "is_cond_branch",
        "src_keys",  # non-hardwired source register keys
        "cons_keys",  # conservative sources (srcs + qp + old dests)
        "cmp_src_keys",  # compare-path sources
        "dest_keys",  # non-hardwired destination register keys
    )


class _FastState:
    """The complete mutable state of one fast-loop run between windows.

    Everything :meth:`OutOfOrderCore._run_fast_window` reads or writes lives
    here — resource models, the register-timing dict, the decode cache, the
    metric accumulators and the scheme (whose predictors carry the branch
    history that makes resume correctness non-trivial).  Pickling one
    ``_FastState`` pickles the whole object graph in a single blob, so the
    shared-identity invariants the fast loop relies on (a ``_Decode``'s
    ``slots`` list *is* the functional-unit pool's next-free list, its
    ``queue`` *is* one of the issue-queue deques) survive a
    checkpoint/restore round trip via the pickle memo.  ``rows_done`` is
    the resume point; ``sampled_cycles`` accumulates measured-window cycle
    deltas when sampling is active (``None`` for full runs).
    """

    __slots__ = (
        "scheme",
        "fetch",
        "fus",
        "lsu",
        "memory",
        "rob_q",
        "int_q",
        "fp_q",
        "br_q",
        "rn_state",
        "cm_cycle",
        "cm_used",
        "regs",
        "unit_cells",
        "dcache",
        "n_insts",
        "n_executed",
        "n_cond_branches",
        "n_mispredictions",
        "n_override_flushes",
        "n_predicate_flushes",
        "n_cancelled",
        "n_conservative",
        "n_assume_true",
        "last_commit",
        "rows_done",
        "sampled_cycles",
    )

    #: The integer metric accumulators (snapshotted around sampling warmup).
    COUNTER_SLOTS = (
        "n_insts",
        "n_executed",
        "n_cond_branches",
        "n_mispredictions",
        "n_override_flushes",
        "n_predicate_flushes",
        "n_cancelled",
        "n_conservative",
        "n_assume_true",
    )

    def counter_snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.COUNTER_SLOTS}

    def restore_counters(self, snapshot: Dict[str, int]) -> None:
        for name, value in snapshot.items():
            setattr(self, name, value)


class OutOfOrderCore:
    """Trace-driven out-of-order timing model.

    The model has two implementations of the same semantics: the reference
    one-pass loop (:meth:`_run_reference`) and a profile-guided fast loop
    (:meth:`_run_fast`) that caches per-static-instruction decode records,
    inlines the resource models and keeps stage timestamps in locals
    instead of allocating a :class:`Uop` per dynamic instruction.  The
    parity tests assert bit-identical results on every tier-1 workload;
    ``optimized=False`` selects the reference loop, the parity oracle.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        memory: Optional[MemoryHierarchy] = None,
        optimized: bool = True,
    ) -> None:
        self.config = config or PipelineConfig()
        self.memory = memory if memory is not None else MemoryHierarchy()
        self.optimized = optimized

    # ------------------------------------------------------------------
    def run(
        self,
        trace: Iterable[DynInst],
        scheme: BranchHandlingScheme,
        program_name: str = "program",
        keep_uops: bool = False,
    ) -> SimulationResult:
        """Simulate ``trace`` under ``scheme`` and return the results.

        ``trace`` is either an iterable of :class:`DynInst` or a columnar
        :class:`~repro.emulator.tracepack.TracePack`.  The fast loop consumes
        a pack through its reusable cursor (no per-instruction object is
        materialised); the reference loop — and ``keep_uops``, which must
        retain per-instruction records — materialises the object trace.
        """
        if self.optimized and not keep_uops:
            if isinstance(trace, (TracePack, ChunkedTracePack)):
                trace = trace.cursor()
            return self._run_fast(trace, scheme, program_name)
        if isinstance(trace, (TracePack, ChunkedTracePack)):
            trace = trace.to_dyninsts()
        return self._run_reference(trace, scheme, program_name, keep_uops)

    # ------------------------------------------------------------------
    def _run_reference(
        self,
        trace: Iterable[DynInst],
        scheme: BranchHandlingScheme,
        program_name: str = "program",
        keep_uops: bool = False,
    ) -> SimulationResult:
        """The reference implementation of the timing loop."""
        cfg = self.config
        fetch = FetchEngine(cfg, self.memory)
        regs = RegisterTimingTable()
        fus = FunctionalUnitPool(cfg.fu_counts)
        lsu = LoadStoreUnit(cfg, self.memory)
        rob = SlidingWindowResource("rob", cfg.rob_entries)
        int_queue = SlidingWindowResource("int-iq", cfg.int_queue_entries)
        fp_queue = SlidingWindowResource("fp-iq", cfg.fp_queue_entries)
        branch_queue = SlidingWindowResource("br-iq", cfg.branch_queue_entries)
        rename_slots = _InOrderSlotter(cfg.rename_width)
        commit_slots = _InOrderSlotter(cfg.commit_width)

        metrics = PipelineMetrics()
        kept: Optional[List[Uop]] = [] if keep_uops else None
        last_commit = 0

        for dyn in trace:
            uop = Uop(dyn)
            inst = dyn.inst

            # ----------------------------------------------------- fetch
            uop.fetch_cycle = fetch.fetch(dyn)
            scheme.on_fetch(dyn, uop.fetch_cycle)
            uop.decode_cycle = uop.fetch_cycle + cfg.decode_latency

            # ---------------------------------------------------- rename
            queue = self._queue_resource(inst, int_queue, fp_queue, branch_queue)
            uop.rename_cycle = self._rename_cycle(uop, rob, lsu, rename_slots, queue)
            guard_ready = (
                regs.ready_cycle(inst.qp) if inst.is_predicated else 0
            )

            # ------------------------------------------- per-class handling
            if dyn.is_branch:
                self._handle_branch(
                    uop, scheme, fetch, fus, branch_queue, regs, metrics, guard_ready
                )
            elif dyn.is_compare:
                self._handle_compare(uop, scheme, fus, int_queue, fp_queue, regs)
            else:
                self._handle_simple(
                    uop,
                    scheme,
                    fetch,
                    fus,
                    int_queue,
                    fp_queue,
                    regs,
                    lsu,
                    rob,
                    rename_slots,
                    metrics,
                    guard_ready,
                )

            # ---------------------------------------------------- commit
            store_penalty = 0
            if inst.is_store and dyn.executed:
                store_penalty = lsu.store_commit_penalty(dyn.mem_address, uop.complete_cycle)
            uop.commit_cycle = commit_slots.place(uop.complete_cycle + 1 + store_penalty)
            last_commit = max(last_commit, uop.commit_cycle)

            rob.allocate(uop.commit_cycle)
            if inst.is_memory and not uop.cancelled:
                lsu.record_allocation(inst.is_store, uop.commit_cycle)

            # -------------------------------------------------- accounting
            metrics.fetched_instructions += 1
            metrics.committed_instructions += 1
            if dyn.executed:
                metrics.executed_instructions += 1
            else:
                metrics.nullified_instructions += 1
            if kept is not None:
                kept.append(uop)

        metrics.cycles = last_commit
        metrics.memory_stats = self.memory.statistics() if self.memory else {}
        metrics.fu_utilisation = fus.utilisation()
        metrics.counters.set("lsq_forwarded_loads", lsu.forwarded_loads)
        metrics.counters.set("fetch_redirects", fetch.redirects)
        metrics.counters.set("icache_stall_cycles", fetch.icache_stall_cycles)

        return SimulationResult(
            program_name=program_name,
            scheme_name=scheme.name,
            metrics=metrics,
            accuracy=scheme.accuracy,
            uops=kept,
        )

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def _build_decode(
        self,
        inst,
        fus: FunctionalUnitPool,
        unit_cells: Dict[FunctionalUnitClass, List[int]],
        int_q: deque,
        int_cap: int,
        fp_q: deque,
        fp_cap: int,
        br_q: deque,
        br_cap: int,
    ) -> _Decode:
        """Build the decode/dispatch record of one static instruction."""
        info = inst.info
        opclass = info.opclass
        de = _Decode()
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
        de.slots = fus._next_free[unit]
        cell = unit_cells.get(unit)
        if cell is None:
            cell = [0]
            unit_cells[unit] = cell
        de.count_cell = cell

        # Issue-queue selection (reference: _queue_resource).
        if de.is_memory:
            de.queue, de.queue_cap = None, 0
        elif opclass is OpClass.BRANCH:
            de.queue, de.queue_cap = br_q, br_cap
        elif info.unit is FunctionalUnitClass.FP_UNIT:
            de.queue, de.queue_cap = fp_q, fp_cap
        else:
            de.queue, de.queue_cap = int_q, int_cap

        # Register sets.  Hardwired registers always read as ready at cycle
        # 0 and readiness is lower-bounded by dispatch + 1 > 0, so they are
        # dropped from the source sets; destination_registers() and
        # predicate_destinations() already exclude hardwired targets.
        src_regs = [s for s in inst.srcs if isinstance(s, Register)]
        de.src_keys = [_reg_key(r) for r in src_regs if not r.is_hardwired]
        dest_regs = inst.destination_registers()
        de.dest_keys = [_reg_key(r) for r in dest_regs]
        cons = list(de.src_keys)
        if de.is_predicated:
            cons.append(de.qp_key)
        cons.extend(de.dest_keys)
        de.cons_keys = cons
        cmp_keys = list(de.src_keys)
        if de.is_predicated:
            cmp_keys.append(de.qp_key)
        if isinstance(inst, CompareInstruction) and inst.ctype.depends_on_previous_values:
            cmp_keys.extend(_reg_key(r) for r in inst.predicate_destinations())
        de.cmp_src_keys = cmp_keys
        return de

    def _run_fast(
        self,
        trace: Iterable[DynInst],
        scheme: BranchHandlingScheme,
        program_name: str = "program",
    ) -> SimulationResult:
        """Optimized timing loop: same semantics as :meth:`_run_reference`.

        One full-range window over a fresh :class:`_FastState` — exactly
        what the windowed runner (:mod:`repro.pipeline.windowed`) does in
        pieces, so windowed and straight-through execution are bit-identical
        by construction.
        """
        state = self._fast_state(scheme)
        self._run_fast_window(state, trace)
        return self._finalize_fast(state, program_name)

    def _fast_state(self, scheme: BranchHandlingScheme) -> _FastState:
        """A fresh fast-loop state (row zero, all resources idle)."""
        cfg = self.config
        state = _FastState()
        state.scheme = scheme
        state.memory = self.memory
        state.fetch = FetchEngine(cfg, self.memory)
        state.fus = FunctionalUnitPool(cfg.fu_counts)
        state.lsu = LoadStoreUnit(cfg, self.memory)
        state.rob_q = deque()
        state.int_q = deque()
        state.fp_q = deque()
        state.br_q = deque()
        state.rn_state = [-1, 0]  # rename slotter: (cycle, slots used)
        state.cm_cycle = -1
        state.cm_used = 0
        state.regs = {}
        state.unit_cells = {}
        state.dcache = {}
        for name in _FastState.COUNTER_SLOTS:
            setattr(state, name, 0)
        state.last_commit = 0
        state.rows_done = 0
        state.sampled_cycles = None
        return state

    def _run_fast_window(self, state: _FastState, trace: Iterable[DynInst]) -> None:
        """Drain ``trace`` through the fast timing loop, mutating ``state``.

        The loop keeps every per-instruction timestamp in locals, consults a
        per-static-instruction :class:`_Decode` record instead of walking
        instruction property chains, and inlines the sliding-window, slotter
        and functional-unit resource models.  Any behavioural change here
        must keep the parity tests green (bit-identical IPC and
        misprediction counters against the reference loop).  Callers bound
        the window by bounding ``trace`` (a range cursor); the loop itself
        has no notion of position beyond ``state.rows_done``.
        """
        cfg = self.config
        scheme = state.scheme
        fetch = state.fetch
        fus = state.fus
        lsu = state.lsu

        # Inline resource state (parity with SlidingWindowResource /
        # _InOrderSlotter, held as locals and written back on exit).
        rob_q = state.rob_q
        rob_cap = cfg.rob_entries
        int_q = state.int_q
        fp_q = state.fp_q
        br_q = state.br_q
        int_cap = cfg.int_queue_entries
        fp_cap = cfg.fp_queue_entries
        br_cap = cfg.branch_queue_entries
        rn_width = cfg.rename_width
        rn_state = state.rn_state
        cm_width = cfg.commit_width
        cm_cycle, cm_used = state.cm_cycle, state.cm_used

        # Register readiness: int register key -> value-ready cycle.
        regs = state.regs
        regs_get = regs.get

        # Per-static-instruction decode records, keyed by instruction uid.
        unit_cells = state.unit_cells
        dcache = state.dcache
        dcache_get = dcache.get
        build_decode = self._build_decode

        # Bound hot callables.  ``on_fetch`` runs once per dynamic
        # instruction; when the scheme never overrode the base no-op hook
        # (none of the paper's schemes do) the call is skipped entirely.
        fetch_one = fetch.fetch
        on_fetch = scheme.on_fetch
        if type(scheme).on_fetch is BranchHandlingScheme.on_fetch:
            on_fetch = None
        on_branch_rename = scheme.on_branch_rename
        on_branch_resolved = scheme.on_branch_resolved
        on_compare_rename = scheme.on_compare_rename
        on_compare_complete = scheme.on_compare_complete
        on_predicated_rename = scheme.on_predicated_rename
        fetch_to_rename = cfg.fetch_to_rename
        override_flush_penalty = cfg.override_flush_penalty
        branch_mispredict_penalty = cfg.branch_mispredict_penalty
        predicate_mispredict_penalty = cfg.predicate_mispredict_penalty
        CONSERVATIVE = RenameDecision.CONSERVATIVE
        ASSUME_TRUE = RenameDecision.ASSUME_TRUE
        CANCEL = RenameDecision.CANCEL

        def place_rename(fetch_cycle: int, de: _Decode) -> int:
            """Rename-stage placement (reference: _rename_cycle + slotter).

            Shared by the main loop and the predicate-flush re-rename path
            so the rename constraints cannot drift apart.
            """
            cycle = fetch_cycle + fetch_to_rename
            if len(rob_q) >= rob_cap and rob_q[0] > cycle:
                cycle = rob_q[0]
            if de.is_memory:
                cycle = lsu.queue_constraint(de.is_store, cycle)
            else:
                queue = de.queue
                if queue is not None and len(queue) >= de.queue_cap and queue[0] > cycle:
                    cycle = queue[0]
            slot_cycle, slot_used = rn_state
            if cycle < slot_cycle:
                cycle = slot_cycle
            if cycle == slot_cycle and slot_used >= rn_width:
                cycle += 1
            if cycle > slot_cycle:
                rn_state[0] = cycle
                rn_state[1] = 1
            else:
                rn_state[1] = slot_used + 1
            return cycle

        # Metric accumulators (carried across windows via the state).
        n_insts = state.n_insts
        n_executed = state.n_executed
        n_cond_branches = state.n_cond_branches
        n_mispredictions = state.n_mispredictions
        n_override_flushes = state.n_override_flushes
        n_predicate_flushes = state.n_predicate_flushes
        n_cancelled = state.n_cancelled
        n_conservative = state.n_conservative
        n_assume_true = state.n_assume_true
        last_commit = state.last_commit

        for dyn in trace:
            inst = dyn.inst
            de = dcache_get(inst.uid)
            if de is None:
                de = build_decode(
                    inst, fus, unit_cells, int_q, int_cap, fp_q, fp_cap, br_q, br_cap
                )
                dcache[inst.uid] = de

            # ----------------------------------------------------- fetch
            fetch_cycle = fetch_one(dyn)
            if on_fetch is not None:
                on_fetch(dyn, fetch_cycle)

            # ---------------------------------------------------- rename
            rename_cycle = place_rename(fetch_cycle, de)

            is_predicated = de.is_predicated
            guard_ready = regs_get(de.qp_key, 0) if is_predicated else 0

            cancelled = False
            kind = de.kind
            # ------------------------------------------- per-class handling
            if kind == 1:  # branch
                ready = rename_cycle + 2
                if guard_ready > ready:
                    ready = guard_ready
                slots = de.slots
                best_i = 0
                best = slots[0]
                for i in range(1, len(slots)):
                    if slots[i] < best:
                        best = slots[i]
                        best_i = i
                issue = ready if ready > best else best
                slots[best_i] = issue + 1
                de.count_cell[0] += 1
                if len(br_q) >= br_cap:
                    br_q.popleft()
                br_q.append(issue)
                complete = issue + de.latency

                if de.is_cond_branch:
                    n_cond_branches += 1
                    handling = on_branch_rename(dyn, fetch_cycle, rename_cycle, guard_ready)
                    mispredicted = handling.final_prediction != bool(dyn.taken)
                    redirect = None
                    if handling.override_flush:
                        n_override_flushes += 1
                        redirect = rename_cycle + override_flush_penalty
                    if mispredicted:
                        n_mispredictions += 1
                        redirect = complete + branch_mispredict_penalty
                    if redirect is not None:
                        fetch.redirect(redirect)
                    on_branch_resolved(dyn, complete, mispredicted)

            elif kind == 2:  # compare
                on_compare_rename(dyn, fetch_cycle, rename_cycle)
                ready = rename_cycle + 2
                for key in de.cmp_src_keys:
                    t = regs_get(key, 0)
                    if t > ready:
                        ready = t
                slots = de.slots
                best_i = 0
                best = slots[0]
                for i in range(1, len(slots)):
                    if slots[i] < best:
                        best = slots[i]
                        best_i = i
                issue = ready if ready > best else best
                slots[best_i] = issue + 1
                de.count_cell[0] += 1
                queue = de.queue
                if len(queue) >= de.queue_cap:
                    queue.popleft()
                queue.append(issue)
                complete = issue + de.latency
                for key in de.dest_keys:
                    regs[key] = complete
                on_compare_complete(dyn, complete)

            else:  # simple (ALU / FP / move / memory / nop)
                decision = CONSERVATIVE
                if is_predicated:
                    handling = on_predicated_rename(
                        dyn, fetch_cycle, rename_cycle, guard_ready
                    )
                    decision = handling.decision
                    if handling.flush_discovery_cycle is not None:
                        # Wrong speculation: flush, re-fetch, handle
                        # conservatively (reference: _handle_simple).
                        n_predicate_flushes += 1
                        resume = (
                            handling.flush_discovery_cycle + predicate_mispredict_penalty
                        )
                        fetch_cycle = fetch.refetch_current(dyn, resume)
                        rename_cycle = place_rename(fetch_cycle, de)
                        decision = CONSERVATIVE

                if decision is CANCEL:
                    cancelled = True
                    n_cancelled += 1
                    complete = rename_cycle
                else:
                    if is_predicated:
                        if decision is ASSUME_TRUE:
                            n_assume_true += 1
                        else:
                            n_conservative += 1
                    ready = rename_cycle + 2
                    keys = de.src_keys if decision is ASSUME_TRUE else de.cons_keys
                    if not is_predicated:
                        keys = de.src_keys
                    for key in keys:
                        t = regs_get(key, 0)
                        if t > ready:
                            ready = t
                    slots = de.slots
                    best_i = 0
                    best = slots[0]
                    for i in range(1, len(slots)):
                        if slots[i] < best:
                            best = slots[i]
                            best_i = i
                    issue = ready if ready > best else best
                    slots[best_i] = issue + 1
                    de.count_cell[0] += 1
                    if de.is_memory:
                        address = dyn.mem_address if dyn.executed else None
                        if de.is_load:
                            complete = lsu.load_complete_cycle(address, issue)
                        else:
                            complete = issue + de.latency
                            lsu.store_execute(address, complete)
                    else:
                        queue = de.queue
                        if len(queue) >= de.queue_cap:
                            queue.popleft()
                        queue.append(issue)
                        complete = issue + de.latency
                    for key in de.dest_keys:
                        regs[key] = complete

            # ---------------------------------------------------- commit
            commit = complete + 1
            if de.is_store and dyn.executed:
                commit += lsu.store_commit_penalty(dyn.mem_address, complete)
            if commit < cm_cycle:
                commit = cm_cycle
            if commit == cm_cycle and cm_used >= cm_width:
                commit += 1
            if commit > cm_cycle:
                cm_cycle, cm_used = commit, 0
            cm_used += 1
            if commit > last_commit:
                last_commit = commit

            if len(rob_q) >= rob_cap:
                rob_q.popleft()
            rob_q.append(commit)
            if de.is_memory and not cancelled:
                lsu.record_allocation(de.is_store, commit)

            # -------------------------------------------------- accounting
            n_insts += 1
            if dyn.executed:
                n_executed += 1

        # Write the scalar locals back; the mutable containers (deques,
        # dicts, rn_state) were mutated in place.
        state.cm_cycle, state.cm_used = cm_cycle, cm_used
        state.n_insts = n_insts
        state.n_executed = n_executed
        state.n_cond_branches = n_cond_branches
        state.n_mispredictions = n_mispredictions
        state.n_override_flushes = n_override_flushes
        state.n_predicate_flushes = n_predicate_flushes
        state.n_cancelled = n_cancelled
        state.n_conservative = n_conservative
        state.n_assume_true = n_assume_true
        state.last_commit = last_commit

    def _finalize_fast(self, state: _FastState, program_name: str) -> SimulationResult:
        """Fold a finished :class:`_FastState` into a :class:`SimulationResult`.

        Reads the memory hierarchy *from the state* — after a checkpoint
        restore it is the unpickled hierarchy shared by the state's fetch
        engine and load/store unit, not this core's own ``self.memory``.
        """
        metrics = PipelineMetrics()
        metrics.fetched_instructions = state.n_insts
        metrics.committed_instructions = state.n_insts
        metrics.executed_instructions = state.n_executed
        metrics.nullified_instructions = state.n_insts - state.n_executed
        metrics.conditional_branches = state.n_cond_branches
        metrics.branch_mispredictions = state.n_mispredictions
        metrics.override_flushes = state.n_override_flushes
        metrics.predicate_flushes = state.n_predicate_flushes
        metrics.cancelled_at_rename = state.n_cancelled
        metrics.conservative_predicated = state.n_conservative
        metrics.assume_true_predicated = state.n_assume_true
        metrics.cycles = (
            state.last_commit if state.sampled_cycles is None else state.sampled_cycles
        )
        metrics.memory_stats = state.memory.statistics() if state.memory else {}
        fus = state.fus
        for unit, cell in state.unit_cells.items():
            fus.issue_counts[unit] = fus.issue_counts.get(unit, 0) + cell[0]
        metrics.fu_utilisation = fus.utilisation()
        metrics.counters.set("lsq_forwarded_loads", state.lsu.forwarded_loads)
        metrics.counters.set("fetch_redirects", state.fetch.redirects)
        metrics.counters.set("icache_stall_cycles", state.fetch.icache_stall_cycles)

        return SimulationResult(
            program_name=program_name,
            scheme_name=state.scheme.name,
            metrics=metrics,
            accuracy=state.scheme.accuracy,
            uops=None,
        )

    # ------------------------------------------------------------------
    # Stage helpers
    # ------------------------------------------------------------------
    def _rename_cycle(
        self,
        uop: Uop,
        rob: SlidingWindowResource,
        lsu: LoadStoreUnit,
        rename_slots: _InOrderSlotter,
        queue: Optional[SlidingWindowResource],
    ) -> int:
        cfg = self.config
        desired = uop.fetch_cycle + cfg.fetch_to_rename
        cycle = rob.earliest_allocation(desired)
        if uop.inst.is_memory:
            cycle = lsu.queue_constraint(uop.inst.is_store, cycle)
        elif queue is not None:
            # A full issue queue stalls dispatch, which backs up rename.
            cycle = queue.earliest_allocation(cycle)
        return rename_slots.place(cycle)

    def _queue_resource(
        self,
        inst,
        int_queue: SlidingWindowResource,
        fp_queue: SlidingWindowResource,
        branch_queue: SlidingWindowResource,
    ) -> Optional[SlidingWindowResource]:
        """The issue queue an instruction dispatches into (None for memory
        operations, which occupy the load/store queues instead)."""
        if inst.is_memory:
            return None
        if inst.opclass is OpClass.BRANCH:
            return branch_queue
        if inst.info.unit is FunctionalUnitClass.FP_UNIT:
            return fp_queue
        return int_queue

    def _source_registers(self, dyn: DynInst, decision: RenameDecision) -> List[Register]:
        inst = dyn.inst
        sources = [s for s in inst.srcs if isinstance(s, Register)]
        if not inst.is_predicated:
            return sources
        if decision is RenameDecision.ASSUME_TRUE:
            return sources
        # Conservative handling: the predicate is a data dependence, and a
        # predicated definition also depends on the previous value of its
        # destination (conditional-move expansion of the multiple-definition
        # problem).
        sources = sources + [inst.qp]
        sources.extend(inst.destination_registers())
        return sources

    # ------------------------------------------------------------------
    def _handle_branch(
        self,
        uop: Uop,
        scheme: BranchHandlingScheme,
        fetch: FetchEngine,
        fus: FunctionalUnitPool,
        branch_queue: SlidingWindowResource,
        regs: RegisterTimingTable,
        metrics: PipelineMetrics,
        guard_ready: int,
    ) -> None:
        cfg = self.config
        dyn = uop.dyn
        uop.dispatch_cycle = uop.rename_cycle + 1
        ready = max(uop.dispatch_cycle + 1, guard_ready)
        uop.ready_cycle = ready
        uop.issue_cycle = fus.acquire(FunctionalUnitClass.BRANCH_UNIT, ready)
        branch_queue.allocate(uop.issue_cycle)
        uop.complete_cycle = uop.issue_cycle + dyn.inst.latency

        if not dyn.is_conditional_branch:
            return

        metrics.conditional_branches += 1
        handling = scheme.on_branch_rename(
            dyn, uop.fetch_cycle, uop.rename_cycle, guard_ready
        )
        resolve_cycle = uop.complete_cycle
        mispredicted = handling.final_prediction != bool(dyn.taken)
        uop.branch_mispredicted = mispredicted
        uop.override_flush = handling.override_flush

        redirect: Optional[int] = None
        if handling.override_flush:
            metrics.override_flushes += 1
            redirect = uop.rename_cycle + cfg.override_flush_penalty
        if mispredicted:
            metrics.branch_mispredictions += 1
            redirect = resolve_cycle + cfg.branch_mispredict_penalty
        if redirect is not None:
            fetch.redirect(redirect)

        scheme.on_branch_resolved(dyn, resolve_cycle, mispredicted)

    def _handle_compare(
        self,
        uop: Uop,
        scheme: BranchHandlingScheme,
        fus: FunctionalUnitPool,
        int_queue: SlidingWindowResource,
        fp_queue: SlidingWindowResource,
        regs: RegisterTimingTable,
    ) -> None:
        dyn = uop.dyn
        inst = dyn.inst
        scheme.on_compare_rename(dyn, uop.fetch_cycle, uop.rename_cycle)

        uop.dispatch_cycle = uop.rename_cycle + 1
        sources = [s for s in inst.srcs if isinstance(s, Register)]
        if inst.is_predicated:
            sources.append(inst.qp)
        if isinstance(inst, CompareInstruction) and inst.ctype.depends_on_previous_values:
            sources.extend(inst.predicate_destinations())
        ready = max(uop.dispatch_cycle + 1, regs.ready_for(sources))
        uop.ready_cycle = ready

        queue = (
            fp_queue if inst.info.unit is FunctionalUnitClass.FP_UNIT else int_queue
        )
        uop.issue_cycle = fus.acquire(inst.info.unit, ready)
        queue.allocate(uop.issue_cycle)
        uop.complete_cycle = uop.issue_cycle + inst.latency

        for dest in inst.destination_registers():
            regs.set_ready(dest, uop.complete_cycle)
        scheme.on_compare_complete(dyn, uop.complete_cycle)

    def _handle_simple(
        self,
        uop: Uop,
        scheme: BranchHandlingScheme,
        fetch: FetchEngine,
        fus: FunctionalUnitPool,
        int_queue: SlidingWindowResource,
        fp_queue: SlidingWindowResource,
        regs: RegisterTimingTable,
        lsu: LoadStoreUnit,
        rob: SlidingWindowResource,
        rename_slots: _InOrderSlotter,
        metrics: PipelineMetrics,
        guard_ready: int,
    ) -> None:
        cfg = self.config
        dyn = uop.dyn
        inst = dyn.inst

        decision = RenameDecision.CONSERVATIVE
        if inst.is_predicated:
            handling = scheme.on_predicated_rename(
                dyn, uop.fetch_cycle, uop.rename_cycle, guard_ready
            )
            decision = handling.decision
            if handling.mispredicted:
                # The speculation was wrong: the pipeline is flushed from
                # this instruction (the PPRF entry's ROB pointer) once the
                # compare computes the true value; the instruction is then
                # re-fetched and handled conservatively.
                metrics.predicate_flushes += 1
                uop.predicate_flush = True
                resume = handling.flush_discovery_cycle + cfg.predicate_mispredict_penalty
                uop.fetch_cycle = fetch.refetch_current(dyn, resume)
                uop.decode_cycle = uop.fetch_cycle + cfg.decode_latency
                queue = self._queue_resource(inst, int_queue, fp_queue, None)
                uop.rename_cycle = self._rename_cycle(uop, rob, lsu, rename_slots, queue)
                decision = RenameDecision.CONSERVATIVE

        uop.rename_decision = decision
        if decision is RenameDecision.CANCEL:
            # Cancelled at rename: never dispatched, no issue queue entry,
            # no functional unit, destinations keep their previous mapping.
            uop.cancelled = True
            metrics.cancelled_at_rename += 1
            uop.dispatch_cycle = uop.rename_cycle
            uop.issue_cycle = uop.rename_cycle
            uop.complete_cycle = uop.rename_cycle
            return

        if inst.is_predicated:
            if decision is RenameDecision.ASSUME_TRUE:
                metrics.assume_true_predicated += 1
            else:
                metrics.conservative_predicated += 1

        uop.dispatch_cycle = uop.rename_cycle + 1
        sources = self._source_registers(dyn, decision)
        ready = max(uop.dispatch_cycle + 1, regs.ready_for(sources))
        uop.ready_cycle = ready

        if inst.is_memory:
            uop.issue_cycle = fus.acquire(inst.info.unit, ready)
            if inst.is_load:
                address = dyn.mem_address if dyn.executed else None
                uop.complete_cycle = lsu.load_complete_cycle(address, uop.issue_cycle)
            else:
                uop.complete_cycle = uop.issue_cycle + inst.latency
                address = dyn.mem_address if dyn.executed else None
                lsu.store_execute(address, uop.complete_cycle)
        else:
            queue = (
                fp_queue
                if inst.info.unit is FunctionalUnitClass.FP_UNIT
                else int_queue
            )
            uop.issue_cycle = fus.acquire(inst.info.unit, ready)
            queue.allocate(uop.issue_cycle)
            uop.complete_cycle = uop.issue_cycle + inst.latency

        for dest in inst.destination_registers():
            regs.set_ready(dest, uop.complete_cycle)
