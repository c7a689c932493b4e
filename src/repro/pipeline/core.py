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
from heapq import heapreplace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.emulator.executor import DynInst
from repro.emulator.tracepack import ChunkedTracePack, PackCursor, TracePack
from repro.isa.branches import BranchInstruction
from repro.isa.compare import CompareInstruction
from repro.isa.opcodes import FunctionalUnitClass, OpClass
from repro.isa.registers import Register, RegisterKind
from repro.memory.hierarchy import MemoryHierarchy, MemoryLane
from repro.pipeline.config import PipelineConfig
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.lsq import LoadStoreUnit
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.resources import (
    FunctionalUnitPool,
    RegisterTimingTable,
    SlidingWindowResource,
)
from repro.pipeline.scheme_api import BranchHandlingScheme, overridden_hooks
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


#: Compact integer keys for architectural registers: the timing loop's
#: register file is a list of ready cycles indexed by them (reading a list
#: slot is much cheaper than hashing a frozen ``Register`` dataclass).
_KIND_CODE = {
    RegisterKind.GENERAL: 0,
    RegisterKind.PREDICATE: 1,
    RegisterKind.BRANCH: 2,
    RegisterKind.FLOAT: 3,
}

#: Slots of the timing loop's register file: 256 per register kind.
_REG_SLOTS = len(_KIND_CODE) << 8


def _reg_key(reg: Register) -> int:
    return (_KIND_CODE[reg.kind] << 8) | reg.index


#: Stable small-integer ids for functional-unit classes: the timing loop's
#: per-run slot and issue tables are plain lists indexed by these.
_UNITS: Tuple[FunctionalUnitClass, ...] = tuple(FunctionalUnitClass)
_UNIT_INDEX: Dict[FunctionalUnitClass, int] = {u: i for i, u in enumerate(_UNITS)}


def _window(entries: int) -> deque:
    """A sliding window of ``entries`` release cycles, full of zeros.

    The timing loop's form of :class:`SlidingWindowResource`: a slot frees
    when its release cycle passes, so ``window[0] > cycle`` is the stall
    test, and the zero entries of a window that has not filled yet never
    stall (cycles are non-negative).  ``maxlen`` retires the oldest entry
    on each append.
    """
    return deque([0] * entries, maxlen=entries)


class _StaticDecode:
    """Machine-independent decode record of one static instruction.

    Everything the timing loop would otherwise derive from an
    :class:`Instruction` through property chains (``info`` -> ``opclass``
    -> ``is_*``, issue-queue selection, source/destination register sets),
    computed once per static instruction and reused for every dynamic
    instance.  It captures no run-local object, so one record serves every
    run and every lane over the trace: a run maps ``unit_index`` and
    ``queue_sel`` to its own slot lists and issue-queue deques.
    """

    __slots__ = (
        "kind",  # 0 = simple, 1 = branch, 2 = compare
        "latency",
        "unit",
        "unit_index",
        "queue_sel",  # 0 = int, 1 = fp, 2 = branch, 3 = load, 4 = store
        "is_memory",
        "is_load",
        "is_store",
        "is_predicated",
        "qp_key",
        "is_cond_branch",
        "src_keys",
        "cons_keys",  # conservative sources (srcs + qp + old dests)
        "cmp_src_keys",  # compare-path sources
        "dest_keys",
        "default_keys",  # sources when no scheme hook decides otherwise
    )


def _build_static(inst) -> _StaticDecode:
    """Decode one static instruction (reference: the stage helpers below)."""
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
    else:
        de.kind = 2 if opclass is OpClass.COMPARE else 0
        unit = info.unit
        de.is_cond_branch = False
    de.unit = unit
    de.unit_index = _UNIT_INDEX[unit]

    # Issue-queue selection (reference: _queue_resource); a memory
    # operation occupies its load/store queue entry instead.
    if de.is_memory:
        de.queue_sel = 4 if de.is_store else 3
    elif opclass is OpClass.BRANCH:
        de.queue_sel = 2
    elif info.unit is FunctionalUnitClass.FP_UNIT:
        de.queue_sel = 1
    else:
        de.queue_sel = 0

    # Register sets.  Hardwired registers always read as ready at cycle 0
    # and readiness is lower-bounded by dispatch + 1 > 0, so they are
    # dropped from the source sets; destination_registers() and
    # predicate_destinations() already exclude hardwired targets.
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
    de.cmp_src_keys = tuple(cmp_keys)
    # The base scheme handles every predicated instruction conservatively.
    de.default_keys = de.cons_keys if de.is_predicated else de.src_keys
    return de


class _Rows:
    """Rows ``[start, stop)`` of one trace pack, decoded for the timing loop.

    The pack's row columns (:meth:`TracePack.row_columns`) plus one
    :class:`_StaticDecode` per static instruction (shared through the
    ``decodes`` cache, keyed by ``uid``).  The loop itself reads only the
    first block of columns; the rest exist to build the :class:`PackCursor`
    of a row that a scheme hook or the decision-stream prepass reads
    (:meth:`cursor`).  Per-row counts that do not depend on timing are
    computed here once, so the loop does not count them row by row.

    With ``shared`` (a batch of two or more lanes) each row's cursor is
    built once and kept for every reader of the span; otherwise (a lone
    lane, whose prepass and hooks mostly read different rows) one reused
    cursor is refilled whenever a reader asks for another row.
    """

    __slots__ = (
        # Timing-loop columns.
        "decodes",
        "pcs",
        "ends_group",
        "execs",
        "mems",
        # Hook-facing columns.
        "insts",
        "inst_idx",
        "seqs",
        "qps",
        "takens",
        "targets",
        "nexts",
        "writes",
        "producers",
        "branch_flags",
        "compare_flags",
        "cond_flags",
        "cursors",
        "_reused",
        "_reused_row",
        # Timing-independent counts.
        "count",
        "executed_count",
        "cond_rows",
        "predicated_simple_count",
        "unit_counts",
    )

    def __init__(
        self,
        pack: TracePack,
        start: int,
        stop: int,
        decodes: Dict[int, _StaticDecode],
        shared: bool = False,
    ) -> None:
        statics = []
        for inst in pack.insts:
            de = decodes.get(inst.uid)
            if de is None:
                de = decodes[inst.uid] = _build_static(inst)
            statics.append(de)
        (
            self.inst_idx,
            self.seqs,
            self.pcs,
            self.qps,
            self.execs,
            self.takens,
            self.targets,
            self.nexts,
            self.mems,
            self.writes,
            self.producers,
        ) = pack.row_columns(start, stop)
        self.insts = pack.insts
        self.decodes = [statics[j] for j in self.inst_idx]
        branch_f, compare_f, cond_f = pack._cursor_static_flags()
        self.branch_flags = branch_f
        self.compare_flags = compare_f
        self.cond_flags = cond_f

        # Per-row static facts: functional unit, branch, conditional
        # branch, predicated simple instruction.
        static = np.array(
            [
                (de.unit_index, de.kind == 1, de.is_cond_branch, de.kind == 0 and de.is_predicated)
                for de in statics
            ],
            dtype=np.int64,
        ).reshape(-1, 4)[pack.inst_index[start:stop]]
        # A taken control transfer ends its fetch group.
        self.ends_group = ((static[:, 1] != 0) & (pack.taken[start:stop] == 1)).tolist()
        self.count = len(self.inst_idx)
        self.cursors: List[Optional[PackCursor]] = [None] * self.count
        self._reused = None if shared else PackCursor()
        self._reused_row = -1
        self.executed_count = int(np.count_nonzero(pack.executed[start:stop]))
        self.cond_rows = np.flatnonzero(static[:, 2]).tolist()
        self.predicated_simple_count = int(static[:, 3].sum())
        self.unit_counts = np.bincount(static[:, 0], minlength=len(_UNITS)).tolist()

    def cursor(self, i: int) -> PackCursor:
        """The :class:`PackCursor` of row ``i``.

        Shared rows build it on first use and keep it in ``cursors[i]``, so
        every lane's hooks and the prepass over these rows read one object
        per row, freed with the rows.  Otherwise ``cursors`` stays empty and
        the one reused cursor is refilled when ``i`` is not its last row, so
        it holds row ``i`` only until a reader asks for another.  Readers
        treat it as read-only.
        """
        cur = self.cursors[i]
        if cur is not None:
            return cur
        cur = self._reused
        if cur is None:
            cur = self.cursors[i] = PackCursor()
        elif self._reused_row == i:
            return cur
        else:
            self._reused_row = i
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
        cur.is_branch = self.branch_flags[static]
        cur.is_compare = self.compare_flags[static]
        cur.is_conditional_branch = self.cond_flags[static]
        return cur


def _cancelled_executed(scheme: BranchHandlingScheme, dyn) -> RuntimeError:
    """The error for a scheme that cancels an instruction whose guard is true.

    A cancelled instruction makes no memory access, while an executed one
    does; a cancel is only right for a false guard (a wrong guess flushes
    and re-renames instead), so both loops refuse anything else.
    """
    return RuntimeError(
        f"{scheme.name} cancelled instruction {dyn.seq} at rename although "
        "its guard is true"
    )


class DecisionStream:
    """A timing-independent branch scheme's decisions over a run of rows.

    Such a scheme's predictions are a pure function of the branch rows, so
    the lane-batched kernel (:mod:`repro.pipeline.batched`) runs its branch
    hooks once per stream (a *prepass*) and records, per conditional branch
    in fetch order, whether the final prediction overrode the fetch
    prediction and whether it mispredicted.  Any lane may then carry the
    stream into :meth:`OutOfOrderCore._run_rows`: the loop reads the two
    flags instead of calling the lane scheme's branch hooks, and still
    calls its other hooks.
    """

    __slots__ = ("overrides", "mispreds")

    def __init__(self, overrides: List[bool], mispreds: List[bool]) -> None:
        self.overrides = overrides
        self.mispreds = mispreds


#: Bytes per fetch block: fetch reads the instruction cache once per block,
#: again after a taken transfer, and once more to re-fetch a flushed row.
FETCH_BLOCK_BYTES = 64


class MemoryStream:
    """One span's walk of the memory hierarchy, one entry per row.

    ``fetch[i]`` is row ``i``'s instruction-fetch stall: 0 when the row
    reads no new block or reads it with no stall, the stall cycles of an
    L1I hit, or ``~k`` (negative) for the miss ``misses[k]``, which each
    lane replays (:meth:`MemoryLane.fetch_latency`).  ``data[i]`` is, for
    an executed load, its latency on an L1D hit or ``~k`` for the miss
    ``misses[k]``; for an executed store, its
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.walk_store` outcome; 0
    for every other row.  ``refetch_stall`` is the stall of re-fetching
    the block just fetched (an L1I and ITLB hit).
    """

    __slots__ = ("fetch", "data", "misses", "refetch_stall")

    def __init__(
        self, fetch: List[int], data: List[object], misses: List[tuple], refetch_stall: int
    ) -> None:
        self.fetch = fetch
        self.data = data
        self.misses = misses
        self.refetch_stall = refetch_stall


class MemoryWalker:
    """The cycle-independent half of the memory hierarchy, walked once per
    span for every lane that runs it.

    Which rows touch memory does not depend on the lane: fetch reads the
    instruction side at each row whose fetch block differs from the last
    one read (the last one is forgotten after a taken transfer), every
    executed load reads the data side at its row and every executed store
    at its commit, and both loops handle rows in order.  Nor does what the
    tags, TLBs and LRU state do with those accesses: only MSHR stalls
    depend on the cycle.  So the walker makes each access once, in row
    order, and each lane replays the rest through its own
    :class:`~repro.memory.hierarchy.MemoryLane`.  Two things a lane does
    apart from the walk change no tag: the re-fetch of a flushed row reads
    the block it has just fetched (an L1I hit on the most recently used way
    and an ITLB hit on the last page, which the lane counts), and a
    cancelled row executes nothing.

    ``last_block`` is the fetch block last read, ``-1`` when none is
    (checkpoints carry the walker).  Raises ``ValueError`` for a hierarchy
    whose L1I blocks or ITLB pages split a fetch block, since a re-fetch
    could then miss.
    """

    __slots__ = ("memory", "last_block")

    def __init__(self, memory: MemoryHierarchy) -> None:
        config = memory.config
        if config.l1i.block_bytes % FETCH_BLOCK_BYTES or config.itlb.page_bytes % FETCH_BLOCK_BYTES:
            raise ValueError(
                f"L1I blocks ({config.l1i.block_bytes} B) and ITLB pages "
                f"({config.itlb.page_bytes} B) must hold whole "
                f"{FETCH_BLOCK_BYTES}-byte fetch blocks"
            )
        self.memory = memory
        self.last_block = -1

    def walk(self, rows: "_Rows") -> MemoryStream:
        """Make the memory accesses of ``rows``, in row order."""
        memory = self.memory
        walk_fetch = memory.walk_fetch
        walk_load = memory.walk_load
        walk_store = memory.walk_store
        fetch: List[int] = [0] * rows.count
        data: List[object] = [0] * rows.count
        misses: List[tuple] = []
        shift = FETCH_BLOCK_BYTES.bit_length() - 1
        last_block = self.last_block
        for i, de, pc, ends_group, execd, mem in zip(
            range(rows.count), rows.decodes, rows.pcs, rows.ends_group, rows.execs, rows.mems
        ):
            block = pc >> shift
            if block != last_block:
                outcome = walk_fetch(pc)
                if outcome.__class__ is int:
                    if outcome > 1:
                        fetch[i] = outcome - 1
                else:
                    fetch[i] = ~len(misses)
                    misses.append(outcome)
            last_block = -1 if ends_group else block
            if execd and de.is_memory and mem is not None:
                if de.is_store:
                    data[i] = walk_store(mem)
                else:
                    outcome = walk_load(mem)
                    if outcome.__class__ is int:
                        data[i] = outcome
                    else:
                        data[i] = ~len(misses)
                        misses.append(outcome)
        self.last_block = last_block
        hit_latency = memory.config.l1i.hit_latency
        return MemoryStream(fetch, data, misses, hit_latency - 1 if hit_latency > 1 else 0)


class _LoopState:
    """The complete mutable state of one timing-loop run between windows.

    Everything :meth:`OutOfOrderCore._run_rows` reads or writes lives here:
    resource models, the register file (``regs``: the ready cycle of each
    register, a list indexed by :func:`_reg_key`), the inlined fetch-engine and
    slotter registers, the metric accumulators and the scheme (whose
    predictors carry the branch history that makes resume correctness
    non-trivial).  Pickling one ``_LoopState`` pickles the whole object graph
    in a single blob, so the shared-identity invariant the loop relies on
    (each ``slot_table`` entry *is* the functional-unit pool's next-free
    list of that unit) survives a checkpoint/restore round trip via the
    pickle memo.  The resume point is the checkpoint's, not the state's.
    ``-1`` marks "no pending redirect".  The memory hierarchy's tags are not
    here: the lane's :class:`MemoryWalker` holds them, shared with every
    lane of its batch, and ``mem_lane`` holds this lane's MSHRs and write
    buffer.
    """

    #: The integer metric accumulators.
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

    __slots__ = (
        "scheme",
        "mem_lane",
        "stores",
        "fus",
        "slot_table",
        "unit_issues",
        "rob_q",
        "queues",
        "regs",
        "group_cycle",
        "group_slots",
        "pending_redirect",
        "icache_stalls",
        "redirects",
        "refetches",
        "n_forwarded",
        "rn_cycle",
        "rn_used",
        "cm_cycle",
        "cm_used",
    ) + COUNTER_SLOTS


class OutOfOrderCore:
    """Trace-driven out-of-order timing model.

    The model has two implementations of the same semantics: the reference
    one-pass loop (:meth:`_run_reference`) and the timing loop
    (:meth:`_run_rows`), which runs over per-static-instruction decode
    records, inlines the fetch engine, slotters and resource models as
    locals and calls only the scheme hooks the scheme overrides.  The
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

        ``trace`` is a columnar :class:`~repro.emulator.tracepack.TracePack`
        (or :class:`~repro.emulator.tracepack.ChunkedTracePack`) or an
        iterable of :class:`DynInst`, which the timing loop packs first.  The
        reference loop — and ``keep_uops``, which must retain
        per-instruction records — materialises the object trace.  An empty
        trace (for instance an exhausted generator) raises ``ValueError``.
        """
        if self.optimized and not keep_uops:
            # The one fast path: this run is a batch of one lane.
            from repro.pipeline.batched import run_lanes

            if not isinstance(trace, (TracePack, ChunkedTracePack)):
                trace = TracePack.from_dyninsts(trace)
            return run_lanes(trace, [self], lambda: [scheme], program_name)[0]
        if isinstance(trace, (TracePack, ChunkedTracePack)):
            trace = trace.to_dyninsts()
        else:
            trace = list(trace)
        if not trace:
            raise ValueError("empty trace: nothing to simulate")
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
    # The timing loop
    # ------------------------------------------------------------------
    def _loop_state(self, scheme: BranchHandlingScheme) -> _LoopState:
        """A fresh timing-loop state (row zero, all resources idle)."""
        cfg = self.config
        state = _LoopState()
        state.scheme = scheme
        state.mem_lane = MemoryLane(self.memory.config)
        state.stores = {}
        state.fus = FunctionalUnitPool(cfg.fu_counts)
        state.slot_table = [state.fus._next_free.get(unit) for unit in _UNITS]
        state.unit_issues = [0] * len(_UNITS)
        state.rob_q = _window(cfg.rob_entries)
        state.queues = (  # int, fp, branch, load, store: see queue_sel
            _window(cfg.int_queue_entries),
            _window(cfg.fp_queue_entries),
            _window(cfg.branch_queue_entries),
            _window(cfg.load_queue_entries),
            _window(cfg.store_queue_entries),
        )
        state.regs = [0] * _REG_SLOTS
        state.group_cycle = 0
        state.group_slots = 0
        state.pending_redirect = -1
        state.icache_stalls = 0
        state.redirects = 0
        state.refetches = 0
        state.n_forwarded = 0
        state.rn_cycle = -1
        state.rn_used = 0
        state.cm_cycle = -1
        state.cm_used = 0
        for name in _LoopState.COUNTER_SLOTS:
            setattr(state, name, 0)
        return state

    def _run_rows(
        self,
        state: _LoopState,
        rows: _Rows,
        stream: Optional[DecisionStream],
        memory: MemoryStream,
    ) -> None:
        """Drain ``rows`` through the timing loop, mutating ``state``.

        The loop keeps every per-instruction timestamp in locals, consults
        the shared :class:`_StaticDecode` records, and inlines the fetch
        engine, the rename/commit slotters, the sliding-window and
        functional-unit resource models and the load/store queues.  It
        reads memory latencies from ``memory``, the :class:`MemoryWalker`'s
        walk of ``rows``: a hit costs no call, and only a first-level miss
        or a store calls the lane's :class:`MemoryLane`.  Scheme hooks are
        called in the reference loop's order, but only those the scheme overrides
        (:func:`~repro.pipeline.scheme_api.overridden_hooks`): a row whose
        kind the scheme does not hook costs no call and no cursor.  A hooked
        row's hooks read the row's cursor (:meth:`_Rows.cursor`): in a
        batch, the one that the first lane or prepass reading the row built.
        With a :class:`DecisionStream` of the conditional branches of
        ``rows``, branch rows cost no call at all: the loop reads the
        stream's flags and calls neither branch hook.  Any behavioural
        change here must keep the parity tests green (bit-identical IPC and
        misprediction counters against the reference loop).
        """
        cfg = self.config
        scheme = state.scheme
        hooked = overridden_hooks(type(scheme))

        def hook(name: str):
            return getattr(scheme, name) if name in hooked else None

        on_fetch = hook("on_fetch")
        on_compare_rename = hook("on_compare_rename")
        on_compare_complete = hook("on_compare_complete")
        compare_hooked = on_compare_rename is not None or on_compare_complete is not None
        on_branch_rename = scheme.on_branch_rename
        on_branch_resolved = hook("on_branch_resolved")
        on_predicated_rename = hook("on_predicated_rename")
        if stream is not None:
            overrides = stream.overrides
            mispreds = stream.mispreds
            bi = 0
            on_branch_resolved = None
        cursors = rows.cursors
        cursor = rows.cursor

        data = memory.data
        misses = memory.misses
        refetch_stall = memory.refetch_stall
        mem_lane = state.mem_lane
        fetch_miss = mem_lane.fetch_latency
        load_miss = mem_lane.load_latency
        store_latency = mem_lane.store_latency
        # Store-to-load forwarding: the data-ready cycle of the last store
        # to each word.
        stores = state.stores
        stores_get = stores.get
        forward_window = cfg.store_forward_window
        forward_latency = cfg.store_forward_latency
        slot_table = state.slot_table
        unit_issues = state.unit_issues
        regs = state.regs
        rob_q = state.rob_q
        queues = state.queues
        fetch_width = cfg.fetch_width
        rn_width = cfg.rename_width
        cm_width = cfg.commit_width
        fetch_to_rename = cfg.fetch_to_rename
        override_flush_penalty = cfg.override_flush_penalty
        branch_mispredict_penalty = cfg.branch_mispredict_penalty
        predicate_mispredict_penalty = cfg.predicate_mispredict_penalty
        ASSUME_TRUE = RenameDecision.ASSUME_TRUE
        CANCEL = RenameDecision.CANCEL

        # Inlined FetchEngine and slotter registers.
        group_cycle = state.group_cycle
        group_slots = state.group_slots
        pending_redirect = state.pending_redirect
        icache_stalls = state.icache_stalls
        redirects = state.redirects
        refetches = state.refetches
        n_forwarded = state.n_forwarded
        rn_cycle = state.rn_cycle
        rn_used = state.rn_used
        cm_cycle = state.cm_cycle
        cm_used = state.cm_used
        # Counters that depend on scheme decisions; the timing-independent
        # ones are added from the decoded rows after the loop.
        n_mispredictions = state.n_mispredictions
        n_override_flushes = state.n_override_flushes
        n_predicate_flushes = state.n_predicate_flushes
        n_cancelled = state.n_cancelled
        n_assume_true = state.n_assume_true

        for i, de, fetch_stall, ends_group, execd, mem in zip(
            range(rows.count),
            rows.decodes,
            memory.fetch,
            rows.ends_group,
            rows.execs,
            rows.mems,
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
            if fetch_stall:
                if fetch_stall < 0:
                    fetch_stall = fetch_miss(misses[~fetch_stall], cycle) - 1
                if fetch_stall > 0:
                    cycle += fetch_stall
                    icache_stalls += fetch_stall
                    group_slots = 0
            fetch_cycle = cycle
            group_slots += 1
            group_cycle = cycle
            if ends_group:  # a taken control transfer ends the fetch group
                group_cycle = cycle + 1
                group_slots = 0
            if on_fetch is not None:
                on_fetch(cursors[i] or cursor(i), fetch_cycle)

            # ---------------------------------------------------- rename
            cycle = fetch_cycle + fetch_to_rename
            if rob_q[0] > cycle:
                cycle = rob_q[0]
            queue = queues[de.queue_sel]
            if queue[0] > cycle:
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

            cancelled = False
            kind = de.kind
            # ------------------------------------------- per-class handling
            if kind == 0:  # simple (ALU / FP / move / memory / nop)
                keys = de.default_keys
                if on_predicated_rename is not None and de.is_predicated:
                    cur = cursors[i] or cursor(i)
                    handling = on_predicated_rename(
                        cur, fetch_cycle, rename_cycle, regs[de.qp_key]
                    )
                    decision = handling.decision
                    if handling.flush_discovery_cycle is not None:
                        # Wrong speculation: flush, re-fetch this row at the
                        # resume cycle (FetchEngine.refetch_current), rename
                        # it again and handle it conservatively.
                        n_predicate_flushes += 1
                        redirects += 1
                        cycle = handling.flush_discovery_cycle + predicate_mispredict_penalty
                        if group_cycle > cycle:
                            cycle = group_cycle
                        # The block just fetched: an L1I and ITLB hit that
                        # changes no tag, so the walk leaves it to the lane.
                        refetches += 1
                        cycle += refetch_stall
                        icache_stalls += refetch_stall
                        fetch_cycle = group_cycle = cycle
                        group_slots = 1
                        cycle += fetch_to_rename
                        if rob_q[0] > cycle:
                            cycle = rob_q[0]
                        if queue[0] > cycle:
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
                    elif decision is CANCEL:
                        if execd:
                            raise _cancelled_executed(scheme, cur)
                        cancelled = True
                    elif decision is ASSUME_TRUE:
                        n_assume_true += 1
                        keys = de.src_keys

                if cancelled:
                    # Never dispatched: no issue queue entry, no functional
                    # unit, destinations keep their previous mapping.
                    n_cancelled += 1
                    unit_issues[de.unit_index] -= 1
                    complete = rename_cycle
                else:
                    ready = rename_cycle + 2
                    for key in keys:
                        t = regs[key]
                        if t > ready:
                            ready = t
                    slots = slot_table[de.unit_index]
                    best = slots[0]
                    issue = ready if ready > best else best
                    heapreplace(slots, issue + 1)
                    if not de.is_memory:
                        queue.append(issue)
                        complete = issue + de.latency
                    elif de.is_store:
                        complete = issue + de.latency
                        if execd and mem is not None:
                            stores[mem & -8] = complete
                    elif execd and mem is not None:
                        stored = stores_get(mem & -8) if stores else None
                        if stored is not None and stored >= issue - forward_window:
                            # Forwarded from the store queue; the walk has
                            # still probed the cache tags.
                            n_forwarded += 1
                            complete = (stored if stored > issue else issue) + forward_latency
                        else:
                            latency = data[i]
                            if latency < 0:
                                latency = load_miss(misses[~latency], issue)
                            complete = issue + latency
                    else:  # a nullified load accesses no memory
                        complete = issue + 1
                    for key in de.dest_keys:
                        regs[key] = complete

            elif kind == 1:  # branch
                ready = rename_cycle + 2
                guard_ready = regs[de.qp_key] if de.is_predicated else 0
                if guard_ready > ready:
                    ready = guard_ready
                slots = slot_table[de.unit_index]
                best = slots[0]
                issue = ready if ready > best else best
                heapreplace(slots, issue + 1)
                queue.append(issue)
                complete = issue + de.latency

                if de.is_cond_branch:
                    if stream is not None:
                        over = overrides[bi]
                        mis = mispreds[bi]
                        bi += 1
                    else:
                        cur = cursors[i] or cursor(i)
                        handling = on_branch_rename(cur, fetch_cycle, rename_cycle, guard_ready)
                        mis = handling.final_prediction != cur.taken
                        over = handling.override_flush
                    if over:
                        n_override_flushes += 1
                    if mis:
                        n_mispredictions += 1
                        redirects += 1
                        redirect = complete + branch_mispredict_penalty
                        if redirect > pending_redirect:
                            pending_redirect = redirect
                    elif over:
                        redirects += 1
                        redirect = rename_cycle + override_flush_penalty
                        if redirect > pending_redirect:
                            pending_redirect = redirect
                    if on_branch_resolved is not None:
                        on_branch_resolved(cur, complete, mis)

            else:  # compare
                if compare_hooked:
                    cur = cursors[i] or cursor(i)
                    if on_compare_rename is not None:
                        on_compare_rename(cur, fetch_cycle, rename_cycle)
                ready = rename_cycle + 2
                for key in de.cmp_src_keys:
                    t = regs[key]
                    if t > ready:
                        ready = t
                slots = slot_table[de.unit_index]
                best = slots[0]
                issue = ready if ready > best else best
                heapreplace(slots, issue + 1)
                queue.append(issue)
                complete = issue + de.latency
                for key in de.dest_keys:
                    regs[key] = complete
                if on_compare_complete is not None:
                    on_compare_complete(cur, complete)

            # ---------------------------------------------------- commit
            commit = complete + 1
            if execd and de.is_store and mem is not None:
                commit += store_latency(data[i], complete)
            if commit < cm_cycle:
                commit = cm_cycle
            if commit == cm_cycle and cm_used >= cm_width:
                commit += 1
            if commit > cm_cycle:
                cm_cycle = commit
                cm_used = 0
            cm_used += 1

            rob_q.append(commit)
            if de.is_memory and not cancelled:
                queue.append(commit)

        # Timing-independent counts come from the decoded rows: every row
        # issues once unless cancelled, and a predicated simple row is
        # conservative unless it was cancelled or assumed true.
        state.n_insts += rows.count
        state.n_executed += rows.executed_count
        state.n_cond_branches += len(rows.cond_rows)
        state.n_conservative += (
            rows.predicated_simple_count
            - (n_cancelled - state.n_cancelled)
            - (n_assume_true - state.n_assume_true)
        )
        for unit, count in enumerate(rows.unit_counts):
            unit_issues[unit] += count
        # Write the scalar locals back; the containers were mutated in place.
        state.group_cycle = group_cycle
        state.group_slots = group_slots
        state.pending_redirect = pending_redirect
        state.icache_stalls = icache_stalls
        state.redirects = redirects
        state.refetches = refetches
        state.n_forwarded = n_forwarded
        state.rn_cycle = rn_cycle
        state.rn_used = rn_used
        state.cm_cycle = cm_cycle
        state.cm_used = cm_used
        state.n_mispredictions = n_mispredictions
        state.n_override_flushes = n_override_flushes
        state.n_predicate_flushes = n_predicate_flushes
        state.n_cancelled = n_cancelled
        state.n_assume_true = n_assume_true

    def _finalize(
        self, state: _LoopState, program_name: str, walker: MemoryWalker
    ) -> SimulationResult:
        """Fold a finished :class:`_LoopState` into a :class:`SimulationResult`.

        Reads the memory hierarchy from ``walker``, the walker of the lane's
        batch — after a checkpoint restore it is the unpickled walker, not
        this core's own ``self.memory``.
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
        # The commit slotter's cycle is the last row's commit cycle.
        metrics.cycles = state.cm_cycle
        # The walk made every access but the lane's re-fetches.
        metrics.memory_stats = walker.memory.statistics(fetch_hits=state.refetches)
        issue_counts = state.fus.issue_counts
        for unit, count in zip(_UNITS, state.unit_issues):
            if count:
                issue_counts[unit] = issue_counts.get(unit, 0) + count
        metrics.fu_utilisation = state.fus.utilisation()
        metrics.counters.set("lsq_forwarded_loads", state.n_forwarded)
        metrics.counters.set("fetch_redirects", state.redirects)
        metrics.counters.set("icache_stall_cycles", state.icache_stalls)

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
                queue = self._queue_resource(inst, int_queue, fp_queue, None)
                uop.rename_cycle = self._rename_cycle(uop, rob, lsu, rename_slots, queue)
                decision = RenameDecision.CONSERVATIVE

        uop.rename_decision = decision
        if decision is RenameDecision.CANCEL:
            if dyn.executed:
                raise _cancelled_executed(scheme, dyn)
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
