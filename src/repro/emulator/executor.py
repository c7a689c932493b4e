"""The functional executor: walks a program along its correct path.

The executor produces :class:`DynInst` records — one per *fetched* dynamic
instruction along the correct control-flow path, including instructions whose
qualifying predicate evaluates to false (they are fetched and occupy pipeline
resources until nullified, which is precisely the cost the selective
predicate predictor removes).

The timing pipeline (:mod:`repro.pipeline`) is trace-driven: it replays this
stream, charging mispredicted branches with flush/refill penalties rather
than simulating wrong-path instructions.  This is a standard simplification
for predictor studies; the quantities the paper reports (misprediction rates
per scheme, early-resolved counts, relative IPC) are preserved because every
prediction, every PPRF read and every predicate computation happens at the
same pipeline positions as in an execution-driven model.
"""

from __future__ import annotations

import operator
from array import array
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.emulator.memory_image import to_signed64
from repro.emulator.state import ArchState
from repro.isa.branches import BranchInstruction, BranchKind
from repro.isa.compare import CompareInstruction, CompareRelation, CompareType
from repro.isa.instructions import (
    Instruction,
    LoadInstruction,
    StoreInstruction,
)
from repro.isa.opcodes import Opcode
from repro.isa.operands import Immediate, Label
from repro.isa.registers import Register, RegisterKind
from repro.program.program import Program
from repro.program.routine import Routine


#: Row kinds of the static table: how a fetched row runs and which of its
#: fields :meth:`Emulator.run_pack` records beyond the per-row minimum.
ROW_PLAIN, ROW_MEMORY, ROW_COMPARE, ROW_BRANCH = range(4)


class EmulationLimit(Exception):
    """Raised when the executor exceeds a hard safety limit."""


class DynInst:
    """One dynamic (fetched) instruction along the correct path."""

    __slots__ = (
        "seq",
        "inst",
        "pc",
        "qp_value",
        "executed",
        "taken",
        "target_pc",
        "next_pc",
        "mem_address",
        "pred_writes",
        "guard_producer_seq",
    )

    def __init__(
        self,
        seq: int,
        inst: Instruction,
        pc: int,
        qp_value: bool,
        guard_producer_seq: int,
    ) -> None:
        self.seq = seq
        self.inst = inst
        self.pc = pc
        #: Architectural value of the qualifying predicate when executed.
        self.qp_value = qp_value
        #: True when the instruction's qualifying predicate was true.
        self.executed = qp_value
        #: For branches: whether the branch was architecturally taken.
        self.taken: Optional[bool] = None
        #: For taken branches: address of the branch target.
        self.target_pc: Optional[int] = None
        #: Address of the next dynamic instruction on the correct path.
        self.next_pc: Optional[int] = None
        #: For memory operations with a true predicate: effective address.
        self.mem_address: Optional[int] = None
        #: Architectural predicate writes performed: tuple of (index, value).
        self.pred_writes: Tuple[Tuple[int, bool], ...] = ()
        #: Dynamic sequence number of the instruction that produced the
        #: current value of this instruction's qualifying predicate
        #: (-1 when the value predates the trace, e.g. ``p0``).
        self.guard_producer_seq = guard_producer_seq

    # ------------------------------------------------------------------
    @property
    def is_branch(self) -> bool:
        return self.inst.is_branch

    @property
    def is_compare(self) -> bool:
        return self.inst.is_compare

    @property
    def is_conditional_branch(self) -> bool:
        return isinstance(self.inst, BranchInstruction) and self.inst.is_conditional

    def __repr__(self) -> str:
        return f"<DynInst #{self.seq} pc={self.pc:#x} {self.inst!r}>"

    # ------------------------------------------------------------------
    # Serialization (used by the trace artifact store).  ``__slots__``
    # classes pickle through protocol 2 anyway, but an explicit tuple state
    # is smaller and keeps the on-disk format independent of slot order.
    def __getstate__(self):
        return (
            self.seq,
            self.inst,
            self.pc,
            self.qp_value,
            self.executed,
            self.taken,
            self.target_pc,
            self.next_pc,
            self.mem_address,
            self.pred_writes,
            self.guard_producer_seq,
        )

    def __setstate__(self, state) -> None:
        (
            self.seq,
            self.inst,
            self.pc,
            self.qp_value,
            self.executed,
            self.taken,
            self.target_pc,
            self.next_pc,
            self.mem_address,
            self.pred_writes,
            self.guard_producer_seq,
        ) = state


class _Frame:
    """A call frame: where execution resumes inside a routine."""

    __slots__ = ("routine", "block_index", "inst_index")

    def __init__(self, routine: Routine, block_index: int, inst_index: int) -> None:
        self.routine = routine
        self.block_index = block_index
        self.inst_index = inst_index


class EmulatorRows:
    """The rows of a trace segment as :meth:`Emulator.run_pack` appends
    them, one bound ``append`` per column.

    Only what can differ between two executions of one static instruction
    is stored per row: the static id (an index into the emulator's static
    table), the qualifying-predicate value and the guard producer.  Sparse
    columns hold one entry per row of a kind, in row order: taken, target
    and next pc per branch row (-1 = none), the effective address per
    memory row with a true predicate, and the predicate-write tuple per
    compare row.  :meth:`flush` derives the rest.

    The derivations rely on the emulator's invariants: rows are fetched
    with consecutive sequence numbers, ``executed`` equals ``qp_value``,
    a memory row has an address exactly when its predicate is true, and a
    non-branch row continues at its static straight-line successor.
    Object traces need not obey them, so
    :meth:`TracePack.from_dyninsts
    <repro.emulator.tracepack.TracePack.from_dyninsts>` goes through
    :class:`~repro.emulator.tracepack.TracePackBuilder` instead.
    """

    __slots__ = (
        "first_seq",
        "static_id",
        "qp_value",
        "producer",
        "taken",
        "target_pc",
        "next_pc",
        "mem_address",
        "pred_writes",
    )

    def __init__(self, first_seq: int) -> None:
        self.first_seq = first_seq
        self.static_id = array("i")
        self.qp_value = array("B")
        self.producer = array("q")
        self.taken = array("B")
        self.target_pc = array("q")
        self.next_pc = array("q")
        self.mem_address = array("q")
        self.pred_writes: List[Tuple[Tuple[int, bool], ...]] = []

    def __len__(self) -> int:
        return len(self.static_id)

    def flush(
        self, insts: Sequence[Any], kinds: Sequence[int], next_pcs: Sequence[int]
    ) -> Any:
        """Assemble the rows appended since the last flush into a
        :class:`~repro.emulator.tracepack.TracePack` and start the next
        segment; the bound ``append`` of every column stays valid.

        ``insts``, ``kinds`` (``ROW_*``) and ``next_pcs`` (the straight-line
        successor, -1 = none) are the emulator's static table, indexed by
        static id.
        """
        # Imported here: tracepack imports DynInst from this module.
        import numpy as np

        from repro.emulator.tracepack import TracePack

        static_id = np.array(self.static_id, dtype=np.int32)
        n = static_id.shape[0]
        # The segment's own instruction table, in order of first appearance
        # (the order TracePackBuilder deduplicates in).
        seen, first_row = np.unique(static_id, return_index=True)
        table = seen[np.argsort(first_row, kind="stable")]
        local = np.zeros(len(insts), dtype=np.int32)
        local[table] = np.arange(table.shape[0], dtype=np.int32)

        kind = np.array(kinds, dtype=np.uint8)[static_id]
        branch = kind == ROW_BRANCH
        qp_value = np.array(self.qp_value, dtype=np.uint8)
        taken = np.full(n, -1, dtype=np.int8)
        taken[branch] = np.array(self.taken, dtype=np.uint8)
        target_pc = np.full(n, -1, dtype=np.int64)
        target_pc[branch] = np.array(self.target_pc, dtype=np.int64)
        next_pc = np.array(next_pcs, dtype=np.int64)[static_id]
        next_pc[branch] = np.array(self.next_pc, dtype=np.int64)
        mem_valid = (kind == ROW_MEMORY) & (qp_value != 0)
        mem_address = np.zeros(n, dtype=np.int64)
        mem_address[mem_valid] = np.array(self.mem_address, dtype=np.int64)
        writes = self.pred_writes
        counts = np.zeros(n, dtype=np.int64)
        counts[kind == ROW_COMPARE] = [len(row) for row in writes]
        pred_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=pred_offsets[1:])
        flat = [write for row in writes for write in row]
        pack = TracePack.assemble(
            [insts[index] for index in table.tolist()],
            local[static_id],
            seq=np.arange(self.first_seq, self.first_seq + n, dtype=np.int64),
            pc=np.array([inst.address for inst in insts], dtype=np.int64)[static_id],
            qp_value=qp_value,
            executed=qp_value.copy(),
            taken=taken,
            target_pc=target_pc,
            next_pc=next_pc,
            mem_valid=mem_valid.view(np.uint8),
            mem_address=mem_address,
            guard_producer_seq=np.array(self.producer, dtype=np.int64),
            pred_offsets=pred_offsets,
            pred_index=np.array([index for index, _ in flat], dtype=np.int16),
            pred_value=np.array([value for _, value in flat], dtype=np.uint8),
        )
        for name in self.__slots__[1:]:
            del getattr(self, name)[:]
        self.first_seq += n
        return pack


class Emulator:
    """Functional emulator over a laid-out program."""

    #: Hard cap on dynamic instructions to protect against infinite loops in
    #: malformed programs; the run budget passed to :meth:`run` is normally
    #: far lower.
    HARD_LIMIT = 50_000_000

    def __init__(self, program: Program, optimized: bool = True) -> None:
        if not program.laid_out:
            program.layout()
        self.program = program
        self.state = ArchState.for_program(program)
        self._seq = 0
        #: seq of the last architectural writer of each predicate register.
        self._pred_writer = [-1] * 64
        self.fetched_instructions = 0
        self.executed_instructions = 0
        self.halted = False
        #: Decode/dispatch cache of the optimized path: per-static-instruction
        #: facts ``(static id, qp index, row kind, compiled handler)``, keyed
        #: by instruction uid (see :meth:`_static_facts`).  The reference
        #: interpreter (:meth:`_execute_straightline`) stays reachable with
        #: ``optimized=False`` as the parity oracle, through :meth:`run`
        #: only (:meth:`run_pack` refuses it); the parity tests assert both
        #: produce identical traces.
        self.optimized = optimized
        self._static: Dict[int, Tuple[int, int, int, Any]] = {}
        #: Straight-line runs of the optimized path, keyed by the uid of the
        #: instruction they start at (see :meth:`_decode_run`).
        self._runs: Dict[int, Tuple[Any, Any, bool]] = {}
        #: The static table, indexed by static id: instructions, row kinds
        #: and straight-line next pcs (-1 = none), in order of first fetch.
        self._static_table: Tuple[List[Instruction], List[int], List[int]] = ([], [], [])

    # ------------------------------------------------------------------
    def run(self, max_instructions: int) -> Iterator[DynInst]:
        """Yield dynamic instructions until the program halts or the budget
        of fetched instructions is exhausted.

        The optimized emulator builds the trace with :meth:`run_pack` and
        yields its rows as objects.  It is not lazy: the whole budget is
        emulated before the first row is yielded, so a consumer that stops
        early still pays for the whole run, and :class:`EmulationLimit` is
        raised before any row.  ``optimized=False`` runs the reference
        interpreter, one instruction per step and lazily, which is the
        parity oracle of both.
        """
        if self.optimized:
            yield from self.run_pack(max_instructions).to_dyninsts()
            return
        routine = self.program.entry_routine
        frame = _Frame(routine, 0, 0)
        call_stack: List[_Frame] = []

        while self.fetched_instructions < max_instructions:
            if self._seq >= self.HARD_LIMIT:
                raise EmulationLimit(
                    f"exceeded hard emulation limit of {self.HARD_LIMIT} instructions"
                )
            blocks = frame.routine.blocks
            if frame.block_index >= len(blocks):
                # Fell off the end of the routine: treat as routine return.
                if not call_stack:
                    self.halted = True
                    return
                frame = call_stack.pop()
                continue
            block = blocks[frame.block_index]
            if frame.inst_index >= len(block.instructions):
                frame.block_index += 1
                frame.inst_index = 0
                continue

            inst = block.instructions[frame.inst_index]
            dyn = self._make_dyn(inst)
            self.fetched_instructions += 1

            if isinstance(inst, BranchInstruction):
                frame, stop, dyn.taken, dyn.target_pc, dyn.next_pc = self._execute_branch(
                    inst, dyn.qp_value, frame, call_stack
                )
                yield dyn
                if stop:
                    self.halted = True
                    return
            else:
                self._execute_straightline(dyn, inst)
                frame.inst_index += 1
                dyn.next_pc = self._pc_after(frame)
                yield dyn

    def run_pack(
        self,
        max_instructions: int,
        segment_rows: Optional[int] = None,
        on_segment=None,
    ):
        """Run the program along its correct path, straight into a columnar
        pack.

        This is the trace-build path.  It allocates no per-instruction
        record: each fetched row appends only what can change between two
        executions of the same static instruction to an
        :class:`EmulatorRows` — the static
        instruction's id, the qualifying-predicate value and the guard
        producer, plus taken/target/next pc on branch rows, the address on
        memory rows with a true predicate and the predicate writes on
        compare rows.  Everything else (``seq``, ``pc``, ``opclass``,
        ``executed``, the straight-line ``next_pc``) is derived per segment
        from the emulator's static table by numpy gathers
        (:meth:`EmulatorRows.flush`).  The instructions between two branches
        run as one straight-line run (:meth:`_decode_run`): their static ids
        go in with one ``extend`` and the frame moves once per run.  The
        compiled handlers always run
        here, so an emulator built with ``optimized=False`` raises
        :class:`ValueError`; the parity tests assert the pack equals
        ``TracePack.from_dyninsts(list(run(n)))`` of the reference
        interpreter, serialized byte for byte.

        Returns a :class:`~repro.emulator.tracepack.TracePack`.

        With ``segment_rows`` set, the trace is cut into fixed-size row
        segments.  Each completed segment is finalized immediately and
        either handed to ``on_segment`` — the streaming mode: nothing is
        retained here, the caller typically appends it to a
        :class:`~repro.emulator.tracepack.ChunkedPackWriter`, and the
        return value is the total row count — or collected into a
        :class:`~repro.emulator.tracepack.ChunkedTracePack`.  A run that
        fits in a single segment returns a plain monolithic pack, the same
        as an unsegmented run.
        """
        # Imported here: tracepack imports DynInst from this module.
        from repro.emulator.tracepack import ChunkedTracePack

        if not self.optimized:
            raise ValueError(
                "run_pack runs the compiled handlers only; the reference "
                "interpreter (optimized=False) is reachable through run()"
            )
        if on_segment is not None and segment_rows is None:
            raise ValueError("on_segment requires segment_rows")
        if segment_rows is not None and segment_rows < 1:
            raise ValueError(f"segment_rows must be positive, got {segment_rows}")

        segments: List[Any] = []
        rows_flushed = 0
        static_table = self._static_table
        rows = EmulatorRows(self._seq)

        def flush() -> None:
            nonlocal rows_flushed
            pack = rows.flush(*static_table)
            rows_flushed += len(pack)
            if on_segment is not None:
                on_segment(pack)
            else:
                segments.append(pack)

        routine = self.program.entry_routine
        frame = _Frame(routine, 0, 0)
        call_stack: List[_Frame] = []
        runs_get = self._runs.get
        predicate = self.state.predicate
        pred_writer = self._pred_writer
        hard_limit = self.HARD_LIMIT
        seq = self._seq
        fetched = self.fetched_instructions
        executed = self.executed_instructions
        # Rows left before the segment is cut (never reaches 0 unsegmented).
        segment_left = segment_rows if segment_rows is not None else -1
        static_append = rows.static_id.append
        static_extend = rows.static_id.extend
        qp_append = rows.qp_value.append
        qp_extend = rows.qp_value.frombytes
        producer_append = rows.producer.append
        producer_extend = rows.producer.extend
        taken_append = rows.taken.append
        target_append = rows.target_pc.append
        next_append = rows.next_pc.append
        mem_append = rows.mem_address.append
        writes_append = rows.pred_writes.append
        try:
            while fetched < max_instructions:
                if seq >= hard_limit:
                    raise EmulationLimit(
                        f"exceeded hard emulation limit of {hard_limit} instructions"
                    )
                blocks = frame.routine.blocks
                if frame.block_index >= len(blocks):
                    if not call_stack:
                        self.halted = True
                        break
                    frame = call_stack.pop()
                    continue
                instructions = blocks[frame.block_index].instructions
                if frame.inst_index >= len(instructions):
                    frame.block_index += 1
                    frame.inst_index = 0
                    continue

                inst = instructions[frame.inst_index]
                run = runs_get(inst.uid) or self._decode_run(frame)
                static_ids, steps, unguarded = run
                if steps is None:
                    # A branch row: ``static_ids`` is its (static id, qp index).
                    static_id, qp_index = static_ids
                    qp_value = predicate[qp_index]
                    static_append(static_id)
                    qp_append(qp_value)
                    # p0 is hard-wired, so its writer stays -1 (pre-trace).
                    producer_append(pred_writer[qp_index])
                    fetched += 1
                    if qp_value:
                        executed += 1
                    frame, stop, taken, target_pc, next_pc = self._execute_branch(
                        inst, qp_value, frame, call_stack
                    )
                    taken_append(taken)
                    target_append(-1 if target_pc is None else target_pc)
                    next_append(-1 if next_pc is None else next_pc)
                    seq += 1
                    if stop:
                        self.halted = True
                        break
                    take = 1
                else:
                    # A straight-line run: the rows up to the next branch or
                    # the end of the block, sliced where the budget, the hard
                    # limit or the segment ends first.
                    take = len(steps)
                    if take > max_instructions - fetched:
                        take = max_instructions - fetched
                    if take > hard_limit - seq:
                        take = hard_limit - seq
                    if 0 < segment_left < take:
                        take = segment_left
                    if take < len(steps):
                        static_ids = static_ids[:take]
                        steps = steps[:take]
                    static_extend(static_ids)
                    fetched += take
                    if unguarded:
                        # Every guard is p0: true, with the pre-trace writer.
                        qp_extend(b"\x01" * take)
                        producer_extend(_NO_WRITER * take)
                        executed += take
                        for _, kind, handler in steps:
                            if kind == ROW_PLAIN:
                                handler()
                            elif kind == ROW_MEMORY:
                                mem_append(handler())
                            else:
                                writes_append(handler(True, seq))
                            seq += 1
                    else:
                        for qp_index, kind, handler in steps:
                            qp_value = predicate[qp_index]
                            qp_append(qp_value)
                            producer_append(pred_writer[qp_index])
                            if qp_value:
                                executed += 1
                            if kind == ROW_COMPARE:
                                writes_append(handler(qp_value, seq))
                            elif qp_value:
                                if kind == ROW_MEMORY:
                                    mem_append(handler())
                                else:
                                    handler()
                            seq += 1
                    frame.inst_index += take
                segment_left -= take
                if not segment_left:
                    flush()
                    segment_left = segment_rows
        finally:
            self._seq = seq
            self.fetched_instructions = fetched
            self.executed_instructions = executed

        if segment_rows is None:
            return rows.flush(*static_table)
        if len(rows) or not rows_flushed:
            flush()
        if on_segment is not None:
            return rows_flushed
        if len(segments) == 1:
            return segments[0]
        return ChunkedTracePack.from_segments(segments)

    # ------------------------------------------------------------------
    def _make_dyn(self, inst: Instruction) -> DynInst:
        qp_value = bool(self.state.predicate[inst.qp.index])
        producer = (
            self._pred_writer[inst.qp.index] if inst.qp.index != 0 else -1
        )
        dyn = DynInst(self._seq, inst, inst.address, qp_value, producer)
        self._seq += 1
        if qp_value:
            self.executed_instructions += 1
        return dyn

    def _static_facts(self, inst: Instruction, frame: _Frame) -> Tuple[int, int, int, Any]:
        """Decode ``inst`` (fetched at ``frame``'s position) on first sight.

        Adds it to the static table and returns its facts: the static id,
        the qualifying-predicate index, the row kind (``ROW_*``) and the
        compiled handler (``None`` for branches, which
        :meth:`_execute_branch` runs).
        """
        insts, kinds, next_pcs = self._static_table
        if isinstance(inst, BranchInstruction):
            kind, handler, next_pc = ROW_BRANCH, None, -1
        else:
            kind, handler = self._compile_straightline(inst)
            after = self._pc_after(
                _Frame(frame.routine, frame.block_index, frame.inst_index + 1)
            )
            next_pc = -1 if after is None else after
        facts = (len(insts), inst.qp.index, kind, handler)
        insts.append(inst)
        kinds.append(kind)
        next_pcs.append(next_pc)
        self._static[inst.uid] = facts
        return facts

    def _decode_run(self, frame: _Frame) -> Tuple[Any, Any, bool]:
        """Decode the straight-line run that starts at ``frame``'s position.

        A run is ``(static ids, steps, unguarded)``: the ``array`` of the
        static ids of the instructions from that position up to the next
        branch or the end of the block, their ``(qp index, row kind,
        handler)`` steps, and whether every one of them is guarded by
        ``p0``.  A branch is a run of its own, ``((static id, qp index),
        None, False)``.  The run is cached under the uid of its first
        instruction; a run cut short resumes as the run that starts where
        the cut fell.
        """
        static_get = self._static.get
        routine, block_index, start = frame.routine, frame.block_index, frame.inst_index
        instructions = routine.blocks[block_index].instructions
        first = instructions[start]
        if isinstance(first, BranchInstruction):
            static_id, qp_index, _, _ = static_get(first.uid) or self._static_facts(
                first, frame
            )
            run: Tuple[Any, Any, bool] = ((static_id, qp_index), None, False)
        else:
            static_ids = array("i")
            steps = []
            for index in range(start, len(instructions)):
                inst = instructions[index]
                if isinstance(inst, BranchInstruction):
                    break
                facts = static_get(inst.uid) or self._static_facts(
                    inst, _Frame(routine, block_index, index)
                )
                static_id, qp_index, kind, handler = facts
                static_ids.append(static_id)
                steps.append((qp_index, kind, handler))
            run = (static_ids, tuple(steps), all(step[0] == 0 for step in steps))
        self._runs[first.uid] = run
        return run

    def _pc_after(self, frame: _Frame) -> Optional[int]:
        blocks = frame.routine.blocks
        block_index, inst_index = frame.block_index, frame.inst_index
        while block_index < len(blocks):
            block = blocks[block_index]
            if inst_index < len(block.instructions):
                return block.instructions[inst_index].address
            block_index += 1
            inst_index = 0
        return None

    # ------------------------------------------------------------------
    # Straight-line instruction semantics (the reference)
    # ------------------------------------------------------------------
    def _operand_value(self, operand, floating: bool = False):
        if isinstance(operand, Immediate):
            return operand.value
        if isinstance(operand, Register):
            return self.state.read(operand)
        if isinstance(operand, Label):  # pragma: no cover - labels only on branches
            raise TypeError("label operands cannot be evaluated")
        raise TypeError(f"unsupported operand {operand!r}")  # pragma: no cover

    def _execute_straightline(self, dyn: DynInst, inst: Instruction) -> None:
        if isinstance(inst, CompareInstruction):
            dyn.pred_writes = self._execute_compare(inst, dyn.qp_value, dyn.seq)
        elif dyn.qp_value:
            dyn.mem_address = self._execute_operation(inst)

    def _execute_operation(self, inst: Instruction) -> Optional[int]:
        """Perform a non-compare instruction whose guard is true; returns
        the effective address of a memory access, ``None`` otherwise."""
        if isinstance(inst, LoadInstruction):
            base = self.state.read(inst.base)
            address = to_signed64(base + inst.offset)
            value = self.state.memory.read_word(address)
            if inst.opcode is Opcode.LDF:
                self.state.write(inst.dests[0], float(value))
            else:
                self.state.write(inst.dests[0], value)
            return address
        if isinstance(inst, StoreInstruction):
            base = self.state.read(inst.base)
            address = to_signed64(base + inst.offset)
            value = self.state.read(inst.value)
            self.state.memory.write_word(address, int(value))
            return address
        opcode = inst.opcode
        if opcode in (Opcode.MOV, Opcode.MOVI, Opcode.MOV_TO_BR):
            self.state.write(inst.dests[0], self._operand_value(inst.srcs[0]))
        elif opcode is Opcode.NOP:
            pass
        elif opcode in _INT_ALU_OPS:
            lhs = self._operand_value(inst.srcs[0])
            rhs = self._operand_value(inst.srcs[1])
            self.state.write(inst.dests[0], _INT_ALU_OPS[opcode](int(lhs), int(rhs)))
        elif opcode in _FP_OPS:
            values = [float(self._operand_value(s)) for s in inst.srcs]
            self.state.write(inst.dests[0], _FP_OPS[opcode](values))
        else:
            raise NotImplementedError(f"no semantics for opcode {opcode}")
        return None

    def _execute_compare(
        self, inst: CompareInstruction, qp_value: bool, seq: int
    ) -> Tuple[Tuple[int, bool], ...]:
        """Evaluate a compare (whatever its guard) fetched as row ``seq``;
        returns its architectural predicate writes."""
        lhs = self._operand_value(inst.srcs[0])
        rhs = self._operand_value(inst.srcs[1])
        result = inst.relation.evaluate(int(lhs), int(rhs))
        old_pt = bool(self.state.predicate[inst.pt.index])
        old_pf = bool(self.state.predicate[inst.pf.index])
        new_pt, new_pf = inst.compute_targets(qp_value, result, old_pt, old_pf)
        writes: List[Tuple[int, bool]] = []
        for reg, value in ((inst.pt, new_pt), (inst.pf, new_pf)):
            if value is None:
                continue
            if self.state.write(reg, value):
                self._pred_writer[reg.index] = seq
                writes.append((reg.index, bool(value)))
        return tuple(writes)

    # ------------------------------------------------------------------
    # Decode/dispatch cache (optimized path)
    # ------------------------------------------------------------------
    def _compile_straightline(self, inst: Instruction) -> Tuple[int, Callable]:
        """Compile one static non-branch instruction into ``(kind, handler)``.

        The call shape depends on the row kind:

        * ``ROW_COMPARE``: ``handler(qp_value, seq)`` returns the
          architectural predicate writes (compares run whatever their
          guard);
        * ``ROW_MEMORY``: ``handler()`` performs the access and returns its
          effective address — called only when the guard is true;
        * ``ROW_PLAIN``: ``handler()``, likewise only under a true guard.

        A shape the workloads emit compiles into one closure
        (:meth:`_specialise`); any other shape runs the reference semantics
        bound to the instruction.
        """
        handler = self._specialise(inst)
        if isinstance(inst, CompareInstruction):
            return ROW_COMPARE, handler or partial(self._execute_compare, inst)
        if isinstance(inst, (LoadInstruction, StoreInstruction)):
            kind = ROW_MEMORY
        else:
            kind = ROW_PLAIN
        return kind, handler or partial(self._execute_operation, inst)

    def _specialise(self, inst: Instruction) -> Optional[Callable]:
        """One closure running ``inst`` with its register files, register
        indices and immediates bound, or ``None`` for a shape without one.

        The shapes, each with integer sources (general registers or integer
        immediates) unless said otherwise:

        * an int ALU op, MOV or MOVI into a general register;
        * LD into a general register from a general base;
        * FADD/FSUB/FMUL of two float registers into a float register;
        * a compare of type NONE or UNC (:meth:`_specialise_compare`).

        Each body is the reference semantics with ``to_signed64`` inlined
        as ``((v + 2**63) & MASK) - 2**63``.  General registers hold signed
        64-bit ints and float registers floats, so the reference's ``int``
        and ``float`` coercions of register values are no-ops; an immediate
        is coerced once, here.  An immediate source reads as index 0 of a
        one-element tuple, so one body serves register and immediate forms.
        """
        general = self.state.general
        sources = [_int_source(general, operand) for operand in inst.srcs]
        if isinstance(inst, CompareInstruction):
            return self._specialise_compare(inst, sources)
        opcode = inst.opcode
        dest = inst.dests[0] if inst.dests else None
        if dest is None or dest.is_hardwired:
            return None
        if dest.kind is RegisterKind.FLOAT:
            floating = self.state.floating
            if opcode not in _FP_OPERATORS or len(inst.srcs) != 2 or not all(
                isinstance(src, Register) and src.kind is RegisterKind.FLOAT
                for src in inst.srcs
            ):
                return None
            operation = _FP_OPERATORS[opcode]
            d, a, b = dest.index, inst.srcs[0].index, inst.srcs[1].index

            def fp_op() -> None:
                floating[d] = operation(floating[a], floating[b])

            return fp_op
        if dest.kind is not RegisterKind.GENERAL or None in sources:
            return None
        d = dest.index
        if opcode is Opcode.LD and isinstance(inst.offset, int):
            base = inst.base.index
            offset = inst.offset
            read_word = self.state.memory.read_word

            def load() -> int:
                address = ((general[base] + offset + _SIGN) & _U64) - _SIGN
                general[d] = read_word(address)
                return address

            return load
        if opcode in (Opcode.MOV, Opcode.MOVI) and len(sources) == 1:
            ((src_file, src),) = sources
            if src_file is not general:
                src_file = (to_signed64(src_file[0]),)

            def move() -> None:
                general[d] = src_file[src]

            return move
        if len(sources) != 2:
            return None
        (lhs_file, lhs), (rhs_file, rhs) = sources
        if opcode in (Opcode.SHL, Opcode.SHLI):

            def shift_left() -> None:
                value = lhs_file[lhs] << (rhs_file[rhs] & 63)
                general[d] = ((value + _SIGN) & _U64) - _SIGN

            return shift_left
        if opcode in (Opcode.SHR, Opcode.SHRI):

            def shift_right() -> None:
                value = (lhs_file[lhs] & _U64) >> (rhs_file[rhs] & 63)
                general[d] = ((value + _SIGN) & _U64) - _SIGN

            return shift_right
        if opcode in _ALU_OPERATORS:
            operation = _ALU_OPERATORS[opcode]

            def alu() -> None:
                value = operation(lhs_file[lhs], rhs_file[rhs])
                general[d] = ((value + _SIGN) & _U64) - _SIGN

            return alu
        return None

    def _specialise_compare(
        self, inst: CompareInstruction, sources: List[Any]
    ) -> Optional[Callable]:
        """The closure of a NONE or UNC compare with integer ``sources``
        (see :meth:`_specialise`) and a writable target, else ``None``.

        A NONE compare under a false guard writes nothing; an UNC compare
        clears both targets.  ``p0`` targets are never written.
        """
        pt_writable, pf_writable = not inst.pt.is_hardwired, not inst.pf.is_hardwired
        if (
            inst.ctype not in (CompareType.NONE, CompareType.UNC)
            or None in sources
            or not (pt_writable or pf_writable)
        ):
            return None
        relation = _RELATIONS[inst.relation]
        unc = inst.ctype is CompareType.UNC
        pt, pf = inst.pt.index, inst.pf.index
        (lhs_file, lhs), (rhs_file, rhs) = sources
        predicate = self.state.predicate
        pred_writer = self._pred_writer
        if pt_writable and pf_writable:

            def compare_both(qp_value: bool, seq: int) -> Tuple[Tuple[int, bool], ...]:
                if qp_value:
                    result = relation(lhs_file[lhs], rhs_file[rhs])
                    inverse = not result
                elif unc:
                    result = inverse = False
                else:
                    return ()
                predicate[pt] = result
                predicate[pf] = inverse
                pred_writer[pt] = seq
                pred_writer[pf] = seq
                return ((pt, result), (pf, inverse))

            return compare_both
        if pt_writable:

            def compare_pt(qp_value: bool, seq: int) -> Tuple[Tuple[int, bool], ...]:
                if qp_value:
                    result = relation(lhs_file[lhs], rhs_file[rhs])
                elif unc:
                    result = False
                else:
                    return ()
                predicate[pt] = result
                pred_writer[pt] = seq
                return ((pt, result),)

            return compare_pt

        def compare_pf(qp_value: bool, seq: int) -> Tuple[Tuple[int, bool], ...]:
            if qp_value:
                inverse = not relation(lhs_file[lhs], rhs_file[rhs])
            elif unc:
                inverse = False
            else:
                return ()
            predicate[pf] = inverse
            pred_writer[pf] = seq
            return ((pf, inverse),)

        return compare_pf

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def _execute_branch(
        self,
        inst: BranchInstruction,
        qp_value: bool,
        frame: _Frame,
        call_stack: List[_Frame],
    ) -> Tuple[_Frame, bool, bool, Optional[int], Optional[int]]:
        """Resolve one branch along the correct path.

        Returns ``(frame, stop, taken, target_pc, next_pc)``: the frame to
        continue in (``call_stack`` is updated in place), whether the
        program halts, and the branch's dynamic fields.
        """
        taken = inst.outcome(qp_value)

        if not taken:
            frame.inst_index += 1
            return frame, False, taken, None, self._pc_after(frame)

        if inst.kind in (BranchKind.COND, BranchKind.UNCOND):
            frame.block_index = frame.routine.block_index(inst.target.name)
            target_block = frame.routine.blocks[frame.block_index]
            frame.inst_index = 0
            return frame, False, taken, target_block.address, target_block.address

        if inst.kind is BranchKind.CALL:
            callee = self.program.routine(inst.callee)
            # The return point is the instruction after the call.
            call_stack.append(
                _Frame(frame.routine, frame.block_index, frame.inst_index + 1)
            )
            entry = callee.entry.address
            return _Frame(callee, 0, 0), False, taken, entry, entry

        if inst.kind is BranchKind.RET:
            if not call_stack:
                return frame, True, taken, None, None
            frame = call_stack.pop()
            next_pc = self._pc_after(frame)
            return frame, False, taken, next_pc, next_pc

        raise AssertionError(f"unhandled branch kind {inst.kind}")  # pragma: no cover


_U64 = (1 << 64) - 1
_SIGN = 1 << 63


def _int_source(general: List[int], operand) -> Optional[Tuple[Sequence[Any], int]]:
    """``(file, index)`` reading ``operand`` as an int: the general register
    file, or a one-element tuple for an integer immediate; ``None`` for
    any other operand."""
    if isinstance(operand, Immediate):
        value = operand.value
        return ((int(value),), 0) if isinstance(value, int) else None
    if isinstance(operand, Register) and operand.kind is RegisterKind.GENERAL:
        return general, operand.index
    return None


_INT_ALU_OPS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.ADDI: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.ANDI: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.ORI: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.XORI: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << (b & 63),
    Opcode.SHLI: lambda a, b: a << (b & 63),
    Opcode.SHR: lambda a, b: (a & _U64) >> (b & 63),
    Opcode.SHRI: lambda a, b: (a & _U64) >> (b & 63),
    Opcode.MUL: lambda a, b: a * b,
}

_FP_OPS = {
    Opcode.FADD: lambda v: v[0] + v[1],
    Opcode.FSUB: lambda v: v[0] - v[1],
    Opcode.FMUL: lambda v: v[0] * v[1],
    Opcode.FMA: lambda v: v[0] * v[1] + v[2],
    Opcode.FDIV: lambda v: v[0] / v[1] if v[1] else 0.0,
    Opcode.FMOV: lambda v: v[0],
}

#: The specialised handlers' operators (see :meth:`Emulator._specialise`);
#: ``_INT_ALU_OPS`` and ``_FP_OPS`` above stay the reference's.
_ALU_OPERATORS = {
    Opcode.ADD: operator.add,
    Opcode.ADDI: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.AND: operator.and_,
    Opcode.ANDI: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.ORI: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.XORI: operator.xor,
    Opcode.MUL: operator.mul,
}

_FP_OPERATORS = {
    Opcode.FADD: operator.add,
    Opcode.FSUB: operator.sub,
    Opcode.FMUL: operator.mul,
}

_RELATIONS = {
    CompareRelation.EQ: operator.eq,
    CompareRelation.NE: operator.ne,
    CompareRelation.LT: operator.lt,
    CompareRelation.LE: operator.le,
    CompareRelation.GT: operator.gt,
    CompareRelation.GE: operator.ge,
    CompareRelation.LTU: lambda a, b: (a & _U64) < (b & _U64),
    CompareRelation.GEU: lambda a, b: (a & _U64) >= (b & _U64),
}

#: One pre-trace guard writer, repeated per row of an unguarded run.
_NO_WRITER = array("q", [-1])
