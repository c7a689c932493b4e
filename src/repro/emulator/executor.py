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

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.emulator.memory_image import to_signed64
from repro.emulator.state import ArchState
from repro.isa.branches import BranchInstruction, BranchKind
from repro.isa.compare import CompareInstruction
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
        #: compiled handlers, keyed by instruction uid.  The reference
        #: interpreter (:meth:`_execute_straightline`) stays reachable with
        #: ``optimized=False`` as the parity oracle; the parity tests assert
        #: both produce identical traces.
        self.optimized = optimized
        self._handlers: Dict[int, Callable[[DynInst], None]] = {}

    # ------------------------------------------------------------------
    def run(self, max_instructions: int) -> Iterator[DynInst]:
        """Yield dynamic instructions until the program halts or the budget
        of fetched instructions is exhausted."""
        routine = self.program.entry_routine
        frame = _Frame(routine, 0, 0)
        call_stack: List[_Frame] = []
        handlers = self._handlers if self.optimized else None
        handlers_get = handlers.get if handlers is not None else None

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
                frame, call_stack, stop = self._execute_branch(
                    dyn, inst, frame, call_stack
                )
                yield dyn
                if stop:
                    self.halted = True
                    return
            else:
                if handlers is None:
                    self._execute_straightline(dyn, inst)
                else:
                    handler = handlers_get(inst.uid)
                    if handler is None:
                        handler = self._compile_straightline(inst)
                        handlers[inst.uid] = handler
                    handler(dyn)
                frame.inst_index += 1
                dyn.next_pc = self._pc_after(frame)
                yield dyn

    def run_pack(
        self,
        max_instructions: int,
        segment_rows: Optional[int] = None,
        on_segment=None,
    ):
        """Run like :meth:`run` but collect directly into a columnar pack.

        This is the optimized trace-build path: instead of allocating one
        :class:`DynInst` per fetched instruction, the loop reuses a single
        scratch record (the compiled handlers mutate it exactly as they
        mutate a real ``DynInst``) and appends its fields as one row into a
        :class:`~repro.emulator.tracepack.TracePackBuilder`.  The emulator
        parity tests assert ``run_pack(n).to_dyninsts()`` is bit-identical
        to ``list(run(n))``.

        Returns a :class:`~repro.emulator.tracepack.TracePack`.

        With ``segment_rows`` set, the trace is cut into fixed-size row
        segments.  Each completed segment is finalized immediately and
        either handed to ``on_segment`` — the streaming mode: nothing is
        retained here, the caller typically appends it to a
        :class:`~repro.emulator.tracepack.ChunkedPackWriter`, and the
        return value is the total row count — or collected into a
        :class:`~repro.emulator.tracepack.ChunkedTracePack`.  A run that
        fits in a single segment returns a plain monolithic pack, so small
        budgets behave exactly as before.
        """
        # Imported here: tracepack imports DynInst from this module.
        from repro.emulator.tracepack import ChunkedTracePack, TracePackBuilder

        if on_segment is not None and segment_rows is None:
            raise ValueError("on_segment requires segment_rows")
        if segment_rows is not None and segment_rows < 1:
            raise ValueError(f"segment_rows must be positive, got {segment_rows}")

        segments: List[Any] = []
        rows_flushed = 0

        def flush(pack) -> None:
            nonlocal rows_flushed
            rows_flushed += len(pack)
            if on_segment is not None:
                on_segment(pack)
            else:
                segments.append(pack)

        builder = TracePackBuilder()
        append = builder.append_row
        scratch = DynInst(0, None, 0, False, -1)  # type: ignore[arg-type]
        routine = self.program.entry_routine
        frame = _Frame(routine, 0, 0)
        call_stack: List[_Frame] = []
        handlers = self._handlers if self.optimized else None
        handlers_get = handlers.get if handlers is not None else None
        predicate = self.state.predicate
        pred_writer = self._pred_writer

        while self.fetched_instructions < max_instructions:
            if self._seq >= self.HARD_LIMIT:
                raise EmulationLimit(
                    f"exceeded hard emulation limit of {self.HARD_LIMIT} instructions"
                )
            blocks = frame.routine.blocks
            if frame.block_index >= len(blocks):
                if not call_stack:
                    self.halted = True
                    break
                frame = call_stack.pop()
                continue
            block = blocks[frame.block_index]
            if frame.inst_index >= len(block.instructions):
                frame.block_index += 1
                frame.inst_index = 0
                continue

            inst = block.instructions[frame.inst_index]
            # Inlined _make_dyn, written into the reused scratch record.
            qp_index = inst.qp.index
            qp_value = True if predicate[qp_index] else False
            scratch.seq = self._seq
            scratch.inst = inst
            scratch.pc = inst.address
            scratch.qp_value = qp_value
            scratch.executed = qp_value
            scratch.taken = None
            scratch.target_pc = None
            scratch.next_pc = None
            scratch.mem_address = None
            scratch.pred_writes = ()
            scratch.guard_producer_seq = pred_writer[qp_index] if qp_index else -1
            self._seq += 1
            if qp_value:
                self.executed_instructions += 1
            self.fetched_instructions += 1

            if isinstance(inst, BranchInstruction):
                frame, call_stack, stop = self._execute_branch(
                    scratch, inst, frame, call_stack
                )
                append(scratch)
                if segment_rows is not None and len(builder) >= segment_rows:
                    flush(builder.finalize())
                    builder = TracePackBuilder()
                    append = builder.append_row
                if stop:
                    self.halted = True
                    break
            else:
                if handlers_get is None:
                    self._execute_straightline(scratch, inst)
                else:
                    handler = handlers_get(inst.uid)
                    if handler is None:
                        handler = self._compile_straightline(inst)
                        handlers[inst.uid] = handler
                    handler(scratch)
                frame.inst_index += 1
                scratch.next_pc = self._pc_after(frame)
                append(scratch)
                if segment_rows is not None and len(builder) >= segment_rows:
                    flush(builder.finalize())
                    builder = TracePackBuilder()
                    append = builder.append_row

        if segment_rows is None:
            return builder.finalize()
        if len(builder) or not rows_flushed:
            flush(builder.finalize())
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
    # Straight-line instruction semantics
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
            self._execute_compare(dyn, inst)
            return
        if not dyn.qp_value:
            return
        if isinstance(inst, LoadInstruction):
            base = self.state.read(inst.base)
            address = to_signed64(base + inst.offset)
            dyn.mem_address = address
            value = self.state.memory.read_word(address)
            if inst.opcode is Opcode.LDF:
                self.state.write(inst.dests[0], float(value))
            else:
                self.state.write(inst.dests[0], value)
            return
        if isinstance(inst, StoreInstruction):
            base = self.state.read(inst.base)
            address = to_signed64(base + inst.offset)
            dyn.mem_address = address
            value = self.state.read(inst.value)
            self.state.memory.write_word(address, int(value))
            return
        opcode = inst.opcode
        if opcode in (Opcode.MOV, Opcode.MOVI):
            self.state.write(inst.dests[0], self._operand_value(inst.srcs[0]))
            return
        if opcode is Opcode.MOV_TO_BR:
            self.state.write(inst.dests[0], self._operand_value(inst.srcs[0]))
            return
        if opcode is Opcode.NOP:
            return
        if opcode in _INT_ALU_OPS:
            lhs = self._operand_value(inst.srcs[0])
            rhs = self._operand_value(inst.srcs[1])
            self.state.write(inst.dests[0], _INT_ALU_OPS[opcode](int(lhs), int(rhs)))
            return
        if opcode in _FP_OPS:
            values = [float(self._operand_value(s)) for s in inst.srcs]
            self.state.write(inst.dests[0], _FP_OPS[opcode](values))
            return
        raise NotImplementedError(f"no semantics for opcode {opcode}")

    def _execute_compare(self, dyn: DynInst, inst: CompareInstruction) -> None:
        lhs = self._operand_value(inst.srcs[0])
        rhs = self._operand_value(inst.srcs[1])
        result = inst.relation.evaluate(int(lhs), int(rhs))
        old_pt = bool(self.state.predicate[inst.pt.index])
        old_pf = bool(self.state.predicate[inst.pf.index])
        new_pt, new_pf = inst.compute_targets(dyn.qp_value, result, old_pt, old_pf)
        writes: List[Tuple[int, bool]] = []
        for reg, value in ((inst.pt, new_pt), (inst.pf, new_pf)):
            if value is None:
                continue
            if self.state.write(reg, value):
                self._pred_writer[reg.index] = dyn.seq
                writes.append((reg.index, bool(value)))
        dyn.pred_writes = tuple(writes)

    # ------------------------------------------------------------------
    # Decode/dispatch cache (optimized path)
    # ------------------------------------------------------------------
    def _compile_read(self, operand) -> Callable[[], object]:
        """Compile an operand into a zero-argument value accessor."""
        if isinstance(operand, Immediate):
            value = operand.value
            return lambda: value
        if isinstance(operand, Register):
            kind = operand.kind
            index = operand.index
            if kind is RegisterKind.GENERAL:
                file_ = self.state.general
            elif kind is RegisterKind.PREDICATE:
                file_ = self.state.predicate
            elif kind is RegisterKind.FLOAT:
                file_ = self.state.floating
            else:
                file_ = self.state.branch
            return lambda: file_[index]

        def unreadable():  # pragma: no cover - labels only on branches
            raise TypeError("label operands cannot be evaluated")

        return unreadable

    def _compile_write(self, reg: Register) -> Callable[[object], None]:
        """Compile a register destination into a value setter.

        Mirrors :meth:`ArchState.write`: per-file value coercion, writes to
        hard-wired registers silently discarded.
        """
        if reg.is_hardwired:
            return lambda value: None
        kind = reg.kind
        index = reg.index
        if kind is RegisterKind.GENERAL:
            general = self.state.general

            def write_general(value) -> None:
                general[index] = to_signed64(int(value))

            return write_general
        if kind is RegisterKind.PREDICATE:
            predicate = self.state.predicate

            def write_predicate(value) -> None:
                predicate[index] = bool(value)

            return write_predicate
        if kind is RegisterKind.FLOAT:
            floating = self.state.floating

            def write_float(value) -> None:
                floating[index] = float(value)

            return write_float
        branch = self.state.branch

        def write_branch(value) -> None:
            branch[index] = int(value)

        return write_branch

    def _compile_straightline(self, inst: Instruction) -> Callable[[DynInst], None]:
        """Compile one static non-branch instruction into a handler.

        Each handler reproduces :meth:`_execute_straightline` for exactly
        this instruction, with operand dispatch, opcode dispatch and
        register-file selection resolved at compile time.
        """
        if isinstance(inst, CompareInstruction):
            evaluate = inst.relation.evaluate
            compute_targets = inst.compute_targets
            lhs = self._compile_read(inst.srcs[0])
            rhs = self._compile_read(inst.srcs[1])
            predicate = self.state.predicate
            pred_writer = self._pred_writer
            pt_index, pf_index = inst.pt.index, inst.pf.index
            pt_writable = not inst.pt.is_hardwired
            pf_writable = not inst.pf.is_hardwired

            def compare_handler(dyn: DynInst) -> None:
                result = evaluate(int(lhs()), int(rhs()))
                old_pt = bool(predicate[pt_index])
                old_pf = bool(predicate[pf_index])
                new_pt, new_pf = compute_targets(dyn.qp_value, result, old_pt, old_pf)
                writes = ()
                if new_pt is not None and pt_writable:
                    value = bool(new_pt)
                    predicate[pt_index] = value
                    pred_writer[pt_index] = dyn.seq
                    writes = ((pt_index, value),)
                if new_pf is not None and pf_writable:
                    value = bool(new_pf)
                    predicate[pf_index] = value
                    pred_writer[pf_index] = dyn.seq
                    writes = writes + ((pf_index, value),)
                dyn.pred_writes = writes

            return compare_handler

        opcode = inst.opcode
        if isinstance(inst, LoadInstruction):
            base = self._compile_read(inst.base)
            offset = inst.offset
            read_word = self.state.memory.read_word
            write_dest = self._compile_write(inst.dests[0])
            is_float_load = opcode is Opcode.LDF

            def load_handler(dyn: DynInst) -> None:
                if not dyn.qp_value:
                    return
                address = to_signed64(base() + offset)
                dyn.mem_address = address
                value = read_word(address)
                write_dest(float(value) if is_float_load else value)

            return load_handler
        if isinstance(inst, StoreInstruction):
            base = self._compile_read(inst.base)
            value_read = self._compile_read(inst.value)
            offset = inst.offset
            write_word = self.state.memory.write_word

            def store_handler(dyn: DynInst) -> None:
                if not dyn.qp_value:
                    return
                address = to_signed64(base() + offset)
                dyn.mem_address = address
                write_word(address, int(value_read()))

            return store_handler
        if opcode in (Opcode.MOV, Opcode.MOVI, Opcode.MOV_TO_BR):
            src = self._compile_read(inst.srcs[0])
            write_dest = self._compile_write(inst.dests[0])

            def move_handler(dyn: DynInst) -> None:
                if dyn.qp_value:
                    write_dest(src())

            return move_handler
        if opcode is Opcode.NOP:
            return lambda dyn: None
        if opcode in _INT_ALU_OPS:
            operation = _INT_ALU_OPS[opcode]
            lhs = self._compile_read(inst.srcs[0])
            rhs = self._compile_read(inst.srcs[1])
            write_dest = self._compile_write(inst.dests[0])

            def alu_handler(dyn: DynInst) -> None:
                if dyn.qp_value:
                    write_dest(operation(int(lhs()), int(rhs())))

            return alu_handler
        if opcode in _FP_OPS:
            operation = _FP_OPS[opcode]
            readers = tuple(self._compile_read(s) for s in inst.srcs)
            write_dest = self._compile_write(inst.dests[0])

            def fp_handler(dyn: DynInst) -> None:
                if dyn.qp_value:
                    write_dest(operation([float(read()) for read in readers]))

            return fp_handler
        raise NotImplementedError(f"no semantics for opcode {opcode}")

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def _execute_branch(
        self,
        dyn: DynInst,
        inst: BranchInstruction,
        frame: _Frame,
        call_stack: List[_Frame],
    ) -> Tuple[_Frame, List[_Frame], bool]:
        taken = inst.outcome(dyn.qp_value)
        dyn.taken = taken

        if not taken:
            frame.inst_index += 1
            dyn.next_pc = self._pc_after(frame)
            return frame, call_stack, False

        if inst.kind in (BranchKind.COND, BranchKind.UNCOND):
            target_block = frame.routine.block(inst.target.name)
            target_index = frame.routine.block_index(inst.target.name)
            frame.block_index = target_index
            frame.inst_index = 0
            dyn.target_pc = target_block.address
            dyn.next_pc = target_block.address
            return frame, call_stack, False

        if inst.kind is BranchKind.CALL:
            callee = self.program.routine(inst.callee)
            # The return point is the instruction after the call.
            return_frame = _Frame(frame.routine, frame.block_index, frame.inst_index + 1)
            call_stack.append(return_frame)
            new_frame = _Frame(callee, 0, 0)
            dyn.target_pc = callee.entry.address
            dyn.next_pc = callee.entry.address
            return new_frame, call_stack, False

        if inst.kind is BranchKind.RET:
            if not call_stack:
                dyn.next_pc = None
                return frame, call_stack, True
            frame = call_stack.pop()
            dyn.next_pc = self._pc_after(frame)
            dyn.target_pc = dyn.next_pc
            return frame, call_stack, False

        raise AssertionError(f"unhandled branch kind {inst.kind}")  # pragma: no cover


_U64 = (1 << 64) - 1

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
