"""The optimized emulator's straight-line runs against the reference.

``Emulator.run_pack`` runs the instructions between two branches as one
run of specialised handlers.  Two guarantees are under test here:

* every straight-line opcode and operand shape, in random programs built
  with ``RoutineBuilder``, serializes exactly like the reference
  interpreter (``optimized=False``), unsegmented and with segment sizes
  that cut runs;
* a budget, a segment boundary or a lowered ``HARD_LIMIT`` that lands
  inside a run gives the reference's rows, ``_seq`` and fetched and
  executed counts, and the limit raises at the reference's row.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.emulator.executor import EmulationLimit, Emulator
from repro.isa import (
    BR,
    GR,
    PR,
    ALUInstruction,
    CompareInstruction,
    CompareRelation,
    CompareType,
    FPInstruction,
    Instruction,
    LoadInstruction,
    MoveInstruction,
    Opcode,
    StoreInstruction,
)
from repro.isa.registers import FR, P0
from repro.program import ProgramBuilder

from tests.conftest import assert_run_pack_matches_reference

GENERAL = [GR(index) for index in range(8)]  # r0 included
FLOATS = [FR(index) for index in range(4)]
PREDICATES = [PR(index) for index in range(6)]  # p0 included
BRANCH_REGISTERS = [BR(index) for index in range(1, 3)]
#: Reserved for the scaffolding: the data base, the loop counter and its
#: predicates.  Random instructions never write them.
DATA_BASE, COUNTER = GR(29), GR(30)
LOOP_TRUE, LOOP_FALSE = PR(30), PR(31)

INT_REGISTER_OPS = [
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SHL, Opcode.SHR, Opcode.MUL,
]
INT_IMMEDIATE_OPS = [
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SHLI, Opcode.SHRI,
]
FP_OPS = {
    Opcode.FADD: 2, Opcode.FSUB: 2, Opcode.FMUL: 2, Opcode.FDIV: 2,
    Opcode.FMA: 3, Opcode.FMOV: 1,
}

immediates = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-70, 200),  # shift amounts: negative and 64 or more
    st.sampled_from([0, 1, -1, 63, 64, 65, 2**63, -(2**63) - 1, 2**64 + 5]),
)
#: Guards and compare targets: p0 about half the time.
guards = targets = st.one_of(st.just(P0), st.sampled_from(PREDICATES))
general = st.sampled_from(GENERAL)
int_sources = st.one_of(general, immediates)


@st.composite
def straightline(draw):
    """One non-branch instruction, as an ``Instruction``."""
    qp = draw(guards)
    family = draw(
        st.sampled_from(["int", "int-imm", "move", "fp", "memory", "compare", "nop"])
    )
    if family == "int":
        opcode = draw(st.sampled_from(INT_REGISTER_OPS))
        return ALUInstruction(
            opcode, draw(general), draw(int_sources), draw(int_sources), qp=qp
        )
    if family == "int-imm":
        opcode = draw(st.sampled_from(INT_IMMEDIATE_OPS))
        return ALUInstruction(opcode, draw(general), draw(general), draw(immediates), qp=qp)
    if family == "move":
        shape = draw(st.sampled_from(["mov", "movi", "to-float", "to-branch"]))
        if shape == "mov":
            return MoveInstruction(draw(general), draw(general), qp=qp)
        if shape == "movi":
            return MoveInstruction(draw(general), draw(immediates), qp=qp)
        if shape == "to-float":
            return MoveInstruction(draw(st.sampled_from(FLOATS)), draw(general), qp=qp)
        return Instruction(
            Opcode.MOV_TO_BR,
            dests=[draw(st.sampled_from(BRANCH_REGISTERS))],
            srcs=[draw(int_sources)],
            qp=qp,
        )
    if family == "fp":
        opcode = draw(st.sampled_from(sorted(FP_OPS, key=lambda op: op.value)))
        sources = [
            draw(st.one_of(st.sampled_from(FLOATS), st.sampled_from(FLOATS), general))
            for _ in range(FP_OPS[opcode])
        ]
        return FPInstruction(opcode, draw(st.sampled_from(FLOATS)), sources, qp=qp)
    if family == "memory":
        floating = draw(st.booleans())
        base = draw(st.one_of(st.just(DATA_BASE), general))
        offset = draw(st.integers(-2, 6)) * 8 + draw(st.sampled_from([0, 0, 3]))
        registers = FLOATS if floating else GENERAL
        register = draw(st.one_of(st.sampled_from(registers), general))
        memory = draw(st.sampled_from([LoadInstruction, StoreInstruction]))
        return memory(register, base, offset, qp=qp, floating=floating)
    if family == "compare":
        floating = draw(st.booleans())
        sources = st.one_of(int_sources, st.sampled_from(FLOATS)) if floating else int_sources
        return CompareInstruction(
            draw(st.sampled_from(list(CompareRelation))),
            draw(targets),
            draw(targets),
            draw(sources),
            draw(sources),
            ctype=draw(st.sampled_from(list(CompareType))),
            qp=qp,
            floating=floating,
        )
    return Instruction(Opcode.NOP, qp=qp)


@st.composite
def programs(draw):
    """A loop over two fall-through blocks of random instructions that
    also calls a leaf routine, after an entry block that seeds every
    register file."""
    builder = ProgramBuilder("straightline")
    data = builder.array(
        "data", draw(st.lists(st.integers(-(2**20), 2**20), min_size=8, max_size=8))
    )
    main = builder.routine("main")
    main.block("entry")
    main.movi(DATA_BASE, data)
    for register in GENERAL[1:]:
        main.movi(register, draw(immediates))
    for index, register in enumerate(FLOATS):
        main.load(register, DATA_BASE, 8 * index, floating=True)
    main.cmp(CompareRelation.LT, PR(1), PR(2), GENERAL[1], GENERAL[2])
    main.movi(COUNTER, draw(st.integers(1, 3)))
    main.block("body")
    for inst in draw(st.lists(straightline(), max_size=12)):
        main.emit(inst)
    main.block("tail")
    for inst in draw(st.lists(straightline(), max_size=12)):
        main.emit(inst)
    main.br_call("leaf")
    main.addi(COUNTER, COUNTER, -1)
    main.cmp(CompareRelation.GT, LOOP_TRUE, LOOP_FALSE, COUNTER, 0)
    main.br_cond("body", qp=LOOP_TRUE)
    main.br_ret()
    leaf = builder.routine("leaf")
    leaf.block("leaf")
    for inst in draw(st.lists(straightline(), max_size=6)):
        leaf.emit(inst)
    leaf.br_ret()
    return builder.finish()


class TestOpcodeCoverage:
    """Random programs of every straight-line opcode and operand shape."""

    @given(
        program=programs(),
        budget=st.integers(0, 200),
        segment_rows=st.one_of(st.none(), st.integers(1, 40)),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_run_pack_serializes_like_the_reference(self, program, budget, segment_rows):
        assert_run_pack_matches_reference(program, budget, segment_rows)

    @given(program=programs(), hard_limit=st.integers(1, 120))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_a_lowered_hard_limit_raises_at_the_reference_row(self, program, hard_limit):
        assert_run_pack_matches_reference(program, 10_000, segment_rows=7, hard_limit=hard_limit)

    @pytest.mark.parametrize(
        "build, expected",
        [
            # SHL/SHR with a negative value and shift amounts of 64 or more.
            (lambda rb: rb.shl(GR(3), GR(1), 65), (2**63 - 1) << 1),
            (lambda rb: rb.shr(GR(3), GR(2), 64), -5 & (2**64 - 1)),
            (lambda rb: rb.shr(GR(3), GR(2), GR(4)), (-5 & (2**64 - 1)) >> 7),
            # MUL overflow wraps to signed 64 bits.
            (lambda rb: rb.mul(GR(3), GR(1), GR(1)), (2**63 - 1) ** 2),
        ],
    )
    def test_edge_values_wrap_like_the_reference(self, build, expected):
        builder = ProgramBuilder("edges")
        main = builder.routine("main")
        main.block("entry")
        main.movi(GR(1), 2**63 - 1)
        main.movi(GR(2), -5)
        main.movi(GR(4), 7 + 64 * 3)
        build(main)
        emulator = assert_run_pack_matches_reference(builder.finish(), 100)
        wrapped = ((expected + 2**63) & (2**64 - 1)) - 2**63
        assert emulator.state.general[3] == wrapped

    def test_fdiv_by_zero_and_float_memory(self):
        builder = ProgramBuilder("fp-edges")
        data = builder.array("data", [7, 0])
        main = builder.routine("main")
        main.block("entry")
        main.movi(GR(1), data)
        main.load(FR(1), GR(1), 0, floating=True)
        main.load(FR(2), GR(1), 8, floating=True)
        main.fdiv(FR(3), FR(1), FR(2))
        main.fadd(FR(3), FR(3), FR(1))
        main.store(FR(3), GR(1), 16, floating=True)
        main.load(GR(2), GR(1), 16)
        emulator = assert_run_pack_matches_reference(builder.finish(), 100)
        assert emulator.state.floating[3] == 7.0
        assert emulator.state.general[2] == 7


def _long_run_program():
    """A loop whose body is one 21-instruction straight-line run, mixing
    guarded and unguarded rows, a compare and a load."""
    builder = ProgramBuilder("long-run")
    data = builder.array("data", list(range(8)))
    main = builder.routine("main")
    main.block("entry")
    main.movi(GR(1), data)
    main.movi(GR(9), 4)
    main.block("body")
    for index in range(6):
        main.addi(GR(2), GR(2), index + 1)
    main.cmp(CompareRelation.LT, PR(3), PR(4), GR(2), 30)
    for index in range(6):
        main.xor(GR(3), GR(3), GR(2), qp=PR(3 + index % 2))
    main.load(GR(4), GR(1), 8)
    for index in range(5):
        main.shl(GR(5), GR(2), index)
    main.addi(GR(9), GR(9), -1)
    main.cmp(CompareRelation.GT, PR(6), PR(7), GR(9), 0)
    main.br_cond("body", qp=PR(6))
    return builder.finish()


class TestMidRunCuts:
    """Budgets, segment boundaries and hard limits inside a run."""

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 5, 13, 22, 23, 24, 40, 67])
    def test_budget(self, budget):
        assert_run_pack_matches_reference(_long_run_program(), budget)

    @pytest.mark.parametrize("segment_rows", [1, 2, 3, 5, 7, 11, 19, 20, 21, 23])
    def test_segment_boundary(self, segment_rows):
        assert_run_pack_matches_reference(_long_run_program(), 10_000, segment_rows)

    @pytest.mark.parametrize("hard_limit", [1, 2, 3, 9, 15, 24, 25, 30, 50])
    @pytest.mark.parametrize("segment_rows", [1, 4, None])
    def test_hard_limit(self, hard_limit, segment_rows):
        program = _long_run_program()
        assert_run_pack_matches_reference(program, 10_000, segment_rows, hard_limit)
        emulator = Emulator(program)
        emulator.HARD_LIMIT = hard_limit
        with pytest.raises(EmulationLimit):
            emulator.run_pack(10_000)
        assert emulator._seq == emulator.fetched_instructions == hard_limit

    def test_hard_limit_at_the_budget_does_not_raise(self):
        # The limit is checked before a row is fetched, so a budget that
        # ends exactly at it finishes normally, as in the reference.
        emulator = assert_run_pack_matches_reference(_long_run_program(), 15, hard_limit=15)
        assert emulator.fetched_instructions == 15
