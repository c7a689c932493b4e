"""Tests for the architectural state."""

from repro.emulator.executor import Emulator
from repro.emulator.memory_image import MemoryImage
from repro.emulator.state import ArchState
from repro.isa.registers import BR, FR, GR, PR
from repro.program import DataSegment, ProgramBuilder
from repro.program.program import word_image


class TestInitialState:
    def test_general_registers_zero(self):
        state = ArchState()
        assert state.read(GR(5)) == 0

    def test_p0_true_others_false(self):
        state = ArchState()
        assert state.read(PR(0)) is True
        assert state.read(PR(5)) is False

    def test_for_program_loads_data(self):
        pb = ProgramBuilder("p")
        base = pb.array("a", [7, 8])
        rb = pb.routine("main")
        rb.block("entry")
        rb.br_ret()
        program = pb.finish()
        state = ArchState.for_program(program)
        assert state.memory.read_word(base) == 7
        assert state.memory.read_word(base + 8) == 8


#: Two values per 8-byte word (stride 4), some beyond 64 bits.
RAW_VALUES = [2**64 + 3, 2**63, -(2**63) - 1, 5, 7]


def _program_with_data():
    pb = ProgramBuilder("p")
    base = pb.array("a", RAW_VALUES, stride=4)
    rb = pb.routine("main")
    rb.block("entry")
    rb.br_ret()
    return pb.finish(), base


def _words(memory):
    return {address: memory.read_word(address) for address in list(memory._words)}


class TestDataSegmentWords:
    """The data segment is normalised once, when written, not per emulator."""

    def test_words_are_aligned_and_wrapped_as_written(self):
        program, base = _program_with_data()
        expected = MemoryImage()
        for i, value in enumerate(RAW_VALUES):
            expected.write_word(base + 4 * i, value)
        memory = ArchState.for_program(program).memory
        assert _words(memory) == _words(expected)
        assert program.data.words == expected._words
        assert all(address % 8 == 0 for address in program.data.words)

    def test_a_later_address_of_the_same_word_wins(self):
        program, base = _program_with_data()
        memory = ArchState.for_program(program).memory
        # 2**64 + 3 at base, 2**63 at base + 4: one word, the later value.
        assert memory.read_word(base) == -(2**63)
        assert memory.read_word(base + 8) == 5
        assert memory.read_word(base + 16) == 7
        assert len(memory) == len(program.data) == 3

    def test_the_constructor_normalises_too(self):
        segment = DataSegment({0x1003: 2**64 + 1, 0x1004: 9, 0x1010: -1})
        assert segment.words == {0x1000: 9, 0x1010: -1}
        assert segment.words == word_image({0x1003: 2**64 + 1, 0x1004: 9, 0x1010: -1})

    def test_an_emulator_copies_the_words_as_they_are(self):
        program, base = _program_with_data()
        memory = Emulator(program).state.memory
        assert memory._words == program.data.words
        assert memory._words is not program.data.words

    def test_two_emulators_never_share_memory_writes(self):
        program, base = _program_with_data()
        words = dict(program.data.words)
        first, second = Emulator(program), Emulator(program)
        first.state.memory.write_word(base, 99)
        second.state.memory.write_word(base + 8, -1)
        assert first.state.memory.read_word(base + 8) == 5
        assert second.state.memory.read_word(base) == -(2**63)
        assert program.data.words == words
        third = Emulator(program)
        assert _words(third.state.memory) == words


class TestReadsAndWrites:
    def test_write_general(self):
        state = ArchState()
        assert state.write(GR(3), 11)
        assert state.read(GR(3)) == 11

    def test_write_wraps_to_64_bits(self):
        state = ArchState()
        state.write(GR(3), 2**64 + 5)
        assert state.read(GR(3)) == 5

    def test_write_predicate_bool(self):
        state = ArchState()
        state.write(PR(6), 1)
        assert state.read(PR(6)) is True

    def test_write_float(self):
        state = ArchState()
        state.write(FR(33), 2.5)
        assert state.read(FR(33)) == 2.5

    def test_write_branch_register(self):
        state = ArchState()
        state.write(BR(1), 0x4000)
        assert state.read(BR(1)) == 0x4000

    def test_hardwired_writes_discarded(self):
        state = ArchState()
        assert state.write(GR(0), 99) is False
        assert state.read(GR(0)) == 0
        assert state.write(PR(0), False) is False
        assert state.read(PR(0)) is True

    def test_snapshot_predicates(self):
        state = ArchState()
        state.write(PR(6), True)
        snapshot = state.snapshot_predicates()
        assert snapshot[6] is True
        assert snapshot[0] is True
