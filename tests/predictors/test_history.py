"""Tests for global/local history structures."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.history import GlobalHistoryRegister, LocalHistoryTable


class _DequeRegister:
    """Reference register: the token of every bit in the register is kept in
    a bounded deque, oldest first, and a repair searches it."""

    def __init__(self, bits):
        self.bits = bits
        self.value = 0
        self.next_token = 0
        self.tokens = deque(maxlen=bits)

    def push(self, outcome):
        token = self.next_token
        self.next_token += 1
        self.value = ((self.value << 1) | (1 if outcome else 0)) & ((1 << self.bits) - 1)
        self.tokens.append(token)
        return token

    def repair(self, token, outcome):
        try:
            position = self.tokens.index(token)
        except ValueError:
            return False
        mask = 1 << (len(self.tokens) - 1 - position)
        self.value = self.value | mask if outcome else self.value & ~mask
        return True


#: One register operation: ``(op, outcome, token offset)``; a repair names
#: the token ``offset`` pushes back from the next one (negative: a token not
#: pushed yet).
register_ops = st.lists(
    st.tuples(
        st.sampled_from(["push", "push_resolved", "repair"]),
        st.booleans(),
        st.integers(min_value=-2, max_value=24),
    ),
    max_size=120,
)


class TestRegisterAgainstDequeReference:
    @settings(max_examples=200, deadline=None)
    @given(ops=register_ops, bits=st.integers(min_value=1, max_value=16))
    def test_push_push_resolved_and_repair_match_the_reference(self, ops, bits):
        ghr = GlobalHistoryRegister(bits)
        reference = _DequeRegister(bits)
        for op, outcome, offset in ops:
            if op == "push":
                assert ghr.push(outcome) == reference.push(outcome)
            elif op == "push_resolved":
                ghr.push_resolved(outcome)
                reference.push(outcome)
            else:
                token = reference.next_token - 1 - offset
                assert ghr.repair(token, outcome) == reference.repair(token, outcome)
            assert ghr.value == reference.value


class TestGlobalHistoryRegister:
    def test_push_shifts_in_lsb(self):
        ghr = GlobalHistoryRegister(4)
        ghr.push(True)
        ghr.push(False)
        ghr.push(True)
        assert ghr.value == 0b101

    def test_width_is_bounded(self):
        ghr = GlobalHistoryRegister(3)
        for _ in range(10):
            ghr.push(True)
        assert ghr.value == 0b111

    def test_repair_recent_bit(self):
        ghr = GlobalHistoryRegister(8)
        token = ghr.push(True)
        ghr.push(False)
        assert ghr.value == 0b10
        assert ghr.repair(token, False)
        assert ghr.value == 0b00

    def test_repair_sets_bit_true(self):
        ghr = GlobalHistoryRegister(8)
        token = ghr.push(False)
        ghr.push(False)
        assert ghr.repair(token, True)
        assert ghr.value == 0b10

    def test_repair_expired_bit_returns_false(self):
        ghr = GlobalHistoryRegister(2)
        token = ghr.push(True)
        ghr.push(False)
        ghr.push(False)
        ghr.push(False)
        assert ghr.repair(token, False) is False

    def test_repair_is_idempotent(self):
        ghr = GlobalHistoryRegister(8)
        token = ghr.push(True)
        ghr.repair(token, False)
        ghr.repair(token, False)
        assert ghr.value == 0


class TestLocalHistoryTable:
    def test_per_pc_histories_independent(self):
        table = LocalHistoryTable(entries=64, bits=4)
        table.update(0x4000, True)
        table.update(0x8004, False)
        assert table.read(0x4000) == 0b1

    def test_history_width_bounded(self):
        table = LocalHistoryTable(entries=8, bits=3)
        for _ in range(10):
            table.update(0x4000, True)
        assert table.read(0x4000) == 0b111

    def test_storage_bits(self):
        assert LocalHistoryTable(entries=2048, bits=10).storage_bits() == 20480

    def test_aliasing_same_entry(self):
        table = LocalHistoryTable(entries=1, bits=4)
        table.update(0x4000, True)
        assert table.read(0x9999) == table.read(0x4000)

