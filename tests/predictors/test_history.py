"""Tests for global/local history structures."""

from repro.predictors.history import GlobalHistoryRegister, LocalHistoryTable


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

