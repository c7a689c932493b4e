"""Tests for the conventional and PEP-PA branch-handling schemes."""

from types import SimpleNamespace

from repro.core import ConventionalScheme, PEPPAScheme
from repro.core.peppa_scheme import _LogicalPredicateFile
from repro.emulator import Emulator
from repro.pipeline import OutOfOrderCore
from repro.predictors.perceptron import PerceptronConfig

from tests.conftest import build_counting_loop


def _run(program, scheme, budget=4_000):
    return OutOfOrderCore().run(Emulator(program).run(budget), scheme, program.name)


class TestConventionalScheme:
    def test_records_one_entry_per_conditional_branch(self, counting_loop):
        program, _ = counting_loop
        scheme = ConventionalScheme()
        result = _run(program, scheme)
        assert scheme.accuracy.branches == result.metrics.conditional_branches
        assert scheme.counters.get("branches") == scheme.accuracy.branches

    def test_predicts_loop_branch_well(self, counting_loop):
        program, _ = counting_loop
        # A single loop-back branch taken 7/8 of the time: after warm-up the
        # predictor should be close to the bias.
        scheme = ConventionalScheme()
        _run(program, scheme, budget=6_000)
        assert scheme.accuracy.misprediction_rate < 0.3

    def test_no_early_resolution_claimed(self, diamond_program):
        program, _, _ = diamond_program
        scheme = ConventionalScheme()
        _run(program, scheme)
        assert scheme.accuracy.early_resolved_count == 0

    def test_fetch_prediction_recorded(self, diamond_program):
        program, _, _ = diamond_program
        scheme = ConventionalScheme()
        _run(program, scheme)
        assert all(r.fetch_prediction is not None for r in scheme.accuracy.records)

    def test_describe_mentions_size(self):
        assert "KiB" in ConventionalScheme().describe()

    def test_ideal_variant_runs(self, diamond_program):
        program, _, _ = diamond_program
        scheme = ConventionalScheme(ideal_no_alias=True, perfect_history=True)
        result = _run(program, scheme)
        assert result.accuracy.branches > 0


def _branch(seq, taken, pc=0x4000):
    return SimpleNamespace(pc=pc, seq=seq, taken=taken)


class TestTwoLevelOverride:
    """The override composition: gshare at fetch, the second level wins."""

    def _disagreeing_levels(self):
        scheme = ConventionalScheme(PerceptronConfig(entries=16))
        # Train only the second level towards taken, the first towards not.
        for _ in range(50):
            scheme.predictor.update(0x4000, 0, True)
            scheme.fast.update(0x4000, 0, False)
        return scheme

    def test_final_prediction_is_second_level(self):
        scheme = self._disagreeing_levels()
        handling = scheme.on_branch_rename(_branch(1, True), 0, 0, 0)
        assert handling.final_prediction is True
        assert handling.fetch_prediction is False

    def test_override_flagged_and_counted_when_levels_disagree(self):
        scheme = self._disagreeing_levels()
        assert scheme.accuracy.override_count == 0
        handling = scheme.on_branch_rename(_branch(1, True), 0, 0, 0)
        assert handling.override_flush
        assert scheme.accuracy.override_count == 1

    def test_resolution_trains_both_levels(self):
        scheme = ConventionalScheme(PerceptronConfig(entries=16))
        for seq in range(60):
            scheme.on_branch_rename(_branch(seq, True), 0, 0, 0)
            scheme.on_branch_resolved(_branch(seq, True), 0, False)
        history = scheme.ghr.value
        assert scheme.fast.predict(0x4000, history) is True
        assert scheme.predictor.predict(0x4000, history) is True

    def test_size_combines_levels(self):
        scheme = ConventionalScheme()
        assert "gshare-pht" in scheme.fast.size_report().components
        assert "perceptron-table" in scheme.predictor.size_report().components
        # 4 KB gshare + ~148 KB perceptron.
        total = scheme.fast.size_report().total_kib + scheme.predictor.size_report().total_kib
        assert 148 <= total <= 160
        assert f"({total:.0f} KiB)" in scheme.describe()


class TestLogicalPredicateFile:
    def test_initial_values(self):
        file = _LogicalPredicateFile()
        assert file.value_at(0, 100) is True   # p0
        assert file.value_at(6, 100) is False

    def test_latest_completed_write_wins(self):
        file = _LogicalPredicateFile()
        file.record_write(6, cycle=10, value=True)
        file.record_write(6, cycle=30, value=False)
        assert file.value_at(6, 5) is False     # nothing completed yet
        assert file.value_at(6, 15) is True
        assert file.value_at(6, 35) is False

    def test_out_of_order_completion_visibility(self):
        # A later (program-order) write that completes *earlier* is visible
        # first — the hazard the paper attributes PEP-PA's loss to.
        file = _LogicalPredicateFile()
        file.record_write(6, cycle=50, value=True)    # older definition, slow
        file.record_write(6, cycle=20, value=False)   # newer definition, fast
        assert file.value_at(6, 30) is False
        assert file.value_at(6, 60) is True  # completion-time order, not program order

    def test_p0_writes_ignored(self):
        file = _LogicalPredicateFile()
        file.record_write(0, cycle=10, value=False)
        assert file.value_at(0, 100) is True

    def test_depth_bounded(self):
        file = _LogicalPredicateFile()
        for cycle in range(20):
            file.record_write(6, cycle=cycle, value=bool(cycle % 2))
        assert len(file._writes[6]) <= file.DEPTH


class TestPEPPAScheme:
    def test_records_and_counters(self, diamond_program):
        program, _, _ = diamond_program
        scheme = PEPPAScheme()
        result = _run(program, scheme)
        assert scheme.accuracy.branches == result.metrics.conditional_branches
        assert scheme.counters.get("branches") > 0

    def test_never_early_resolved(self, diamond_program):
        program, _, _ = diamond_program
        scheme = PEPPAScheme()
        _run(program, scheme)
        assert scheme.accuracy.early_resolved_count == 0

    def test_learns_easy_loop(self):
        # A long loop gives the 2-bit counters time to warm up: the single
        # loop-back branch is taken all but once per pass over the data.
        program, _ = build_counting_loop(list(range(150)))
        scheme = PEPPAScheme()
        _run(program, scheme, budget=6_000)
        assert scheme.accuracy.misprediction_rate < 0.2

    def test_describe(self):
        assert "PEP-PA" in PEPPAScheme().describe()
