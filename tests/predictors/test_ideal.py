"""Tests for the idealized (no-alias) predictor variants."""

from repro.predictors.ideal import (
    IdealHistoryOracle,
    NoAliasPerceptron,
    NoAliasPredicatePerceptron,
)
from repro.predictors.perceptron import PerceptronConfig
from repro.predictors.predicate_perceptron import PredicatePredictorConfig


class TestNoAliasPerceptron:
    def test_aliasing_pcs_kept_separate(self):
        # Force a tiny table so the realistic predictor would alias; the
        # no-alias variant must keep the two PCs independent regardless.
        predictor = NoAliasPerceptron(PerceptronConfig(entries=1))
        for _ in range(200):
            predictor.update(0x4000, 0, True)
            predictor.update(0x8000, 0, False)
        assert predictor.predict(0x4000, 0) is True
        assert predictor.predict(0x8000, 0) is False

    def test_planned_output_sign_is_the_prediction(self):
        predictor = NoAliasPerceptron(PerceptronConfig(entries=4))
        for _ in range(5):
            predictor.update(0x4000, 0, False)
        row, local_slot, _ = predictor.plan_slot(0x4000, 0)
        output = predictor.output_planned(row, local_slot, 0)
        assert predictor.predict(0x4000, 0) == (output >= 0) is False

    def test_size_report_grows_with_usage(self):
        predictor = NoAliasPerceptron(PerceptronConfig(entries=4))
        predictor.update(0x4000, 0, True)
        predictor.update(0x4040, 0, True)
        assert predictor.size_report().total_bits > 0


class TestNoAliasPredicatePerceptron:
    @staticmethod
    def _predicts(predictor, pc, slot):
        row, local_slot, _ = predictor.plan_slot(pc, slot)
        return predictor.output_planned(row, local_slot, 0) >= 0

    def test_slots_and_pcs_independent(self):
        predictor = NoAliasPredicatePerceptron(PredicatePredictorConfig(entries=1))
        for _ in range(200):
            for pc, slot, outcome in ((0x4000, 0, True), (0x4000, 1, False), (0x8000, 0, False)):
                row, local_slot, _ = predictor.plan_slot(pc, slot)
                predictor.train_planned(row, local_slot, 0, outcome)
        assert self._predicts(predictor, 0x4000, 0) is True
        assert self._predicts(predictor, 0x4000, 1) is False
        assert self._predicts(predictor, 0x8000, 0) is False

    def test_slots_plan_distinct_rows_and_confidence_indices(self):
        predictor = NoAliasPredicatePerceptron()
        first, second = predictor.plan_slot(0x4000, 0), predictor.plan_slot(0x4000, 1)
        assert first[0] != second[0]
        assert first[2] != second[2]


class TestIdealHistoryOracle:
    def test_is_a_marker(self):
        oracle = IdealHistoryOracle()
        assert "perfect" in oracle.description
