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
    def test_slots_and_pcs_independent(self):
        predictor = NoAliasPredicatePerceptron(PredicatePredictorConfig(entries=1))
        for _ in range(200):
            predictor.update_slot(0x4000, 0, 0, True)
            predictor.update_slot(0x4000, 1, 0, False)
            predictor.update_slot(0x8000, 0, 0, False)
        assert predictor.predict_slot(0x4000, 0, 0)[0] is True
        assert predictor.predict_slot(0x4000, 1, 0)[0] is False
        assert predictor.predict_slot(0x8000, 0, 0)[0] is False

    def test_predict_compare_pair(self):
        predictor = NoAliasPredicatePerceptron()
        pair = predictor.predict_compare(0x4000, 0)
        assert len(pair) == 2

    def test_index_for_slot_distinct(self):
        predictor = NoAliasPredicatePerceptron()
        assert predictor.index_for_slot(0x4000, 0) != predictor.index_for_slot(0x4000, 1)


class TestIdealHistoryOracle:
    def test_is_a_marker(self):
        oracle = IdealHistoryOracle()
        assert "perfect" in oracle.description
