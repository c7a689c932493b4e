"""Tests for the predicate perceptron predictor (dual-hash PVT)."""

import random

from repro.predictors.history import GlobalHistoryRegister
from repro.predictors.predicate_perceptron import (
    PredicatePerceptronPredictor,
    PredicatePredictorConfig,
)
from repro.predictors.perceptron import PerceptronConfig


def _predict(predictor, pc, slot, history):
    row, local_slot, _ = predictor.plan_slot(pc, slot)
    return predictor.output_planned(row, local_slot, history) >= 0


def _train(predictor, pc, slot, history, outcome):
    row, local_slot, _ = predictor.plan_slot(pc, slot)
    predictor.train_planned(row, local_slot, history, outcome)


class TestDualHash:
    def test_two_slots_use_distinct_indices(self):
        predictor = PredicatePerceptronPredictor(PredicatePredictorConfig(entries=128))
        pc = 0x4000_0040
        assert predictor.plan_slot(pc, 0)[0] != predictor.plan_slot(pc, 1)[0]

    def test_indices_within_table(self):
        predictor = PredicatePerceptronPredictor(PredicatePredictorConfig(entries=100))
        for pc in range(0x4000, 0x4400, 4):
            for slot in (0, 1):
                row, _, confidence_index = predictor.plan_slot(pc, slot)
                assert 0 <= row < 100
                assert confidence_index == row

    def test_invalid_slot_rejected(self):
        predictor = PredicatePerceptronPredictor()
        try:
            predictor.plan_slot(0x4000, 2)
            assert False
        except ValueError:
            pass

    def test_split_pvt_halves_are_disjoint(self):
        config = PredicatePredictorConfig(entries=128, split_pvt=True)
        predictor = PredicatePerceptronPredictor(config)
        for pc in range(0x4000, 0x4200, 4):
            assert predictor.plan_slot(pc, 0)[0] < 64
            assert predictor.plan_slot(pc, 1)[0] >= 64


class TestLearning:
    def _drive_slot(self, predictor, outcomes, pc=0x4000, slot=0, warmup=100):
        ghr = GlobalHistoryRegister(predictor.config.global_bits)
        correct = 0
        counted = 0
        for i, outcome in enumerate(outcomes):
            prediction = _predict(predictor, pc, slot, ghr.value)
            if i >= warmup:
                counted += 1
                correct += prediction == outcome
            _train(predictor, pc, slot, ghr.value, outcome)
            ghr.push(outcome)
        return correct / counted

    def test_learns_biased_predicate(self):
        predictor = PredicatePerceptronPredictor(PredicatePredictorConfig(entries=64))
        rng = random.Random(1)
        outcomes = [rng.random() < 0.85 for _ in range(1200)]
        assert self._drive_slot(predictor, outcomes) > 0.8

    def test_learns_alternation(self):
        predictor = PredicatePerceptronPredictor(PredicatePredictorConfig(entries=64))
        outcomes = [i % 2 == 0 for i in range(1200)]
        assert self._drive_slot(predictor, outcomes) > 0.95

    def test_slots_learn_independently(self):
        predictor = PredicatePerceptronPredictor(PredicatePredictorConfig(entries=256))
        pc = 0x4000
        for _ in range(300):
            _train(predictor, pc, 0, 0, True)
            _train(predictor, pc, 1, 0, False)
        assert _predict(predictor, pc, 0, 0) is True
        assert _predict(predictor, pc, 1, 0) is False


class TestConfiguration:
    def test_size_close_to_148kb(self):
        report = PredicatePerceptronPredictor().size_report()
        assert 140 <= report.total_kib <= 156

    def test_matching_builds_same_geometry(self):
        perceptron = PerceptronConfig(entries=512, global_bits=12, local_bits=6)
        config = PredicatePredictorConfig.matching(perceptron)
        assert config.entries == 512
        assert config.global_bits == 12
        assert config.local_bits == 6

    def test_theta_and_bounds(self):
        config = PredicatePredictorConfig(global_bits=20, local_bits=10, weight_bits=8)
        assert config.theta == int(1.93 * 30 + 14)
        assert config.weight_min == -128 and config.weight_max == 127
