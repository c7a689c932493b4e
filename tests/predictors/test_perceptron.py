"""Tests for the perceptron branch predictor."""

import random

from repro.predictors.history import GlobalHistoryRegister
from repro.predictors.perceptron import (
    PerceptronConfig,
    PerceptronPredictor,
    perceptron_output,
    perceptron_train,
)


def _drive(predictor, outcomes, pc=0x4000, warmup=100):
    """Feed an outcome stream through predict/update; return accuracy."""
    ghr = GlobalHistoryRegister(predictor.config.global_bits)
    correct = 0
    counted = 0
    for i, outcome in enumerate(outcomes):
        prediction = predictor.predict(pc, ghr.value)
        if i >= warmup:
            counted += 1
            correct += prediction == outcome
        predictor.update(pc, ghr.value, outcome)
        ghr.push(outcome)
    return correct / counted if counted else 0.0


class TestPerceptronLearning:
    def test_learns_alternating_pattern(self):
        predictor = PerceptronPredictor(PerceptronConfig(entries=64))
        outcomes = [i % 2 == 0 for i in range(1500)]
        assert _drive(predictor, outcomes) > 0.97

    def test_learns_biased_stream(self):
        predictor = PerceptronPredictor(PerceptronConfig(entries=64))
        rng = random.Random(7)
        outcomes = [rng.random() < 0.9 for _ in range(1500)]
        assert _drive(predictor, outcomes) > 0.85

    def test_learns_and_correlation_of_history_bits(self):
        # outcome[i] = outcome[i-1] AND outcome[i-2] is linearly separable,
        # so the perceptron must capture it from its global history.
        predictor = PerceptronPredictor(PerceptronConfig(entries=64))
        rng = random.Random(3)
        outcomes = [rng.random() < 0.5, rng.random() < 0.5]
        for i in range(2, 2500):
            if i % 3 == 0:
                outcomes.append(rng.random() < 0.5)  # fresh randomness
            else:
                outcomes.append(outcomes[i - 1] and outcomes[i - 2])
        accuracy = _drive(predictor, outcomes, warmup=500)
        assert accuracy > 0.80

    def test_random_stream_not_predictable(self):
        predictor = PerceptronPredictor(PerceptronConfig(entries=64))
        rng = random.Random(11)
        outcomes = [rng.random() < 0.5 for _ in range(1500)]
        assert _drive(predictor, outcomes) < 0.65


class TestPerceptronMechanics:
    def test_theta_formula(self):
        config = PerceptronConfig(global_bits=30, local_bits=10)
        assert config.theta == int(1.93 * 40 + 14)

    def test_weight_bounds(self):
        config = PerceptronConfig(weight_bits=8)
        assert config.weight_min == -128
        assert config.weight_max == 127

    def test_weights_stay_bounded_after_training(self):
        config = PerceptronConfig(entries=4, global_bits=8, local_bits=2)
        predictor = PerceptronPredictor(config)
        for i in range(2000):
            predictor.update(0x4000, 0xFF, i % 2 == 0)
        for row in predictor._weights:
            assert all(config.weight_min <= w <= config.weight_max for w in row)

    def test_planned_output_sign_is_the_prediction(self):
        predictor = PerceptronPredictor(PerceptronConfig(entries=16))
        for _ in range(5):
            predictor.update(0x4000, 0, False)
        row, local_slot, _ = predictor.plan_slot(0x4000, 0)
        output = predictor.output_planned(row, local_slot, 0)
        assert predictor.predict(0x4000, 0) == (output >= 0) is False

    def test_storage_close_to_148kb(self):
        report = PerceptronPredictor().size_report()
        assert 140 <= report.total_kib <= 156

    def test_helper_output_and_train(self):
        row = [0, 0, 0]
        assert perceptron_output(row, 0b11) == 0
        perceptron_train(row, 0b11, True, -128, 127)
        assert row == [1, 1, 1]
        perceptron_train(row, 0b00, False, -128, 127)
        assert row == [0, 2, 2]

    def test_local_history_contributes(self):
        # A pattern visible only in local history: period-3 with one
        # not-taken, embedded in a constant global history.
        predictor = PerceptronPredictor(PerceptronConfig(entries=64, global_bits=4))
        correct = 0
        counted = 0
        for i in range(1500):
            outcome = i % 3 != 0
            prediction = predictor.predict(0x4000, 0)
            if i > 300:
                counted += 1
                correct += prediction == outcome
            predictor.update(0x4000, 0, outcome)
        assert correct / counted > 0.9
