"""Tests for the confidence estimator."""

import pytest

from repro.predictors.confidence import ConfidenceEstimator


def _confident(estimator: ConfidenceEstimator, index: int) -> bool:
    return estimator.counters[estimator.slot(index)] == estimator.saturated


def _train(estimator: ConfidenceEstimator, index: int, correct: bool, times: int = 1) -> None:
    for _ in range(times):
        estimator.record_slot(estimator.slot(index), correct)


class TestConfidenceEstimator:
    def test_not_confident_initially(self):
        estimator = ConfidenceEstimator(entries=16, bits=2)
        assert not _confident(estimator, 3)

    def test_becomes_confident_after_saturation(self):
        estimator = ConfidenceEstimator(entries=16, bits=2)
        _train(estimator, 3, True, times=2)
        assert not _confident(estimator, 3)
        _train(estimator, 3, True)
        assert _confident(estimator, 3)

    def test_misprediction_zeroes_counter(self):
        estimator = ConfidenceEstimator(entries=16, bits=2)
        _train(estimator, 3, True, times=3)
        _train(estimator, 3, False)
        assert not _confident(estimator, 3)
        assert estimator.counters[estimator.slot(3)] == 0

    def test_record_dispatch(self):
        estimator = ConfidenceEstimator(entries=16, bits=3)
        estimator.record_slot(5, True)
        assert estimator.counters[5] == 1
        estimator.record_slot(5, False)
        assert estimator.counters[5] == 0

    def test_counter_saturates(self):
        estimator = ConfidenceEstimator(entries=4, bits=2)
        _train(estimator, 1, True, times=10)
        assert estimator.counters[1] == estimator.saturated == 3

    def test_entries_wrap(self):
        estimator = ConfidenceEstimator(entries=8, bits=2)
        assert estimator.slot(2 + 8) == estimator.slot(2) == 2
        _train(estimator, 2, True, times=3)
        assert _confident(estimator, 2 + 8)

    def test_independent_entries(self):
        estimator = ConfidenceEstimator(entries=8, bits=2)
        _train(estimator, 0, True, times=3)
        assert not _confident(estimator, 1)
        assert list(estimator.counters) == [3, 0, 0, 0, 0, 0, 0, 0]

    def test_size_report(self):
        assert ConfidenceEstimator(entries=1024, bits=3).size_report().total_bits == 3072

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            ConfidenceEstimator(entries=0)
