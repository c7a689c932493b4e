"""Tests for the Figure 6b accuracy breakdown."""

import pytest

from repro.core.early_resolution import accuracy_breakdown
from repro.stats.accuracy import BranchAccuracy


def _accuracy(records):
    accuracy = BranchAccuracy()
    for actual, predicted, early in records:
        accuracy.add(0x4000, actual, predicted, early_resolved=early)
    return accuracy


class TestBreakdown:
    def test_early_contribution_counts_conventional_misses(self):
        # 4 branches: conventional mispredicts #0 and #2; predicate scheme is
        # always right, early-resolved on #0 and #1.
        conventional = _accuracy(
            [(True, False, False), (True, True, False), (False, True, False), (True, True, False)]
        )
        predicate = _accuracy(
            [(True, True, True), (True, True, True), (False, False, False), (True, True, False)]
        )
        breakdown = accuracy_breakdown("bench", conventional, predicate)
        assert breakdown.conventional_misprediction_rate == 0.5
        assert breakdown.predicate_misprediction_rate == 0.0
        # Only branch #0 is both early-resolved and conventionally wrong.
        assert breakdown.early_resolved_improvement == 0.25
        assert breakdown.correlation_improvement == pytest.approx(0.25)
        assert breakdown.total_improvement == pytest.approx(0.5)

    def test_correlation_can_be_negative(self):
        # Predicate scheme is worse overall and nothing is early-resolved:
        # the correlation bucket absorbs the negative effects.
        conventional = _accuracy([(True, True, False)] * 4)
        predicate = _accuracy(
            [(True, False, False), (True, True, False), (True, True, False), (True, True, False)]
        )
        breakdown = accuracy_breakdown("bench", conventional, predicate)
        assert breakdown.early_resolved_improvement == 0.0
        assert breakdown.correlation_improvement < 0.0

    def test_requires_matching_traces(self):
        conventional = _accuracy([(True, True, False)] * 3)
        predicate = _accuracy([(True, True, False)] * 4)
        with pytest.raises(ValueError):
            accuracy_breakdown("bench", conventional, predicate)

    def test_empty_runs(self):
        breakdown = accuracy_breakdown("bench", BranchAccuracy(), BranchAccuracy())
        assert breakdown.total_improvement == 0.0
