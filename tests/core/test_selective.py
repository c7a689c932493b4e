"""Tests for the selective predication policy."""

from dataclasses import FrozenInstanceError

import pytest

from repro.core.selective import SelectivePredicationPolicy
from repro.pipeline.pprf import PPRFEntry
from repro.pipeline.uop import RenameDecision


def _entry(predicted=None, computed_cycle=None, computed=None, confident=False):
    entry = PPRFEntry(
        physical_id=0,
        logical_index=6,
        producer_pc=0x4000,
        producer_slot=0,
        producer_seq=1,
    )
    entry.predicted_value = predicted
    entry.confident = confident
    if computed_cycle is not None:
        entry.computed_cycle = computed_cycle
        entry.computed_value = computed
        entry.speculative = False
    return entry


class TestDisabledPolicy:
    def test_always_conservative(self):
        policy = SelectivePredicationPolicy(enabled=False)
        decision = policy.decide(_entry(predicted=False, confident=True), 100, False)
        assert decision.decision is RenameDecision.CONSERVATIVE
        assert not decision.speculative


class TestResolvedGuards:
    def test_resolved_false_cancels_non_speculatively(self):
        policy = SelectivePredicationPolicy()
        entry = _entry(predicted=True, computed_cycle=10, computed=False)
        decision = policy.decide(entry, rename_cycle=20, architectural_value=False)
        assert decision.decision is RenameDecision.CANCEL
        assert not decision.speculative

    def test_resolved_true_executes_unpredicated(self):
        policy = SelectivePredicationPolicy()
        entry = _entry(predicted=False, computed_cycle=10, computed=True)
        decision = policy.decide(entry, rename_cycle=20, architectural_value=True)
        assert decision.decision is RenameDecision.ASSUME_TRUE
        assert not decision.speculative

    def test_no_entry_uses_architectural_value(self):
        policy = SelectivePredicationPolicy()
        assert policy.decide(None, 5, True).decision is RenameDecision.ASSUME_TRUE
        assert policy.decide(None, 5, False).decision is RenameDecision.CANCEL


class TestSpeculativeGuards:
    def test_unconfident_prediction_is_conservative(self):
        policy = SelectivePredicationPolicy()
        entry = _entry(predicted=False, confident=False)
        decision = policy.decide(entry, 5, True)
        assert decision.decision is RenameDecision.CONSERVATIVE

    def test_confident_false_cancels_speculatively(self):
        policy = SelectivePredicationPolicy()
        entry = _entry(predicted=False, confident=True)
        decision = policy.decide(entry, 5, True)
        assert decision.decision is RenameDecision.CANCEL
        assert decision.speculative
        assert decision.assumed_value is False

    def test_confident_true_assumes_true(self):
        policy = SelectivePredicationPolicy()
        entry = _entry(predicted=True, confident=True)
        decision = policy.decide(entry, 5, False)
        assert decision.decision is RenameDecision.ASSUME_TRUE
        assert decision.speculative
        assert decision.assumed_value is True

    def test_missing_prediction_is_conservative(self):
        policy = SelectivePredicationPolicy()
        entry = _entry(predicted=None, confident=True)
        assert policy.decide(entry, 5, True).decision is RenameDecision.CONSERVATIVE


class TestSharedDecisions:
    def test_equal_outcomes_share_one_immutable_decision(self):
        policy = SelectivePredicationPolicy()
        first = policy.decide(_entry(predicted=True, confident=True), 5, True)
        assert policy.decide(_entry(predicted=True, confident=True), 9, False) is first
        with pytest.raises(FrozenInstanceError):
            first.speculative = False
