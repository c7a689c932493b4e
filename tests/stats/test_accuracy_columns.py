"""Columnar ``BranchAccuracy`` against a plain list-of-records reference."""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.accuracy import BranchAccuracy, BranchRecord

outcomes = st.lists(
    st.tuples(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.booleans(),
        st.booleans(),
        st.one_of(st.none(), st.booleans()),
        st.booleans(),
    ),
    max_size=60,
)


def _build(stream):
    accuracy = BranchAccuracy()
    for outcome in stream:
        accuracy.add(*outcome)
    return accuracy


def _reference(stream):
    return [BranchRecord(*outcome) for outcome in stream]


def _assert_matches(accuracy, records):
    branches = len(records)
    mispredictions = sum(r.mispredicted for r in records)
    early = sum(r.early_resolved for r in records)
    assert accuracy.branches == branches
    assert accuracy.mispredictions == mispredictions
    assert accuracy.early_resolved_count == early
    assert accuracy.override_count == sum(r.overridden for r in records)
    assert accuracy.misprediction_rate == (mispredictions / branches if branches else 0.0)
    assert accuracy.accuracy == 1.0 - accuracy.misprediction_rate
    assert accuracy.early_resolved_fraction == (early / branches if branches else 0.0)
    assert accuracy.mispredicted_vector() == [r.mispredicted for r in records]
    assert accuracy.early_resolved_vector() == [r.early_resolved for r in records]
    assert accuracy.records == records


@settings(max_examples=60, deadline=None)
@given(outcomes)
def test_aggregates_vectors_and_records_match_the_reference(stream):
    _assert_matches(_build(stream), _reference(stream))


@settings(max_examples=60, deadline=None)
@given(outcomes)
def test_pickle_round_trip_keeps_columns_and_counts(stream):
    accuracy = _build(stream)
    restored = pickle.loads(pickle.dumps(accuracy, protocol=pickle.HIGHEST_PROTOCOL))
    assert restored == accuracy
    _assert_matches(restored, _reference(stream))
    # The unpickled columns stay appendable.
    restored.add(0x4000, True, False, None, True)
    _assert_matches(restored, _reference(stream) + [BranchRecord(0x4000, True, False, None, True)])


@settings(max_examples=60, deadline=None)
@given(outcomes, st.integers(min_value=0, max_value=70), outcomes)
def test_truncate_then_add(stream, length, more):
    accuracy = _build(stream)
    accuracy.truncate(length)
    for outcome in more:
        accuracy.add(*outcome)
    _assert_matches(accuracy, _reference(stream)[:length] + _reference(more))


@settings(max_examples=60, deadline=None)
@given(outcomes, outcomes)
def test_a_mutated_copy_leaves_the_original_unchanged(stream, more):
    original = _build(stream)
    copy = original.copy()
    assert copy == original
    for outcome in more:
        copy.add(*outcome)
    copy.truncate(len(stream) // 2)
    copy.add(0x4000, False, True, False, False)
    _assert_matches(original, _reference(stream))
    _assert_matches(
        copy,
        _reference(stream + more)[: len(stream) // 2]
        + [BranchRecord(0x4000, False, True, False, False)],
    )


def _oracle_reference(records):
    """Per-site majority of the actual outcomes, from the records."""
    sites = {}
    for record in records:
        taken, total = sites.get(record.pc, (0, 0))
        sites[record.pc] = (taken + record.actual, total + 1)
    correct = sum(max(taken, total - taken) for taken, total in sites.values())
    return correct / len(records) if records else 1.0


@settings(max_examples=150, deadline=None)
@given(stream=outcomes)
def test_static_oracle_accuracy_matches_the_reference(stream):
    accuracy = _build(stream)
    assert accuracy.static_oracle_accuracy() == _oracle_reference(_reference(stream))


def test_static_oracle_accuracy_reads_actual_outcomes_only():
    accuracy = BranchAccuracy()
    for pc, actual in ((4, True), (4, True), (4, False), (8, False)):
        # The prediction bits must not matter: predict everything wrong.
        accuracy.add(pc, actual, not actual, fetch_prediction=actual)
    assert accuracy.static_oracle_accuracy() == 0.75
    assert BranchAccuracy().static_oracle_accuracy() == 1.0
