"""Property-based parity: array-backed predictor tables vs the references.

Each test drives the optimized (array/flat) backend and the reference
backend of one predictor with the same random branch stream and asserts
they match *update for update*: identical predictions and identical table
state after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.predictors import tage
from repro.predictors.gshare import GsharePredictor
from repro.predictors.history import GlobalHistoryRegister, LocalHistoryTable
from repro.predictors.perceptron import (
    FlatWeightTable,
    PerceptronConfig,
    PerceptronPredictor,
    perceptron_output,
)
from repro.predictors.predicate_aware import (
    PredicateAwareConfig,
    PredicateAwarePredictor,
)
from repro.predictors.predicate_perceptron import (
    PredicatePredictorConfig,
    PredicatePerceptronPredictor,
)
from repro.predictors.tage import TAGEConfig, TAGEPredictor

#: One predictor access: (pc, global history, resolved outcome).
steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 20).map(lambda v: v * 4),
        st.integers(min_value=0, max_value=(1 << 30) - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)

#: Accesses drawn from small pools: pcs and histories repeat, so the
#: optimized paths' memos hit (a prediction and its training share a
#: ``(row, history)``; a row is revisited after training invalidated it).
PC_POOL = [0x4000 + 4 * i for i in range(5)]
HISTORY_POOL = [0, 1, 0b1011, (1 << 30) - 1, 0x2AAAAAAA, 0x15555555]
pooled_steps = st.lists(
    st.tuples(
        st.sampled_from(PC_POOL),
        st.sampled_from(HISTORY_POOL),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)


def _observe(predictor, pc, history, slot=0):
    """``(direction, raw output)`` of one planned prediction."""
    key, local_slot, _ = predictor.plan_slot(pc, slot)
    output = predictor.output_planned(key, local_slot, history)
    return output >= 0, output


def _train(predictor, pc, history, outcome, slot=0):
    """Train the planned entry of ``(pc, slot)`` with ``outcome``."""
    key, local_slot, _ = predictor.plan_slot(pc, slot)
    predictor.train_planned(key, local_slot, history, outcome)


class TestGshareParity:
    @settings(max_examples=60, deadline=None)
    @given(stream=steps, history_bits=st.integers(min_value=4, max_value=12))
    def test_matches_reference_update_for_update(self, stream, history_bits):
        reference = GsharePredictor(history_bits=history_bits, optimized=False)
        optimized = GsharePredictor(history_bits=history_bits, optimized=True)
        for pc, history, outcome in stream:
            assert optimized.predict(pc, history) == reference.predict(pc, history)
            reference.update(pc, history, outcome)
            optimized.update(pc, history, outcome)
            assert optimized.table.values == reference.table.values


class TestPerceptronParity:
    @settings(max_examples=40, deadline=None)
    @given(stream=steps)
    def test_matches_reference_update_for_update(self, stream):
        config = PerceptronConfig(
            global_bits=12, local_bits=6, entries=64, local_history_entries=32
        )
        reference = PerceptronPredictor(config, optimized=False)
        optimized = PerceptronPredictor(config, optimized=True)
        touched = set()
        for pc, history, outcome in stream:
            assert _observe(optimized, pc, history) == _observe(reference, pc, history)
            reference.update(pc, history, outcome)
            optimized.update(pc, history, outcome)
            touched.add(reference.plan_slot(pc, 0)[0])
            for index in touched:
                assert optimized.weight_row(index) == reference.weight_row(index)
        assert optimized._weights == reference._weights


class TestPredicatePerceptronParity:
    @settings(max_examples=40, deadline=None)
    @given(stream=steps, split_pvt=st.booleans())
    def test_matches_reference_update_for_update(self, stream, split_pvt):
        config = PredicatePredictorConfig(
            global_bits=12,
            local_bits=6,
            entries=64,
            local_history_entries=32,
            split_pvt=split_pvt,
        )
        reference = PredicatePerceptronPredictor(config, optimized=False)
        optimized = PredicatePerceptronPredictor(config, optimized=True)
        for step, (pc, history, outcome) in enumerate(stream):
            slot = step % 2
            assert optimized.plan_slot(pc, slot) == reference.plan_slot(pc, slot)
            for either in (0, 1):
                assert _observe(optimized, pc, history, either) == _observe(
                    reference, pc, history, either
                )
            _train(reference, pc, history, outcome, slot)
            _train(optimized, pc, history, outcome, slot)
            index = reference.plan_slot(pc, slot)[0]
            assert optimized.weight_row(index) == reference.weight_row(index)


class TestTAGEParity:
    """TAGE reference vs optimized over arbitrary branch streams.

    The config is deliberately tiny: 16-entry tagged tables make tag
    conflicts (and therefore allocation scans, including the all-useful
    decay-everything fallback) routine, and a 16-update decay period puts
    several periodic usefulness halvings inside every 120-step stream.
    """

    @settings(max_examples=40, deadline=None)
    @given(stream=steps)
    def test_matches_reference_update_for_update(self, stream):
        config = TAGEConfig(
            base_bits=5,
            table_bits=4,
            tag_bits=6,
            history_lengths=(3, 6, 11, 16),
            decay_period=16,
        )
        reference = TAGEPredictor(config, optimized=False)
        optimized = TAGEPredictor(config, optimized=True)
        for pc, history, outcome in stream:
            assert optimized.predict(pc, history) == reference.predict(pc, history)
            reference.update(pc, history, outcome)
            optimized.update(pc, history, outcome)
            assert optimized.table_state() == reference.table_state()


def _assert_output_memo_fresh(table):
    """Every memoised perceptron output equals the per-bit reference over
    the row's current weights, and is what :meth:`output` answers."""
    for index, (combined, output) in list(table._memo.items()):
        assert output == perceptron_output(table.row(index), combined)
        assert table.output(index, combined) == output


SMALL_PERCEPTRON = PerceptronConfig(
    global_bits=12, local_bits=6, entries=8, local_history_entries=8
)
SMALL_PREDICATE = PredicatePredictorConfig(
    global_bits=12, local_bits=6, entries=8, local_history_entries=8
)
SMALL_TAGE = TAGEConfig(
    base_bits=5, table_bits=4, tag_bits=6, history_lengths=(3, 6, 11, 16), decay_period=16
)


class TestPooledMemoParity:
    """Optimized-path memos over repeating accesses: same answers, and the
    memo never holds a value the current tables would not produce."""

    @settings(max_examples=40, deadline=None)
    @given(stream=pooled_steps)
    def test_perceptron(self, stream):
        reference = PerceptronPredictor(SMALL_PERCEPTRON, optimized=False)
        optimized = PerceptronPredictor(SMALL_PERCEPTRON, optimized=True)
        for pc, history, outcome in stream:
            assert _observe(optimized, pc, history) == _observe(reference, pc, history)
            _assert_output_memo_fresh(optimized._flat)
            reference.update(pc, history, outcome)
            optimized.update(pc, history, outcome)
            _assert_output_memo_fresh(optimized._flat)
        assert optimized._weights == reference._weights

    @settings(max_examples=40, deadline=None)
    @given(stream=pooled_steps)
    def test_predicate_perceptron(self, stream):
        reference = PredicatePerceptronPredictor(SMALL_PREDICATE, optimized=False)
        optimized = PredicatePerceptronPredictor(SMALL_PREDICATE, optimized=True)
        for step, (pc, history, outcome) in enumerate(stream):
            slot = step % 2
            assert _observe(optimized, pc, history, slot) == _observe(
                reference, pc, history, slot
            )
            _train(reference, pc, history, outcome, slot)
            _train(optimized, pc, history, outcome, slot)
            _assert_output_memo_fresh(optimized._flat)
        for index in range(SMALL_PREDICATE.entries):
            assert optimized.weight_row(index) == reference.weight_row(index)

    @settings(max_examples=40, deadline=None)
    @given(stream=pooled_steps)
    def test_tage(self, stream):
        reference = TAGEPredictor(SMALL_TAGE, optimized=False)
        optimized = TAGEPredictor(SMALL_TAGE, optimized=True)
        for pc, history, outcome in stream:
            assert optimized.predict(pc, history) == reference.predict(pc, history)
            reference.update(pc, history, outcome)
            optimized.update(pc, history, outcome)
            assert optimized.table_state() == reference.table_state()
            # Every pooled (pc, history) pair, memoised or not, predicts as
            # the unmemoised reference does.
            for probe_pc in PC_POOL:
                for probe_history in HISTORY_POOL:
                    assert optimized.predict(probe_pc, probe_history) == reference.predict(
                        probe_pc, probe_history
                    )

    @settings(max_examples=20, deadline=None)
    @given(stream=pooled_steps)
    def test_tage_fold_memo_stays_bounded(self, stream):
        limit = 2
        reference = TAGEPredictor(SMALL_TAGE, optimized=False)
        optimized = TAGEPredictor(SMALL_TAGE, optimized=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tage, "_FOLD_MEMO_LIMIT", limit)
            for pc, history, outcome in stream:
                assert optimized.predict(pc, history) == reference.predict(pc, history)
                reference.update(pc, history, outcome)
                optimized.update(pc, history, outcome)
                assert len(optimized._fold_memo) <= limit
        assert optimized.table_state() == reference.table_state()


#: Interleaved TAGE accesses: ``(train?, pc, slot, history, outcome)``.
#: Predictions and trainings come in any order, so a training may follow
#: another prediction, another training or no prediction at all.
interleaved_steps = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(PC_POOL[:3]),
        st.sampled_from([0, 1]),
        st.sampled_from(HISTORY_POOL[:3]),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)

A, B = PC_POOL[0], PC_POOL[1]


def _tage_state(predictor):
    return getattr(predictor, "tage", predictor).table_state()


class TestInterleavedTageParity:
    """The optimized TAGE paths reuse a prediction's lookup for its training;
    with predictions and trainings interleaved they still match the
    reference update for update."""

    @pytest.mark.parametrize("make", [TAGEPredictor, tage.TagePredicatePredictor])
    @settings(max_examples=60, deadline=None)
    @given(stream=interleaved_steps)
    # Predict A, predict B, train B, train A.
    @example(stream=[(0, A, 0, 1, 0), (0, B, 0, 1, 1), (1, B, 0, 1, 1), (1, A, 0, 1, 0)])
    # A training with no prediction before it, then a second one.
    @example(stream=[(1, A, 0, 0, 1), (1, A, 0, 0, 1), (0, A, 0, 0, 0)])
    # The same key with another history, then the first one's training.
    @example(stream=[(0, A, 0, 0, 0), (0, A, 0, 1, 0), (1, A, 0, 0, 1), (1, A, 0, 1, 1)])
    # A prediction trained twice: the second training must not read the
    # first one's lookup.
    @example(stream=[(0, A, 0, 11, 0), (1, A, 0, 11, 1), (1, A, 0, 11, 1), (1, A, 0, 11, 1)])
    def test_matches_reference_update_for_update(self, make, stream):
        reference = make(SMALL_TAGE, optimized=False)
        optimized = make(SMALL_TAGE, optimized=True)
        for train, pc, slot, history, outcome in stream:
            if make is TAGEPredictor:
                slot = 0
            if train:
                _train(reference, pc, history, outcome, slot)
                _train(optimized, pc, history, outcome, slot)
            else:
                assert _observe(optimized, pc, history, slot) == _observe(
                    reference, pc, history, slot
                )
            assert _tage_state(optimized) == _tage_state(reference)


class _Counting:
    """Wrap a function and count its calls."""

    def __init__(self, function):
        self.function = function
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.function(*args)


def _count_computes(monkeypatch) -> _Counting:
    """Count the fresh (unmemoised) perceptron outputs of every table."""
    dot = _Counting(FlatWeightTable.compute)
    monkeypatch.setattr(FlatWeightTable, "compute", lambda table, *args: dot(table, *args))
    return dot


class TestMemoHitsAndInvalidation:
    def test_update_reuses_the_prediction_output_until_training(self, monkeypatch):
        dot = _count_computes(monkeypatch)
        predictor = PerceptronPredictor(SMALL_PERCEPTRON)
        pc, history = PC_POOL[0], 0b1011
        predictor.predict(pc, history)
        assert dot.calls == 1
        # The output is zero, within the threshold: the update trains the
        # row from the memoised output and drops the entry.
        predictor.update(pc, history, True)
        assert dot.calls == 1
        assert predictor._flat._memo == {}
        predictor.predict(pc, history)
        assert dot.calls == 2
        # A repeated prediction with the same inputs is a memo hit.
        predictor.predict(pc, history)
        assert dot.calls == 2

    def test_predicate_perceptron_slots_share_the_row_memo(self, monkeypatch):
        dot = _count_computes(monkeypatch)
        predictor = PredicatePerceptronPredictor(SMALL_PREDICATE)
        pc = PC_POOL[1]
        _observe(predictor, pc, 7)
        _train(predictor, pc, 7, False)
        assert dot.calls == 1
        # Training changed the row: the next prediction recomputes it.
        _observe(predictor, pc, 7)
        assert dot.calls == 2

    def test_tage_training_reuses_the_prediction_lookup(self, monkeypatch):
        predictor = TAGEPredictor(SMALL_TAGE)
        lookups = _Counting(predictor._lookup)
        monkeypatch.setattr(predictor, "_lookup", lookups)
        predictor.predict(A, 0b1011)
        predictor.update(A, 0b1011, True)
        assert lookups.calls == 1
        # Another history: the training walks the tables.
        predictor.predict(A, 0b1011)
        predictor.update(A, 0b111, True)
        assert lookups.calls == 3

    def test_a_deferred_tage_training_reads_the_tables(self, monkeypatch):
        predictor = TAGEPredictor(SMALL_TAGE)
        lookups = _Counting(predictor._lookup)
        monkeypatch.setattr(predictor, "_lookup", lookups)
        predictor.predict(A, 1)
        predictor.predict(B, 1)
        # A's training follows B's prediction: it reads the tables.
        predictor.update(A, 1, False)
        assert lookups.calls == 3
        # B's follows a training, which may have changed what B read.
        predictor.update(B, 1, True)
        assert lookups.calls == 4
        assert predictor._last_lookup is None

    def test_tage_update_reuses_the_prediction_folds(self, monkeypatch):
        predictor = TAGEPredictor(SMALL_TAGE)
        folds = _Counting(predictor._history_folds)
        monkeypatch.setattr(predictor, "_history_folds", folds)
        predictor.predict(PC_POOL[0], 0b1011)
        predictor.update(PC_POOL[0], 0b1011, True)
        predictor.predict(PC_POOL[2], 0b1011)
        assert folds.calls == 1
        predictor.predict(PC_POOL[0], 0b111)
        assert folds.calls == 2


class TestPredicateAwareParity:
    @settings(max_examples=40, deadline=None)
    @given(stream=steps)
    def test_matches_reference_update_for_update(self, stream):
        config = PredicateAwareConfig(
            global_bits=10,
            predicate_bits=4,
            local_bits=6,
            entries=64,
            local_history_entries=32,
        )
        reference = PredicateAwarePredictor(config, optimized=False)
        optimized = PredicateAwarePredictor(config, optimized=True)
        touched = set()
        for pc, history, outcome in stream:
            mixed = reference.input_history(history, (history >> 7) & 0xF)
            assert _observe(optimized, pc, mixed) == _observe(reference, pc, mixed)
            reference.update(pc, mixed, outcome)
            optimized.update(pc, mixed, outcome)
            touched.add(reference.plan_slot(pc, 0)[0])
            for index in touched:
                assert optimized.weight_row(index) == reference.weight_row(index)
        assert optimized._weights == reference._weights


class TestHistoryStructures:
    @settings(max_examples=60, deadline=None)
    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=80),
        bits=st.integers(min_value=1, max_value=16),
    )
    def test_ghr_tokens_behave_like_a_shift_register(self, outcomes, bits):
        ghr = GlobalHistoryRegister(bits)
        expected = 0
        tokens = []
        for outcome in outcomes:
            tokens.append(ghr.push(outcome))
            expected = ((expected << 1) | (1 if outcome else 0)) & ((1 << bits) - 1)
        assert ghr.value == expected
        # Repairing the newest bit flips bit zero; stale tokens are refused.
        assert ghr.repair(tokens[-1], not outcomes[-1])
        assert (ghr.value & 1) == (0 if outcomes[-1] else 1)
        if len(tokens) > bits:
            assert not ghr.repair(tokens[0], True)

    @settings(max_examples=60, deadline=None)
    @given(stream=steps)
    def test_local_history_index_is_stable(self, stream):
        table = LocalHistoryTable(entries=32, bits=8)
        shadow = {}
        for pc, _, outcome in stream:
            index = table.index(pc)
            assert table.index(pc) == index
            expected = ((shadow.get(index, 0) << 1) | (1 if outcome else 0)) & 0xFF
            table.update(pc, outcome)
            shadow[index] = expected
            assert table.read(pc) == expected
