"""Checkpointability of every predictor backend.

The windowed-simulation checkpoint (see ``repro.pipeline.batched``) pickles
the whole fast-loop state graph, predictor tables included.  Its contract is
that a restored predictor continues *bit-identically*: for every backend,
pickling mid-stream, restoring, and stepping the remainder of a random
(pc, history, outcome) stream must produce exactly the predictions the
uninterrupted predictor makes.  Equal prediction streams on the same update
stream mean equal table state — any divergence shows up within a few steps.
"""

from __future__ import annotations

import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConventionalScheme,
    PEPPAScheme,
    PredicateAwareScheme,
    PredicatePredictionScheme,
    PredicateSchemeOptions,
    WishBranchScheme,
)
from repro.emulator import Emulator
from repro.engine import IF_CONVERTED, ExecutionEngine
from repro.experiments.setup import ExperimentProfile
from repro.pipeline import OutOfOrderCore
from repro.predictors.gshare import GsharePredictor
from repro.predictors.history import LocalHistoryTable
from repro.predictors.peppa import PEPPAPredictor
from repro.predictors.perceptron import PerceptronConfig, PerceptronPredictor
from repro.predictors.predicate_aware import (
    PredicateAwareConfig,
    PredicateAwarePredictor,
)
from repro.predictors.predicate_perceptron import (
    PredicatePredictorConfig,
    PredicatePerceptronPredictor,
)
from repro.predictors.tage import TAGEConfig, TAGEPredictor, TagePredicatePredictor

from tests.conftest import build_counting_loop

#: A deliberately tiny TAGE so 400 steps exercise allocation pressure and
#: cross the usefulness-decay period on both sides of the snapshot.
SMALL_TAGE = TAGEConfig(
    base_bits=5,
    table_bits=4,
    tag_bits=6,
    history_lengths=(3, 6, 11, 16),
    decay_period=64,
)

STEPS = 400
SPLIT = STEPS // 2

#: A small, shared PC alphabet so entries alias and tables actually train.
PCS = [0x4000 + 16 * i for i in range(23)]


def _stream(seed):
    """A deterministic (pc, global_history, outcome, extra-bit) stream."""
    rng = random.Random(seed)
    events = []
    history = 0
    for _ in range(STEPS):
        pc = rng.choice(PCS)
        outcome = rng.random() < 0.6
        extra = rng.random() < 0.5
        events.append((pc, history, outcome, extra))
        history = ((history << 1) | (1 if outcome else 0)) & 0xFFFF
    return events


def _observe(predictor, pc, history, slot=0):
    """``(direction, raw output)`` of one planned prediction."""
    key, local_slot, _ = predictor.plan_slot(pc, slot)
    output = predictor.output_planned(key, local_slot, history)
    return output >= 0, output


def _train(predictor, pc, history, outcome, slot=0):
    """Train the planned entry of ``(pc, slot)`` with ``outcome``."""
    key, local_slot, _ = predictor.plan_slot(pc, slot)
    predictor.train_planned(key, local_slot, history, outcome)


def _roundtrip_parity(make, step):
    """Drive ``make()`` through the stream; pickle at SPLIT; compare tails.

    ``step(predictor, event)`` consumes one event and returns the hashable
    observation (prediction + any raw output) the parity is asserted over.
    """
    events = _stream(seed=7)
    straight = make()
    reference = [step(straight, event) for event in events]

    resumed = make()
    for event in events[:SPLIT]:
        step(resumed, event)
    blob = pickle.dumps(resumed, protocol=pickle.HIGHEST_PROTOCOL)
    # Keep driving the ORIGINAL after the snapshot: a restore must not
    # depend on the source object staying frozen.
    for event in events[SPLIT:]:
        step(resumed, event)

    restored = pickle.loads(blob)
    tail = [step(restored, event) for event in events[SPLIT:]]
    assert tail == reference[SPLIT:]


class TestGshare:
    def test_save_restore_step_equals_straight_step(self):
        def step(predictor, event):
            pc, history, outcome, _ = event
            prediction = predictor.predict(pc, history)
            predictor.update(pc, history, outcome)
            return prediction

        _roundtrip_parity(lambda: GsharePredictor(history_bits=10), step)


class TestLocalHistoryTable:
    def test_save_restore_step_equals_straight_step(self):
        def step(table, event):
            pc, _, outcome, _ = event
            history = table.read(pc)
            table.update(pc, outcome)
            return history

        _roundtrip_parity(lambda: LocalHistoryTable(entries=64, bits=10), step)


class TestPerceptron:
    @pytest.mark.parametrize("optimized", [False, True])
    def test_save_restore_step_equals_straight_step(self, optimized):
        config = PerceptronConfig()

        def step(predictor, event):
            pc, history, outcome, _ = event
            observed = _observe(predictor, pc, history)
            predictor.update(pc, history, outcome)
            return observed

        _roundtrip_parity(
            lambda: PerceptronPredictor(config, optimized=optimized), step
        )


class TestPredicatePerceptron:
    @pytest.mark.parametrize("optimized", [False, True])
    def test_save_restore_step_equals_straight_step(self, optimized):
        config = PredicatePredictorConfig()
        _roundtrip_parity(
            lambda: PredicatePerceptronPredictor(config, optimized=optimized),
            _predicate_step,
        )


class TestTAGE:
    @pytest.mark.parametrize("optimized", [False, True])
    def test_save_restore_step_equals_straight_step(self, optimized):
        def step(predictor, event):
            pc, history, outcome, _ = event
            prediction = predictor.predict(pc, history)
            predictor.update(pc, history, outcome)
            return (prediction, predictor.table_state())

        _roundtrip_parity(lambda: TAGEPredictor(SMALL_TAGE, optimized=optimized), step)


class TestTagePredicate:
    @pytest.mark.parametrize("optimized", [False, True])
    def test_save_restore_step_equals_straight_step(self, optimized):
        _roundtrip_parity(
            lambda: TagePredicatePredictor(SMALL_TAGE, optimized=optimized),
            _predicate_step,
        )


class TestPredicateAware:
    @pytest.mark.parametrize("optimized", [False, True])
    def test_save_restore_step_equals_straight_step(self, optimized):
        config = PredicateAwareConfig()

        def step(predictor, event):
            pc, history, outcome, extra = event
            # Mixed-history input: derive a predicate-bit window from the
            # stream so both input partitions vary.
            predicate_bits = ((history >> 3) | (1 if extra else 0)) & 0x3F
            mixed = predictor.input_history(history, predicate_bits)
            observed = _observe(predictor, pc, mixed)
            predictor.update(pc, mixed, outcome)
            return observed

        _roundtrip_parity(
            lambda: PredicateAwarePredictor(config, optimized=optimized), step
        )


class TestPEPPA:
    def test_save_restore_step_equals_straight_step(self):
        def step(predictor, event):
            pc, _, outcome, predicate_value = event
            prediction = predictor.predict(pc, predicate_value)
            predictor.update(pc, predicate_value, outcome)
            return prediction

        _roundtrip_parity(PEPPAPredictor, step)


# ----------------------------------------------------------------------
# Memos across a pickle
# ----------------------------------------------------------------------
#: Small pools make pcs and histories repeat, so the optimized paths'
#: memos are populated (and hit) when the snapshot is taken.
POOL_PCS = PCS[:4]
POOL_HISTORIES = [0, 0b101, 0xFF, 0x1234]
pooled_events = st.lists(
    st.tuples(
        st.sampled_from(POOL_PCS),
        st.sampled_from(POOL_HISTORIES),
        st.booleans(),
        st.booleans(),
    ),
    min_size=2,
    max_size=80,
)


def _memos(predictor):
    if isinstance(predictor, TAGEPredictor):
        return [predictor._fold_memo]
    return [predictor._flat._memo]


def _perceptron_step(predictor, event):
    pc, history, outcome, _ = event
    observed = _observe(predictor, pc, history)
    predictor.update(pc, history, outcome)
    return observed


def _predicate_step(predictor, event):
    pc, history, outcome, slot_bit = event
    slot = 1 if slot_bit else 0
    observed = _observe(predictor, pc, history, slot)
    _train(predictor, pc, history, outcome, slot)
    return observed


def _tage_step(predictor, event):
    pc, history, outcome, _ = event
    prediction = predictor.predict(pc, history)
    predictor.update(pc, history, outcome)
    return prediction, predictor.table_state()


POOLED_CASES = {
    "perceptron": (
        lambda: PerceptronPredictor(
            PerceptronConfig(global_bits=12, local_bits=6, entries=64, local_history_entries=32)
        ),
        _perceptron_step,
    ),
    "predicate-perceptron": (
        lambda: PredicatePerceptronPredictor(
            PredicatePredictorConfig(
                global_bits=12, local_bits=6, entries=64, local_history_entries=32
            )
        ),
        _predicate_step,
    ),
    "tage": (lambda: TAGEPredictor(SMALL_TAGE), _tage_step),
}


#: A compare or branch PC outside every stream's alphabet.
NEW_PC = 0x9F00


def _observe_second_slot(predictor, pc, history):
    _observe(predictor, pc, history, 1)


NEW_PC_CASES = {
    "local-history": (
        lambda: LocalHistoryTable(entries=64, bits=10),
        lambda table, pc, history: table.read(pc),
    ),
    "perceptron": (
        POOLED_CASES["perceptron"][0],
        lambda predictor, pc, history: predictor.predict(pc, history),
    ),
    "predicate-perceptron": (POOLED_CASES["predicate-perceptron"][0], _observe_second_slot),
    "tage": (
        POOLED_CASES["tage"][0],
        lambda predictor, pc, history: predictor.predict(pc, history),
    ),
    "tage-predicate": (lambda: TagePredicatePredictor(SMALL_TAGE), _observe_second_slot),
    "predicate-aware": (
        lambda: PredicateAwarePredictor(PredicateAwareConfig()),
        lambda predictor, pc, history: predictor.predict(
            pc, predictor.input_history(history, 0b11)
        ),
    ),
}

SCHEMES = {
    "predicate": PredicatePredictionScheme,
    "predicate-tage": lambda: PredicatePredictionScheme(
        PredicateSchemeOptions(second_level="tage")
    ),
    "wish": WishBranchScheme,
}


#: Scheme factory, its branch plans, and the table it plans last.  (The
#: no-alias perceptron is left out: planning a new pc allocates its row.)
BRANCH_SCHEMES = {
    "conventional": (ConventionalScheme, lambda s: s.plans, lambda s: s.predictor),
    "conventional-tage": (
        lambda: ConventionalScheme(second_level="tage"),
        lambda s: s.plans,
        lambda s: s.predictor,
    ),
    "predicate-aware": (PredicateAwareScheme, lambda s: s.plans, lambda s: s.predictor),
    "pep-pa": (PEPPAScheme, lambda s: s.plans, lambda s: s.predictor),
    "predicate": (
        PredicatePredictionScheme,
        lambda s: s.branch_plans,
        lambda s: s.first_level,
    ),
    "wish": (WishBranchScheme, lambda s: s.branches.plans, lambda s: s.branches.predictor),
}


class TestMemosStayOutOfPickles:
    @pytest.mark.parametrize("case", sorted(POOLED_CASES))
    @settings(max_examples=15, deadline=None)
    @given(events=pooled_events, split=st.floats(0.0, 1.0))
    def test_mid_stream_pickle_resumes_bit_identically(self, case, events, split):
        make, step = POOLED_CASES[case]
        cut = max(1, int(split * len(events)))
        straight = make()
        reference = [step(straight, event) for event in events]

        resumed = make()
        for event in events[:cut]:
            step(resumed, event)
        blob = pickle.dumps(resumed, protocol=pickle.HIGHEST_PROTOCOL)
        # Predicting a pc seen before the snapshot touches nothing but the
        # memos, so it must not change the pickle.
        pc, _, _, slot_bit = events[cut - 1]
        history = events[cut % len(events)][1]
        if case == "predicate-perceptron":
            _observe(resumed, pc, history, 1 if slot_bit else 0)
        else:
            resumed.predict(pc, history)
        assert any(_memos(resumed))
        assert pickle.dumps(resumed, protocol=pickle.HIGHEST_PROTOCOL) == blob

        restored = pickle.loads(blob)
        assert not any(_memos(restored))
        tail = [step(restored, event) for event in events[cut:]]
        assert tail == reference[cut:]

    @pytest.mark.parametrize("case", sorted(NEW_PC_CASES))
    def test_a_new_pc_prediction_leaves_the_pickle_alone(self, case):
        # Predicting at a pc never seen before changes no table.
        make, predict = NEW_PC_CASES[case]
        predictor = make()
        for pc, history, _, _ in _stream(seed=11)[:60]:
            predict(predictor, pc, history)
        blob = pickle.dumps(predictor, protocol=pickle.HIGHEST_PROTOCOL)
        predict(predictor, NEW_PC, 0b101)
        assert pickle.dumps(predictor, protocol=pickle.HIGHEST_PROTOCOL) == blob

    @pytest.mark.parametrize("case", sorted(SCHEMES))
    def test_scheme_compare_plans_stay_out_of_pickles(self, case):
        scheme = SCHEMES[case]()
        program, _ = build_counting_loop()
        OutOfOrderCore().run(Emulator(program).run(600), scheme, program.name)
        assert scheme.plans.memo  # the run planned its compares
        blob = pickle.dumps(scheme, protocol=pickle.HIGHEST_PROTOCOL)
        compare = next(inst for inst in program.instructions() if inst.is_compare)
        assert scheme.plans.of(SimpleNamespace(pc=NEW_PC, inst=compare))
        assert NEW_PC in scheme.plans.memo
        assert pickle.dumps(scheme, protocol=pickle.HIGHEST_PROTOCOL) == blob
        restored = pickle.loads(blob)
        assert restored.plans.memo == {}
        # The restored memo plans for the restored tables.
        assert restored.plans.confidence is restored.confidence

    @pytest.mark.parametrize("case", sorted(BRANCH_SCHEMES))
    def test_scheme_branch_plans_stay_out_of_pickles(self, case):
        make, plans_of, last_table = BRANCH_SCHEMES[case]
        scheme = make()
        program, _ = build_counting_loop()
        OutOfOrderCore().run(Emulator(program).run(600), scheme, program.name)
        assert plans_of(scheme).memo  # the run planned its branches
        blob = pickle.dumps(scheme, protocol=pickle.HIGHEST_PROTOCOL)
        assert plans_of(scheme).of(NEW_PC)
        assert NEW_PC in plans_of(scheme).memo
        assert pickle.dumps(scheme, protocol=pickle.HIGHEST_PROTOCOL) == blob
        restored = pickle.loads(blob)
        assert plans_of(restored).memo == {}
        # The restored memo plans for the restored tables.
        assert plans_of(restored).of(NEW_PC) == plans_of(scheme).of(NEW_PC)
        assert plans_of(restored).tables[-1] is last_table(restored)


class TestPendingFirstLevelHistory:
    def test_a_branch_in_flight_trains_its_prediction_history_after_a_restore(self):
        # The timing loops resolve a branch in the step that renames it, so
        # a window-boundary checkpoint never holds one in flight; pickle the
        # scheme between the two hooks instead.
        profile = ExperimentProfile(
            name="pending-history",
            instructions_per_benchmark=1_500,
            benchmarks=["gap"],
            profile_budget=1_500,
        )
        engine = ExecutionEngine(profile, store=None)
        trace = engine.collect_trace("gap", IF_CONVERTED).to_dyninsts()
        scheme = PredicatePredictionScheme()
        OutOfOrderCore().run(trace[:1_000], scheme, "gap")
        rows = range(scheme.predictor_config.entries)
        assert any(any(scheme.predictor.weight_row(row)) for row in rows)
        branches = [dyn for dyn in trace[1_000:] if dyn.inst.is_branch][:2]
        assert len(branches) == 2
        for dyn in branches:
            scheme.on_branch_rename(dyn, 0, 1, 0)
        assert len(scheme._fetch_histories) == 2
        restored = pickle.loads(pickle.dumps(scheme, protocol=pickle.HIGHEST_PROTOCOL))
        assert restored._fetch_histories == scheme._fetch_histories
        for copy in (scheme, restored):
            for dyn in branches:
                copy.on_branch_resolved(dyn, 2, False)
        assert restored.first_level.table.values == scheme.first_level.table.values
        results = [OutOfOrderCore().run(trace[1_000:], copy, "gap") for copy in (scheme, restored)]
        assert results[0].metrics.summary() == results[1].metrics.summary()
        assert restored.counters.as_dict() == scheme.counters.as_dict()
        assert restored.first_level.table.values == scheme.first_level.table.values
