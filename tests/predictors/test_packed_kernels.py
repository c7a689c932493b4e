"""Properties of the word-parallel predictor kernels.

* :class:`~repro.predictors.perceptron.FlatWeightTable` packs a weight row
  into one int; its outputs and training must equal the per-bit reference
  (:func:`perceptron_output`, :func:`perceptron_train`) for every weight
  width and history width, saturation at both bounds included.
* :class:`~repro.predictors.tage.TAGEPredictor` folds histories through
  per-geometry byte tables; every table's index and tag fold must equal
  the reference :func:`~repro.predictors.tage._fold_history` loops.
* The packed layouts must stay small: a trained default perceptron and a
  serve submit-time scheme check are bounded with ``tracemalloc``.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.perceptron import (
    FlatWeightTable,
    PerceptronPredictor,
    perceptron_output,
    perceptron_train,
)
from repro.predictors.tage import TAGEConfig, TAGEPredictor, _fold_history
from repro.serve.service import _SCHEME_KINDS, SubmitError, _check_scheme, _parse_scheme

ROWS = 3


@st.composite
def perceptron_streams(draw):
    weight_bits = draw(st.integers(min_value=2, max_value=8))
    history_bits = draw(st.integers(min_value=1, max_value=64))
    theta = draw(st.integers(min_value=0, max_value=2 * history_bits + 20))
    # A biased outcome stream drives weights into a bound; long runs of one
    # history (all ones, all zeros or a fixed pattern) drive every weight of
    # a row into one.
    bias = draw(st.sampled_from([0.0, 0.5, 1.0]))
    patterns = [0, (1 << history_bits) - 1, draw(st.integers(0, (1 << history_bits) - 1))]
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    length = draw(st.integers(min_value=1, max_value=400))
    steps = []
    for _ in range(length):
        if rng.random() < 0.5:
            history = rng.choice(patterns)
        else:
            history = rng.getrandbits(history_bits)
        outcome = rng.random() < bias
        steps.append((rng.randrange(ROWS), history, outcome))
    return weight_bits, history_bits, theta, steps


class TestPackedPerceptron:
    @settings(max_examples=150, deadline=None)
    @given(case=perceptron_streams())
    def test_matches_the_per_bit_reference(self, case):
        weight_bits, history_bits, theta, steps = case
        weight_min = -(1 << (weight_bits - 1))
        weight_max = (1 << (weight_bits - 1)) - 1
        num_weights = history_bits + 1
        table = FlatWeightTable(ROWS, num_weights, theta, weight_min, weight_max)
        reference = [[0] * num_weights for _ in range(ROWS)]
        for row, history, outcome in steps:
            expected = perceptron_output(reference[row], history)
            assert table.output(row, history) == expected
            assert table.compute(row, history) == expected
            table.train(row, history, outcome)
            if (expected >= 0) != outcome or abs(expected) <= theta:
                perceptron_train(reference[row], history, outcome, weight_min, weight_max)
            assert table.row(row) == reference[row]
        for row in range(ROWS):
            assert table.row(row) == reference[row]

    @pytest.mark.parametrize("weight_bits", [2, 8])
    @pytest.mark.parametrize("outcome", [False, True])
    def test_saturates_at_both_bounds(self, weight_bits, outcome):
        history_bits = 13
        weight_min = -(1 << (weight_bits - 1))
        weight_max = (1 << (weight_bits - 1)) - 1
        # theta above every reachable output: every step trains.
        theta = (history_bits + 1) << weight_bits
        table = FlatWeightTable(1, history_bits + 1, theta, weight_min, weight_max)
        history = 0b1010101010101
        for _ in range(1 << weight_bits):
            table.train(0, history, outcome)
        agree = weight_max if outcome else weight_min
        disagree = weight_min if outcome else weight_max
        expected = [agree] + [
            agree if (history >> bit) & 1 else disagree for bit in range(history_bits)
        ]
        assert table.row(0) == expected
        assert table.output(0, history) == perceptron_output(expected, history)


@st.composite
def tage_geometries(draw):
    lengths = draw(
        st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=6, unique=True)
    )
    return TAGEConfig(
        base_bits=4,
        table_bits=draw(st.integers(min_value=1, max_value=12)),
        tag_bits=draw(st.integers(min_value=2, max_value=12)),
        history_lengths=tuple(sorted(lengths)),
    )


class TestTableFolds:
    @settings(max_examples=150, deadline=None)
    @given(
        config=tage_geometries(),
        histories=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=20),
    )
    def test_match_the_reference_folds(self, config, histories):
        predictor = TAGEPredictor(config)
        index_mask = (1 << config.table_bits) - 1
        tag_mask = (1 << config.tag_bits) - 1
        for history in [0, (1 << 64) - 1] + histories:
            folds = predictor._history_folds(history)
            for table, length in enumerate(config.history_lengths):
                index = _fold_history(history, length, config.table_bits) ^ (table + 1)
                tag = (
                    _fold_history(history, length, config.tag_bits)
                    ^ (_fold_history(history, length, config.tag_bits - 1) << 1)
                    ^ (table + 1)
                )
                shift = table * (config.table_bits + config.tag_bits)
                assert (folds >> shift) & index_mask == index & index_mask
                assert (folds >> (shift + config.table_bits)) & tag_mask == tag & tag_mask

    @settings(max_examples=60, deadline=None)
    @given(
        config=tage_geometries(),
        pc=st.integers(min_value=0, max_value=1 << 20).map(lambda v: v * 4),
        history=st.integers(min_value=0, max_value=(1 << 64) - 1),
    )
    def test_lookups_hash_as_the_reference(self, config, pc, history):
        optimized = TAGEPredictor(config)
        reference = TAGEPredictor(config, optimized=False)
        assert optimized._lookup(
            optimized.plan_slot(pc, 0)[0], history
        ) == reference._lookup(reference.plan_slot(pc, 0)[0], history)


def _allocated(action) -> int:
    """Peak bytes traced while ``action`` runs, over what was live before."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestFootprint:
    def test_trained_default_perceptron_stays_under_0_6_mib(self):
        rng = random.Random(7)
        pcs = [0x4000 + 4 * rng.randrange(1 << 16) for _ in range(600)]
        bias = {pc: rng.random() for pc in pcs}
        stream = [rng.choice(pcs) for _ in range(30_000)]
        outcomes = [rng.random() < bias[pc] for pc in stream]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            predictor = PerceptronPredictor()
            history = 0
            for pc, outcome in zip(stream, outcomes):
                predictor.predict(pc, history)
                predictor.update(pc, history, outcome)
                history = ((history << 1) | outcome) & ((1 << 30) - 1)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 0.6 * 1024 * 1024

    @pytest.mark.parametrize("kind", _SCHEME_KINDS)
    def test_submit_time_scheme_check_allocates_under_256_kib(self, kind):
        _parse_scheme(kind, "cell")  # imports and first-use tables
        _check_scheme.cache_clear()
        assert _allocated(lambda: _parse_scheme(kind, "cell")) <= 256 * 1024
        # A repeated spec is not built again.
        assert _allocated(lambda: _parse_scheme(kind, "cell")) <= 4 * 1024


@pytest.mark.parametrize(
    "options",
    [{"second_level": "nope"}, {"entries": [64]}],
    ids=["bad-value", "unhashable-value"],
)
def test_a_bad_scheme_is_refused_on_every_submit(options):
    for _ in range(2):
        with pytest.raises(SubmitError, match="cell.scheme"):
            _parse_scheme({"kind": "conventional", "options": options}, "cell")


def test_a_cached_spec_does_not_pass_an_equal_one_of_another_type():
    _parse_scheme({"kind": "conventional", "options": {"entries": 64}}, "cell")
    with pytest.raises(SubmitError, match="cell.scheme"):
        _parse_scheme({"kind": "conventional", "options": {"entries": 64.0}}, "cell")


@pytest.mark.parametrize(
    "field, value", [("tag_bits", 1), ("counter_bits", 9), ("useful_bits", 9)]
)
def test_tage_rejects_geometries_its_columns_cannot_hold(field, value):
    with pytest.raises(ValueError, match="TAGE needs"):
        TAGEPredictor(TAGEConfig(**{field: value}))
