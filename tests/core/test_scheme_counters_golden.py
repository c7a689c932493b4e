"""Golden scheme counters: predicate and wish hooks must not drift.

A :class:`~repro.pipeline.core.SimulationResult` keeps the per-branch
accuracy columns but drops each scheme's ``CounterSet``, so neither the
parity suites nor the benchmark digests would notice a change in, say,
``predicate_predictions_wrong``, ``history_repairs`` or
``wish_branch_mode``.  This test pins every scheme counter, the accuracy
columns (counts plus a CRC of the flags bytes) and the cycle count of the
predicate and wish schemes on two if-converted built-ins.  gap and vortex
are the built-ins whose guards reach full confidence within 2k
instructions; the 1-bit-confidence variants speculate often enough to
exercise cancellation, flushes and history repair on every predictor
backend (perceptron, TAGE, no-alias).

A model fix that changes these numbers on purpose updates them here, in the
same change, with the reason in its description.
"""

from __future__ import annotations

import zlib

import pytest

from repro.core import PredicatePredictionScheme, PredicateSchemeOptions, WishBranchScheme
from repro.engine import IF_CONVERTED, ExecutionEngine
from repro.experiments.setup import ExperimentProfile
from repro.pipeline.core import OutOfOrderCore

INSTRUCTIONS = 2_000
BENCHMARKS = ("gap", "vortex")

CONFIGS = {
    "predicate": lambda: PredicatePredictionScheme(),
    "predicate-tage": lambda: PredicatePredictionScheme(
        PredicateSchemeOptions(second_level="tage")
    ),
    "wish": lambda: WishBranchScheme(),
    "wish-tage": lambda: WishBranchScheme(second_level="tage"),
    "predicate-1bit": lambda: PredicatePredictionScheme(
        PredicateSchemeOptions(confidence_bits=1)
    ),
    "predicate-tage-1bit": lambda: PredicatePredictionScheme(
        PredicateSchemeOptions(second_level="tage", confidence_bits=1)
    ),
    "predicate-no-alias-1bit": lambda: PredicatePredictionScheme(
        PredicateSchemeOptions(ideal_no_alias=True, confidence_bits=1)
    ),
    "predicate-perfect-history-1bit": lambda: PredicatePredictionScheme(
        PredicateSchemeOptions(perfect_history=True, confidence_bits=1)
    ),
    "wish-1bit": lambda: WishBranchScheme(confidence_bits=1),
    "wish-tage-1bit": lambda: WishBranchScheme(second_level="tage", confidence_bits=1),
}

#: (benchmark, config) -> (scheme counters,
#: (branches, mispredictions, early resolved, overrides, crc32 of flags),
#: cycles).
GOLDEN = {('gap', 'predicate'): ({'branches': 184,
                                  'branches_early_resolved': 16,
                                  'branches_used_prediction': 168,
                                  'history_repairs': 15,
                                  'history_repairs_at_writeback': 36,
                                  'mispredictions': 15,
                                  'predicate_predictions': 290,
                                  'predicate_predictions_correct': 254,
                                  'predicate_predictions_wrong': 36,
                                  'predicated_assumed_true': 12,
                                  'predicated_conservative': 201},
                                 (184, 15, 16, 46, 2445642893),
                                 2515),
          ('gap', 'predicate-1bit'): ({'branches': 184,
                                       'branches_early_resolved': 23,
                                       'branches_used_prediction': 161,
                                       'history_repairs': 13,
                                       'history_repairs_at_writeback': 36,
                                       'mispredictions': 13,
                                       'predicate_flushes': 5,
                                       'predicate_predictions': 290,
                                       'predicate_predictions_correct': 254,
                                       'predicate_predictions_wrong': 36,
                                       'predicated_assumed_true': 140,
                                       'predicated_cancelled': 20,
                                       'predicated_conservative': 53},
                                      (184, 13, 23, 48, 2902361087),
                                      2534),
          ('gap', 'predicate-no-alias-1bit'): ({'branches': 184,
                                                'branches_early_resolved': 23,
                                                'branches_used_prediction': 161,
                                                'history_repairs': 13,
                                                'history_repairs_at_writeback': 36,
                                                'mispredictions': 13,
                                                'predicate_flushes': 5,
                                                'predicate_predictions': 290,
                                                'predicate_predictions_correct': 254,
                                                'predicate_predictions_wrong': 36,
                                                'predicated_assumed_true': 140,
                                                'predicated_cancelled': 20,
                                                'predicated_conservative': 53},
                                               (184, 13, 23, 48, 2902361087),
                                               2534),
          ('gap', 'predicate-perfect-history-1bit'): ({'branches': 184,
                                                       'branches_early_resolved': 23,
                                                       'branches_used_prediction': 161,
                                                       'history_repairs': 13,
                                                       'mispredictions': 13,
                                                       'predicate_flushes': 5,
                                                       'predicate_predictions': 290,
                                                       'predicate_predictions_correct': 254,
                                                       'predicate_predictions_wrong': 36,
                                                       'predicated_assumed_true': 140,
                                                       'predicated_cancelled': 20,
                                                       'predicated_conservative': 53},
                                                      (184,
                                                       13,
                                                       23,
                                                       48,
                                                       2902361087),
                                                      2534),
          ('gap', 'predicate-tage'): ({'branches': 184,
                                       'branches_early_resolved': 21,
                                       'branches_used_prediction': 163,
                                       'history_repairs': 27,
                                       'history_repairs_at_writeback': 51,
                                       'mispredictions': 27,
                                       'predicate_predictions': 290,
                                       'predicate_predictions_correct': 239,
                                       'predicate_predictions_wrong': 51,
                                       'predicated_assumed_true': 12,
                                       'predicated_conservative': 201},
                                      (184, 27, 21, 52, 1804213859),
                                      2695),
          ('gap', 'predicate-tage-1bit'): ({'branches': 184,
                                            'branches_early_resolved': 24,
                                            'branches_used_prediction': 160,
                                            'history_repairs': 26,
                                            'history_repairs_at_writeback': 51,
                                            'mispredictions': 26,
                                            'predicate_flushes': 9,
                                            'predicate_predictions': 290,
                                            'predicate_predictions_correct': 239,
                                            'predicate_predictions_wrong': 51,
                                            'predicated_assumed_true': 129,
                                            'predicated_cancelled': 27,
                                            'predicated_conservative': 57},
                                           (184, 26, 24, 53, 381064524),
                                           2780),
          ('gap', 'wish'): ({'branches': 184,
                             'mispredictions': 18,
                             'wish_branch_mode': 12,
                             'wish_guard_predictions': 290,
                             'wish_guard_predictions_correct': 254,
                             'wish_guard_predictions_wrong': 36,
                             'wish_predicate_mode': 201},
                            (184, 18, 0, 49, 3436433480),
                            2568),
          ('gap', 'wish-1bit'): ({'branches': 184,
                                  'mispredictions': 18,
                                  'wish_branch_mode': 142,
                                  'wish_flushes': 5,
                                  'wish_guard_predictions': 290,
                                  'wish_guard_predictions_correct': 254,
                                  'wish_guard_predictions_wrong': 36,
                                  'wish_predicate_mode': 53,
                                  'wish_resolved_at_rename': 18},
                                 (184, 18, 0, 49, 3436433480),
                                 2608),
          ('gap', 'wish-tage'): ({'branches': 184,
                                  'mispredictions': 29,
                                  'wish_branch_mode': 12,
                                  'wish_guard_predictions': 290,
                                  'wish_guard_predictions_correct': 254,
                                  'wish_guard_predictions_wrong': 36,
                                  'wish_predicate_mode': 201},
                                 (184, 29, 0, 50, 4222059170),
                                 2838),
          ('gap', 'wish-tage-1bit'): ({'branches': 184,
                                       'mispredictions': 29,
                                       'wish_branch_mode': 142,
                                       'wish_flushes': 5,
                                       'wish_guard_predictions': 290,
                                       'wish_guard_predictions_correct': 254,
                                       'wish_guard_predictions_wrong': 36,
                                       'wish_predicate_mode': 53,
                                       'wish_resolved_at_rename': 18},
                                      (184, 29, 0, 50, 4222059170),
                                      2865),
          ('vortex', 'predicate'): ({'branches': 202,
                                     'branches_early_resolved': 14,
                                     'branches_used_prediction': 188,
                                     'history_repairs': 14,
                                     'history_repairs_at_writeback': 33,
                                     'mispredictions': 14,
                                     'predicate_predictions': 294,
                                     'predicate_predictions_correct': 261,
                                     'predicate_predictions_wrong': 33,
                                     'predicated_assumed_true': 6,
                                     'predicated_conservative': 132},
                                    (202, 14, 14, 37, 429732424),
                                    2525),
          ('vortex', 'predicate-1bit'): ({'branches': 202,
                                          'branches_early_resolved': 18,
                                          'branches_used_prediction': 184,
                                          'history_repairs': 14,
                                          'history_repairs_at_writeback': 33,
                                          'mispredictions': 14,
                                          'predicate_flushes': 5,
                                          'predicate_predictions': 294,
                                          'predicate_predictions_correct': 261,
                                          'predicate_predictions_wrong': 33,
                                          'predicated_assumed_true': 93,
                                          'predicated_cancelled': 11,
                                          'predicated_conservative': 34},
                                         (202, 14, 18, 37, 2100847988),
                                         2662),
          ('vortex', 'predicate-no-alias-1bit'): ({'branches': 202,
                                                   'branches_early_resolved': 18,
                                                   'branches_used_prediction': 184,
                                                   'history_repairs': 14,
                                                   'history_repairs_at_writeback': 33,
                                                   'mispredictions': 14,
                                                   'predicate_flushes': 5,
                                                   'predicate_predictions': 294,
                                                   'predicate_predictions_correct': 261,
                                                   'predicate_predictions_wrong': 33,
                                                   'predicated_assumed_true': 93,
                                                   'predicated_cancelled': 11,
                                                   'predicated_conservative': 34},
                                                  (202, 14, 18, 37, 2100847988),
                                                  2662),
          ('vortex', 'predicate-perfect-history-1bit'): ({'branches': 202,
                                                          'branches_early_resolved': 18,
                                                          'branches_used_prediction': 184,
                                                          'history_repairs': 14,
                                                          'mispredictions': 14,
                                                          'predicate_flushes': 5,
                                                          'predicate_predictions': 294,
                                                          'predicate_predictions_correct': 261,
                                                          'predicate_predictions_wrong': 33,
                                                          'predicated_assumed_true': 93,
                                                          'predicated_cancelled': 11,
                                                          'predicated_conservative': 34},
                                                         (202,
                                                          14,
                                                          18,
                                                          37,
                                                          2100847988),
                                                         2662),
          ('vortex', 'predicate-tage'): ({'branches': 202,
                                          'branches_early_resolved': 17,
                                          'branches_used_prediction': 185,
                                          'history_repairs': 28,
                                          'history_repairs_at_writeback': 48,
                                          'mispredictions': 28,
                                          'predicate_predictions': 294,
                                          'predicate_predictions_correct': 246,
                                          'predicate_predictions_wrong': 48,
                                          'predicated_conservative': 138},
                                         (202, 28, 17, 43, 3800536333),
                                         2740),
          ('vortex', 'predicate-tage-1bit'): ({'branches': 202,
                                               'branches_early_resolved': 19,
                                               'branches_used_prediction': 183,
                                               'history_repairs': 28,
                                               'history_repairs_at_writeback': 48,
                                               'mispredictions': 28,
                                               'predicate_flushes': 6,
                                               'predicate_predictions': 294,
                                               'predicate_predictions_correct': 246,
                                               'predicate_predictions_wrong': 48,
                                               'predicated_assumed_true': 84,
                                               'predicated_cancelled': 10,
                                               'predicated_conservative': 44},
                                              (202, 28, 19, 43, 216622179),
                                              2783),
          ('vortex', 'wish'): ({'branches': 202,
                                'mispredictions': 15,
                                'wish_branch_mode': 6,
                                'wish_guard_predictions': 294,
                                'wish_guard_predictions_correct': 260,
                                'wish_guard_predictions_wrong': 34,
                                'wish_predicate_mode': 132},
                               (202, 15, 0, 38, 2657346148),
                               2551),
          ('vortex', 'wish-1bit'): ({'branches': 202,
                                     'mispredictions': 15,
                                     'wish_branch_mode': 92,
                                     'wish_flushes': 5,
                                     'wish_guard_predictions': 294,
                                     'wish_guard_predictions_correct': 260,
                                     'wish_guard_predictions_wrong': 34,
                                     'wish_predicate_mode': 34,
                                     'wish_resolved_at_rename': 12},
                                    (202, 15, 0, 38, 2657346148),
                                    2688),
          ('vortex', 'wish-tage'): ({'branches': 202,
                                     'mispredictions': 21,
                                     'wish_branch_mode': 6,
                                     'wish_guard_predictions': 294,
                                     'wish_guard_predictions_correct': 260,
                                     'wish_guard_predictions_wrong': 34,
                                     'wish_predicate_mode': 132},
                                    (202, 21, 0, 36, 4042038702),
                                    2484),
          ('vortex', 'wish-tage-1bit'): ({'branches': 202,
                                          'mispredictions': 21,
                                          'wish_branch_mode': 92,
                                          'wish_flushes': 5,
                                          'wish_guard_predictions': 294,
                                          'wish_guard_predictions_correct': 260,
                                          'wish_guard_predictions_wrong': 34,
                                          'wish_predicate_mode': 34,
                                          'wish_resolved_at_rename': 12},
                                         (202, 21, 0, 36, 4042038702),
                                         2621)}


@pytest.fixture(scope="module")
def packs():
    profile = ExperimentProfile(
        name="golden-counters",
        instructions_per_benchmark=INSTRUCTIONS,
        benchmarks=list(BENCHMARKS),
        profile_budget=INSTRUCTIONS,
    )
    engine = ExecutionEngine(profile, store=None)
    return {b: engine.collect_trace(b, IF_CONVERTED) for b in BENCHMARKS}


def test_golden_covers_every_cell():
    assert set(GOLDEN) == {(b, c) for b in BENCHMARKS for c in CONFIGS}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("workload", BENCHMARKS)
def test_scheme_counters_match_golden(packs, workload, config):
    scheme = CONFIGS[config]()
    result = OutOfOrderCore().run(packs[workload], scheme, program_name=workload)
    accuracy = scheme.accuracy
    observed = (
        dict(sorted(scheme.counters.as_dict().items())),
        (
            accuracy.branches,
            accuracy.mispredictions,
            accuracy.early_resolved_count,
            accuracy.override_count,
            zlib.crc32(bytes(accuracy.flags)),
        ),
        result.metrics.cycles,
    )
    assert observed == GOLDEN[(workload, config)]
