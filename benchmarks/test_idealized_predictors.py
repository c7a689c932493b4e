"""Idealized-predictor study (sections 4.2 and 4.3).

Paper result being reproduced: with idealized predictors (no alias
conflicts, perfect global-history update) the predicate predictor is
consistently more accurate than the conventional predictor on *every*
benchmark — by 2.24 % on average for non-if-converted code and by almost 2 %
for if-converted code — because the idealization removes exactly the two
negative side effects of predicate prediction.
"""

from conftest import emit

from repro.experiments.idealized import run_idealized_study
from repro.engine import BASELINE, IF_CONVERTED


def test_idealized_nonifconverted(benchmark, shared_engine):
    result = benchmark.pedantic(
        run_idealized_study,
        kwargs={"flavour": BASELINE, "engine": shared_engine},
        rounds=1,
        iterations=1,
    )
    emit("Idealized predictors - non-if-converted code", result.render(), name="idealized_baseline")

    benchmarks = result.table.benchmarks()
    assert result.average_accuracy_increase > 0.0
    # "consistently achieves better accuracy for all benchmarks" — allow ties.
    assert result.predicate_wins >= len(benchmarks) - max(2, len(benchmarks) // 8)

    benchmark.extra_info["avg_accuracy_increase_pct"] = round(
        100 * result.average_accuracy_increase, 3
    )
    benchmark.extra_info["paper_avg_pct"] = 2.24


def test_idealized_ifconverted(benchmark, shared_engine):
    result = benchmark.pedantic(
        run_idealized_study,
        kwargs={"flavour": IF_CONVERTED, "engine": shared_engine},
        rounds=1,
        iterations=1,
    )
    emit("Idealized predictors - if-converted code", result.render(), name="idealized_if_converted")

    assert result.average_accuracy_increase > 0.0
    benchmark.extra_info["avg_accuracy_increase_pct"] = round(
        100 * result.average_accuracy_increase, 3
    )
    benchmark.extra_info["paper_avg_pct"] = 2.0
