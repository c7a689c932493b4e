"""Figure 6a and 6b: prediction accuracy on if-converted code.

Paper results being reproduced:

* Figure 6a — with if-converted binaries, the 148 KB predicate predictor has
  the lowest misprediction rate on every benchmark but one (twolf), with an
  average accuracy increase of 1.5 % over the best other scheme, and the
  144 KB PEP-PA predictor performs *worse* than the conventional predictor
  on the out-of-order core.
* Figure 6b — the accuracy difference between the predicate predictor and
  the conventional predictor splits into an early-resolved contribution
  (~0.5 % average) and a correlation contribution (~1 % average); the
  correlation bucket may be negative for individual benchmarks because it
  also absorbs the scheme's negative effects.
"""

import pytest

from conftest import emit

from repro.experiments.figure6 import run_figure6

_CACHE = {}


def _figure6(shared_engine):
    if "result" not in _CACHE:
        _CACHE["result"] = run_figure6(engine=shared_engine)
    return _CACHE["result"]


def test_figure6a_misprediction_rates(benchmark, shared_engine):
    result = benchmark.pedantic(
        _figure6, args=(shared_engine,), rounds=1, iterations=1
    )
    emit("Figure 6a - misprediction rates (if-converted binaries)", result.render(), name="figure6")

    benchmarks = result.table.benchmarks()
    # The predicate predictor is the most accurate scheme on (nearly) every
    # benchmark; the paper allows itself one exception.
    assert result.predicate_best_count >= len(benchmarks) - max(2, len(benchmarks) // 8)
    # ... and better than the best other scheme on average (paper: +1.5%).
    assert result.average_increase_over_best > 0.0
    # PEP-PA does not beat the conventional predictor on average (the
    # paper's "surprising" finding on an out-of-order core).
    assert result.table.mean("pep-pa") >= result.table.mean("conventional")

    benchmark.extra_info["avg_increase_over_best_pct"] = round(
        100 * result.average_increase_over_best, 3
    )
    benchmark.extra_info["paper_avg_increase_pct"] = 1.5
    benchmark.extra_info["predicate_best_count"] = result.predicate_best_count


def test_figure6b_accuracy_breakdown(benchmark, shared_engine):
    result = _figure6(shared_engine)

    def _breakdown_summary():
        early = result.average_early_resolved_improvement
        correlation = result.average_correlation_improvement
        return early, correlation

    early, correlation = benchmark.pedantic(_breakdown_summary, rounds=1, iterations=1)

    lines = [f"{'benchmark':12s} {'early-resolved':>15s} {'correlation':>12s}"]
    for item in result.breakdown:
        lines.append(
            f"{item.benchmark:12s} {100 * item.early_resolved_improvement:15.2f} "
            f"{100 * item.correlation_improvement:12.2f}"
        )
    lines.append(
        f"{'average':12s} {100 * early:15.2f} {100 * correlation:12.2f}"
    )
    emit("Figure 6b - accuracy difference breakdown (percentage points)", "\n".join(lines), name="figure6b")

    # Both contributions exist and their sum equals the total improvement.
    assert early >= 0.0
    total = sum(b.total_improvement for b in result.breakdown) / len(result.breakdown)
    assert total == pytest.approx(early + correlation, abs=1e-9)
    assert total > 0.0

    benchmark.extra_info["avg_early_resolved_pct"] = round(100 * early, 3)
    benchmark.extra_info["avg_correlation_pct"] = round(100 * correlation, 3)
    benchmark.extra_info["paper_early_resolved_pct"] = 0.5
    benchmark.extra_info["paper_correlation_pct"] = 1.0
