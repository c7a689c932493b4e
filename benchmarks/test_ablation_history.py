"""Ablation: global-history corruption cost (section 3.3).

The predicate predictor's global history is speculatively updated by compare
instructions and only repaired later, so compares fetched inside the
corruption window predict with stale bits.  The paper bounds this negative
effect (together with aliasing) at under 0.4–0.5 % on average; this ablation
isolates the history component by comparing the realistic scheme against an
oracle-history variant on the if-converted binaries.
"""

from conftest import emit

from repro.experiments.ablations import run_history_ablation


def test_ablation_history_corruption(benchmark, shared_engine):
    result = benchmark.pedantic(
        run_history_ablation, kwargs={"engine": shared_engine}, rounds=1, iterations=1
    )
    emit("Ablation - global-history corruption", result.render(), name="ablation_history")

    corruption_cost = -result.average_advantage  # oracle minus realistic
    # The corruption window costs accuracy (non-negative) but stays a small
    # effect, consistent with the paper's bound on the negative effects.
    assert corruption_cost >= -0.002
    assert corruption_cost < 0.03

    benchmark.extra_info["history_corruption_cost_pct"] = round(100 * corruption_cost, 3)
    benchmark.extra_info["paper_negative_effects_bound_pct"] = 0.5
