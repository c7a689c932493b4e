"""Ablation: single dual-hashed PVT vs statically split PVT (section 3.3).

The paper argues that splitting the perceptron vector table per predicate
target would waste capacity ("one of the destination predicate registers is
often the read-only predicate register p0") and therefore uses one table
with two hash functions.  This ablation measures that design choice on the
if-converted binaries.
"""

from conftest import emit

from repro.experiments.ablations import run_pvt_ablation


def test_ablation_pvt_organisation(benchmark, shared_engine):
    result = benchmark.pedantic(
        run_pvt_ablation, kwargs={"engine": shared_engine}, rounds=1, iterations=1
    )
    emit("Ablation - PVT organisation", result.render(), name="ablation_pvt")

    # The paper's design point (dual-hash single table) should not lose to
    # the split organisation on average.
    assert result.average_advantage >= -0.002

    benchmark.extra_info["dual_hash_advantage_pct"] = round(
        100 * result.average_advantage, 3
    )
