"""Selective predicated execution: IPC and resource effects (section 5).

The paper's summary claims the same predictor "enables a very efficient
implementation of if-conversion for an out-of-order processor": instructions
with confidently-false predicates are cancelled at rename (removing their
resource consumption) and confidently-true predictions remove the
multiple-definition dependences.  The prior work it reuses ([16]) reports an
11 % IPC gain over earlier predicated-execution techniques.

This benchmark measures, on the if-converted binaries: IPC under
conservative handling, under the predicate scheme without selective
predication, and under the full selective scheme — plus the fraction of
fetched instructions cancelled at rename (the resource saving itself).
"""

from conftest import emit

from repro.experiments.selective_ipc import run_selective_ipc


def test_selective_predication_ipc(benchmark, shared_engine):
    result = benchmark.pedantic(
        run_selective_ipc, kwargs={"engine": shared_engine}, rounds=1, iterations=1
    )

    lines = [result.render(), "", "cancelled-at-rename fraction per benchmark:"]
    for name, fraction in result.cancelled_fraction.items():
        lines.append(f"  {name:10s} {100 * fraction:6.2f}%")
    emit("Selective predicated execution - IPC on if-converted code", "\n".join(lines), name="selective_ipc")

    # Selective predication must actually remove work from the pipeline...
    assert any(fraction > 0.0 for fraction in result.cancelled_fraction.values())
    # ... and must not wreck performance relative to conservative handling.
    assert result.speedup_over_conservative > 0.9

    benchmark.extra_info["speedup_over_conservative"] = round(
        result.speedup_over_conservative, 4
    )
    benchmark.extra_info["speedup_over_non_selective"] = round(
        result.speedup_over_non_selective, 4
    )
    benchmark.extra_info["paper_reference_gain"] = 1.11
