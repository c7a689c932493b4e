"""Tests for the wish-branch and predicate-aware schemes (PR 10 design points)."""

import pytest

from repro.compiler.if_conversion import IfConversionOptions, IfConversionPass
from repro.core import ConventionalScheme, PredicateAwareScheme, WishBranchScheme
from repro.emulator import Emulator
from repro.engine import IF_CONVERTED, ExecutionEngine, SchemeSpec
from repro.experiments.setup import ExperimentProfile
from repro.pipeline import OutOfOrderCore
from repro.program import validate_program
from repro.workloads import workload_names

from tests.conftest import build_diamond_program


def _run(program, scheme, budget=4_000):
    return OutOfOrderCore().run(Emulator(program).run(budget), scheme, program.name)


def _if_converted_diamond(values=None):
    program, _, _ = build_diamond_program(values)
    IfConversionPass(IfConversionOptions(ignore_profile=True)).run(program)
    program.layout()
    validate_program(program)
    return program


class TestWishBranchScheme:
    def test_guards_predicted_and_branches_recorded(self):
        program = _if_converted_diamond()
        scheme = WishBranchScheme()
        result = _run(program, scheme)
        assert scheme.counters.get("wish_guard_predictions") > 0
        assert scheme.accuracy.branches == result.metrics.conditional_branches
        assert (
            scheme.counters.get("wish_guard_predictions_correct")
            + scheme.counters.get("wish_guard_predictions_wrong")
            == scheme.counters.get("wish_guard_predictions")
        )

    def test_branch_mode_engages_on_confident_guards(self):
        # Every value is > 5, so the hammock guard is constant: a 1-bit
        # confidence gate saturates immediately and the hammock runs in
        # branch mode (speculative cancel/assume-true) from then on.
        program = _if_converted_diamond(values=[9, 8, 7, 6, 9, 8, 7, 6, 9, 8])
        scheme = WishBranchScheme(confidence_bits=1)
        result = _run(program, scheme)
        assert scheme.counters.get("wish_branch_mode") > 0
        assert (
            result.metrics.cancelled_at_rename + result.metrics.assume_true_predicated
            > 0
        )

    def test_wrong_branch_mode_speculation_flushes(self):
        # The default diamond's guard is ~50/50; a 1-bit gate speculates
        # aggressively, so some branch-mode guesses are wrong and flush.
        program = _if_converted_diamond()
        scheme = WishBranchScheme(confidence_bits=1)
        result = _run(program, scheme)
        assert scheme.counters.get("wish_flushes") > 0
        assert result.metrics.predicate_flushes > 0

    def test_low_confidence_falls_back_to_predicate_mode(self):
        # With the default 4-bit gate a short run never saturates on a
        # random guard: every hammock stays conservatively predicated.
        program = _if_converted_diamond()
        scheme = WishBranchScheme()
        result = _run(program, scheme, budget=1_500)
        assert scheme.counters.get("wish_predicate_mode") > 0
        assert result.metrics.predicate_flushes == 0

    def test_tage_second_level_runs(self):
        program = _if_converted_diamond()
        scheme = WishBranchScheme(second_level="tage")
        _run(program, scheme)
        assert scheme.accuracy.branches > 0
        assert "tage" in scheme.describe()

    def test_unknown_second_level_rejected(self):
        with pytest.raises(ValueError, match="second_level"):
            WishBranchScheme(second_level="ltage")

    def test_is_a_hook_lane(self):
        from repro.pipeline.batched import stream_eligible

        assert not WishBranchScheme.timing_independent
        assert not stream_eligible(WishBranchScheme())

    def test_branches_delegate_to_the_conventional_scheme(self):
        scheme = WishBranchScheme(second_level="tage")
        assert type(scheme.branch_scheme()) is ConventionalScheme
        assert scheme.branches.second_level == "tage"
        # The branch half records into the wish scheme's own counters.
        assert scheme.branches.accuracy is scheme.accuracy
        assert scheme.branches.counters is scheme.counters


class TestPredicateAwareScheme:
    def test_predicate_bits_folded_into_history(self):
        program = _if_converted_diamond()
        scheme = PredicateAwareScheme()
        result = _run(program, scheme)
        assert scheme.counters.get("predicate_bits_folded") > 0
        assert scheme.accuracy.branches == result.metrics.conditional_branches

    def test_if_converted_instructions_stay_conservative(self):
        program = _if_converted_diamond()
        result = _run(program, PredicateAwareScheme())
        assert result.metrics.cancelled_at_rename == 0
        assert result.metrics.assume_true_predicated == 0

    def test_timing_independent_but_hook_lane(self):
        from repro.pipeline.batched import stream_eligible

        scheme = PredicateAwareScheme()
        assert scheme.timing_independent
        # The overridden compare-completion hook observes rows the stream
        # replay never visits, so the batched kernel must not stream it.
        assert not stream_eligible(scheme)

    def test_describe_names_the_mixed_history(self):
        assert "mixed GHR" in PredicateAwareScheme().describe()


IDENTITY_INSTRUCTIONS = 3_000


class TestWishConventionalBranchIdentity:
    """Wish branches predict branches exactly as the conventional scheme.

    Wish mode only changes how *predicated* instructions rename (branch
    mode vs predicate mode); branches go through the same two-level
    override organisation with the same speculative-push/same-branch-repair
    history.  So on every if-converted built-in the branch predictions
    agree one for one, while IPC still differs.
    """

    @pytest.fixture(scope="class")
    def engine(self):
        profile = ExperimentProfile(
            name="wish-identity",
            instructions_per_benchmark=IDENTITY_INSTRUCTIONS,
            benchmarks=workload_names(),
            profile_budget=IDENTITY_INSTRUCTIONS,
        )
        return ExecutionEngine(profile, store=None)

    @pytest.mark.parametrize("workload", workload_names())
    def test_branch_predictions_match_conventional(self, engine, workload):
        # Scalar runs: the lane-batched kernel replays one stream for both
        # by construction, so only the scalar hooks can show a difference.
        trace = engine.collect_trace(workload, IF_CONVERTED)
        for second_level in ("perceptron", "tage"):
            conventional, wish = (
                OutOfOrderCore().run(
                    trace,
                    SchemeSpec.make(kind, second_level=second_level).build(),
                    program_name=workload,
                )
                for kind in ("conventional", "wish")
            )
            context = (workload, second_level)
            assert conventional.metrics.conditional_branches > 0, context
            assert (
                wish.metrics.branch_mispredictions
                == conventional.metrics.branch_mispredictions
            ), context
            assert wish.accuracy == conventional.accuracy, context
