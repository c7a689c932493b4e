"""Tests for the out-of-order core timing model."""

import pytest

from repro.core import ConventionalScheme, PredicatePredictionScheme
from repro.core.predicate_scheme import PredicateSchemeOptions
from repro.emulator import Emulator
from repro.emulator.tracepack import TracePack
from repro.pipeline import OutOfOrderCore, PipelineConfig
from repro.pipeline.batched import LaneSpec, simulate_lanes, simulate_windowed
from repro.pipeline.uop import RenameDecision


def _run(program, scheme=None, budget=2_000, config=None, keep_uops=True):
    scheme = scheme or ConventionalScheme()
    core = OutOfOrderCore(config=config)
    trace = Emulator(program).run(budget)
    return core.run(trace, scheme, program_name=program.name, keep_uops=keep_uops)


class TestTimestampInvariants:
    def test_stage_order_per_uop(self, counting_loop):
        program, _ = counting_loop
        result = _run(program)
        for uop in result.uops:
            assert uop.fetch_cycle <= uop.rename_cycle
            assert uop.rename_cycle <= uop.commit_cycle
            if not uop.cancelled:
                assert uop.issue_cycle <= uop.complete_cycle < uop.commit_cycle

    def test_no_decode_stamp(self, counting_loop):
        # Decode added a fixed latency that fed no later stage: neither the
        # knob nor the stamp exists.
        program, _ = counting_loop
        result = _run(program)
        assert result.uops and not hasattr(result.uops[0], "decode_cycle")
        assert not hasattr(PipelineConfig(), "decode_latency")

    def test_fetch_and_commit_in_order(self, counting_loop):
        program, _ = counting_loop
        result = _run(program)
        fetches = [u.fetch_cycle for u in result.uops]
        commits = [u.commit_cycle for u in result.uops]
        assert fetches == sorted(fetches)
        assert commits == sorted(commits)

    def test_commit_width_respected(self, counting_loop):
        program, _ = counting_loop
        config = PipelineConfig(commit_width=2)
        result = _run(program, config=config)
        from collections import Counter

        per_cycle = Counter(u.commit_cycle for u in result.uops)
        assert max(per_cycle.values()) <= 2

    def test_data_dependences_respected(self, counting_loop):
        program, _ = counting_loop
        result = _run(program)
        # The compare consuming the loaded value must complete after the load.
        by_seq = {u.dyn.seq: u for u in result.uops}
        for uop in result.uops:
            if uop.dyn.is_conditional_branch and uop.dyn.guard_producer_seq >= 0:
                producer = by_seq.get(uop.dyn.guard_producer_seq)
                if producer is not None:
                    assert uop.complete_cycle >= producer.complete_cycle

    def test_cycles_and_ipc(self, counting_loop):
        program, _ = counting_loop
        result = _run(program)
        assert result.metrics.cycles > 0
        assert result.metrics.committed_instructions == len(result.uops)
        assert 0.05 < result.ipc < 6.0


class TestBranchHandlingCosts:
    def test_mispredictions_cost_cycles(self, diamond_program):
        program, _, _ = diamond_program
        fast = _run(program, config=PipelineConfig(branch_mispredict_penalty=1))
        slow_scheme = ConventionalScheme()
        slow = _run(program, scheme=slow_scheme, config=PipelineConfig(branch_mispredict_penalty=40))
        assert slow.metrics.cycles > fast.metrics.cycles

    def test_branch_counts_match_scheme_records(self, diamond_program):
        program, _, _ = diamond_program
        result = _run(program)
        assert result.metrics.conditional_branches == result.accuracy.branches
        assert result.metrics.branch_mispredictions == result.accuracy.mispredictions

    def test_metrics_summary_keys(self, counting_loop):
        program, _ = counting_loop
        result = _run(program)
        summary = result.metrics.summary()
        for key in ("cycles", "ipc", "branch_misprediction_rate", "mpki"):
            assert key in summary


class TestPredicationHandling:
    def test_conventional_scheme_is_conservative(self, counting_loop):
        program, _ = counting_loop
        result = _run(program)
        predicated = [u for u in result.uops if u.inst.is_predicated and not u.is_branch]
        assert predicated
        assert all(u.rename_decision is RenameDecision.CONSERVATIVE for u in predicated)
        assert result.metrics.cancelled_at_rename == 0

    def test_selective_scheme_cancels_false_predicates(self, counting_loop):
        program, _ = counting_loop
        scheme = PredicatePredictionScheme(PredicateSchemeOptions(confidence_bits=1))
        result = _run(program, scheme=scheme)
        assert result.metrics.cancelled_at_rename > 0

    def test_nullified_instructions_counted(self, counting_loop):
        program, _ = counting_loop
        result = _run(program)
        assert result.metrics.nullified_instructions > 0
        assert (
            result.metrics.nullified_instructions
            + result.metrics.executed_instructions
            == result.metrics.committed_instructions
        )


class TestResultObject:
    def test_uops_not_kept_by_default(self, counting_loop):
        program, _ = counting_loop
        core = OutOfOrderCore()
        result = core.run(Emulator(program).run(500), ConventionalScheme())
        assert result.uops is None

    def test_result_names(self, counting_loop):
        program, _ = counting_loop
        result = _run(program)
        assert result.program_name == program.name
        assert result.scheme_name == "conventional"
        assert 0.0 <= result.misprediction_rate <= 1.0


class TestEmptyTrace:
    def test_timing_loop_rejects_an_exhausted_generator(self, counting_loop):
        program, _ = counting_loop
        trace = Emulator(program).run(200)
        OutOfOrderCore().run(trace, ConventionalScheme())
        with pytest.raises(ValueError, match="empty trace"):
            OutOfOrderCore().run(trace, ConventionalScheme())

    def test_reference_loop_rejects_an_empty_trace(self):
        with pytest.raises(ValueError, match="empty trace"):
            OutOfOrderCore(optimized=False).run(iter([]), ConventionalScheme())

    @pytest.mark.parametrize("optimized", [True, False], ids=["timing", "reference"])
    @pytest.mark.parametrize("keep_uops", [False, True])
    def test_empty_pack_is_rejected_on_either_loop(self, optimized, keep_uops):
        core = OutOfOrderCore(optimized=optimized)
        with pytest.raises(ValueError, match="empty trace"):
            core.run(TracePack.from_dyninsts([]), ConventionalScheme(), keep_uops=keep_uops)

    @pytest.mark.parametrize(
        "scheme_factory",
        [ConventionalScheme, PredicatePredictionScheme],
        ids=["stream-lane", "hook-lane"],
    )
    def test_lane_batched_kernel_rejects_an_empty_pack(self, scheme_factory):
        lanes = [LaneSpec(scheme_factory, PipelineConfig())]
        with pytest.raises(ValueError, match="empty trace"):
            simulate_lanes(TracePack.from_dyninsts([]), lanes)

    @pytest.mark.parametrize(
        "options",
        [{}, {"window_rows": 1}],
        ids=["one-window", "windowed"],
    )
    def test_windowed_kernel_rejects_an_empty_pack(self, options):
        core = OutOfOrderCore()
        with pytest.raises(ValueError, match="empty trace"):
            simulate_windowed(core, TracePack.from_dyninsts([]), ConventionalScheme(), **options)
