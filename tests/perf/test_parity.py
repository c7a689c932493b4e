"""Equivalence guard: optimized vs reference implementations.

Every optimized component (the core's fast loop, the emulator's dispatch
cache, the array-backed predictor tables) keeps its original implementation
reachable behind an explicit ``optimized=False`` argument, as a parity
oracle.  These tests run the tier-1 workloads through both and assert
bit-identical traces, IPC and misprediction counters.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.executor import Emulator
from repro.emulator.trace import as_trace_pack, deserialize_trace, serialize_trace
from repro.engine import BASELINE, IF_CONVERTED, ExecutionEngine, SchemeSpec
from repro.experiments.setup import FAST_PROFILE, scheme_kinds
from repro.isa import GR, PR, CompareRelation
from repro.pipeline.core import OutOfOrderCore
from repro.predictors.gshare import GsharePredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.predicate_aware import PredicateAwarePredictor
from repro.predictors.predicate_perceptron import PredicatePerceptronPredictor
from repro.predictors.tage import TAGEPredictor, TagePredicatePredictor
from repro.program import ProgramBuilder
from repro.workloads.spec_suite import workload_names

from tests.conftest import assert_run_pack_matches_reference, build_counting_loop

BENCHMARKS = list(FAST_PROFILE.benchmarks)
SCHEMES = list(scheme_kinds())

@pytest.fixture(scope="module")
def engine():
    return ExecutionEngine(FAST_PROFILE, store=None)


def _dyn_state(dyn):
    """Comparable per-dynamic-instruction state (identity-free)."""
    state = dyn.__getstate__()
    return (state[0],) + state[2:] + (dyn.inst.uid,)


PREDICTORS = [
    GsharePredictor,
    PerceptronPredictor,
    PredicatePerceptronPredictor,
    PredicateAwarePredictor,
    TAGEPredictor,
]


class TestReferenceIsOptIn:
    """The fast path is every component's default; the reference oracle is
    reached only through an explicit ``optimized=False``."""

    @pytest.mark.parametrize("cls", PREDICTORS, ids=lambda cls: cls.__name__)
    def test_predictor_tables(self, cls):
        assert cls().optimized and cls(optimized=True).optimized
        assert not cls(optimized=False).optimized

    def test_tage_predicate_adapter(self):
        assert TagePredicatePredictor().tage.optimized
        assert not TagePredicatePredictor(optimized=False).tage.optimized

    def test_core(self):
        assert OutOfOrderCore().optimized
        assert not OutOfOrderCore(optimized=False).optimized

    def test_emulator(self, engine):
        program = engine.build_binary("gzip", BASELINE)
        assert Emulator(program).optimized
        assert not Emulator(program, optimized=False).optimized

    def test_run_pack_refuses_the_reference_interpreter(self, engine):
        program = engine.build_binary("gzip", BASELINE)
        with pytest.raises(ValueError, match="optimized=False"):
            Emulator(program, optimized=False).run_pack(100)


class TestEmulatorParity:
    @pytest.mark.parametrize("workload", BENCHMARKS)
    @pytest.mark.parametrize("flavour", [BASELINE, IF_CONVERTED])
    def test_dispatch_cache_traces_are_bit_identical(self, engine, workload, flavour):
        program = engine.build_binary(workload, flavour)
        budget = FAST_PROFILE.instructions_per_benchmark
        reference = list(Emulator(program, optimized=False).run(budget))
        optimized = list(Emulator(program, optimized=True).run(budget))
        assert len(reference) == len(optimized)
        for ref, opt in zip(reference, optimized):
            assert _dyn_state(ref) == _dyn_state(opt)


class TestCoreParity:
    @pytest.mark.parametrize("workload", BENCHMARKS)
    @pytest.mark.parametrize("scheme_kind", SCHEMES)
    @pytest.mark.parametrize("flavour", [BASELINE, IF_CONVERTED])
    def test_fast_loop_results_are_bit_identical(
        self, engine, workload, scheme_kind, flavour
    ):
        trace = engine.collect_trace(workload, flavour)
        spec = SchemeSpec.make(scheme_kind)
        reference = OutOfOrderCore(optimized=False).run(
            iter(trace), spec.build(), program_name=workload
        )
        optimized = OutOfOrderCore(optimized=True).run(
            iter(trace), spec.build(), program_name=workload
        )

        ref_metrics, opt_metrics = reference.metrics, optimized.metrics
        assert ref_metrics.cycles == opt_metrics.cycles
        assert ref_metrics.ipc == opt_metrics.ipc
        assert ref_metrics.summary() == opt_metrics.summary()
        assert ref_metrics.fu_utilisation == opt_metrics.fu_utilisation
        assert ref_metrics.counters.as_dict() == opt_metrics.counters.as_dict()
        assert ref_metrics.memory_stats == opt_metrics.memory_stats

        ref_acc, opt_acc = reference.accuracy, optimized.accuracy
        assert ref_acc.branches == opt_acc.branches
        assert ref_acc.mispredictions == opt_acc.mispredictions
        assert ref_acc.records == opt_acc.records

    def test_selective_predication_options_match(self, engine):
        """The predicate scheme's rename speculation (cancel/assume-true and
        the predicate-flush path) must behave identically in both loops."""
        trace = engine.collect_trace("gzip", IF_CONVERTED)
        spec = SchemeSpec.make("predicate", selective_predication=True)
        reference = OutOfOrderCore(optimized=False).run(iter(trace), spec.build())
        optimized = OutOfOrderCore(optimized=True).run(iter(trace), spec.build())
        for field in ("cancelled_at_rename", "assume_true_predicated",
                      "conservative_predicated", "predicate_flushes"):
            assert getattr(reference.metrics, field) == getattr(optimized.metrics, field)
        assert reference.metrics.summary() == optimized.metrics.summary()

    @pytest.mark.parametrize("scheme_kind", ["conventional", "predicate", "wish"])
    def test_tage_second_level_matches(self, engine, scheme_kind):
        """Every scheme taking a TAGE second level stays loop-parity clean."""
        trace = engine.collect_trace("gzip", IF_CONVERTED)
        spec = SchemeSpec.make(scheme_kind, second_level="tage")
        reference = OutOfOrderCore(optimized=False).run(iter(trace), spec.build())
        optimized = OutOfOrderCore(optimized=True).run(iter(trace), spec.build())
        assert reference.metrics.summary() == optimized.metrics.summary()
        assert (
            reference.metrics.counters.as_dict() == optimized.metrics.counters.as_dict()
        )
        assert reference.accuracy.records == optimized.accuracy.records

    def test_keep_uops_falls_back_to_reference(self, engine):
        trace = engine.collect_trace("gzip", IF_CONVERTED)
        result = OutOfOrderCore(optimized=True).run(
            iter(trace), SchemeSpec.make("conventional").build(), keep_uops=True
        )
        assert result.uops is not None
        assert len(result.uops) == result.metrics.committed_instructions


class TestTracePackParity:
    """The columnar trace path is bit-identical to the object path."""

    @pytest.fixture(scope="class")
    def engine(self):
        return ExecutionEngine(FAST_PROFILE, store=None)

    @pytest.fixture(scope="class")
    def if_converted_gzip(self, engine):
        return engine.build_binary("gzip", IF_CONVERTED)

    @pytest.mark.parametrize("workload", BENCHMARKS)
    @pytest.mark.parametrize("flavour", [BASELINE, IF_CONVERTED])
    def test_run_pack_traces_are_bit_identical(self, engine, workload, flavour):
        program = engine.build_binary(workload, flavour)
        budget = FAST_PROFILE.instructions_per_benchmark
        reference = list(Emulator(program, optimized=False).run(budget))
        pack = Emulator(program, optimized=True).run_pack(budget)
        assert len(pack) == len(reference)
        for ref, got in zip(reference, pack.to_dyninsts()):
            assert _dyn_state(ref) == _dyn_state(got)

    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("flavour", [BASELINE, IF_CONVERTED])
    def test_segmented_run_pack_serializes_like_the_reference(
        self, engine, workload, flavour
    ):
        # 1,700-row segments cut the 6,000-row budget into four, the last
        # one short.
        program = engine.build_binary(workload, flavour)
        assert_run_pack_matches_reference(
            program, FAST_PROFILE.instructions_per_benchmark, segment_rows=1_700
        )

    @given(budget=st.integers(0, 3_000), segment_rows=st.integers(1, 1_500))
    @settings(max_examples=25, deadline=None)
    def test_any_budget_and_segment_size(self, if_converted_gzip, budget, segment_rows):
        assert_run_pack_matches_reference(if_converted_gzip, budget, segment_rows)

    @pytest.mark.parametrize("segment_rows", [None, 1, 7, 64])
    def test_a_program_that_returns_from_main(self, segment_rows):
        program, _ = build_counting_loop()
        emulator = assert_run_pack_matches_reference(program, 10_000, segment_rows)
        assert emulator.halted and emulator.fetched_instructions < 10_000

    @pytest.mark.parametrize("segment_rows", [None, 2, 5])
    def test_a_program_that_falls_off_its_routines(self, segment_rows):
        # A leaf routine and then ``main`` end without a return: the first
        # fall-through returns to the caller, the second halts.
        builder = ProgramBuilder("fall-through")
        main = builder.routine("main")
        main.block("entry")
        main.movi(GR(10), 3)
        main.br_call("leaf")
        main.addi(GR(10), GR(10), 1)
        leaf = builder.routine("leaf")
        leaf.block("body")
        leaf.cmp(CompareRelation.GT, PR(6), PR(7), GR(10), 2)
        leaf.addi(GR(10), GR(10), 5, qp=PR(6))
        program = builder.finish()
        emulator = assert_run_pack_matches_reference(program, 100, segment_rows)
        assert emulator.halted and emulator.fetched_instructions == 5

    def test_streamed_segments_equal_the_collected_ones(self, if_converted_gzip):
        collected = Emulator(if_converted_gzip).run_pack(2_500, segment_rows=600)
        streamed = []
        rows = Emulator(if_converted_gzip).run_pack(
            2_500, segment_rows=600, on_segment=streamed.append
        )
        assert rows == len(collected) == 2_500
        assert [pack.to_bytes() for pack in streamed] == [
            collected.segment(index).to_bytes() for index in range(collected.segment_count)
        ]

    @pytest.mark.parametrize("workload", BENCHMARKS)
    @pytest.mark.parametrize("scheme_kind", SCHEMES)
    def test_cursor_driven_fast_loop_is_bit_identical(
        self, engine, workload, scheme_kind
    ):
        trace = engine.collect_trace(workload, IF_CONVERTED)
        pack = as_trace_pack(trace)
        objects = pack.to_dyninsts()
        spec = SchemeSpec.make(scheme_kind)

        from_pack = OutOfOrderCore(optimized=True).run(
            pack, spec.build(), program_name=workload
        )
        from_objects = OutOfOrderCore(optimized=True).run(
            iter(objects), spec.build(), program_name=workload
        )
        reference = OutOfOrderCore(optimized=False).run(
            pack, spec.build(), program_name=workload
        )
        for result in (from_objects, reference):
            assert from_pack.metrics.summary() == result.metrics.summary()
            assert from_pack.metrics.counters.as_dict() == result.metrics.counters.as_dict()
            assert from_pack.accuracy.mispredictions == result.accuracy.mispredictions
            assert from_pack.accuracy.records == result.accuracy.records

    def test_selective_predication_over_pack(self, engine):
        trace = engine.collect_trace("gzip", IF_CONVERTED)
        pack = as_trace_pack(trace)
        spec = SchemeSpec.make("predicate", selective_predication=True)
        from_pack = OutOfOrderCore(optimized=True).run(pack, spec.build())
        reference = OutOfOrderCore(optimized=False).run(pack, spec.build())
        assert from_pack.metrics.summary() == reference.metrics.summary()

    def test_store_codec_round_trip_preserves_results(self, engine):
        trace = engine.collect_trace("twolf", IF_CONVERTED)
        pack = as_trace_pack(trace)
        reloaded = deserialize_trace(serialize_trace(pack))
        spec = SchemeSpec.make("predicate")
        direct = OutOfOrderCore(optimized=True).run(pack, spec.build())
        from_disk = OutOfOrderCore(optimized=True).run(reloaded, spec.build())
        assert direct.metrics.summary() == from_disk.metrics.summary()
        assert direct.accuracy.mispredictions == from_disk.accuracy.mispredictions
