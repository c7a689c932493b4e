"""Streaming-scale differential harness: chunked, windowed, resumed, sampled.

Four contracts of the streaming trace layer, each tested differentially
against the plain scalar run:

* **Chunked = monolithic** — a trace split into RTP3 segments at *any*
  boundaries simulates bit-identically (IPC, misprediction counters,
  functional-unit utilisation, memory statistics) to the monolithic pack.
* **Windowed = straight-through** — driving the fast loop in windows of any
  size is the straight-through fold with pauses: bit-identical results.
* **Resumed = uninterrupted** — restoring a mid-trace checkpoint (pickled,
  as the artifact store does) and draining the rest reproduces the
  uninterrupted run exactly; at the engine level, a worker killed at a
  checkpoint write is retried and resumes to bit-identical results.
* **Sampled ≈ full** — sampled simulation is a *documented approximation*:
  cold predictor/cache state after skipped windows biases IPC downward.
  The bounds asserted here (and documented in ``docs/internals/traces.md``)
  are the empirical envelope at interval 2 with 1.5-2x margin.

Hypothesis drives the equalities over random (scheme, machine, window,
chunking) tuples; the engine tests pin checkpoint lifecycle and the
sampled-key cache discipline.
"""

from __future__ import annotations

import logging
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.emulator.tracepack import ChunkedTracePack, TracePack
from repro.engine import ArtifactStore, ExecutionEngine, IF_CONVERTED, SchemeSpec
from repro.engine.planner import (
    CellRequest,
    ExperimentDefinition,
    make_batched_simulate_job,
    make_build_job,
    make_simulate_job,
    make_trace_job,
)
from repro.engine.store import CHECKPOINTS, RESULTS
from repro.experiments.setup import ExperimentProfile
from repro.pipeline.batched import LaneSpec, simulate_lanes
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.machine import MachineSpec
from repro.pipeline.windowed import (
    CHECKPOINT_VERSION,
    SamplingSpec,
    SimulationCheckpoint,
    simulate_windowed,
)

INSTRUCTIONS = 2_000

SCHEME_SPECS = (
    SchemeSpec.make("conventional"),
    SchemeSpec.make("predicate"),
    SchemeSpec.make("pep-pa"),
    SchemeSpec.make("wish"),
    SchemeSpec.make("predicate-aware"),
    SchemeSpec.make("conventional", second_level="tage"),
)
MACHINES = (
    MachineSpec.make(),
    MachineSpec.make(rob_entries=32),
    MachineSpec.make(rob_entries=128),
)

#: Documented sampled-simulation error envelope (docs/internals/traces.md):
#: at interval 2 the empirical worst case over the scheme/benchmark matrix
#: is ~0.20 relative IPC error and ~5.3 points of misprediction rate; the
#: asserted bounds carry 1.5x margin.
SAMPLED_IPC_RELATIVE_BOUND = 0.30
SAMPLED_MISPREDICT_POINTS_BOUND = 8.0


def _profile(instructions=INSTRUCTIONS, benchmarks=("gzip",)):
    return ExperimentProfile(
        name="streaming-parity",
        instructions_per_benchmark=instructions,
        benchmarks=list(benchmarks),
        profile_budget=instructions,
    )


@pytest.fixture(scope="module")
def pack() -> TracePack:
    engine = ExecutionEngine(_profile(), store=None)
    trace = engine.collect_trace("gzip", IF_CONVERTED)
    assert isinstance(trace, TracePack)
    return trace


@pytest.fixture(scope="module")
def scalar_reference(pack):
    """Memoised straight-through scalar results per (scheme, machine)."""
    memo = {}

    def reference(scheme_idx: int, machine_idx: int):
        key = (scheme_idx, machine_idx)
        if key not in memo:
            core = OutOfOrderCore(config=MACHINES[machine_idx].build_config())
            scheme = SCHEME_SPECS[scheme_idx].build()
            memo[key] = core.run(pack, scheme, program_name="gzip")
        return memo[key]

    return reference


def _assert_result_parity(expected, actual, context):
    assert actual.metrics.summary() == expected.metrics.summary(), context
    assert (
        actual.metrics.counters.as_dict() == expected.metrics.counters.as_dict()
    ), context
    assert actual.metrics.fu_utilisation == expected.metrics.fu_utilisation, context
    assert actual.metrics.memory_stats == expected.metrics.memory_stats, context
    assert actual.metrics.cycles == expected.metrics.cycles, context
    assert actual.accuracy.records == expected.accuracy.records, context


def _chunk(pack, sizes, via_bytes):
    """Split ``pack`` into segments of the (cycled) ``sizes`` row counts."""
    rows = pack.to_dyninsts()
    segments, start, pick = [], 0, 0
    while start < len(rows):
        size = sizes[pick % len(sizes)]
        pick += 1
        segments.append(TracePack.from_dyninsts(rows[start : start + size]))
        start += size
    chunked = ChunkedTracePack.from_segments(segments)
    if via_bytes:
        # Through the RTP3 codec: lazily-decoded blob-backed segments, the
        # exact shape the artifact store serves after a streamed ingest.
        chunked = ChunkedTracePack.from_bytes(chunked.to_bytes())
    return chunked


class TestChunkedVsMonolithic:
    @given(
        scheme_idx=st.integers(0, len(SCHEME_SPECS) - 1),
        machine_idx=st.integers(0, len(MACHINES) - 1),
        sizes=st.lists(st.integers(1, 900), min_size=1, max_size=5),
        via_bytes=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_segmentation_is_bit_identical(
        self, pack, scalar_reference, scheme_idx, machine_idx, sizes, via_bytes
    ):
        chunked = _chunk(pack, sizes, via_bytes)
        assert len(chunked) == len(pack)
        core = OutOfOrderCore(config=MACHINES[machine_idx].build_config())
        result = core.run(chunked, SCHEME_SPECS[scheme_idx].build(), program_name="gzip")
        _assert_result_parity(
            scalar_reference(scheme_idx, machine_idx),
            result,
            (scheme_idx, machine_idx, sizes, via_bytes),
        )

    def test_engine_streamed_collection_is_bit_identical(self, tmp_path):
        """trace_segment_rows streams collection into an RTP3 store payload."""
        plain = ExecutionEngine(_profile(), store=None)
        expected = plain.simulate("gzip", IF_CONVERTED, SCHEME_SPECS[0])

        store = ArtifactStore(str(tmp_path / "store"))
        streaming = ExecutionEngine(_profile(), store=store, trace_segment_rows=700)
        trace = streaming.collect_trace("gzip", IF_CONVERTED)
        assert isinstance(trace, ChunkedTracePack)
        assert trace.segment_count >= 2
        actual = streaming.simulate("gzip", IF_CONVERTED, SCHEME_SPECS[0])
        _assert_result_parity(expected, actual, "streamed collection")


class TestWindowedParity:
    @given(
        scheme_idx=st.integers(0, len(SCHEME_SPECS) - 1),
        machine_idx=st.integers(0, len(MACHINES) - 1),
        window=st.integers(32, 900),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_window_size_is_bit_identical(
        self, pack, scalar_reference, scheme_idx, machine_idx, window
    ):
        core = OutOfOrderCore(config=MACHINES[machine_idx].build_config())
        result = simulate_windowed(
            core,
            pack,
            SCHEME_SPECS[scheme_idx].build(),
            "gzip",
            window_rows=window,
        )
        _assert_result_parity(
            scalar_reference(scheme_idx, machine_idx),
            result,
            (scheme_idx, machine_idx, window),
        )

    @given(
        scheme_idx=st.integers(0, len(SCHEME_SPECS) - 1),
        window=st.integers(128, 900),
        chunk_rows=st.integers(100, 1_100),
        resume_at=st.floats(0.0, 0.999),
    )
    @settings(max_examples=8, deadline=None)
    def test_resume_from_any_checkpoint_is_bit_identical(
        self, pack, scalar_reference, scheme_idx, window, chunk_rows, resume_at
    ):
        """Pickled mid-trace checkpoints resume exactly — chunked trace too."""
        trace = _chunk(pack, [chunk_rows], via_bytes=True)
        blobs = []
        core = OutOfOrderCore()
        first = simulate_windowed(
            core,
            trace,
            SCHEME_SPECS[scheme_idx].build(),
            "gzip",
            window_rows=window,
            # Pickle immediately: the live state keeps evolving, exactly as
            # a store write would capture it.
            on_checkpoint=lambda ckpt: blobs.append(
                pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)
            ),
        )
        _assert_result_parity(
            scalar_reference(scheme_idx, 0), first, "windowed over chunked"
        )
        assert blobs, "windowed run over multiple windows must checkpoint"

        checkpoint = pickle.loads(blobs[int(resume_at * len(blobs))])
        resumed = simulate_windowed(
            OutOfOrderCore(),
            trace,
            SCHEME_SPECS[scheme_idx].build(),
            "gzip",
            window_rows=window,
            checkpoint=checkpoint,
        )
        _assert_result_parity(
            scalar_reference(scheme_idx, 0),
            resumed,
            (scheme_idx, window, chunk_rows, checkpoint.rows_done),
        )

    @pytest.mark.parametrize("scheme_idx", [1, 3, 4])
    def test_resume_with_trained_packed_rows_is_bit_identical(
        self, pack, scalar_reference, scheme_idx
    ):
        """A mid-run checkpoint of a perceptron scheme restores its packed
        weight rows exactly: the resumed run equals a straight one."""
        blobs = []
        simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[scheme_idx].build(),
            "gzip",
            window_rows=300,
            on_checkpoint=lambda ckpt: blobs.append(
                pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)
            ),
        )
        checkpoint = pickle.loads(blobs[len(blobs) // 2])
        scheme = checkpoint.states[0].scheme
        predictor = scheme.guard_predictor if scheme_idx == 3 else scheme.predictor
        rows = range(predictor.config.entries)
        assert any(any(predictor.weight_row(row)) for row in rows), "no row trained"
        resumed = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[scheme_idx].build(),
            "gzip",
            window_rows=300,
            checkpoint=checkpoint,
        )
        _assert_result_parity(
            scalar_reference(scheme_idx, 0), resumed, (scheme_idx, checkpoint.rows_done)
        )


class TestCheckpointVersion:
    """A checkpoint of another layout version is ignored, never mis-restored."""

    def _stale_checkpoint(self, pack, scheme_idx, window, version=1):
        blobs = []
        simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[scheme_idx].build(),
            "gzip",
            window_rows=window,
            on_checkpoint=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
        )
        checkpoint = pickle.loads(blobs[len(blobs) // 2])
        assert checkpoint.version == CHECKPOINT_VERSION == 9
        checkpoint.version = version
        return checkpoint

    def test_version_one_checkpoint_restarts_from_row_zero(self, pack, scalar_reference):
        stale = self._stale_checkpoint(pack, 1, 400)
        assert stale.rows_done > 0 and not stale.matches(len(pack))
        resumed_at = []
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[1].build(),
            "gzip",
            window_rows=400,
            checkpoint=stale,
            on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
        )
        assert resumed_at[0] == 400  # the first window was simulated again
        _assert_result_parity(scalar_reference(1, 0), result, "stale checkpoint")

    def test_version_two_checkpoint_restarts_from_row_zero(self, pack, scalar_reference):
        # Version 2 pickled the per-branch accuracy as one object per
        # branch; version 3 pickles its columns.
        stale = self._stale_checkpoint(pack, 0, 300, version=2)
        assert stale.rows_done > 0 and not stale.matches(len(pack))
        resumed_at = []
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[0].build(),
            "gzip",
            window_rows=300,
            checkpoint=stale,
            on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
        )
        assert resumed_at[0] == 300  # the first window was simulated again
        _assert_result_parity(scalar_reference(0, 0), result, "version-2 checkpoint")

    def test_version_three_checkpoint_restarts_from_row_zero(self, pack, scalar_reference):
        # Version 3 pickled wish with its own copy of the branch predictor
        # and predicate PPRF entries without their prediction plan.
        stale = self._stale_checkpoint(pack, 3, 300, version=3)
        assert stale.rows_done > 0 and not stale.matches(len(pack))
        resumed_at = []
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[3].build(),
            "gzip",
            window_rows=300,
            checkpoint=stale,
            on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
        )
        assert resumed_at[0] == 300  # the first window was simulated again
        _assert_result_parity(scalar_reference(3, 0), result, "version-3 checkpoint")

    def test_version_four_checkpoint_restarts_from_row_zero(self, pack, scalar_reference):
        # Version 4 held one lane's state under ``state``, with no stream
        # sources and no sampling spec.
        current = self._stale_checkpoint(pack, 3, 300, version=CHECKPOINT_VERSION)
        stale = SimulationCheckpoint.__new__(SimulationCheckpoint)
        stale.__dict__.update(
            version=4,
            rows_done=current.rows_done,
            total_rows=current.total_rows,
            state=current.states[0],
        )
        stale = pickle.loads(pickle.dumps(stale))
        assert stale.rows_done > 0 and not stale.matches(len(pack))
        resumed_at = []
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[3].build(),
            "gzip",
            window_rows=300,
            checkpoint=stale,
            on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
        )
        assert resumed_at[0] == 300  # the first window was simulated again
        _assert_result_parity(scalar_reference(3, 0), result, "version-4 checkpoint")

    def test_version_five_checkpoint_restarts_from_row_zero(self, pack, scalar_reference):
        # Version 5 pickled caches whose sets kept the most recently used
        # block last and TLBs holding their pages in a list.
        stale = self._stale_checkpoint(pack, 2, 300, version=5)
        assert stale.rows_done > 0 and not stale.matches(len(pack))
        resumed_at = []
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[2].build(),
            "gzip",
            window_rows=300,
            checkpoint=stale,
            on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
        )
        assert resumed_at[0] == 300  # the first window was simulated again
        _assert_result_parity(scalar_reference(2, 0), result, "version-5 checkpoint")

    def test_version_six_checkpoint_restarts_from_row_zero(self, pack, scalar_reference):
        # Version 6 pickled perceptron weights as flat lists of small ints,
        # counters as int lists and no first-level prediction histories.
        stale = self._stale_checkpoint(pack, 1, 300, version=6)
        assert stale.rows_done > 0 and not stale.matches(len(pack))
        resumed_at = []
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[1].build(),
            "gzip",
            window_rows=300,
            checkpoint=stale,
            on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
        )
        assert resumed_at[0] == 300  # the first window was simulated again
        _assert_result_parity(scalar_reference(1, 0), result, "version-6 checkpoint")

    def test_version_seven_checkpoint_restarts_from_row_zero(self, pack, scalar_reference):
        # Version 7 pickled the history registers' token deques, the
        # predictors' PC memos and the conventional scheme's two levels
        # inside one override predictor.
        stale = self._stale_checkpoint(pack, 0, 300, version=7)
        assert stale.rows_done > 0 and not stale.matches(len(pack))
        resumed_at = []
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[0].build(),
            "gzip",
            window_rows=300,
            checkpoint=stale,
            on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
        )
        assert resumed_at[0] == 300  # the first window was simulated again
        _assert_result_parity(scalar_reference(0, 0), result, "version-7 checkpoint")

    def test_version_eight_checkpoint_restarts_from_row_zero(self, pack, scalar_reference):
        # Version 8 held each lane's own memory hierarchy and load/store
        # unit in its state, and no memory walkers.
        current = self._stale_checkpoint(pack, 1, 300, version=CHECKPOINT_VERSION)
        stale = SimulationCheckpoint.__new__(SimulationCheckpoint)
        stale.__dict__.update(
            version=8,
            rows_done=current.rows_done,
            total_rows=current.total_rows,
            sampling=None,
            states=current.states,
            sources=current.sources,
        )
        stale = pickle.loads(pickle.dumps(stale))
        assert stale.rows_done > 0 and not stale.matches(len(pack))
        resumed_at = []
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[1].build(),
            "gzip",
            window_rows=300,
            checkpoint=stale,
            on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
        )
        assert resumed_at[0] == 300  # the first window was simulated again
        _assert_result_parity(scalar_reference(1, 0), result, "version-8 checkpoint")

    def test_engine_does_not_resume_a_version_one_checkpoint(self, pack, tmp_path):
        profile = _profile()
        expected = ExecutionEngine(profile, store=None).simulate(
            "gzip", IF_CONVERTED, SCHEME_SPECS[1]
        )
        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(profile, store=store, checkpoint_every=400)
        build = make_build_job("gzip", IF_CONVERTED, engine.factory)
        job = make_simulate_job(make_trace_job(build, INSTRUCTIONS), SCHEME_SPECS[1])
        # A lone checkpointed job runs as a one-lane batch, keyed as one.
        batch = make_batched_simulate_job([job])
        store.put(CHECKPOINTS, batch.key, self._stale_checkpoint(pack, 1, 400))

        actual = engine.simulate("gzip", IF_CONVERTED, SCHEME_SPECS[1])
        assert engine.stats.checkpoints_resumed == 0
        _assert_result_parity(expected, actual, "engine with a stale checkpoint")
        # The run replaced and then discarded the stale checkpoint.
        assert store.usage()[CHECKPOINTS]["count"] == 0


class TestSamplingModeCheckpoints:
    """A checkpoint records its sampling spec and resumes only a run of the
    same mode; one of the other mode restarts from row zero."""

    SAMPLING = SamplingSpec(interval=2, window=256, warmup=64)

    def _checkpoint(self, pack, sampling):
        blobs = []
        simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[1].build(),
            "gzip",
            window_rows=256,
            sampling=sampling,
            on_checkpoint=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
        )
        checkpoint = pickle.loads(blobs[len(blobs) // 2])
        assert checkpoint.sampling == sampling and checkpoint.rows_done > 0
        return checkpoint

    @pytest.fixture(autouse=True)
    def _propagate(self, monkeypatch):
        # configure_logging() stops the repro hierarchy at its own handler.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)

    def _resume(self, pack, checkpoint, sampling, caplog):
        resumed_at = []
        with caplog.at_level(logging.WARNING, logger="repro"):
            result = simulate_windowed(
                OutOfOrderCore(),
                pack,
                SCHEME_SPECS[1].build(),
                "gzip",
                window_rows=256,
                sampling=sampling,
                checkpoint=checkpoint,
                on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
            )
        assert resumed_at[0] == 256  # the first window was simulated again
        assert "ignoring incompatible checkpoint" in caplog.text
        return result

    def test_full_run_ignores_a_sampled_checkpoint(self, pack, scalar_reference, caplog):
        checkpoint = self._checkpoint(pack, self.SAMPLING)
        assert not checkpoint.matches(len(pack))
        result = self._resume(pack, checkpoint, None, caplog)
        assert result.sampling is None
        _assert_result_parity(scalar_reference(1, 0), result, "sampled checkpoint")

    def test_sampled_run_ignores_a_full_checkpoint(self, pack, caplog):
        checkpoint = self._checkpoint(pack, None)
        assert not checkpoint.matches(len(pack), self.SAMPLING)
        expected = simulate_windowed(
            OutOfOrderCore(), pack, SCHEME_SPECS[1].build(), "gzip", sampling=self.SAMPLING
        )
        result = self._resume(pack, checkpoint, self.SAMPLING, caplog)
        assert result.sampling == self.SAMPLING
        _assert_result_parity(expected, result, "full checkpoint")

    def test_sampled_run_resumes_its_own_checkpoint(self, pack):
        checkpoint = self._checkpoint(pack, self.SAMPLING)
        assert checkpoint.matches(len(pack), self.SAMPLING)
        expected = simulate_windowed(
            OutOfOrderCore(), pack, SCHEME_SPECS[1].build(), "gzip", sampling=self.SAMPLING
        )
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[1].build(),
            "gzip",
            sampling=self.SAMPLING,
            checkpoint=checkpoint,
        )
        _assert_result_parity(expected, result, "sampled resume")


class TestSampledApproximation:
    @pytest.mark.parametrize("scheme_idx", range(len(SCHEME_SPECS)))
    def test_sampled_within_documented_error_bound(
        self, pack, scalar_reference, scheme_idx
    ):
        full = scalar_reference(scheme_idx, 0)
        sampling = SamplingSpec(interval=2, window=512, warmup=128)
        sampled = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[scheme_idx].build(),
            "gzip",
            sampling=sampling,
        )
        # The result is flagged, and only measured rows reach the counters.
        assert sampled.sampling == sampling
        assert (
            sampled.metrics.committed_instructions
            < full.metrics.committed_instructions
        )
        relative = abs(sampled.metrics.ipc - full.metrics.ipc) / full.metrics.ipc
        assert relative < SAMPLED_IPC_RELATIVE_BOUND, (
            sampled.metrics.ipc,
            full.metrics.ipc,
        )
        points = 100.0 * abs(
            sampled.accuracy.misprediction_rate - full.accuracy.misprediction_rate
        )
        assert points < SAMPLED_MISPREDICT_POINTS_BOUND, (
            sampled.accuracy.misprediction_rate,
            full.accuracy.misprediction_rate,
        )

    def test_interval_one_is_bit_identical(self, pack, scalar_reference):
        """interval=1 degenerates to a full windowed run — exact, not approximate."""
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[0].build(),
            "gzip",
            sampling=SamplingSpec(interval=1, window=256),
        )
        expected = scalar_reference(0, 0)
        assert result.metrics.summary() == expected.metrics.summary()
        assert result.metrics.cycles == expected.metrics.cycles
        assert result.sampling is not None


class TestWindowedInputs:
    """The windowed driver rejects what it cannot window, never silently
    running straight through without the requested sampling/checkpoints."""

    def test_object_trace_rejected(self, pack):
        with pytest.raises(TypeError, match="TracePack"):
            simulate_windowed(
                OutOfOrderCore(),
                pack.to_dyninsts(),
                SCHEME_SPECS[0].build(),
                "gzip",
                sampling=SamplingSpec(interval=2, window=256),
            )

    def test_reference_core_rejected(self, pack):
        with pytest.raises(ValueError, match="optimized=True"):
            simulate_windowed(
                OutOfOrderCore(optimized=False),
                pack,
                SCHEME_SPECS[0].build(),
                "gzip",
                window_rows=256,
                on_checkpoint=lambda checkpoint: None,
            )


# ----------------------------------------------------------------------
# Engine-level checkpoint lifecycle and fault-driven resume
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(faults.FAULTS_STATE_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def activate_faults(monkeypatch, tmp_path):
    def _activate(spec: str) -> None:
        monkeypatch.setenv(faults.FAULTS_ENV, spec)
        monkeypatch.setenv(faults.FAULTS_STATE_ENV, str(tmp_path / "fault-state"))
        faults.reset()

    return _activate


def _cells_definition():
    requests = [
        CellRequest("gzip", IF_CONVERTED, "conventional", SCHEME_SPECS[0]),
        CellRequest("gzip", IF_CONVERTED, "predicate", SCHEME_SPECS[1]),
        CellRequest("twolf", IF_CONVERTED, "conventional", SCHEME_SPECS[0]),
        CellRequest("twolf", IF_CONVERTED, "predicate", SCHEME_SPECS[1]),
    ]
    return ExperimentDefinition(name="streaming-kill", requests=requests)


KILL_PROFILE_INSTRUCTIONS = 1_200

#: The long-trace comparison: conventional branching, predicate prediction
#: and wish branches, whose branch half replays the conventional stream.
COMPARISON_SPECS = (SCHEME_SPECS[0], SCHEME_SPECS[1], SCHEME_SPECS[3])


def _comparison_definition(benchmarks=("gzip",), specs=COMPARISON_SPECS):
    requests = [
        CellRequest(benchmark, IF_CONVERTED, spec.describe(), spec)
        for benchmark in benchmarks
        for spec in specs
    ]
    return ExperimentDefinition(name="comparison", requests=requests)


def _assert_outputs_parity(expected, actual):
    assert actual.keys() == expected.keys()
    for slot, result in expected.items():
        _assert_result_parity(result, actual[slot], slot)


class TestEngineCheckpointing:
    def test_kill_at_checkpoint_resumes_bit_identical(
        self, activate_faults, tmp_path
    ):
        """A worker killed at a checkpoint write retries and resumes mid-trace."""
        profile = _profile(KILL_PROFILE_INSTRUCTIONS, ("gzip", "twolf"))
        definition = _cells_definition()
        clean = ExecutionEngine(profile, store=None).run([definition])

        activate_faults(f"{faults.KILL_CHECKPOINT}:2")
        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(profile, store=store, jobs=2, checkpoint_every=300)
        outputs = engine.run([definition])

        assert engine.stats.workers_lost >= 1
        assert engine.stats.jobs_retried >= 1
        assert engine.stats.checkpoints_written >= 1
        assert engine.stats.checkpoints_resumed >= 1
        for slot, result in clean[definition.name].items():
            actual = outputs[definition.name][slot]
            assert actual.metrics.summary() == result.metrics.summary(), slot
            assert (
                actual.metrics.counters.as_dict()
                == result.metrics.counters.as_dict()
            ), slot
        # Success consumes every checkpoint: nothing left to resume from.
        assert store.usage()[CHECKPOINTS]["count"] == 0

    def test_checkpointed_chunked_cell_runs_as_one_batch(self, tmp_path):
        profile = _profile()
        definition = _comparison_definition()
        plain = ExecutionEngine(profile, store=None)
        expected = plain.run([definition])[definition.name]

        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(
            profile, store=store, checkpoint_every=300, trace_segment_rows=700
        )
        actual = engine.run([definition])[definition.name]
        assert isinstance(engine.collect_trace("gzip", IF_CONVERTED), ChunkedTracePack)
        assert engine.stats.batches_run == 1
        assert engine.stats.batched_lanes == 3
        # One checkpoint per window boundary, holding all three lanes.
        assert engine.stats.checkpoints_written == (INSTRUCTIONS - 1) // 300
        _assert_outputs_parity(expected, actual)
        assert store.usage()[CHECKPOINTS]["count"] == 0

    def test_kill_in_a_batch_sharing_a_stream_resumes_bit_identical(
        self, activate_faults, tmp_path
    ):
        """Wish replays the conventional lane's stream; a worker killed at a
        checkpoint write resumes the whole batch, shared source included."""
        profile = _profile(KILL_PROFILE_INSTRUCTIONS, ("gzip", "twolf"))
        definition = _comparison_definition(
            ("gzip", "twolf"), (SCHEME_SPECS[0], SCHEME_SPECS[3])
        )
        clean = ExecutionEngine(profile, store=None).run([definition])

        activate_faults(f"{faults.KILL_CHECKPOINT}:2")
        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(
            profile, store=store, jobs=2, checkpoint_every=300, trace_segment_rows=500
        )
        outputs = engine.run([definition])

        assert engine.stats.workers_lost >= 1
        assert engine.stats.checkpoints_resumed >= 2  # both lanes of a batch
        assert engine.stats.batches_run >= 1
        _assert_outputs_parity(clean[definition.name], outputs[definition.name])
        assert store.usage()[CHECKPOINTS]["count"] == 0

    def test_a_batch_checkpoint_never_resumes_another_lane_set(self, pack, tmp_path):
        """A {conventional, wish} checkpoint is not used when only wish is
        pending: the one-lane batch has its own key, and its lane count."""
        profile = _profile()
        definition = _comparison_definition(specs=(SCHEME_SPECS[0], SCHEME_SPECS[3]))
        expected = ExecutionEngine(profile, store=None).run([definition])[definition.name]

        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(profile, store=store, checkpoint_every=400)
        build = make_build_job("gzip", IF_CONVERTED, engine.factory)
        trace = make_trace_job(build, INSTRUCTIONS)
        jobs = [make_simulate_job(trace, spec) for spec in (SCHEME_SPECS[0], SCHEME_SPECS[3])]
        pair = make_batched_simulate_job(jobs)
        wish_only = make_batched_simulate_job(jobs[1:])
        assert pair.key != wish_only.key

        blobs = []
        config = MachineSpec().build_config()
        simulate_lanes(
            pack,
            [LaneSpec(SCHEME_SPECS[0].build, config), LaneSpec(SCHEME_SPECS[3].build, config)],
            "gzip",
            window_rows=400,
            on_checkpoint=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
        )
        checkpoint = pickle.loads(blobs[0])
        assert checkpoint.matches(len(pack), None, 2)
        assert not checkpoint.matches(len(pack), None, 1)
        store.put(CHECKPOINTS, pair.key, checkpoint)
        # Even under the wish-only key, a two-lane checkpoint is refused.
        store.put(CHECKPOINTS, wish_only.key, checkpoint)

        engine.simulate("gzip", IF_CONVERTED, SCHEME_SPECS[0])  # cache conventional
        actual = engine.run([definition])[definition.name]
        assert engine.stats.checkpoints_resumed == 0
        assert engine.stats.batched_lanes == 2  # two one-lane batches
        _assert_outputs_parity(expected, actual)
        # The wish-only run replaced and discarded its key's checkpoint; the
        # pair's stays for a run of that lane set.
        assert store.usage()[CHECKPOINTS]["count"] == 1
        assert store.contains(CHECKPOINTS, pair.key)

    def test_serial_checkpointing_is_transparent_and_discarded(self, tmp_path):
        profile = _profile()
        plain = ExecutionEngine(profile, store=None)
        expected = plain.simulate("gzip", IF_CONVERTED, SCHEME_SPECS[1])

        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(profile, store=store, checkpoint_every=400)
        actual = engine.simulate("gzip", IF_CONVERTED, SCHEME_SPECS[1])
        _assert_result_parity(expected, actual, "serial checkpointing")
        assert engine.stats.checkpoints_written >= 2
        assert engine.stats.checkpoints_resumed == 0
        assert "checkpoints" in engine.stats.render()
        assert store.usage()[CHECKPOINTS]["count"] == 0

    def test_sampled_results_live_under_their_own_key(self, tmp_path):
        profile = _profile()
        engine = ExecutionEngine(
            profile, store=ArtifactStore(str(tmp_path / "cache"))
        )
        sampling = SamplingSpec(interval=2, window=256, warmup=64)
        full = engine.simulate("gzip", IF_CONVERTED, SCHEME_SPECS[0])
        sampled = engine.simulate(
            "gzip", IF_CONVERTED, SCHEME_SPECS[0], sampling=sampling
        )
        assert sampled.sampling == sampling
        assert sampled.metrics.summary() != full.metrics.summary()
        assert engine.store.usage()[RESULTS]["count"] == 2

        # A fresh engine over the same store serves each request its own
        # artifact — the sampled approximation can never shadow the exact one.
        reload_engine = ExecutionEngine(profile, store=engine.store)
        assert (
            reload_engine.simulate(
                "gzip", IF_CONVERTED, SCHEME_SPECS[0]
            ).metrics.summary()
            == full.metrics.summary()
        )
        assert reload_engine.stats.simulations_run == 0

    def test_sampling_folds_into_the_job_key_only_when_set(self):
        engine = ExecutionEngine(_profile(), store=None)
        build = make_build_job("gzip", IF_CONVERTED, engine.factory)
        trace = make_trace_job(build, INSTRUCTIONS)
        bare = make_simulate_job(trace, SCHEME_SPECS[0])
        sampled = make_simulate_job(
            trace, SCHEME_SPECS[0], None, SamplingSpec(interval=2)
        )
        assert bare.key != sampled.key
        # Absent sampling leaves the historical key unchanged.
        assert bare.key == make_simulate_job(trace, SCHEME_SPECS[0], None, None).key
