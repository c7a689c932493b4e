"""Streaming-scale differential harness: chunked, windowed, resumed.

Three contracts of the streaming trace layer, each tested differentially
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

Hypothesis drives the equalities over random (scheme, machine, window,
chunking) tuples; the engine tests pin the checkpoint lifecycle.
"""

from __future__ import annotations

import logging
import os
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
from repro.engine.store import CHECKPOINTS
from repro.experiments.setup import ExperimentProfile
from repro.pipeline import batched, core
from repro.pipeline.batched import (
    CHECKPOINT_VERSION,
    LaneSpec,
    SimulationCheckpoint,
    load_checkpoint,
    simulate_lanes,
    simulate_windowed,
)
from repro.pipeline.core import OutOfOrderCore, _LoopState
from repro.pipeline.machine import MachineSpec

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

    @pytest.mark.parametrize(
        "scheme_idx",
        range(len(SCHEME_SPECS)),
        ids=["conventional", "predicate", "pep-pa", "wish", "predicate-aware", "tage"],
    )
    def test_one_window_is_the_full_run(self, pack, scalar_reference, scheme_idx):
        """Without ``window_rows`` the whole trace is one window: the full
        run, bit-identical, and no checkpoint is taken."""
        taken = []
        result = simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[scheme_idx].build(),
            "gzip",
            on_checkpoint=taken.append,
        )
        assert taken == []
        _assert_result_parity(scalar_reference(scheme_idx, 0), result, scheme_idx)

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


#: Hand-built layouts of older checkpoint versions: the fields each held
#: besides ``version``, ``rows_done`` and ``total_rows``, taken from a
#: current checkpoint.  Every other stale version kept today's field names.
_OLD_LAYOUTS = {
    # Version 4 held one lane's state under ``state``, with no stream
    # sources and no run-mode spec.
    4: lambda current: {"state": current.states[0]},
    # Version 8 held each lane's own memory hierarchy and load/store unit
    # in its state, and no memory walkers.
    8: lambda current: {
        "sampling": None,
        "states": current.states,
        "sources": current.sources,
    },
    # Version 9 also carried the interval-run spec (``None`` for a full run).
    9: lambda current: {
        "sampling": None,
        "states": current.states,
        "sources": current.sources,
        "walkers": current.walkers,
    },
}


class TestCheckpointVersion:
    """A checkpoint of another layout version is ignored, never mis-restored."""

    @pytest.fixture(autouse=True)
    def _propagate(self, monkeypatch):
        # configure_logging() stops the repro hierarchy at its own handler.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)

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
        assert checkpoint.version == CHECKPOINT_VERSION == 11
        if version not in _OLD_LAYOUTS:
            checkpoint.version = version
            return checkpoint
        stale = SimulationCheckpoint.__new__(SimulationCheckpoint)
        stale.__dict__.update(
            version=version,
            rows_done=checkpoint.rows_done,
            total_rows=checkpoint.total_rows,
            **_OLD_LAYOUTS[version](checkpoint),
        )
        return pickle.loads(pickle.dumps(stale))

    @pytest.mark.parametrize(
        "version, scheme_idx, window",
        [
            pytest.param(1, 1, 400, id="v1"),
            # Version 2 pickled the per-branch accuracy as one object per
            # branch; version 3 pickles its columns.
            pytest.param(2, 0, 300, id="v2"),
            # Version 3 pickled wish with its own copy of the branch
            # predictor and predicate PPRF entries without their prediction
            # plan.
            pytest.param(3, 3, 300, id="v3"),
            pytest.param(4, 3, 300, id="v4-layout"),
            # Version 5 pickled caches whose sets kept the most recently used
            # block last and TLBs holding their pages in a list.
            pytest.param(5, 2, 300, id="v5"),
            # Version 6 pickled perceptron weights as flat lists of small
            # ints, counters as int lists and no first-level prediction
            # histories.
            pytest.param(6, 1, 300, id="v6"),
            # Version 7 pickled the history registers' token deques, the
            # predictors' PC memos and the conventional scheme's two levels
            # inside one override predictor.
            pytest.param(7, 0, 300, id="v7"),
            pytest.param(8, 1, 300, id="v8-layout"),
            pytest.param(9, 4, 300, id="v9-layout"),
        ],
    )
    def test_stale_checkpoint_restarts_from_row_zero(
        self, pack, scalar_reference, caplog, version, scheme_idx, window
    ):
        stale = self._stale_checkpoint(pack, scheme_idx, window, version)
        assert stale.version == version
        assert stale.rows_done > 0 and not stale.matches(len(pack))
        resumed_at = []
        with caplog.at_level(logging.WARNING, logger="repro"):
            result = simulate_windowed(
                OutOfOrderCore(),
                pack,
                SCHEME_SPECS[scheme_idx].build(),
                "gzip",
                window_rows=window,
                checkpoint=stale,
                on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
            )
        assert resumed_at[0] == window  # the first window was simulated again
        assert "ignoring incompatible checkpoint" in caplog.text
        _assert_result_parity(
            scalar_reference(scheme_idx, 0), result, f"version-{version} checkpoint"
        )

    def test_a_current_checkpoint_holds_no_run_mode_spec(self, pack):
        # Version 10 dropped the interval-run spec: every run is a full run.
        checkpoint = self._stale_checkpoint(pack, 0, 400, CHECKPOINT_VERSION)
        assert set(vars(checkpoint)) == {
            "version",
            "rows_done",
            "total_rows",
            "states",
            "sources",
            "walkers",
        }
        assert checkpoint.matches(len(pack))

    def test_a_checkpoint_of_another_trace_length_is_ignored(
        self, pack, scalar_reference, caplog
    ):
        other = self._stale_checkpoint(pack, 1, 400, CHECKPOINT_VERSION)
        other.total_rows += 1
        assert not other.matches(len(pack))
        resumed_at = []
        with caplog.at_level(logging.WARNING, logger="repro"):
            result = simulate_windowed(
                OutOfOrderCore(),
                pack,
                SCHEME_SPECS[1].build(),
                "gzip",
                window_rows=400,
                checkpoint=other,
                on_checkpoint=lambda ckpt: resumed_at.append(ckpt.rows_done),
            )
        assert resumed_at[0] == 400
        assert "ignoring incompatible checkpoint" in caplog.text
        _assert_result_parity(scalar_reference(1, 0), result, "another trace length")

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


    def _version_10_checkpoint(self, pack, scheme_idx, window):
        """A version-10 checkpoint as that layout pickled it: unframed, each
        lane state with a ``last_commit`` slot and a dict register file."""
        checkpoints = []
        simulate_windowed(
            OutOfOrderCore(),
            pack,
            SCHEME_SPECS[scheme_idx].build(),
            "gzip",
            window_rows=window,
            on_checkpoint=lambda ckpt: checkpoints.append(pickle.loads(pickle.dumps(ckpt))),
        )
        current = checkpoints[len(checkpoints) // 2]

        class LoopStateV10:
            __slots__ = _LoopState.__slots__ + ("last_commit",)

        class CheckpointV10:
            pass

        LoopStateV10.__module__, LoopStateV10.__qualname__ = "repro.pipeline.core", "_LoopState"
        CheckpointV10.__module__ = "repro.pipeline.batched"
        CheckpointV10.__qualname__ = "SimulationCheckpoint"
        states = []
        for state in current.states:
            old = LoopStateV10()
            for name in _LoopState.__slots__:
                setattr(old, name, getattr(state, name))
            old.regs = {key: cycle for key, cycle in enumerate(state.regs) if cycle}
            old.last_commit = state.cm_cycle
            states.append(old)
        legacy = CheckpointV10()
        vars(legacy).update(
            version=10,
            rows_done=current.rows_done,
            total_rows=current.total_rows,
            states=states,
            sources=current.sources,
            walkers=current.walkers,
        )
        return legacy, LoopStateV10, CheckpointV10

    def test_engine_ignores_a_version_10_checkpoint_as_stale(
        self, pack, tmp_path, caplog, monkeypatch
    ):
        profile = _profile()
        expected = ExecutionEngine(profile, store=None).simulate(
            "gzip", IF_CONVERTED, SCHEME_SPECS[1]
        )
        store = ArtifactStore(str(tmp_path / "cache"))
        engine = ExecutionEngine(profile, store=store, checkpoint_every=400)
        build = make_build_job("gzip", IF_CONVERTED, engine.factory)
        job = make_simulate_job(make_trace_job(build, INSTRUCTIONS), SCHEME_SPECS[1])
        batch = make_batched_simulate_job([job])
        legacy, loop_state, checkpoint = self._version_10_checkpoint(pack, 1, 400)
        with monkeypatch.context() as patch:
            # Pickle it under the names the version-10 code used.
            patch.setattr(core, "_LoopState", loop_state)
            patch.setattr(batched, "SimulationCheckpoint", checkpoint)
            blob = pickle.dumps(legacy)
            store.put(CHECKPOINTS, batch.key, legacy)
        # Unpickled outright, its lane states cannot be restored: this is
        # what the store used to quarantine as damage.
        with pytest.raises(AttributeError, match="last_commit"):
            pickle.loads(blob)

        written = []
        put = store.put

        def recording_put(kind, key, obj):
            if kind == CHECKPOINTS:
                written.append(obj.rows_done)
            return put(kind, key, obj)

        monkeypatch.setattr(store, "put", recording_put)
        with caplog.at_level(logging.WARNING, logger="repro"):
            actual = engine.simulate("gzip", IF_CONVERTED, SCHEME_SPECS[1])
        assert "ignoring incompatible checkpoint (version 10" in caplog.text
        assert engine.stats.checkpoints_resumed == 0
        assert written[0] == 400  # restarted at row 0
        _assert_result_parity(expected, actual, "engine with a version-10 checkpoint")
        assert store.quarantine_entries() == []
        assert not os.path.exists(store.quarantine_dir()) or not os.listdir(
            store.quarantine_dir()
        )

    def test_a_stale_checkpoint_loads_without_its_lanes(self, pack):
        stale = self._stale_checkpoint(pack, 1, 400, CHECKPOINT_VERSION)
        stale.version = CHECKPOINT_VERSION - 1
        loaded = load_checkpoint(pickle.dumps(stale))
        assert (loaded.version, loaded.rows_done, loaded.total_rows) == (
            stale.version,
            stale.rows_done,
            stale.total_rows,
        )
        assert loaded.states == loaded.sources == loaded.walkers == []
        current = self._stale_checkpoint(pack, 1, 400, CHECKPOINT_VERSION)
        current = load_checkpoint(pickle.dumps(current))
        assert current.matches(len(pack))
        assert all(isinstance(state, _LoopState) for state in current.states)


class TestWindowedInputs:
    """The windowed driver rejects what it cannot window, never silently
    running straight through without the requested checkpoints."""

    def test_object_trace_rejected(self, pack):
        with pytest.raises(TypeError, match="TracePack"):
            simulate_windowed(
                OutOfOrderCore(),
                pack.to_dyninsts(),
                SCHEME_SPECS[0].build(),
                "gzip",
                window_rows=256,
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
        assert checkpoint.matches(len(pack), 2)
        assert not checkpoint.matches(len(pack), 1)
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
