"""The lane-batched kernel: bit-exact parity, engine transparency, timing.

The batched path's contract is *bit-identical results*: a lane of a batched
launch must reproduce the scalar engine's IPC, misprediction counters,
functional-unit utilisation and per-branch records exactly, for any mix of
schemes, machine overrides and lane counts.  The hypothesis suite below
drives that over random lane sets; the engine tests pin the caching
contract (batches are an execution grouping, not a cache identity) and the
equal-share wall-clock attribution.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ConventionalScheme
from repro.emulator.tracepack import ChunkedTracePack, PackCursor, TracePack
from repro.engine import ArtifactStore, ExecutionEngine, IF_CONVERTED, SchemeSpec
from repro.engine.planner import (
    CellRequest,
    ExperimentDefinition,
    make_batched_simulate_job,
    make_build_job,
    make_simulate_job,
    make_trace_job,
)
from repro.experiments.setup import ExperimentProfile
from repro.pipeline import batched
from repro.pipeline.batched import (
    LaneSpec,
    _drive_scheme_stream,
    simulate_lanes,
    simulate_windowed,
    stream_eligible,
    stream_source,
)
from repro.pipeline.core import MemoryWalker, OutOfOrderCore, _Rows
from repro.pipeline.machine import MachineSpec

INSTRUCTIONS = 2_000

#: The lane alphabet the random batches draw from: every scheme kind
#: (stream-eligible and hook-driven) crossed with machine overrides.
SCHEME_SPECS = (
    SchemeSpec.make("conventional"),
    SchemeSpec.make("predicate"),
    SchemeSpec.make("pep-pa"),
    SchemeSpec.make("conventional", perfect_history=True),
    SchemeSpec.make("wish"),
    SchemeSpec.make("predicate-aware"),
    SchemeSpec.make("conventional", second_level="tage"),
    SchemeSpec.make("predicate", second_level="tage"),
    SchemeSpec.make("wish", second_level="tage"),
)
#: The default machine has 256 ROB entries, so the eight together are a
#: ROB sweep.
MACHINES = (MachineSpec.make(),) + tuple(
    MachineSpec.make(rob_entries=size) for size in (32, 64, 128, 48, 96, 160, 192)
)


def _profile() -> ExperimentProfile:
    return ExperimentProfile(
        name="batch-parity",
        instructions_per_benchmark=INSTRUCTIONS,
        benchmarks=["gzip"],
        profile_budget=INSTRUCTIONS,
    )


@pytest.fixture(scope="module")
def pack() -> TracePack:
    engine = ExecutionEngine(_profile(), store=None)
    trace = engine.collect_trace("gzip", IF_CONVERTED)
    assert isinstance(trace, TracePack)
    return trace


@pytest.fixture(scope="module")
def scalar_reference(pack):
    """Memoised scalar results per (scheme, machine) lane combination."""
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


class TestBatchedScalarParity:
    @given(
        lane_picks=st.lists(
            st.tuples(
                st.integers(0, len(SCHEME_SPECS) - 1),
                st.integers(0, len(MACHINES) - 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    # The sweep shapes: an 8-point conventional ROB sweep, and conventional
    # (stream) beside predicate (hook) lanes at ROB 32, 64, 128 and 256.
    @example(lane_picks=[(0, m) for m in range(8)])
    @example(lane_picks=[(s, m) for s in (0, 1) for m in (1, 2, 3, 0)])
    # Shared branch streams: wish replays the conventional lane's stream of
    # its second level, and a wish-only ROB sweep shares one prepass over
    # its own branch half across machines.
    @example(lane_picks=[(0, 0), (4, 0)])
    @example(lane_picks=[(6, 1), (8, 1)])
    @example(lane_picks=[(4, m) for m in (0, 1, 2, 3)])
    # Conventional beside conventional with perfect history: two streams
    # of one predictor geometry, each replayed by its own hooks.
    @example(lane_picks=[(0, 0), (3, 1), (3, 0), (0, 2)])
    @settings(max_examples=12, deadline=None)
    def test_random_lane_sets_are_bit_identical(
        self, pack, scalar_reference, lane_picks
    ):
        lanes = [
            LaneSpec(
                scheme_factory=SCHEME_SPECS[s].build,
                config=MACHINES[m].build_config(),
            )
            for s, m in lane_picks
        ]
        results = simulate_lanes(pack, lanes, program_name="gzip")
        assert len(results) == len(lane_picks)
        for (s, m), result in zip(lane_picks, results):
            _assert_result_parity(
                scalar_reference(s, m),
                result,
                (SCHEME_SPECS[s].describe(), MACHINES[m].describe()),
            )

    def test_stream_eligibility_split(self):
        assert stream_eligible(SCHEME_SPECS[0].build())
        assert not stream_eligible(SCHEME_SPECS[1].build())  # predicate hooks
        assert not stream_eligible(SCHEME_SPECS[2].build())  # pep-pa hooks
        # wish reads rename-vs-guard-ready cycles: timing-dependent hook lane.
        assert not stream_eligible(SCHEME_SPECS[4].build())
        # predicate-aware is timing-independent but folds compare results
        # through an overridden compare hook: hook lane, not stream lane.
        assert not stream_eligible(SCHEME_SPECS[5].build())
        # A TAGE second level changes only the backend, not the hook shape:
        # the conventional scheme stays a stream lane, and predicate and wish
        # stay hook lanes.
        assert stream_eligible(SCHEME_SPECS[6].build())
        assert not stream_eligible(SCHEME_SPECS[7].build())
        assert not stream_eligible(SCHEME_SPECS[8].build())

    def test_which_lanes_replay_a_branch_stream(self):
        """Stream lanes replay their own stream, wish lanes their branch
        half's, and every other hook lane none."""
        for index in (0, 3, 6):  # conventional, perfect history, TAGE
            scheme = SCHEME_SPECS[index].build()
            assert stream_source(scheme) is scheme
        for index in (1, 2, 5, 7):  # predicate, pep-pa, predicate-aware
            assert stream_source(SCHEME_SPECS[index].build()) is None
        for wish, conventional in ((4, 0), (8, 6)):
            scheme = SCHEME_SPECS[wish].build()
            source = stream_source(scheme)
            assert source is scheme.branches
            # Same stream key as the conventional lane of its second level.
            assert source.stream_key() == SCHEME_SPECS[conventional].build().stream_key()
        # A subclass may override hooks: it replays a private stream.
        assert stream_source(_Subclass()).stream_key() is None

    @pytest.mark.parametrize(
        "picks, prepasses",
        [
            ([(0, 0), (4, 0), (4, 1)], 1),  # wish replays conventional's
            ([(4, m) for m in (0, 1, 2, 3)], 1),  # one prepass per sweep
            ([(0, 0), (4, 0), (6, 0), (8, 0)], 2),  # one per second level
            ([(0, 0), (3, 1)], 2),  # one per stream key, same geometry
        ],
    )
    def test_wish_lanes_share_one_prepass(self, pack, monkeypatch, picks, prepasses):
        calls = []
        drive = batched._drive_scheme_stream

        def counting(scheme, rows):
            calls.append(scheme)
            return drive(scheme, rows)

        monkeypatch.setattr(batched, "_drive_scheme_stream", counting)
        lanes = [
            LaneSpec(SCHEME_SPECS[s].build, MACHINES[m].build_config()) for s, m in picks
        ]
        simulate_lanes(pack, lanes)
        assert len(calls) == prepasses


def _chunk(pack, rows):
    """``pack`` re-encoded as RTP3 segments of ``rows`` rows each."""
    dyninsts = pack.to_dyninsts()
    segments = [
        TracePack.from_dyninsts(dyninsts[start : start + rows])
        for start in range(0, len(dyninsts), rows)
    ]
    return ChunkedTracePack.from_bytes(ChunkedTracePack.from_segments(segments).to_bytes())


def _recording_factories(picks):
    """Lane specs whose factories remember the schemes they build."""
    built = []

    def factory(spec):
        def build():
            built.append(spec.build())
            return built[-1]

        return build

    lanes = [LaneSpec(factory(SCHEME_SPECS[s]), MACHINES[m].build_config()) for s, m in picks]
    return lanes, built


class TestWindowedLanes:
    """Windowed batches: checkpoints hold every lane and resume exactly."""

    @given(
        lane_picks=st.lists(
            st.tuples(
                st.integers(0, len(SCHEME_SPECS) - 1),
                st.integers(0, len(MACHINES) - 1),
            ),
            min_size=2,
            max_size=5,
        ),
        window=st.integers(128, 900),
        chunk_rows=st.integers(100, 1_100),
        resume_at=st.floats(0.0, 0.999),
    )
    # The long-trace shape: wish replays the conventional lane's stream.
    @example(lane_picks=[(0, 0), (1, 0), (4, 0)], window=500, chunk_rows=700, resume_at=0.5)
    @example(lane_picks=[(4, 0), (0, 1), (8, 2)], window=300, chunk_rows=400, resume_at=0.0)
    @settings(max_examples=8, deadline=None)
    def test_resume_from_any_checkpoint_is_bit_identical(
        self, pack, scalar_reference, lane_picks, window, chunk_rows, resume_at
    ):
        trace = _chunk(pack, chunk_rows)
        lanes = [
            LaneSpec(SCHEME_SPECS[s].build, MACHINES[m].build_config()) for s, m in lane_picks
        ]
        blobs = []
        first = simulate_lanes(
            trace,
            lanes,
            "gzip",
            window_rows=window,
            # Pickle at once, as a store write would.
            on_checkpoint=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
        )
        assert len(blobs) == (len(pack) - 1) // window
        checkpoint = pickle.loads(blobs[int(resume_at * len(blobs))])
        assert checkpoint.matches(len(pack), len(lanes))
        resumed = simulate_lanes(
            trace, lanes, "gzip", window_rows=window, checkpoint=checkpoint
        )
        for (s, m), straight, after in zip(lane_picks, first, resumed):
            context = (SCHEME_SPECS[s].describe(), MACHINES[m].describe(), checkpoint.rows_done)
            _assert_result_parity(scalar_reference(s, m), straight, context)
            _assert_result_parity(scalar_reference(s, m), after, context)

    def test_a_lane_replaying_another_keeps_no_branch_half(self, pack, monkeypatch):
        """Wish next to conventional drops its own branch predictor, in the
        live batch, in every checkpoint of it and after a resume."""
        lanes, built = _recording_factories([(4, 0), (0, 1), (4, 2)])
        blobs = []
        simulate_lanes(
            pack, lanes, window_rows=700, on_checkpoint=lambda c: blobs.append(pickle.dumps(c))
        )
        wish, conventional, other_wish = built
        # The source is the lane that is its own branch scheme.
        assert wish.branches is conventional
        assert other_wish.branches is conventional
        assert wish.accuracy is not conventional.accuracy
        checkpoint = pickle.loads(blobs[0])
        states, sources = checkpoint.states, checkpoint.sources
        assert sources == [states[1].scheme] * 3
        assert states[0].scheme.branches is states[1].scheme is states[2].scheme.branches

        # The restored batch still computes one stream per span.
        calls = []
        drive = batched._drive_scheme_stream

        def counting(scheme, rows):
            calls.append(scheme)
            return drive(scheme, rows)

        monkeypatch.setattr(batched, "_drive_scheme_stream", counting)
        simulate_lanes(pack, lanes, window_rows=700, checkpoint=checkpoint)
        assert calls == [states[1].scheme] * len(range(700, len(pack), 700))

    def test_one_checkpoint_per_window_boundary(self, pack):
        lanes, _ = _recording_factories([(0, 0), (1, 0), (4, 0)])
        rows_done = []
        simulate_lanes(
            _chunk(pack, 600),
            lanes,
            window_rows=450,
            on_checkpoint=lambda ckpt: rows_done.append((ckpt.rows_done, len(ckpt.states))),
        )
        assert rows_done == [(450 * k, 3) for k in range(1, (len(pack) - 1) // 450 + 1)]


class _Subclass(ConventionalScheme):
    """A conventional subclass that changes nothing."""


class _FetchRecorder(ConventionalScheme):
    """The conventional scheme plus an ``on_fetch`` that only observes."""

    def __init__(self) -> None:
        super().__init__()
        self.fetches = []

    def on_fetch(self, dyn, fetch_cycle):
        self.fetches.append((dyn.seq, fetch_cycle))


#: Every hook a scheme or the prepass hands a row cursor to.
_CURSOR_HOOKS = (
    "on_fetch",
    "on_compare_rename",
    "on_compare_complete",
    "on_branch_rename",
    "on_branch_resolved",
    "on_predicated_rename",
)


def _fields(cursor):
    """A cursor's fields, its instruction by ``uid`` (a re-decoded segment
    holds equal instructions in new objects)."""
    return tuple(
        cursor.inst.uid if name == "inst" else getattr(cursor, name)
        for name in PackCursor.__slots__
    )


class TestSharedCursors:
    """One cursor per row, shared by every lane's hooks and the prepass."""

    def _recorded_lanes(self, specs, machines, calls):
        """Lane specs whose schemes (and branch halves) log each hook call
        as ``(lane, hook, cursor, fields at the call)``."""

        def record(scheme, lane):
            for name in _CURSOR_HOOKS:
                method = getattr(scheme, name)

                def hook(dyn, *args, _method=method, _name=name):
                    calls.append((lane, _name, dyn, _fields(dyn)))
                    return _method(dyn, *args)

                setattr(scheme, name, hook)

        def factory(spec, lane):
            def build():
                scheme = spec.build()
                record(scheme, lane)
                if scheme.branch_scheme() is not scheme:
                    record(scheme.branch_scheme(), lane)
                return scheme

            return build

        return [
            LaneSpec(factory(spec, lane), machine.build_config())
            for lane, (spec, machine) in enumerate(zip(specs, machines))
        ]

    def _check(self, pack, calls, lanes):
        expected = {cursor.seq: _fields(cursor) for cursor in pack.cursor()}
        by_row = {}
        for lane, name, cursor, fields in calls:
            seq = fields[0]  # the row at the call
            assert fields == expected[seq], (lane, name)
            by_row.setdefault(seq, set()).add(id(cursor))
        assert by_row, "no hook read a cursor"
        # One object per row, whichever lane or prepass read it.
        assert all(len(ids) == 1 for ids in by_row.values())
        assert len({lane for lane, *_ in calls}) == lanes
        if lanes == 1:
            # A lone lane refills one reused cursor; its fields were
            # checked at each call.
            assert len({id(cursor) for _, _, cursor, _ in calls}) == 1
            return
        # One cursor per row, and no hook changed one: each still equals a
        # fresh fill.
        assert len({id(cursor) for _, _, cursor, _ in calls}) == len(by_row)
        for _, _, cursor, _ in calls:
            assert _fields(cursor) == expected[cursor.seq]

    @pytest.mark.parametrize("spec_idx", range(len(SCHEME_SPECS)))
    def test_one_lane(self, pack, spec_idx):
        calls = []
        lanes = self._recorded_lanes([SCHEME_SPECS[spec_idx]], MACHINES[:1], calls)
        result = simulate_lanes(pack, lanes)[0]
        self._check(pack, calls, 1)
        # Against the reference loop, which reads no cursor: a hook handed
        # another row's fields shows here.
        reference = OutOfOrderCore(optimized=False).run(
            pack, SCHEME_SPECS[spec_idx].build(), program_name="gzip"
        )
        _assert_result_parity(reference, result, "recorded lane")

    def test_eight_lanes_of_every_scheme(self, pack, scalar_reference):
        # The eight shootout configurations, one machine each.
        picks = [0, 6, 1, 7, 4, 8, 2, 5]
        calls = []
        lanes = self._recorded_lanes(
            [SCHEME_SPECS[s] for s in picks], MACHINES, calls
        )
        results = simulate_lanes(pack, lanes)
        self._check(pack, calls, 8)
        for lane, (s, result) in enumerate(zip(picks, results)):
            _assert_result_parity(scalar_reference(s, lane), result, f"lane {lane}")

    def test_every_spec_windowed_over_segments(self, pack, scalar_reference):
        calls = []
        machines = [MACHINES[i % len(MACHINES)] for i in range(len(SCHEME_SPECS))]
        lanes = self._recorded_lanes(SCHEME_SPECS, machines, calls)
        results = simulate_lanes(_chunk(pack, 700), lanes, window_rows=300)
        self._check(pack, calls, len(SCHEME_SPECS))
        for lane, result in enumerate(results):
            _assert_result_parity(
                scalar_reference(lane, lane % len(MACHINES)), result, f"lane {lane}"
            )


class TestHookDispatch:
    """The timing loop calls exactly the hooks a scheme overrides."""

    @pytest.fixture(scope="class")
    def reference(self, pack):
        scheme = _FetchRecorder()
        result = OutOfOrderCore(optimized=False).run(pack, scheme, keep_uops=True)
        return result, scheme.fetches

    def _check(self, pack, reference, scheme, result):
        expected, fetches = reference
        # Once per row, in program order, with the reference fetch cycles.
        assert [seq for seq, _ in scheme.fetches] == pack.seq.tolist()
        assert scheme.fetches == fetches
        assert fetches == [(uop.dyn.seq, uop.fetch_cycle) for uop in expected.uops]
        _assert_result_parity(expected, result, "on_fetch")

    def test_on_fetch_is_called_once_per_row_in_program_order(self, pack, reference):
        assert not stream_eligible(_FetchRecorder())
        scheme = _FetchRecorder()
        self._check(pack, reference, scheme, OutOfOrderCore().run(pack, scheme))

    def test_on_fetch_in_a_batch_and_in_windows(self, pack, reference):
        config = MACHINES[0].build_config()
        schemes = []

        def factory():
            schemes.append(_FetchRecorder())
            return schemes[-1]

        lanes = [
            LaneSpec(SCHEME_SPECS[0].build, config),
            LaneSpec(factory, config),
        ]
        batched = simulate_lanes(pack, lanes)[1]
        self._check(pack, reference, schemes[0], batched)

        scheme = _FetchRecorder()
        windowed = simulate_windowed(OutOfOrderCore(), pack, scheme, window_rows=300)
        self._check(pack, reference, scheme, windowed)

    def test_a_wish_lane_carrying_the_conventional_stream(self, pack, scalar_reference):
        # Outside simulate_lanes: the loop reads the stream on branch rows
        # and still calls every other hook of the lane's own scheme.
        rows = _Rows(pack, 0, len(pack), {})
        source = SCHEME_SPECS[0].build()
        stream = _drive_scheme_stream(source, rows)
        core = OutOfOrderCore(config=MACHINES[0].build_config())
        wish = SCHEME_SPECS[4].build()
        wish.accuracy = source.accuracy.copy()
        state = core._loop_state(wish)
        walker = MemoryWalker(core.memory)
        core._run_rows(state, rows, stream, walker.walk(rows))
        result = core._finalize(state, "gzip", walker)
        _assert_result_parity(scalar_reference(4, 0), result, "wish + stream")
        assert wish.counters.get("wish_guard_predictions") > 0


def _rob_sweep_definition(points=(32, 64, 128, 256)):
    spec = SchemeSpec.make("conventional")
    requests = [
        CellRequest(
            "gzip",
            IF_CONVERTED,
            f"rob{size}",
            spec,
            MachineSpec.make(rob_entries=size),
        )
        for size in points
    ]
    return ExperimentDefinition(name="rob-sweep", requests=requests)


class TestEngineBatching:
    def test_sweep_rerun_batches_zero_cached_cells(self, tmp_path):
        store_root = str(tmp_path / "store")
        definition = _rob_sweep_definition()
        first = ExecutionEngine(_profile(), store=ArtifactStore(store_root))
        outputs = first.run([definition])
        assert first.stats.batches_run == 1
        assert first.stats.batched_lanes == 4
        assert first.stats.simulations_run == 4

        second = ExecutionEngine(_profile(), store=ArtifactStore(store_root))
        rerun = second.run([definition])
        # The cache proof, batch-transparent: nothing re-simulated, nothing
        # batched, every result served under its per-cell key.
        assert second.stats.simulations_run == 0
        assert second.stats.batches_run == 0
        assert second.stats.batched_lanes == 0
        assert second.stats.results_loaded == 4
        for slot, result in outputs[definition.name].items():
            assert (
                rerun[definition.name][slot].metrics.summary()
                == result.metrics.summary()
            )

    def test_partially_cached_sweep_batches_only_the_misses(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        definition = _rob_sweep_definition()
        warm = ExecutionEngine(_profile(), store=store)
        first_request = definition.requests[0]
        warm.simulate(
            first_request.benchmark,
            first_request.flavour,
            first_request.scheme,
            first_request.machine,
        )
        engine = ExecutionEngine(_profile(), store=store)
        engine.run([definition])
        # The cached lane dropped out before launch; the other three batched.
        assert engine.stats.results_loaded == 1
        assert engine.stats.batched_lanes == 3
        assert engine.stats.simulations_run == 3

    def test_batch_results_identical_to_unbatched_engine_run(self, tmp_path):
        definition = _rob_sweep_definition()
        batched = ExecutionEngine(_profile(), store=None)
        batched_out = batched.run([definition])
        assert batched.stats.batches_run == 1
        scalar = ExecutionEngine(_profile(), store=None)
        for request in definition.requests:
            expected = scalar.simulate(
                request.benchmark, request.flavour, request.scheme, request.machine
            )
            actual = batched_out[definition.name][(request.benchmark, request.label)]
            _assert_result_parity(expected, actual, request.label)

    def test_per_cell_keys_do_not_depend_on_batching(self):
        # The batch job derives its own bookkeeping key from the lane keys,
        # but each lane's artifact key is exactly the per-cell simulate key.
        profile = _profile()
        engine = ExecutionEngine(profile, store=None)
        build = make_build_job("gzip", IF_CONVERTED, engine.factory)
        trace = make_trace_job(build, profile.instructions_per_benchmark)
        jobs = [
            make_simulate_job(trace, SchemeSpec.make("conventional"), machine)
            for machine in MACHINES[:3]
        ]
        batch = make_batched_simulate_job(jobs)
        assert [lane.key for lane in batch.lanes] == [job.key for job in jobs]
        assert batch.key not in {job.key for job in jobs}

    def test_mixed_cell_batches_refused(self):
        profile = _profile()
        engine = ExecutionEngine(profile, store=None)
        spec = SchemeSpec.make("conventional")
        gzip_build = make_build_job("gzip", IF_CONVERTED, engine.factory)
        twolf_build = make_build_job("twolf", IF_CONVERTED, engine.factory)
        jobs = [
            make_simulate_job(make_trace_job(gzip_build, INSTRUCTIONS), spec),
            make_simulate_job(make_trace_job(twolf_build, INSTRUCTIONS), spec),
        ]
        with pytest.raises(ValueError, match="share one"):
            make_batched_simulate_job(jobs)


class TestTimingAttribution:
    def test_batched_jobs_get_equal_share_of_the_batch_wall_clock(self):
        engine = ExecutionEngine(_profile(), store=None)
        engine.run([_rob_sweep_definition()])
        timings = [t for t in engine.job_timings if not t.cached]
        assert len(timings) == 4
        assert all(timing.lanes == 4 for timing in timings)
        shares = {timing.seconds for timing in timings}
        assert len(shares) == 1  # an equal split, by construction
        total = sum(timing.seconds for timing in timings)
        assert total == pytest.approx(engine.stats.simulate_seconds)
        assert all(timing.instructions_per_second() > 0 for timing in timings)

    def test_unbatched_jobs_report_one_lane(self):
        engine = ExecutionEngine(_profile(), store=None)
        engine.simulate("gzip", IF_CONVERTED, SchemeSpec.make("conventional"))
        assert [timing.lanes for timing in engine.job_timings] == [1]
