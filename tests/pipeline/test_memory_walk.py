"""The shared memory walk: one pass over the hierarchy per span, every lane
replaying it.

The fast timing loop reads each row's cache and TLB outcome from a
:class:`~repro.pipeline.core.MemoryWalker`'s walk and replays only MSHR
stalls, outstanding fills and the write buffer per lane.  That is exact
only while every lane makes the same accesses in the same order, so these
tests pin:

* the claim itself: the reference loop's hierarchy calls, for every
  registered scheme, are the walker's calls plus that lane's re-fetches of
  the block it has just fetched;
* MSHR pressure: a tiny hierarchy whose MSHRs fill, through both loops, a
  mixed batch and a resume from a checkpoint taken with fills outstanding;
* stores, which no built-in workload emits: forwarding inside and outside
  the store-forward window, and the rule that a forwarded load still
  probes the cache tags;
* the guard that a cancelled row never executes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import ConventionalScheme, PredicatePredictionScheme
from repro.emulator import Emulator
from repro.emulator.tracepack import TracePack
from repro.engine import IF_CONVERTED, ExecutionEngine, SchemeSpec
from repro.experiments.setup import ExperimentProfile, scheme_kinds
from repro.isa import GR, PR, CompareRelation
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import MemoryHierarchy, MemoryHierarchyConfig
from repro.memory.tlb import TLBConfig
from repro.pipeline.batched import LaneSpec, run_lanes, simulate_lanes
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import MemoryWalker, OutOfOrderCore
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.lsq import LoadStoreUnit
from repro.pipeline.scheme_api import PredicatedHandling
from repro.pipeline.uop import RenameDecision
from repro.program import ProgramBuilder, validate_program

from tests.conftest import build_tiny_memory_config as tiny_config

INSTRUCTIONS = 2_000
BENCHMARKS = ("gap", "gzip")

SPECS = [SchemeSpec.make(kind) for kind in scheme_kinds()] + [
    SchemeSpec.make(kind, second_level="tage")
    for kind in ("conventional", "predicate", "wish")
]
CACHES = ("l1i", "l1d", "l2")


class _AssumesEveryGuardTrue(ConventionalScheme):
    """Assumes every guard true at rename and is flushed, re-fetching the
    row, whenever one is false: re-fetches that the built-in schemes make
    only rarely."""

    def on_predicated_rename(self, dyn, fetch_cycle, rename_cycle, guard_ready_cycle):
        if dyn.qp_value:
            return PredicatedHandling(RenameDecision.ASSUME_TRUE)
        discovery = max(guard_ready_cycle, rename_cycle + 1)
        return PredicatedHandling(RenameDecision.ASSUME_TRUE, flush_discovery_cycle=discovery)


#: Every registered scheme, then the re-fetching one.
FACTORIES = [spec.build for spec in SPECS] + [_AssumesEveryGuardTrue]
LABELS = [spec.describe() for spec in SPECS] + ["assumes-every-guard-true"]


@pytest.fixture(scope="module")
def packs():
    profile = ExperimentProfile(
        name="memory-walk",
        instructions_per_benchmark=INSTRUCTIONS,
        benchmarks=list(BENCHMARKS),
        profile_budget=INSTRUCTIONS,
    )
    engine = ExecutionEngine(profile, store=None)
    return {b: engine.collect_trace(b, IF_CONVERTED) for b in BENCHMARKS}


@pytest.fixture
def finalized(monkeypatch):
    """Every (lane state, walker) the fast loop finalizes, in order."""
    seen = []
    finalize = OutOfOrderCore._finalize

    def recording(self, state, program_name, walker):
        seen.append((state, walker))
        return finalize(self, state, program_name, walker)

    monkeypatch.setattr(OutOfOrderCore, "_finalize", recording)
    return seen


def _assert_same_result(expected, actual, context):
    assert actual.metrics.summary() == expected.metrics.summary(), context
    assert actual.metrics.counters.as_dict() == expected.metrics.counters.as_dict(), context
    assert actual.metrics.memory_stats == expected.metrics.memory_stats, context
    assert actual.metrics.fu_utilisation == expected.metrics.fu_utilisation, context
    assert actual.metrics.cycles == expected.metrics.cycles, context
    assert actual.accuracy.records == expected.accuracy.records, context


def _record(memory: MemoryHierarchy, methods, calls, tag=None) -> None:
    """Wrap ``memory``'s access ``methods`` so each call appends
    ``(kind, address)`` to ``calls``; ``tag()`` may rename a call."""
    for kind, name in methods:
        method = getattr(memory, name)

        def recorded(address, *args, kind=kind, method=method):
            calls.append((tag(kind) if tag else kind, address))
            return method(address, *args)

        setattr(memory, name, recorded)


def _reference_run(pack, factory, monkeypatch, memory_config=None):
    """The reference loop's result and hierarchy calls, with each re-fetch
    of a flushed row tagged ``refetch``."""
    core = OutOfOrderCore(memory=MemoryHierarchy(memory_config), optimized=False)
    refetching = []
    refetch = FetchEngine.refetch_current

    def tagged_refetch(self, dyn, resume_cycle):
        refetching.append(True)
        return refetch(self, dyn, resume_cycle)

    def tag(kind):
        if kind == "fetch" and refetching:
            refetching.pop()
            return "refetch"
        return kind

    monkeypatch.setattr(FetchEngine, "refetch_current", tagged_refetch)
    calls = []
    _record(
        core.memory,
        [
            ("fetch", "fetch_latency"),
            ("load", "load_latency"),
            ("store", "store_latency"),
            ("load", "walk_load"),  # a forwarded load's tag probe
        ],
        calls,
        tag,
    )
    result = core.run(pack, factory(), "walk")
    monkeypatch.setattr(FetchEngine, "refetch_current", refetch)
    return result, calls, core.memory


class TestEveryLaneMakesTheWalkersAccesses:
    @pytest.mark.parametrize("workload", BENCHMARKS)
    def test_reference_calls_are_the_walk_plus_refetches(self, packs, workload, monkeypatch):
        pack = packs[workload]
        cores = [OutOfOrderCore() for _ in FACTORIES]
        walked = []
        _record(
            cores[0].memory,
            [("fetch", "walk_fetch"), ("load", "walk_load"), ("store", "walk_store")],
            walked,
        )
        lanes = run_lanes(pack, cores, lambda: [build() for build in FACTORIES], "walk")
        walked_fetches = sum(kind == "fetch" for kind, _ in walked)
        assert walked_fetches and any(kind == "load" for kind, _ in walked)

        refetched = {}
        for label, factory, lane in zip(LABELS, FACTORIES, lanes):
            expected, calls, _ = _reference_run(pack, factory, monkeypatch)
            _assert_same_result(expected, lane, label)
            assert [call for call in calls if call[0] != "refetch"] == walked, label
            refetches = sum(kind == "refetch" for kind, _ in calls)
            assert lane.metrics.memory_stats["l1i_accesses"] == walked_fetches + refetches
            assert refetches == lane.metrics.predicate_flushes, label
            refetched[label] = refetches
        assert refetched["assumes-every-guard-true"] > 0
        assert refetched["conventional"] == 0


def _tiny_cores(count):
    return [OutOfOrderCore(memory=MemoryHierarchy(tiny_config())) for _ in range(count)]


class TestMshrPressure:
    """A tiny hierarchy: misses fill every MSHR file the loops model."""

    @pytest.mark.parametrize("workload", BENCHMARKS)
    def test_every_scheme_matches_the_reference_loop(
        self, packs, workload, monkeypatch, finalized
    ):
        pack = packs[workload]
        fetch_walks = []
        cores = _tiny_cores(len(FACTORIES))
        walk_fetch = cores[0].memory.walk_fetch
        cores[0].memory.walk_fetch = lambda address: fetch_walks.append(
            walk_fetch(address)
        ) or fetch_walks[-1]
        mixed = run_lanes(pack, cores, lambda: [build() for build in FACTORIES], "walk")
        mixed_states = finalized[:]
        stalls = {name: 0 for name in CACHES}
        for index, (label, factory) in enumerate(zip(LABELS, FACTORIES)):
            expected, _, reference = _reference_run(pack, factory, monkeypatch, tiny_config())
            del finalized[:]
            alone = _tiny_cores(1)[0].run(pack, factory(), "walk")
            (state, _), = finalized
            for result, lane in ((alone, state), (mixed[index], mixed_states[index][0])):
                _assert_same_result(expected, result, label)
                for name in CACHES:
                    reference_stalls = getattr(reference, name).stats.mshr_stalls
                    assert lane.mem_lane.mshr_stalls[name] == reference_stalls, name
            for name in CACHES:
                stalls[name] += state.mem_lane.mshr_stalls[name]
        walker = mixed_states[0][1].memory
        assert stalls["l1d"] > 0 and stalls["l2"] > 0, stalls
        assert all(getattr(walker, name).stats.evictions > 0 for name in CACHES)
        # Instruction fetches that missed the L2 as well as the L1I.
        assert any(
            not isinstance(walk, int) and walk[2] is not None for walk in fetch_walks
        )

    def test_resume_with_fills_outstanding(self, packs):
        pack = packs["gzip"]
        factories = [SPECS[0].build, SchemeSpec.make("predicate").build, _AssumesEveryGuardTrue]

        def build():
            return [factory() for factory in factories]

        blobs = []
        straight = run_lanes(
            pack, _tiny_cores(3), build, "walk", window_rows=250,
            on_checkpoint=lambda ckpt: blobs.append(pickle.dumps(ckpt)),
        )

        def in_flight(checkpoint):
            return [
                cycle
                for state in checkpoint.states
                for mshrs in (state.mem_lane.l1d, state.mem_lane.l2)
                for cycle in mshrs.outstanding.values()
                if cycle > state.rn_cycle
            ]

        checkpoints = [pickle.loads(blob) for blob in blobs]
        pending = [c for c in checkpoints if in_flight(c)]
        assert pending, "no checkpoint was taken with a fill outstanding"
        checkpoint = pending[len(pending) // 2]
        walkers = checkpoint.walkers
        assert walkers[0] is walkers[1] is walkers[2]  # one walk, still shared
        resumed = run_lanes(
            pack, _tiny_cores(3), build, "walk", window_rows=250, checkpoint=checkpoint
        )
        for index, before, after in zip(range(3), straight, resumed):
            _assert_same_result(before, after, (index, checkpoint.rows_done))


def _store_program(stores=16, delay=400):
    """Store then load each word of ``buf`` (forwarded), spin for ``delay``
    iterations, then load every word again (outside the forward window);
    odd iterations also store to ``odd`` under a predicate."""
    pb = ProgramBuilder("stores")
    buf = pb.array("buf", [0] * stores)
    odd = pb.array("odd", [0] * stores)
    rb = pb.routine("main")
    rb.block("entry")
    rb.movi(GR(1), buf)
    rb.movi(GR(5), odd)
    rb.movi(GR(2), 0)
    rb.movi(GR(3), stores)
    rb.block("fill")
    rb.store(GR(2), GR(1))
    rb.load(GR(4), GR(1))
    rb.andi(GR(6), GR(2), 1)
    rb.cmp(CompareRelation.GT, PR(6), PR(7), GR(6), 0)
    rb.store(GR(2), GR(5), qp=PR(6))
    rb.addi(GR(1), GR(1), 8)
    rb.addi(GR(5), GR(5), 8)
    rb.addi(GR(2), GR(2), 1)
    rb.cmp(CompareRelation.LT, PR(8), PR(9), GR(2), GR(3))
    rb.br_cond("fill", qp=PR(8))
    rb.block("spin")
    rb.movi(GR(7), 0)
    rb.movi(GR(8), delay)
    rb.block("spin_loop")
    rb.addi(GR(7), GR(7), 1)
    rb.cmp(CompareRelation.LT, PR(10), PR(11), GR(7), GR(8))
    rb.br_cond("spin_loop", qp=PR(10))
    rb.block("reread")
    rb.movi(GR(1), buf)
    rb.movi(GR(2), 0)
    rb.block("reread_loop")
    rb.load(GR(4), GR(1))
    rb.addi(GR(1), GR(1), 8)
    rb.addi(GR(2), GR(2), 1)
    rb.cmp(CompareRelation.LT, PR(12), PR(13), GR(2), GR(3))
    rb.br_cond("reread_loop", qp=PR(12))
    rb.block("exit")
    rb.br_ret()
    program = pb.finish()
    validate_program(program)
    return program


@pytest.fixture(scope="module")
def store_pack():
    emulator = Emulator(_store_program())
    pack = TracePack.from_dyninsts(list(emulator.run(20_000)))
    assert emulator.halted
    return pack


def _memory_rows(pack):
    """(executed loads, executed stores, nullified stores) of ``pack``."""
    counts = [0, 0, 0]
    for dyn in pack.to_dyninsts():
        if dyn.inst.is_load and dyn.executed:
            counts[0] += 1
        elif dyn.inst.is_store:
            counts[1 if dyn.executed else 2] += 1
    return tuple(counts)


STORE_SPECS = [SPECS[0], SchemeSpec.make("predicate"), SchemeSpec.make("wish")]


class TestStores:
    def test_the_program_stores_and_forwards_some_loads(self, store_pack):
        loads, stores, nullified = _memory_rows(store_pack)
        assert (loads, stores) == (32, 24) and nullified == 8

    @pytest.mark.parametrize("spec", STORE_SPECS, ids=SchemeSpec.describe)
    def test_both_loops_and_lanes_agree(self, store_pack, spec, monkeypatch):
        expected, calls, _ = _reference_run(store_pack, spec.build, monkeypatch)
        fast = OutOfOrderCore().run(store_pack, spec.build(), "walk")
        _assert_same_result(expected, fast, spec.describe())
        lanes = simulate_lanes(
            store_pack,
            [LaneSpec(s.build, PipelineConfig()) for s in STORE_SPECS],
            "walk",
        )
        _assert_same_result(expected, lanes[STORE_SPECS.index(spec)], spec.describe())
        # The 16 loads right after their store forward; the 16 after the
        # spin are outside the window and read the cache.
        assert expected.metrics.counters.get("lsq_forwarded_loads") == 16
        loads, stores, _ = _memory_rows(store_pack)
        assert sum(kind == "store" for kind, _ in calls) == stores
        # Every executed load probes the L1D, forwarded or not.
        assert fast.metrics.memory_stats["l1d_accesses"] == loads + stores

    def test_a_forwarded_load_probes_the_tags_and_takes_no_mshr(self):
        memory = MemoryHierarchy()
        config = PipelineConfig()
        lsu = LoadStoreUnit(config, memory)
        lsu.store_execute(0x1000, 10)
        assert lsu.load_complete_cycle(0x1000, 12) == 12 + config.store_forward_latency
        assert lsu.forwarded_loads == 1
        assert memory.l1d.lookup(0x1000)
        assert memory.l1d.stats.accesses == memory.dtlb.accesses == 1
        assert not memory.l1d.mshrs.outstanding


class _CancelsEverything(PredicatePredictionScheme):
    """Cancels every predicated instruction, true guard or not."""

    def on_predicated_rename(self, dyn, fetch_cycle, rename_cycle, guard_ready_cycle):
        return PredicatedHandling(RenameDecision.CANCEL)


class TestCancelledRowsNeverExecute:
    @pytest.mark.parametrize("optimized", [True, False], ids=["fast-loop", "reference-loop"])
    def test_cancelling_an_executed_row_raises(self, packs, optimized):
        core = OutOfOrderCore(optimized=optimized)
        with pytest.raises(RuntimeError, match="cancelled instruction .* guard is true"):
            core.run(packs["gzip"], _CancelsEverything(), "walk")


class TestWalkerConfiguration:
    @pytest.mark.parametrize(
        "l1i_block, itlb_page", [(32, 8192), (64, 32)], ids=["l1i-block", "itlb-page"]
    )
    def test_a_hierarchy_that_splits_fetch_blocks_is_refused(self, l1i_block, itlb_page):
        config = MemoryHierarchyConfig(
            l1i=CacheConfig("L1I", 32 * 1024, 4, l1i_block, 1),
            itlb=TLBConfig("ITLB", page_bytes=itlb_page),
        )
        with pytest.raises(ValueError, match="fetch blocks"):
            MemoryWalker(MemoryHierarchy(config))
