"""Shared fixtures for the test-suite."""

from __future__ import annotations

import os
import sys

# Allow running the tests without installing the package (e.g. straight from
# a source checkout): put src/ on the path if the package is not importable.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover
        sys.path.insert(0, _SRC)

import pytest

from repro.emulator.executor import EmulationLimit, Emulator
from repro.emulator.trace import serialize_trace
from repro.emulator.tracepack import ChunkedTracePack, TracePack
from repro.isa import GR, PR, CompareRelation
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.memory.tlb import TLBConfig
from repro.program import ProgramBuilder, validate_program


@pytest.fixture(autouse=True)
def _isolated_artifact_cache(tmp_path, monkeypatch):
    """Point the persistent artifact cache at a per-test scratch directory.

    Without this, tests that invoke the CLI (whose cache is on by default)
    would write a real ``.repro-cache`` into the working directory and could
    serve stale artifacts across test runs after source edits.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifact-cache"))


def assert_run_pack_matches_reference(program, budget, segment_rows=None, hard_limit=None):
    """``run_pack`` serializes byte for byte like the reference interpreter's
    object trace cut into the same segments, and leaves the emulator in the
    same state (``_seq``, fetched and executed counts, halted, and every
    register and memory word); returns the ``run_pack`` emulator.

    ``hard_limit`` lowers both emulators' ``HARD_LIMIT``.  When the
    reference raises, ``run_pack`` must raise the same exception type; on
    :class:`EmulationLimit` the segments streamed before it must equal the
    reference's rows and the state must match too.
    """
    reference = Emulator(program, optimized=False)
    emulator = Emulator(program)
    if hard_limit is not None:
        reference.HARD_LIMIT = emulator.HARD_LIMIT = hard_limit
    rows = []
    expected_error = None
    try:
        for dyn in reference.run(budget):
            rows.append(dyn)
    except Exception as error:  # the reference's own failure is the oracle
        expected_error = type(error)
    if expected_error is None:
        pack = emulator.run_pack(budget, segment_rows=segment_rows)
        if segment_rows is None or len(rows) <= segment_rows:
            expected = TracePack.from_dyninsts(rows)
        else:
            expected = ChunkedTracePack.from_segments(
                [
                    TracePack.from_dyninsts(rows[start : start + segment_rows])
                    for start in range(0, len(rows), segment_rows)
                ]
            )
        assert serialize_trace(pack) == serialize_trace(expected)
    else:
        streamed = []
        cut = segment_rows or budget + 1
        with pytest.raises(expected_error):
            emulator.run_pack(budget, segment_rows=cut, on_segment=streamed.append)
        if expected_error is not EmulationLimit:
            return emulator
        # Only whole segments were flushed before the limit.
        assert [segment.to_bytes() for segment in streamed] == [
            TracePack.from_dyninsts(rows[start : start + cut]).to_bytes()
            for start in range(0, len(rows) - len(rows) % cut, cut)
        ]
    assert (
        emulator._seq,
        emulator.fetched_instructions,
        emulator.executed_instructions,
        emulator.halted,
    ) == (
        reference._seq,
        reference.fetched_instructions,
        reference.executed_instructions,
        reference.halted,
    )
    assert _architectural_state(emulator) == _architectural_state(reference)
    return emulator


def _architectural_state(emulator):
    """Every register file and memory word; floats by ``repr``, so NaN
    equals NaN and -0.0 differs from 0.0."""
    state = emulator.state
    return (
        state.general,
        [repr(value) for value in state.floating],
        state.predicate,
        state.branch,
        state.memory._words,
    )


def build_tiny_memory_config() -> MemoryHierarchyConfig:
    """A hierarchy small enough that short streams evict, fill every MSHR
    and thrash the TLBs; its L1I blocks and ITLB pages hold whole 64-byte
    fetch blocks, as the timing loop's memory walk requires."""
    return MemoryHierarchyConfig(
        l1d=CacheConfig("L1D", 512, 2, 64, 2, primary_misses=2),
        l1i=CacheConfig("L1I", 512, 2, 64, 1, primary_misses=2),
        l2=CacheConfig("L2", 2048, 4, 128, 8, primary_misses=3),
        dtlb=TLBConfig("DTLB", entries=4, page_bytes=1024, miss_penalty=10),
        itlb=TLBConfig("ITLB", entries=3, page_bytes=512, miss_penalty=7),
        l1d_write_buffer_entries=2,
        memory_latency=40,
    )


def build_counting_loop(n_values=None, threshold=4):
    """A small loop that sums array elements greater than ``threshold``.

    Returns ``(program, expected_sum)``.  Used by emulator, pipeline and
    scheme tests as a well-understood, fully deterministic workload.
    """
    values = n_values if n_values is not None else [1, 5, 2, 7, 3, 9, 4, 0]
    pb = ProgramBuilder("counting-loop")
    base = pb.array("data", values)
    rb = pb.routine("main")
    rb.block("entry")
    rb.movi(GR(10), base)
    rb.movi(GR(11), 0)
    rb.movi(GR(12), len(values))
    rb.movi(GR(13), 0)
    rb.block("loop")
    rb.load(GR(14), GR(10))
    rb.cmp(CompareRelation.GT, PR(6), PR(7), GR(14), threshold)
    rb.add(GR(13), GR(13), GR(14), qp=PR(6))
    rb.addi(GR(10), GR(10), 8)
    rb.addi(GR(11), GR(11), 1)
    rb.cmp(CompareRelation.LT, PR(8), PR(9), GR(11), GR(12))
    rb.br_cond("loop", qp=PR(8))
    rb.block("exit")
    rb.br_ret()
    program = pb.finish()
    validate_program(program)
    expected = sum(v for v in values if v > threshold)
    return program, expected


def build_diamond_program(values=None):
    """A loop with an if-then-else diamond: r20 counts highs, r21 counts lows.

    Returns ``(program, expected_high_count, expected_low_count)``.
    """
    values = values if values is not None else [3, 9, 1, 8, 7, 2, 6, 5, 0, 4]
    pb = ProgramBuilder("diamond")
    base = pb.array("data", values)
    rb = pb.routine("main")
    rb.block("entry")
    rb.movi(GR(10), base)
    rb.movi(GR(11), 0)
    rb.movi(GR(12), len(values))
    rb.movi(GR(20), 0)
    rb.movi(GR(21), 0)
    rb.block("loop")
    rb.load(GR(14), GR(10))
    rb.cmp(CompareRelation.GT, PR(6), PR(7), GR(14), 5)
    rb.br_cond("else_side", qp=PR(7))
    rb.block("then_side")
    rb.addi(GR(20), GR(20), 1)
    rb.br("join")
    rb.block("else_side")
    rb.addi(GR(21), GR(21), 1)
    rb.block("join")
    rb.addi(GR(10), GR(10), 8)
    rb.addi(GR(11), GR(11), 1)
    rb.cmp(CompareRelation.LT, PR(8), PR(9), GR(11), GR(12))
    rb.br_cond("loop", qp=PR(8))
    rb.block("exit")
    rb.br_ret()
    program = pb.finish()
    validate_program(program)
    highs = sum(1 for v in values if v > 5)
    lows = len(values) - highs
    return program, highs, lows


@pytest.fixture
def counting_loop():
    return build_counting_loop()


@pytest.fixture
def diamond_program():
    return build_diamond_program()
