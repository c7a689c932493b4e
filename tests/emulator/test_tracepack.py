"""Columnar trace packs: round-trips, backward compatibility, equal stats.

Three guarantees are under test here:

* ``TracePack`` round-trips — object ↔ columnar ↔ bytes — reproduce
  bit-identical ``DynInst`` state (hypothesis drives randomized field
  combinations through the codec);
* the trace deserializer still loads format-1 pickle archives and rejects
  unknown versions and the ``RTP2`` packs of formats 2 and 3;
* the delta-coded ``seq`` and ``pred_offsets`` columns restore exactly,
  whatever their values;
* the vectorized statistics passes over a pack equal the reference
  per-instruction loops, field for field;
* the serialized size of real benchmark traces stays within a quarter of
  the bytes measured when the codec settled.
"""

from __future__ import annotations

import copy
import io
import json
import pickle
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator import Emulator, collect_trace
from repro.emulator.trace import (
    TRACE_FORMAT_VERSION,
    branch_outcome_stream,
    deserialize_trace,
    per_site_outcomes,
    serialize_trace,
    trace_statistics,
)
from repro.emulator.tracepack import (
    CHUNK_MAGIC,
    ChunkedPackWriter,
    ChunkedTracePack,
    PACK_MAGIC,
    TracePack,
    _COLUMNS,
)
from repro.engine import BASELINE, IF_CONVERTED, ExecutionEngine
from repro.engine.store import TRACES, ArtifactStore
from repro.experiments.setup import ExperimentProfile

from tests.conftest import build_counting_loop, build_diamond_program

BUDGET = 6_000


def dyn_state(dyn):
    """Comparable per-dynamic-instruction state (identity-free)."""
    state = dyn.__getstate__()
    return (state[0],) + state[2:] + (state[1].uid,)


@pytest.fixture(scope="module")
def loop_trace():
    program, _ = build_counting_loop()
    return collect_trace(program, BUDGET)


@pytest.fixture(scope="module")
def diamond_trace():
    program, _, _ = build_diamond_program()
    return collect_trace(program, BUDGET)


class TestRoundTrip:
    def test_object_columnar_object_is_bit_identical(self, loop_trace):
        pack = TracePack.from_dyninsts(loop_trace)
        assert len(pack) == len(loop_trace)
        restored = pack.to_dyninsts()
        for ref, got in zip(loop_trace, restored):
            assert dyn_state(ref) == dyn_state(got)

    def test_bytes_round_trip(self, diamond_trace):
        pack = TracePack.from_dyninsts(diamond_trace)
        data = pack.to_bytes()
        assert data[:4] == PACK_MAGIC
        again = TracePack.from_bytes(data)
        for ref, got in zip(diamond_trace, again.to_dyninsts()):
            assert dyn_state(ref) == dyn_state(got)

    def test_run_pack_matches_run(self):
        program_a, _ = build_counting_loop()
        program_b, _ = build_counting_loop()
        reference = list(Emulator(program_a).run(BUDGET))
        pack = Emulator(program_b).run_pack(BUDGET)
        assert len(pack) == len(reference)
        for ref, got in zip(reference, pack.to_dyninsts()):
            # uids differ across independently-built programs; compare the
            # uid-free state.
            assert dyn_state(ref)[:-1] == dyn_state(got)[:-1]

    def test_empty_pack_round_trips(self):
        pack = TracePack.from_dyninsts([])
        assert len(pack) == 0
        assert pack.to_dyninsts() == []
        assert len(TracePack.from_bytes(pack.to_bytes())) == 0

    def test_serialized_pack_is_much_smaller_than_pickle(self):
        # At realistic budgets (a real workload, thousands of instructions)
        # the columnar encoding must be at least 3x smaller than the
        # format-1 object pickle; in practice it is ~10x.
        from repro.workloads.spec_suite import build_workload

        trace = collect_trace(build_workload("gzip"), 4_000)
        pack = TracePack.from_dyninsts(trace)
        columnar = len(serialize_trace(pack))
        pickled = len(pickle.dumps((1, trace), protocol=pickle.HIGHEST_PROTOCOL))
        assert columnar * 3 <= pickled

    def test_iteration_yields_dyninsts(self, loop_trace):
        pack = TracePack.from_dyninsts(loop_trace)
        first = next(iter(pack))
        assert dyn_state(first) == dyn_state(loop_trace[0])

    def test_cursor_exposes_the_full_dyninst_interface(self, diamond_trace):
        pack = TracePack.from_dyninsts(diamond_trace)
        for dyn, cur in zip(diamond_trace, pack.cursor()):
            assert cur.seq == dyn.seq
            assert cur.inst is not None and cur.inst.uid == dyn.inst.uid
            assert cur.pc == dyn.pc
            assert cur.qp_value == dyn.qp_value
            assert cur.executed == dyn.executed
            assert cur.taken == dyn.taken
            assert cur.target_pc == dyn.target_pc
            assert cur.next_pc == dyn.next_pc
            assert cur.mem_address == dyn.mem_address
            assert cur.pred_writes == dyn.pred_writes
            assert cur.guard_producer_seq == dyn.guard_producer_seq
            assert cur.is_branch == dyn.is_branch
            assert cur.is_compare == dyn.is_compare
            assert cur.is_conditional_branch == dyn.is_conditional_branch


_PRED_WRITE = st.tuples(st.integers(min_value=0, max_value=63), st.booleans())

#: Randomized DynInst field rows: (pc, qp_value, taken, target_pc, next_pc,
#: mem_address, pred_writes, guard_producer_seq).
_FIELD_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 40),
        st.booleans(),
        st.sampled_from([None, True, False]),
        st.one_of(st.none(), st.integers(0, 1 << 40)),
        st.one_of(st.none(), st.integers(0, 1 << 40)),
        st.one_of(st.none(), st.integers(-(1 << 40), 1 << 40)),
        st.lists(_PRED_WRITE, max_size=2),
        st.integers(min_value=-1, max_value=1 << 20),
    ),
    max_size=64,
)


class TestHypothesisFieldRoundTrip:
    """Randomized DynInst field combinations survive the columnar codec."""

    @staticmethod
    def _trace(rows):
        from repro.emulator.executor import DynInst

        program, _ = build_counting_loop()
        insts = [
            inst
            for block in program.entry_routine.blocks
            for inst in block.instructions
        ]
        trace = []
        for seq, fields in enumerate(rows):
            pc, qp, taken, target, next_pc, mem, writes, producer = fields
            dyn = DynInst(seq, insts[seq % len(insts)], pc, qp, producer)
            dyn.taken = taken
            dyn.target_pc = target
            dyn.next_pc = next_pc
            dyn.mem_address = mem
            dyn.pred_writes = tuple(writes)
            trace.append(dyn)
        return trace

    @given(rows=_FIELD_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, rows):
        trace = self._trace(rows)
        pack = TracePack.from_bytes(TracePack.from_dyninsts(trace).to_bytes())
        assert len(pack) == len(trace)
        for ref, got in zip(trace, pack.to_dyninsts()):
            assert dyn_state(ref) == dyn_state(got)

    @given(rows=_FIELD_ROWS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_columns_slices_equal_to_dyninsts(self, rows, data):
        trace = self._trace(rows)
        pack = TracePack.from_dyninsts(trace)
        start = data.draw(st.integers(0, len(pack)), label="start")
        stop = data.draw(st.integers(start, len(pack)), label="stop")
        columns = pack.row_columns(start, stop)
        assert all(len(column) == stop - start for column in columns)
        # Against the materialised objects and the source rows, the
        # independent reference: ``to_dyninsts`` is built on ``row_columns``.
        for row, dyns in enumerate(zip(pack.to_dyninsts()[start:stop], trace[start:stop])):
            got = [column[row] for column in columns]
            for dyn in dyns:
                assert pack.insts[got[0]].uid == dyn.inst.uid
                # DynInst field order minus the instruction; repr tells a
                # bool from an int and a tuple from a list.
                state = dyn.__getstate__()
                assert repr(got[1:]) == repr([state[0]] + list(state[2:]))


def _split_at(trace, cuts):
    """Segment ``trace`` at the (sorted, deduplicated) ``cuts`` row indices."""
    boundaries = sorted({cut for cut in cuts if 0 < cut < len(trace)})
    edges = [0] + boundaries + [len(trace)]
    return [
        TracePack.from_dyninsts(trace[start:stop])
        for start, stop in zip(edges, edges[1:])
    ]


class TestChunkedRoundTrip:
    """Arbitrary segment splits decode identically to the monolithic pack."""

    @given(
        cuts=st.lists(st.integers(min_value=1, max_value=BUDGET), max_size=8),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_split_round_trips_bit_identical(self, loop_trace, cuts, data):
        chunked = ChunkedTracePack.from_segments(_split_at(loop_trace, cuts))
        assert len(chunked) == len(loop_trace)

        encoded = serialize_trace(chunked)
        assert encoded[:4] == CHUNK_MAGIC
        # An RTP3 stream IS the serialized form: ChunkedPackWriter output
        # adopted via put_file and serialize_trace(chunked) are one format.
        assert encoded == chunked.to_bytes()
        decoded = deserialize_trace(encoded)
        assert isinstance(decoded, ChunkedTracePack)
        assert decoded.segment_lengths == chunked.segment_lengths
        for ref, got in zip(loop_trace, decoded.to_dyninsts()):
            assert dyn_state(ref) == dyn_state(got)

        # Range cursors iterate across segment boundaries transparently.
        # (The cursor is a flyweight advanced in place — read each row
        # during iteration, exactly as the fast loop does.)
        start = data.draw(st.integers(0, len(loop_trace)), label="start")
        stop = data.draw(st.integers(start, len(loop_trace)), label="stop")
        seen = 0
        for ref, cur in zip(loop_trace[start:stop], decoded.cursor(start, stop)):
            assert cur.seq == ref.seq
            assert cur.pc == ref.pc
            assert cur.taken == ref.taken
            assert cur.pred_writes == ref.pred_writes
            seen += 1
        assert seen == stop - start
        assert sum(1 for _ in decoded.cursor(start, stop)) == stop - start

    def test_writer_stream_equals_in_memory_encoding(self, loop_trace):
        segments = _split_at(loop_trace, [1_000, 2_500, 4_000])
        buffer = io.BytesIO()
        writer = ChunkedPackWriter(buffer)
        for segment in segments:
            writer.add_segment(segment)
        rows = writer.finish()
        assert rows == len(loop_trace)
        assert buffer.getvalue() == ChunkedTracePack.from_segments(segments).to_bytes()

    def test_concat_merges_back_to_one_monolithic_pack(self, loop_trace):
        chunked = ChunkedTracePack.from_segments(_split_at(loop_trace, [700, 1_400]))
        merged = chunked.concat()
        assert isinstance(merged, TracePack)
        for ref, got in zip(loop_trace, merged.to_dyninsts()):
            assert dyn_state(ref) == dyn_state(got)

    @given(
        mode=st.sampled_from(["truncate", "overrun", "trailing", "magic"]),
        position=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=20, deadline=None)
    def test_damaged_streams_are_rejected_not_misread(
        self, loop_trace, mode, position
    ):
        data = ChunkedTracePack.from_segments(
            _split_at(loop_trace, [1_500, 3_000])
        ).to_bytes()
        if mode == "truncate":
            # Any prefix (a writer that died before finish()) must be
            # detected through the missing terminator or a short segment.
            damaged = data[: max(4, int(len(data) * position))]
        elif mode == "overrun":
            # A segment size pointing past the payload.
            damaged = data[:4] + struct.pack("<Q", len(data)) + data[12:]
        elif mode == "trailing":
            damaged = data + b"\x00garbage"
        else:
            damaged = b"XXXX" + data[4:]
        with pytest.raises(ValueError):
            ChunkedTracePack.from_bytes(damaged)


def _format3_pack_bytes(pack):
    """``pack`` encoded as trace formats 2 and 3 wrote it: magic ``RTP2``
    and every column raw."""
    header_columns, buffers = [], []
    for name, dtype in _COLUMNS:
        column = np.ascontiguousarray(getattr(pack, name), dtype=np.dtype(dtype))
        header_columns.append([name, dtype, int(column.shape[0])])
        buffers.append(column.tobytes())
    insts = pickle.dumps(pack.insts, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {"n": len(pack), "columns": header_columns, "insts_bytes": len(insts)},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    body = zlib.compress(b"".join(buffers) + insts, 6)
    return b"RTP2" + struct.pack("<I", len(header)) + header + body


class TestDeltaCodedColumns:
    """``seq`` and ``pred_offsets`` are stored as first differences; the
    cumulative sum restores any int64 values, gaps and wraparound included."""

    @staticmethod
    def _with_seqs(rows, seqs):
        trace = TestHypothesisFieldRoundTrip._trace(rows[: len(seqs)])
        for dyn, seq in zip(trace, seqs):
            dyn.seq = seq
        return trace

    @given(
        rows=_FIELD_ROWS,
        seqs=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=64),
        cuts=st.lists(st.integers(min_value=1, max_value=63), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_seq_round_trips(self, rows, seqs, cuts):
        trace = self._with_seqs(rows, seqs)
        monolithic = deserialize_trace(serialize_trace(TracePack.from_dyninsts(trace)))
        chunked = ChunkedTracePack.from_segments(_split_at(trace, cuts))
        chunked = deserialize_trace(serialize_trace(chunked))
        for decoded in (monolithic, chunked):
            assert len(decoded) == len(trace)
            for ref, got in zip(trace, decoded.to_dyninsts()):
                assert dyn_state(ref) == dyn_state(got)

    def test_extreme_and_repeated_seqs(self, loop_trace):
        seqs = [2**63 - 1, -(2**63), 0, -1, 5, 5, 3, -(2**63), 2**63 - 1]
        trace = [copy.copy(dyn) for dyn in loop_trace[: len(seqs)]]
        for dyn, seq in zip(trace, seqs):
            dyn.seq = seq
        pack = TracePack.from_bytes(TracePack.from_dyninsts(trace).to_bytes())
        assert pack.seq.tolist() == seqs
        assert pack.seq.dtype == np.int64


class TestFormat3Refused:
    """Packs written before the delta coding (magic ``RTP2``) are refused
    with ``ValueError``, never misread, and a store hit on one is
    quarantined."""

    def test_format3_pack_blob(self, loop_trace):
        blob = _format3_pack_bytes(TracePack.from_dyninsts(loop_trace))
        with pytest.raises(ValueError, match="no longer read"):
            deserialize_trace(blob)

    def test_format3_chunk_stream(self, loop_trace):
        segment = _format3_pack_bytes(TracePack.from_dyninsts(loop_trace[:100]))
        blob = CHUNK_MAGIC + struct.pack("<Q", len(segment)) + segment + struct.pack("<Q", 0)
        with pytest.raises(ValueError):
            deserialize_trace(blob)

    @pytest.mark.parametrize("chunked", [False, True], ids=["pack", "chunked"])
    def test_a_store_hit_is_quarantined(self, tmp_path, loop_trace, chunked):
        blob = _format3_pack_bytes(TracePack.from_dyninsts(loop_trace[:500]))
        if chunked:
            blob = CHUNK_MAGIC + struct.pack("<Q", len(blob)) + blob + struct.pack("<Q", 0)
        store = ArtifactStore(str(tmp_path / "store"))
        scratch = store.scratch_path(TRACES)
        with open(scratch, "wb") as handle:
            handle.write(blob)
        store.put_file(TRACES, "old", scratch)
        assert store.get(TRACES, "old") is None
        assert not store.contains(TRACES, "old")
        entries = store.quarantine_entries()
        assert [(entry["kind"], entry["key"]) for entry in entries] == [(TRACES, "old")]
        assert entries[0]["quarantine_reason"] == "decode failed: ValueError"


class TestMemoryviewDecode:
    """The store decodes from a view of its read buffer, never a copy."""

    @pytest.mark.parametrize("cuts", [[], [1_500, 3_000]], ids=["monolithic", "chunked"])
    def test_view_decodes_like_bytes(self, loop_trace, cuts):
        if cuts:
            trace = ChunkedTracePack.from_segments(_split_at(loop_trace, cuts))
        else:
            trace = TracePack.from_dyninsts(loop_trace)
        data = serialize_trace(trace)
        # A view into a larger writable buffer, as the store hands over.
        view = memoryview(bytearray(data + b"trailer"))[: len(data)]
        from_bytes = deserialize_trace(data)
        from_view = deserialize_trace(view)
        assert type(from_view) is type(from_bytes)
        assert len(from_view) == len(loop_trace)
        for ref, got in zip(from_bytes.to_dyninsts(), from_view.to_dyninsts()):
            assert dyn_state(ref) == dyn_state(got)
        assert serialize_trace(from_view) == data


class TestBackwardCompatibility:
    def test_v1_pickle_still_loads(self, loop_trace):
        archived = pickle.dumps((1, loop_trace), protocol=pickle.HIGHEST_PROTOCOL)
        loaded = deserialize_trace(archived)
        assert isinstance(loaded, list)
        for ref, got in zip(loop_trace, loaded):
            assert dyn_state(ref)[:-1] == dyn_state(got)[:-1]

    def test_current_version_is_four(self):
        assert TRACE_FORMAT_VERSION == 4

    def test_monolithic_packs_load(self, loop_trace):
        # A single-segment trace is stored as exactly one monolithic pack
        # payload, which the deserializer accepts unchanged.
        data = TracePack.from_dyninsts(loop_trace).to_bytes()
        assert data[:4] == PACK_MAGIC
        loaded = deserialize_trace(data)
        assert isinstance(loaded, TracePack)
        for ref, got in zip(loop_trace, loaded.to_dyninsts()):
            assert dyn_state(ref) == dyn_state(got)

    def test_unknown_pickle_version_rejected(self, loop_trace):
        stale = pickle.dumps((99, loop_trace), protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(ValueError, match="trace format version"):
            deserialize_trace(stale)

    def test_object_traces_serialize_as_packs(self, loop_trace):
        # Format 1 is read-only: an object trace is packed before encoding.
        data = serialize_trace(loop_trace)
        assert data[:4] == PACK_MAGIC
        loaded = deserialize_trace(data)
        assert isinstance(loaded, TracePack)
        for ref, got in zip(loop_trace, loaded.to_dyninsts()):
            assert dyn_state(ref) == dyn_state(got)

    def test_packs_serialize_as_columnar(self, loop_trace):
        data = serialize_trace(TracePack.from_dyninsts(loop_trace))
        assert data[:4] == PACK_MAGIC
        assert isinstance(deserialize_trace(data), TracePack)


class TestVectorizedStatistics:
    @pytest.mark.parametrize("which", ["loop", "diamond"])
    def test_statistics_equal_reference(self, which, loop_trace, diamond_trace):
        trace = loop_trace if which == "loop" else diamond_trace
        reference = trace_statistics(trace)
        columnar = trace_statistics(TracePack.from_dyninsts(trace))
        assert columnar == reference
        assert columnar.static_oracle_accuracy() == pytest.approx(
            reference.static_oracle_accuracy()
        )

    def test_outcome_stream_equal_reference(self, diamond_trace):
        pack = TracePack.from_dyninsts(diamond_trace)
        assert branch_outcome_stream(pack) == branch_outcome_stream(diamond_trace)

    def test_per_site_outcomes_equal_reference(self, diamond_trace):
        pack = TracePack.from_dyninsts(diamond_trace)
        assert per_site_outcomes(pack) == per_site_outcomes(diamond_trace)

    def test_empty_pack_statistics(self):
        stats = trace_statistics(TracePack.from_dyninsts([]))
        assert stats.fetched == 0
        assert stats.branch_sites == {}
        assert branch_outcome_stream(TracePack.from_dyninsts([])) == []
        assert per_site_outcomes(TracePack.from_dyninsts([])) == {}


class TestSerializedSize:
    """The on-disk cost of a 12k-instruction trace, exact and host-independent:
    at most 25% above the bytes measured when this test was written."""

    @pytest.mark.parametrize(
        "program, flavour, measured",
        [
            ("gzip", IF_CONVERTED, 18_894),
            ("twolf", BASELINE, 22_312),
            ("swim", IF_CONVERTED, 14_379),
        ],
    )
    def test_serialized_trace_stays_within_a_quarter_of_measured(self, program, flavour, measured):
        profile = ExperimentProfile("trace-size", 12_000, [program], profile_budget=12_000)
        trace = ExecutionEngine(profile, store=None).collect_trace(program, flavour)
        assert len(trace) == 12_000
        assert len(serialize_trace(trace)) <= 1.25 * measured
