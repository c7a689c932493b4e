"""Columnar (struct-of-arrays) dynamic traces: the ``TracePack``.

A dynamic trace at paper budgets is tens of thousands of records, and the
object representation (:class:`~repro.emulator.executor.DynInst` per fetched
instruction) is expensive in exactly the three places large sweeps hurt:
building it allocates one Python object per instruction, storing it pickles
every object, and analysing it walks attribute chains per element.

:class:`TracePack` keeps the same information as parallel typed arrays —
one numpy column per ``DynInst`` field — plus a deduplicated table of the
static :class:`~repro.isa.instructions.Instruction` objects the rows refer
to.  The columns are:

========================  =======  ==============================================
column                    dtype    meaning
========================  =======  ==============================================
``seq``                   int64    dynamic sequence number
``inst_index``            int32    row -> index into :attr:`insts`
``pc``                    int64    instruction address
``opclass``               uint8    opcode class code (see :data:`OPCLASS_CODES`)
``qp_value``              uint8    qualifying-predicate value at execution
``executed``              uint8    1 when the qualifying predicate was true
``taken``                 int8     -1 = not a branch, else 0/1
``target_pc``             int64    branch target (-1 = none)
``next_pc``               int64    next correct-path pc (-1 = none)
``mem_valid``             uint8    1 when ``mem_address`` carries a value
``mem_address``           int64    effective address of memory operations
``guard_producer_seq``    int64    seq of the guard's producer (-1 = pre-trace)
``pred_offsets``          int64    ragged index (length ``n + 1``) into the
``pred_index``            int16    flattened architectural predicate writes
``pred_value``            uint8    (register index, written value) pairs
========================  =======  ==============================================

Everything round-trips: ``TracePack.from_dyninsts(trace).to_dyninsts()``
reproduces bit-identical ``DynInst`` state, which is what the parity tests
assert.  The on-disk form (:meth:`to_bytes` / :meth:`from_bytes`) is a small
JSON header plus the zlib-compressed raw column buffers; only the static
instruction table is pickled, never the per-instruction rows.

The pack is the only trace representation the production paths use; the
object list survives as the emulator's reference output and the parity
tests' oracle.
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib
from array import array
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.emulator.executor import DynInst
from repro.isa.branches import BranchInstruction
from repro.isa.opcodes import OpClass

#: Magic prefix of the columnar on-disk encoding (trace format version 4;
#: format 2 and 3 packs began ``RTP2`` and stored every column raw).
PACK_MAGIC = b"RTP4"

#: Magic prefix of the chunked on-disk encoding: ``CHUNK_MAGIC`` followed
#: by ``<u64 size><pack>`` records and a ``<u64 0>`` terminator.  Each
#: segment is a complete, self-contained ``PACK_MAGIC`` pack, so the chunked
#: format reuses the pack codec byte for byte.
CHUNK_MAGIC = b"RTP3"

#: Columns stored as first differences (restored by a cumulative sum):
#: ``seq`` steps by one on emulator rows and ``pred_offsets`` by a row's
#: write count, so their differences compress to almost nothing.  int64
#: differences wrap and the sum wraps back, so this is exact for any values.
_DELTA_COLUMNS = frozenset({"seq", "pred_offsets"})

#: Opcode-class codes used by the ``opclass`` column.  Pinned explicitly —
#: the codes are part of the on-disk encoding, so they must not
#: shift when ``OpClass`` gains or reorders members; a new member must be
#: appended here with a fresh code (building a pack for an unpinned class
#: raises ``KeyError`` loudly rather than encoding wrong codes).
OPCLASS_CODES: Dict[OpClass, int] = {
    OpClass.ALU: 0,
    OpClass.MUL: 1,
    OpClass.FP: 2,
    OpClass.LOAD: 3,
    OpClass.STORE: 4,
    OpClass.COMPARE: 5,
    OpClass.BRANCH: 6,
    OpClass.MOVE: 7,
    OpClass.NOP: 8,
}

#: The column layout: (name, dtype string).  ``pred_offsets`` has length
#: ``n + 1`` and the two ``pred_*`` payload columns are ragged; everything
#: else has one element per dynamic instruction.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("seq", "<i8"),
    ("inst_index", "<i4"),
    ("pc", "<i8"),
    ("opclass", "u1"),
    ("qp_value", "u1"),
    ("executed", "u1"),
    ("taken", "i1"),
    ("target_pc", "<i8"),
    ("next_pc", "<i8"),
    ("mem_valid", "u1"),
    ("mem_address", "<i8"),
    ("guard_producer_seq", "<i8"),
    ("pred_offsets", "<i8"),
    ("pred_index", "<i2"),
    ("pred_value", "u1"),
)


class PackCursor:
    """A slotted row view with the ``DynInst`` attribute interface.

    :meth:`TracePack.cursor` yields one instance of this class per pack
    iteration, mutating it in place for every row, so its readers must use
    the fields before the next row.  The pipeline's timing loop hands
    scheme hooks the cursor of :meth:`repro.pipeline.core._Rows.cursor`:
    in a batch of two or more lanes one cursor per row, built on first use
    and shared by every lane and the decision-stream prepass over that row;
    in a lone lane one reused cursor, refilled when a reader asks for
    another row.  So a hook reads the fields during its call and never
    changes them.
    ``is_branch`` / ``is_compare`` / ``is_conditional_branch`` are plain
    attributes (precomputed per static instruction) instead of the property
    chains of ``DynInst``.
    """

    __slots__ = (
        "seq",
        "inst",
        "pc",
        "qp_value",
        "executed",
        "taken",
        "target_pc",
        "next_pc",
        "mem_address",
        "pred_writes",
        "guard_producer_seq",
        "is_branch",
        "is_compare",
        "is_conditional_branch",
    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PackCursor #{self.seq} pc={self.pc:#x} {self.inst!r}>"


class TracePackBuilder:
    """Columnarises an object trace, one ``DynInst``-shaped row at a time.

    This is :meth:`TracePack.from_dyninsts`: every field of every row is
    copied as given, so it packs object traces that need not obey the
    emulator's invariants (the emulator itself fills an
    :class:`~repro.emulator.executor.EmulatorRows`).  Rows go straight into compact typed columns
    (:class:`array.array`), and static instructions are deduplicated on the
    fly by ``uid``.
    """

    __slots__ = (
        "_seq",
        "_inst_index",
        "_pc",
        "_qp_value",
        "_executed",
        "_taken",
        "_target_pc",
        "_next_pc",
        "_mem_valid",
        "_mem_address",
        "_producer",
        "_pred_offsets",
        "_pred_index",
        "_pred_value",
        "_insts",
        "_uid_to_index",
    )

    def __init__(self) -> None:
        self._seq = array("q")
        self._inst_index = array("i")
        self._pc = array("q")
        self._qp_value = array("B")
        self._executed = array("B")
        self._taken = array("b")
        self._target_pc = array("q")
        self._next_pc = array("q")
        self._mem_valid = array("B")
        self._mem_address = array("q")
        self._producer = array("q")
        self._pred_offsets = array("q", [0])
        self._pred_index = array("h")
        self._pred_value = array("B")
        self._insts: List[Any] = []
        self._uid_to_index: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._seq)

    def append_row(self, dyn) -> None:
        """Append one row from any object with the ``DynInst`` fields."""
        inst = dyn.inst
        index = self._uid_to_index.get(inst.uid)
        if index is None:
            index = len(self._insts)
            self._uid_to_index[inst.uid] = index
            self._insts.append(inst)
        self._seq.append(dyn.seq)
        self._inst_index.append(index)
        self._pc.append(dyn.pc)
        self._qp_value.append(1 if dyn.qp_value else 0)
        self._executed.append(1 if dyn.executed else 0)
        value = dyn.taken
        self._taken.append(-1 if value is None else (1 if value else 0))
        value = dyn.target_pc
        self._target_pc.append(-1 if value is None else value)
        value = dyn.next_pc
        self._next_pc.append(-1 if value is None else value)
        value = dyn.mem_address
        if value is None:
            self._mem_valid.append(0)
            self._mem_address.append(0)
        else:
            self._mem_valid.append(1)
            self._mem_address.append(value)
        self._producer.append(dyn.guard_producer_seq)
        writes = dyn.pred_writes
        if writes:
            for reg_index, reg_value in writes:
                self._pred_index.append(reg_index)
                self._pred_value.append(1 if reg_value else 0)
        self._pred_offsets.append(len(self._pred_index))

    def finalize(self) -> "TracePack":
        """Wrap the typed columns as a :class:`TracePack` (zero-copy).

        The numpy columns view the builder's buffers directly; exporting
        them freezes the builder (a later ``append_row`` raises
        ``BufferError``), which is the intended single-use lifecycle.
        """
        return TracePack.assemble(
            self._insts,
            np.frombuffer(self._inst_index, dtype=np.int32),
            seq=np.frombuffer(self._seq, dtype=np.int64),
            pc=np.frombuffer(self._pc, dtype=np.int64),
            qp_value=np.frombuffer(self._qp_value, dtype=np.uint8),
            executed=np.frombuffer(self._executed, dtype=np.uint8),
            taken=np.frombuffer(self._taken, dtype=np.int8),
            target_pc=np.frombuffer(self._target_pc, dtype=np.int64),
            next_pc=np.frombuffer(self._next_pc, dtype=np.int64),
            mem_valid=np.frombuffer(self._mem_valid, dtype=np.uint8),
            mem_address=np.frombuffer(self._mem_address, dtype=np.int64),
            guard_producer_seq=np.frombuffer(self._producer, dtype=np.int64),
            pred_offsets=np.frombuffer(self._pred_offsets, dtype=np.int64),
            pred_index=np.frombuffer(self._pred_index, dtype=np.int16),
            pred_value=np.frombuffer(self._pred_value, dtype=np.uint8),
        )


def _none_where(values: np.ndarray, absent: np.ndarray) -> List[Any]:
    """``values`` as a list of Python scalars, with ``None`` where ``absent``."""
    column = values.astype(object)
    column[absent] = None
    return column.tolist()


class TracePack:
    """A struct-of-arrays dynamic trace (see the module docstring)."""

    __slots__ = tuple(name for name, _ in _COLUMNS) + (
        "insts",
        "_static_flags",
    )

    def __init__(self, insts: Sequence[Any], **columns) -> None:
        self.insts = list(insts)
        for name, _dtype in _COLUMNS:
            setattr(self, name, columns[name])
        self._static_flags: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    @classmethod
    def _empty(cls) -> "TracePack":
        columns = {}
        for name, dtype in _COLUMNS:
            length = 1 if name == "pred_offsets" else 0
            columns[name] = np.zeros(length, dtype=np.dtype(dtype))
        return cls(insts=[], **columns)

    @classmethod
    def assemble(cls, insts: List[Any], inst_index, **columns) -> "TracePack":
        """Build a pack from its static table and columns — the one place
        both feeders (:class:`TracePackBuilder` and
        :class:`~repro.emulator.executor.EmulatorRows`) finalize through.

        ``insts`` is the table in order of first appearance and
        ``inst_index`` the rows' indices into it; ``columns`` holds every
        other column except ``opclass``, which is gathered from the table.
        """
        if not inst_index.shape[0]:
            return cls._empty()
        static_opclass = np.array(
            [OPCLASS_CODES[inst.opclass] for inst in insts], dtype=np.uint8
        )
        return cls(
            insts=insts,
            inst_index=inst_index,
            opclass=static_opclass[inst_index],
            **columns,
        )

    @classmethod
    def from_dyninsts(cls, trace: Sequence[DynInst]) -> "TracePack":
        """Columnarise an object trace (shared identity preserved by uid)."""
        builder = TracePackBuilder()
        append = builder.append_row
        for dyn in trace:
            append(dyn)
        return builder.finalize()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.seq.shape[0])

    def __iter__(self) -> Iterator[DynInst]:
        """Iterate as materialised ``DynInst`` objects (compatibility API).

        Hot paths should use :meth:`cursor` instead; this exists so legacy
        call sites (``iter(trace)``, list comprehensions over a trace) keep
        working when the engine hands them a pack.
        """
        return iter(self.to_dyninsts())

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the columns (instruction table excluded)."""
        return int(sum(getattr(self, name).nbytes for name, _ in _COLUMNS))

    # ------------------------------------------------------------------
    def pred_writes_at(self, row: int) -> Tuple[Tuple[int, bool], ...]:
        """The architectural predicate writes of one row, as ``DynInst`` has
        them."""
        start = int(self.pred_offsets[row])
        stop = int(self.pred_offsets[row + 1])
        if start == stop:
            return ()
        return tuple(
            (int(self.pred_index[i]), bool(self.pred_value[i]))
            for i in range(start, stop)
        )

    def _materialise_pred_writes(
        self, start: int = 0, stop: Optional[int] = None
    ) -> List[Tuple[Tuple[int, bool], ...]]:
        stop = len(self) if stop is None else stop
        count = max(0, stop - start)
        writes: List[Tuple[Tuple[int, bool], ...]] = [()] * count
        if not count:
            return writes
        offsets = self.pred_offsets[start : stop + 1]
        low, high = int(offsets[0]), int(offsets[-1])
        if high != low:
            # Slice the ragged payload once; local positions are offset-low.
            # Only the rows that write a predicate are visited.
            indices = self.pred_index[low:high].tolist()
            values = (self.pred_value[low:high] != 0).tolist()
            rows = np.flatnonzero(offsets[1:] != offsets[:-1])
            firsts = (offsets[rows] - low).tolist()
            lasts = (offsets[rows + 1] - low).tolist()
            for row, first, last in zip(rows.tolist(), firsts, lasts):
                writes[row] = tuple(zip(indices[first:last], values[first:last]))
        return writes

    def to_dyninsts(self) -> List[DynInst]:
        """Materialise the reference object representation (bit-identical)."""
        insts = self.insts
        out: List[DynInst] = []
        append = out.append
        new = DynInst.__new__
        rows = zip(*self.row_columns(0, len(self)))
        for static, seq, pc, qp, executed, taken, target, next_pc, mem, writes, guard in rows:
            dyn = new(DynInst)
            dyn.__setstate__(
                (seq, insts[static], pc, qp, executed, taken, target, next_pc, mem, writes, guard)
            )
            append(dyn)
        return out

    # ------------------------------------------------------------------
    def row_columns(self, start: int, stop: int) -> Tuple[List[Any], ...]:
        """Rows ``[start, stop)`` as Python lists, one per ``DynInst`` field.

        ``(inst_index, seq, pc, qp_value, executed, taken, target_pc,
        next_pc, mem_address, pred_writes, guard_producer_seq)``, each
        value as ``DynInst`` holds it (``None`` where a field is absent).
        The lists are working state of the caller — deliberately *not*
        cached on the pack, so a pack parked in the engine's trace LRU keeps
        only its compact typed columns.
        """
        taken = self.taken[start:stop]
        target_pc = self.target_pc[start:stop]
        next_pc = self.next_pc[start:stop]
        return (
            self.inst_index[start:stop].tolist(),
            self.seq[start:stop].tolist(),
            self.pc[start:stop].tolist(),
            (self.qp_value[start:stop] != 0).tolist(),
            (self.executed[start:stop] != 0).tolist(),
            _none_where(taken != 0, taken < 0),
            _none_where(target_pc, target_pc < 0),
            _none_where(next_pc, next_pc < 0),
            _none_where(self.mem_address[start:stop], self.mem_valid[start:stop] == 0),
            self._materialise_pred_writes(start, stop),
            self.guard_producer_seq[start:stop].tolist(),
        )

    def cursor(self, start: int = 0, stop: Optional[int] = None) -> Iterator[PackCursor]:
        """Yield one reusable :class:`PackCursor` per row of ``[start, stop)``.

        No per-row object is allocated; the flyweight's fields are
        rewritten in place.  The range form touches only the requested
        rows.
        """
        stop = len(self) if stop is None else min(stop, len(self))
        start = max(0, start)
        branch_f, compare_f, cond_f = self._cursor_static_flags()
        (
            inst_idx,
            seqs,
            pcs,
            qps,
            execs,
            takens,
            targets,
            nexts,
            mems,
            writes,
            producers,
        ) = self.row_columns(start, stop)
        insts = self.insts
        cur = PackCursor()
        for i in range(len(seqs)):
            static = inst_idx[i]
            cur.seq = seqs[i]
            cur.inst = insts[static]
            cur.pc = pcs[i]
            cur.qp_value = qps[i]
            cur.executed = execs[i]
            cur.taken = takens[i]
            cur.target_pc = targets[i]
            cur.next_pc = nexts[i]
            cur.mem_address = mems[i]
            cur.pred_writes = writes[i]
            cur.guard_producer_seq = producers[i]
            cur.is_branch = branch_f[static]
            cur.is_compare = compare_f[static]
            cur.is_conditional_branch = cond_f[static]
            yield cur

    def spans(self, start: int, stop: int) -> Iterator[Tuple["TracePack", int, int]]:
        """``(pack, low, high)`` pieces covering rows ``[start, stop)``: here
        the one piece of this pack (see :meth:`ChunkedTracePack.spans`)."""
        yield self, start, min(stop, len(self))

    def _cursor_static_flags(self) -> Tuple[List[bool], List[bool], List[bool]]:
        branch_f = [inst.is_branch for inst in self.insts]
        compare_f = [inst.is_compare for inst in self.insts]
        cond_f = [
            isinstance(inst, BranchInstruction) and inst.is_conditional
            for inst in self.insts
        ]
        return branch_f, compare_f, cond_f

    # ------------------------------------------------------------------
    def static_flags(self) -> Dict[str, Any]:
        """Per-static-instruction flag arrays, indexed by ``inst_index``.

        Cached; used by the vectorized statistics passes in
        :mod:`repro.emulator.trace`.
        """
        flags = self._static_flags
        if flags is None:
            branch_f, compare_f, cond_f = self._cursor_static_flags()
            flags = {
                "is_predicated": np.array(
                    [inst.is_predicated for inst in self.insts], dtype=bool
                ),
                "is_compare": np.array(compare_f, dtype=bool),
                "is_load": np.array(
                    [inst.is_load for inst in self.insts], dtype=bool
                ),
                "is_store": np.array(
                    [inst.is_store for inst in self.insts], dtype=bool
                ),
                "is_branch": np.array(branch_f, dtype=bool),
                "is_conditional_branch": np.array(cond_f, dtype=bool),
            }
            self._static_flags = flags
        return flags

    # ------------------------------------------------------------------
    # On-disk encoding (trace format version 4)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Encode as ``PACK_MAGIC + header + zlib(column buffers + insts)``.

        The dynamic rows are raw little-endian array buffers — no pickle is
        involved for them; only the (small, deduplicated) static instruction
        table is pickled.  The ``_DELTA_COLUMNS`` are stored as first
        differences.
        """
        header_columns = []
        buffers = []
        for name, dtype in _COLUMNS:
            column = np.ascontiguousarray(getattr(self, name), dtype=np.dtype(dtype))
            if name in _DELTA_COLUMNS:
                column = np.diff(column, prepend=column.dtype.type(0))
            header_columns.append([name, dtype, int(column.shape[0])])
            buffers.append(column.tobytes())
        insts_blob = pickle.dumps(self.insts, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps(
            {"n": len(self), "columns": header_columns, "insts_bytes": len(insts_blob)},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        body = zlib.compress(b"".join(buffers) + insts_blob, 6)
        return PACK_MAGIC + struct.pack("<I", len(header)) + header + body

    @classmethod
    def from_bytes(cls, data) -> "TracePack":
        """Decode a pack written by :meth:`to_bytes` from any bytes-like
        object (a ``memoryview`` of a store payload decodes without a copy)."""
        if bytes(data[:4]) != PACK_MAGIC:
            raise ValueError("not a columnar trace pack (bad magic)")
        (header_len,) = struct.unpack_from("<I", data, 4)
        header_end = 8 + header_len
        header = json.loads(bytes(data[8:header_end]))
        body = zlib.decompress(data[header_end:])
        columns: Dict[str, Any] = {}
        offset = 0
        for name, dtype, length in header["columns"]:
            dt = np.dtype(dtype)
            size = dt.itemsize * length
            column = np.frombuffer(body, dtype=dt, count=length, offset=offset)
            if name in _DELTA_COLUMNS:
                column = np.cumsum(column, dtype=dt)
            columns[name] = column
            offset += size
        insts_blob = body[offset : offset + header["insts_bytes"]]
        insts = pickle.loads(insts_blob)
        expected = {name for name, _ in _COLUMNS}
        missing = expected - set(columns)
        if missing:
            raise ValueError(f"trace pack is missing columns {sorted(missing)}")
        return cls(insts=insts, **{name: columns[name] for name in expected})


# ----------------------------------------------------------------------
# Chunked packs
# ----------------------------------------------------------------------
def _segment_row_count(blob) -> int:
    """Row count of one segment, read from its uncompressed header.

    Cheap on purpose: indexing a chunked pack touches only the JSON headers,
    never the zlib bodies, so opening a multi-gigabyte trace costs a few
    hundred bytes of parsing per segment.
    """
    if bytes(blob[:4]) != PACK_MAGIC:
        raise ValueError("chunked trace pack segment has a bad magic")
    (header_len,) = struct.unpack_from("<I", blob, 4)
    if 8 + header_len > len(blob):
        raise ValueError("chunked trace pack segment header is truncated")
    header = json.loads(bytes(blob[8 : 8 + header_len]).decode("utf-8"))
    return int(header["n"])


class ChunkedPackWriter:
    """Streams chunked-pack segment records into a binary file object.

    The writer is what keeps ingestion's peak memory bounded: the emulator
    hands over one finalized segment at a time, the writer encodes and
    appends it, and nothing upstream retains the segment.  Callers must
    invoke :meth:`finish` to append the terminator record; a file without it
    is detectably truncated.
    """

    __slots__ = ("_handle", "rows", "_finished")

    def __init__(self, handle) -> None:
        handle.write(CHUNK_MAGIC)
        self._handle = handle
        self.rows = 0
        self._finished = False

    def add_segment(self, pack: "TracePack") -> None:
        if self._finished:
            raise ValueError("ChunkedPackWriter is finished")
        blob = pack.to_bytes()
        self._handle.write(struct.pack("<Q", len(blob)))
        self._handle.write(blob)
        self.rows += len(pack)

    def finish(self) -> int:
        """Write the terminator record; return the total row count."""
        if not self._finished:
            self._handle.write(struct.pack("<Q", 0))
            self._finished = True
        return self.rows


class ChunkedTracePack:
    """A dynamic trace stored as a sequence of :class:`TracePack` segments.

    The streaming counterpart of :class:`TracePack`: segments decode lazily
    (an LRU of :data:`_DECODE_CACHE` blob-backed segments stays decoded), so
    iterating a huge trace holds at most a couple of segments' worth of
    decoded columns plus the compressed payload.  :meth:`cursor` hides the
    segmentation completely — consumers see one uninterrupted row stream,
    and the range form serves windowed simulation without decoding skipped
    segments.

    Each segment pickles its own copy of the static instruction table; rows
    of different segments referring to the same static instruction therefore
    yield *equal* (same ``uid``, same fields) but not *identical* objects,
    which every consumer keyed on ``uid`` or field equality handles.
    """

    #: Blob-backed segments kept decoded at once (adjacent-window locality).
    _DECODE_CACHE = 2

    __slots__ = ("_packs", "_blobs", "_lengths", "_starts", "_decoded")

    def __init__(self, packs, blobs, lengths) -> None:
        self._packs: List[Optional[TracePack]] = list(packs)
        self._blobs: List[Optional[Any]] = list(blobs)
        self._lengths: List[int] = [int(length) for length in lengths]
        starts = [0]
        for length in self._lengths:
            starts.append(starts[-1] + length)
        self._starts: List[int] = starts
        self._decoded: List[int] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_segments(cls, packs: Sequence["TracePack"]) -> "ChunkedTracePack":
        """Wrap already-decoded segments (all stay resident; no eviction)."""
        packs = list(packs)
        return cls(
            packs=packs,
            blobs=[None] * len(packs),
            lengths=[len(pack) for pack in packs],
        )

    @classmethod
    def from_bytes(cls, data) -> "ChunkedTracePack":
        """Open a chunked payload from any bytes-like object; only segment
        headers are parsed eagerly, and segments stay views of ``data``."""
        if bytes(data[:4]) != CHUNK_MAGIC:
            raise ValueError("not a chunked trace pack (bad magic)")
        view = memoryview(data)
        offset = 4
        blobs: List[Any] = []
        lengths: List[int] = []
        while True:
            if offset + 8 > len(data):
                raise ValueError("chunked trace pack is truncated (no terminator)")
            (size,) = struct.unpack_from("<Q", view, offset)
            offset += 8
            if size == 0:
                break
            if offset + size > len(data):
                raise ValueError("chunked trace pack segment overruns the payload")
            blob = view[offset : offset + size]
            offset += size
            lengths.append(_segment_row_count(blob))
            blobs.append(blob)
        if offset != len(data):
            raise ValueError("chunked trace pack has trailing bytes")
        return cls(packs=[None] * len(blobs), blobs=blobs, lengths=lengths)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._starts[-1]

    def __iter__(self) -> Iterator[DynInst]:
        for index in range(self.segment_count):
            for dyn in self.segment(index).to_dyninsts():
                yield dyn

    @property
    def segment_count(self) -> int:
        return len(self._lengths)

    @property
    def segment_lengths(self) -> Tuple[int, ...]:
        return tuple(self._lengths)

    @property
    def nbytes(self) -> int:
        """Encoded size of blob-backed segments plus resident column bytes."""
        total = 0
        for index in range(self.segment_count):
            blob = self._blobs[index]
            if blob is not None:
                total += len(blob)
            elif self._packs[index] is not None:
                total += self._packs[index].nbytes
        return total

    # ------------------------------------------------------------------
    def segment(self, index: int) -> TracePack:
        """The decoded segment at ``index`` (LRU-cached for blob-backed)."""
        pack = self._packs[index]
        if pack is not None:
            if self._blobs[index] is not None and index in self._decoded:
                self._decoded.remove(index)
                self._decoded.append(index)
            return pack
        pack = TracePack.from_bytes(self._blobs[index])
        self._packs[index] = pack
        self._decoded.append(index)
        while len(self._decoded) > self._DECODE_CACHE:
            self._packs[self._decoded.pop(0)] = None
        return pack

    def spans(self, start: int, stop: int) -> Iterator[Tuple[TracePack, int, int]]:
        """``(segment, low, high)`` pieces covering rows ``[start, stop)``.

        Only the segments overlapping the range are decoded, in order, so a
        windowed caller pays for exactly the rows it simulates.
        """
        stop = min(stop, len(self))
        start = max(0, start)
        for index in range(self.segment_count):
            seg_start = self._starts[index]
            seg_stop = self._starts[index + 1]
            if seg_stop <= start:
                continue
            if seg_start >= stop:
                break
            yield self.segment(index), max(0, start - seg_start), min(stop, seg_stop) - seg_start

    def cursor(self, start: int = 0, stop: Optional[int] = None) -> Iterator[PackCursor]:
        """One uninterrupted flyweight row stream across segment boundaries."""
        for pack, low, high in self.spans(start, len(self) if stop is None else stop):
            yield from pack.cursor(low, high)

    def to_dyninsts(self) -> List[DynInst]:
        """Materialise the reference object representation, segment by segment."""
        out: List[DynInst] = []
        for index in range(self.segment_count):
            out.extend(self.segment(index).to_dyninsts())
        return out

    def concat(self) -> TracePack:
        """Merge every segment into one monolithic :class:`TracePack`.

        Deliberately materialises everything — the escape hatch for
        consumers that need a single pack (e.g. tests comparing the two
        layouts), not a streaming path.  Static instruction tables are
        re-deduplicated by ``uid`` and ``inst_index`` remapped accordingly.
        """
        if not self._lengths:
            return TracePack._empty()
        insts: List[Any] = []
        uid_to_index: Dict[int, int] = {}
        columns: Dict[str, List[Any]] = {name: [] for name, _ in _COLUMNS}
        payload_base = 0
        for index in range(self.segment_count):
            pack = self.segment(index)
            remap = np.empty(max(1, len(pack.insts)), dtype=np.int32)
            for position, inst in enumerate(pack.insts):
                merged = uid_to_index.get(inst.uid)
                if merged is None:
                    merged = len(insts)
                    uid_to_index[inst.uid] = merged
                    insts.append(inst)
                remap[position] = merged
            for name, _dtype in _COLUMNS:
                if name == "pred_offsets":
                    offsets = pack.pred_offsets + payload_base
                    columns[name].append(offsets if index == 0 else offsets[1:])
                elif name == "inst_index":
                    columns[name].append(remap[pack.inst_index])
                else:
                    columns[name].append(getattr(pack, name))
            payload_base += int(pack.pred_offsets[-1])
        merged_columns = {
            name: np.concatenate(parts).astype(np.dtype(dtype), copy=False)
            for (name, dtype), parts in zip(_COLUMNS, columns.values())
        }
        return TracePack(insts=insts, **merged_columns)

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Encode as ``CHUNK_MAGIC``, ``<u64 size><segment>`` records and a
        terminator."""
        parts: List[bytes] = [CHUNK_MAGIC]
        for index in range(self.segment_count):
            blob = self._blobs[index]
            blob = self._packs[index].to_bytes() if blob is None else bytes(blob)
            parts.append(struct.pack("<Q", len(blob)))
            parts.append(blob)
        parts.append(struct.pack("<Q", 0))
        return b"".join(parts)
