"""Trace collection helpers and trace-level statistics.

These helpers are used by the tests, the examples and the experiments to
characterise workloads: branch counts, per-branch-site bias, the dynamic
distance between a compare and its consuming branch, and the fraction of
fetched instructions that were nullified (false qualifying predicate).

The production trace is the columnar
:class:`~repro.emulator.tracepack.TracePack`, for which the statistics below
run as vectorized numpy array passes over the pack's columns.  The reference
object form — a ``List[DynInst]`` from :func:`collect_trace` — is still
accepted everywhere here, with plain Python loops; it is the parity oracle
for the vectorized passes (bit-identical results; the equality is under
test).

The on-disk encoding is versioned.  Format 4 (current) writes a
single-segment trace as one columnar pack (``PACK_MAGIC``, with ``seq`` and
``pred_offsets`` delta-coded) and a longer one as the *chunked* encoding, a
sequence of independently decodable packs (see
:class:`~repro.emulator.tracepack.ChunkedTracePack`).  Format 2 and 3 packs
(``RTP2`` segments, every column raw) are refused with :class:`ValueError`;
their store keys carry the old version, so they are never looked up.
Format 1 pickles of the ``DynInst`` list are still read but no longer
written: an object trace is packed before encoding.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.emulator.executor import DynInst, Emulator
from repro.emulator.tracepack import (
    CHUNK_MAGIC,
    OPCLASS_CODES,
    PACK_MAGIC,
    ChunkedTracePack,
    TracePack,
)
from repro.isa.opcodes import OpClass
from repro.program.program import Program

#: Bump when the on-disk trace encoding changes.  Folded into the artifact
#: store's TRACES cache keys (see :mod:`repro.engine.planner`), so a format
#: bump invalidates stale cached traces instead of failing at load time.
TRACE_FORMAT_VERSION = 4

#: Pickle-container versions :func:`deserialize_trace` still accepts.
_READABLE_PICKLE_VERSIONS = (1, 2, 3)

#: Any trace representation.
Trace = Union[List[DynInst], TracePack, ChunkedTracePack]


@dataclass
class BranchSiteStats:
    """Dynamic statistics for one static conditional branch."""

    pc: int
    executions: int = 0
    taken: int = 0

    @property
    def taken_rate(self) -> float:
        return self.taken / self.executions if self.executions else 0.0

    @property
    def bias(self) -> float:
        """Bias towards the dominant direction, in [0.5, 1.0]."""
        rate = self.taken_rate
        return max(rate, 1.0 - rate) if self.executions else 1.0


@dataclass
class TraceStatistics:
    """Aggregate statistics over a dynamic instruction trace."""

    fetched: int = 0
    executed: int = 0
    nullified: int = 0
    conditional_branches: int = 0
    taken_branches: int = 0
    unconditional_branches: int = 0
    compares: int = 0
    loads: int = 0
    stores: int = 0
    predicated_instructions: int = 0
    branch_sites: Dict[int, BranchSiteStats] = field(default_factory=dict)
    #: Distribution of dynamic distance (in instructions) between a
    #: conditional branch and the compare that produced its guard.
    guard_distances: List[int] = field(default_factory=list)

    @property
    def nullification_rate(self) -> float:
        return self.nullified / self.fetched if self.fetched else 0.0

    @property
    def conditional_branch_fraction(self) -> float:
        return self.conditional_branches / self.fetched if self.fetched else 0.0

    @property
    def mean_guard_distance(self) -> float:
        if not self.guard_distances:
            return 0.0
        return sum(self.guard_distances) / len(self.guard_distances)

    def hard_branch_fraction(self, bias_threshold: float = 0.9) -> float:
        """Fraction of dynamic conditional branches from low-bias sites."""
        hard = sum(
            s.executions
            for s in self.branch_sites.values()
            if s.bias < bias_threshold and s.executions > 0
        )
        return hard / self.conditional_branches if self.conditional_branches else 0.0

    def static_oracle_accuracy(self) -> float:
        """Accuracy of a per-site oracle static predictor.

        Every site is predicted in its dominant direction — the alias-free,
        perfect-history limit of any per-site static predictor, used by the
        idealized-predictor study as a trace-level upper-bound reference.
        """
        if not self.conditional_branches:
            return 1.0
        correct = sum(
            max(s.taken, s.executions - s.taken) for s in self.branch_sites.values()
        )
        return correct / self.conditional_branches


def collect_trace(program: Program, max_instructions: int) -> List[DynInst]:
    """Run ``program`` and return the dynamic instruction list."""
    emulator = Emulator(program)
    return list(emulator.run(max_instructions))


def collect_trace_pack(program: Program, max_instructions: int) -> TracePack:
    """Run ``program`` and return its trace as a columnar pack."""
    return Emulator(program).run_pack(max_instructions)


# ----------------------------------------------------------------------
# Trace serialization
# ----------------------------------------------------------------------
def serialize_trace(trace: Trace) -> bytes:
    """Encode a dynamic trace for the on-disk artifact store.

    A :class:`TracePack` is written in the columnar encoding (compressed
    column buffers; only the deduplicated static instruction table is
    pickled), a :class:`ChunkedTracePack` in the chunked one.  An object
    trace is packed first with :meth:`TracePack.from_dyninsts`.  The
    encoding is self-contained: a trace can be re-simulated without
    re-materialising the program it came from.
    """
    if not isinstance(trace, (TracePack, ChunkedTracePack)):
        trace = TracePack.from_dyninsts(trace)
    return trace.to_bytes()


def deserialize_trace(data) -> Trace:
    """Decode a trace produced by :func:`serialize_trace` from any
    bytes-like object.

    Columnar payloads decode to a :class:`TracePack`; pickle payloads
    (format 1 archives included) decode to the object list they carry.
    Raises :class:`ValueError` on an unknown encoding so callers (the
    artifact store) treat stale formats as cache misses.
    """
    magic = bytes(data[:4])
    if magic == CHUNK_MAGIC:
        return ChunkedTracePack.from_bytes(data)
    if magic == PACK_MAGIC:
        return TracePack.from_bytes(data)
    if magic[:3] == b"RTP":
        raise ValueError(
            f"trace pack encoding {magic!r} is no longer read "
            f"(format {TRACE_FORMAT_VERSION} writes {PACK_MAGIC!r})"
        )
    version, trace = pickle.loads(data)
    if version not in _READABLE_PICKLE_VERSIONS:
        raise ValueError(
            f"trace format version {version} != expected {TRACE_FORMAT_VERSION}"
        )
    return trace


def save_trace(path: str, trace: Trace) -> None:
    """Write a trace to ``path`` (see :func:`serialize_trace`)."""
    with open(path, "wb") as handle:
        handle.write(serialize_trace(trace))


def load_trace(path: str) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with open(path, "rb") as handle:
        return deserialize_trace(handle.read())


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def trace_statistics(trace: Trace) -> TraceStatistics:
    """Compute :class:`TraceStatistics` over a dynamic trace.

    Object traces take the reference per-instruction loop; packs take the
    vectorized column pass.  Both produce equal statistics (under test in
    ``tests/emulator/test_tracepack.py``).  Chunked packs run the column
    pass one segment at a time and merge — never holding more than the
    decode LRU's worth of expanded columns.
    """
    if isinstance(trace, ChunkedTracePack):
        stats = TraceStatistics()
        for index in range(trace.segment_count):
            _merge_statistics(stats, _trace_statistics_pack(trace.segment(index)))
        return stats
    if isinstance(trace, TracePack):
        return _trace_statistics_pack(trace)
    stats = TraceStatistics()
    for dyn in trace:
        stats.fetched += 1
        if dyn.executed:
            stats.executed += 1
        else:
            stats.nullified += 1
        inst = dyn.inst
        if inst.is_predicated:
            stats.predicated_instructions += 1
        if dyn.is_compare:
            stats.compares += 1
        elif inst.is_load:
            stats.loads += 1
        elif inst.is_store:
            stats.stores += 1
        elif dyn.is_branch:
            if dyn.is_conditional_branch:
                stats.conditional_branches += 1
                site = stats.branch_sites.get(dyn.pc)
                if site is None:
                    site = BranchSiteStats(pc=dyn.pc)
                    stats.branch_sites[dyn.pc] = site
                site.executions += 1
                if dyn.taken:
                    site.taken += 1
                    stats.taken_branches += 1
                if dyn.guard_producer_seq >= 0:
                    stats.guard_distances.append(dyn.seq - dyn.guard_producer_seq)
            else:
                stats.unconditional_branches += 1
                if dyn.taken:
                    stats.taken_branches += 1
    return stats


def _trace_statistics_pack(pack: TracePack) -> TraceStatistics:
    """Vectorized :func:`trace_statistics` over a pack's columns."""
    import numpy as np

    stats = TraceStatistics()
    n = len(pack)
    stats.fetched = n
    if n == 0:
        return stats

    flags = pack.static_flags()
    idx = pack.inst_index
    executed = pack.executed != 0
    taken = pack.taken == 1
    # Opcode classes come straight from the per-row ``opclass`` column;
    # predication and branch conditionality need the static table.
    opclass = pack.opclass
    compare = opclass == OPCLASS_CODES[OpClass.COMPARE]
    load = opclass == OPCLASS_CODES[OpClass.LOAD]
    store = opclass == OPCLASS_CODES[OpClass.STORE]
    branch = opclass == OPCLASS_CODES[OpClass.BRANCH]
    predicated = flags["is_predicated"][idx]
    cond = flags["is_conditional_branch"][idx]
    uncond = branch & ~cond

    stats.executed = int(executed.sum())
    stats.nullified = n - stats.executed
    stats.predicated_instructions = int(predicated.sum())
    stats.compares = int(compare.sum())
    stats.loads = int(load.sum())
    stats.stores = int(store.sum())
    stats.conditional_branches = int(cond.sum())
    stats.unconditional_branches = int(uncond.sum())
    stats.taken_branches = int((branch & taken).sum())

    if stats.conditional_branches:
        cond_pcs = pack.pc[cond]
        cond_taken = taken[cond]
        # First-occurrence site order matches the reference loop's insertion
        # order (dict equality does not depend on it, but renderings do).
        first = np.sort(np.unique(cond_pcs, return_index=True)[1])
        ordered_pcs = cond_pcs[first]
        executions = {
            int(pc): int(count)
            for pc, count in zip(*np.unique(cond_pcs, return_counts=True))
        }
        taken_counts = {
            int(pc): int(count)
            for pc, count in zip(*np.unique(cond_pcs[cond_taken], return_counts=True))
        }
        for pc in ordered_pcs.tolist():
            stats.branch_sites[pc] = BranchSiteStats(
                pc=pc, executions=executions[pc], taken=taken_counts.get(pc, 0)
            )
        producers = pack.guard_producer_seq
        guarded = cond & (producers >= 0)
        stats.guard_distances = (pack.seq[guarded] - producers[guarded]).tolist()
    return stats


def _merge_statistics(into: TraceStatistics, part: TraceStatistics) -> None:
    """Fold one segment's statistics into the running aggregate.

    Branch sites keep first-occurrence order across segments (segments are
    consumed in fetch order), matching the reference loop's insertion order.
    """
    into.fetched += part.fetched
    into.executed += part.executed
    into.nullified += part.nullified
    into.conditional_branches += part.conditional_branches
    into.taken_branches += part.taken_branches
    into.unconditional_branches += part.unconditional_branches
    into.compares += part.compares
    into.loads += part.loads
    into.stores += part.stores
    into.predicated_instructions += part.predicated_instructions
    for pc, site in part.branch_sites.items():
        merged = into.branch_sites.get(pc)
        if merged is None:
            into.branch_sites[pc] = BranchSiteStats(
                pc=pc, executions=site.executions, taken=site.taken
            )
        else:
            merged.executions += site.executions
            merged.taken += site.taken
    into.guard_distances.extend(part.guard_distances)


def branch_outcome_stream(trace: Trace) -> List[bool]:
    """Return the sequence of conditional-branch outcomes in fetch order."""
    if isinstance(trace, ChunkedTracePack):
        stream: List[bool] = []
        for index in range(trace.segment_count):
            stream.extend(branch_outcome_stream(trace.segment(index)))
        return stream
    if isinstance(trace, TracePack):
        if len(trace) == 0:
            return []
        cond = trace.static_flags()["is_conditional_branch"][trace.inst_index]
        return (trace.taken[cond] == 1).tolist()
    return [bool(d.taken) for d in trace if d.is_conditional_branch]


def per_site_outcomes(trace: Trace) -> Dict[int, List[bool]]:
    """Return per-branch-site outcome sequences (keyed by branch PC)."""
    if isinstance(trace, ChunkedTracePack):
        merged: Dict[int, List[bool]] = {}
        for index in range(trace.segment_count):
            for pc, seg_outcomes in _per_site_outcomes_pack(trace.segment(index)).items():
                merged.setdefault(pc, []).extend(seg_outcomes)
        return merged
    if isinstance(trace, TracePack):
        return _per_site_outcomes_pack(trace)
    outcomes: Dict[int, List[bool]] = defaultdict(list)
    for dyn in trace:
        if dyn.is_conditional_branch:
            outcomes[dyn.pc].append(bool(dyn.taken))
    return dict(outcomes)


def _per_site_outcomes_pack(pack: TracePack) -> Dict[int, List[bool]]:
    import numpy as np

    if len(pack) == 0:
        return {}
    cond = pack.static_flags()["is_conditional_branch"][pack.inst_index]
    pcs = pack.pc[cond]
    taken = pack.taken[cond] == 1
    if pcs.shape[0] == 0:
        return {}
    # Stable sort groups rows by site while preserving fetch order inside
    # each group; np.unique on the sorted keys yields the split points.
    order = np.argsort(pcs, kind="stable")
    sorted_pcs = pcs[order]
    sorted_taken = taken[order]
    unique_pcs, starts = np.unique(sorted_pcs, return_index=True)
    splits = np.split(sorted_taken, starts[1:])
    return {
        int(pc): outcomes.tolist() for pc, outcomes in zip(unique_pcs, splits)
    }


def as_trace_pack(trace: Trace) -> TracePack:
    """Return ``trace`` as one monolithic columnar pack.

    Object lists are columnarised; chunked packs are concatenated (this
    materialises every segment — use only where a single pack is required).
    """
    if isinstance(trace, ChunkedTracePack):
        return trace.concat()
    if isinstance(trace, TracePack):
        return trace
    return TracePack.from_dyninsts(trace)
