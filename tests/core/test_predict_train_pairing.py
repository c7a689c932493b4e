"""Predict/train pairing: every table update lands on an entry its own
prediction read.

gshare, the perceptron and TAGE train the entry they predicted from, so a
scheme must hand each update the history its prediction used.  The test
instruments every predictor table of a scheme at its kernel seam — the
perceptron row (:class:`FlatWeightTable`), the entries gshare's and TAGE's
planned kernels (``output_planned`` / ``train_planned``) select from their
plan and history, PEP-PA's pattern-table index, and the confidence counter
the predicate and wish schemes read at rename and train through
``record_slot`` at completion — and attributes each
access to the dynamic branch or compare whose hook made it: accesses in a
rename hook are predictions, accesses in ``on_branch_resolved`` /
``on_compare_complete`` are updates.  Every update of a dynamic instance
must touch only entries one of its predictions read, for every registered
scheme on both timing loops.  A scheme that trains its first level with
the history after the branch's own push (the bug the property was written
for) must fail it, and so must one that trains a confidence counter no
prediction read.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.core import PredicatePredictionScheme, WishBranchScheme
from repro.engine import IF_CONVERTED, ExecutionEngine, SchemeSpec
from repro.experiments.setup import ExperimentProfile, scheme_kinds
from repro.pipeline.core import OutOfOrderCore
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.counters import CounterTable
from repro.predictors.gshare import GsharePredictor
from repro.predictors.perceptron import FlatWeightTable
from repro.predictors.tage import TAGEPredictor

INSTRUCTIONS = 2_000
BENCHMARKS = ("gap", "gzip")

SPECS = [SchemeSpec.make(kind) for kind in scheme_kinds()] + [
    SchemeSpec.make(kind, second_level="tage")
    for kind in ("conventional", "predicate", "wish")
]

READ_HOOKS = ("on_branch_rename", "on_compare_rename")
WRITE_HOOKS = ("on_branch_resolved", "on_compare_complete")


class _Recorder:
    """Table entries read and written, per dynamic sequence number."""

    def __init__(self) -> None:
        self.reads = defaultdict(set)
        self.writes = defaultdict(set)
        self.current = None

    def touch(self, table, index) -> None:
        if self.current is not None:
            self.current.add((id(table), index))

    def hook(self, function, accesses):
        def recorded(dyn, *args):
            self.current = accesses[dyn.seq]
            try:
                return function(dyn, *args)
            finally:
                self.current = None

        return recorded


#: The recorder of the run in progress (the recording table classes below
#: have no room for one per instance).
RECORDER = _Recorder()


class _RecordingFlatWeightTable(FlatWeightTable):
    __slots__ = ()

    def output(self, index, combined_history):
        RECORDER.touch(self, index)
        return super().output(index, combined_history)

    def train(self, index, combined_history, outcome):
        RECORDER.touch(self, index)
        super().train(index, combined_history, outcome)


class _RecordingCounterTable(CounterTable):
    __slots__ = ()

    def taken(self, index):
        RECORDER.touch(self, self._index(index))
        return super().taken(index)

    def train(self, index, outcome):
        RECORDER.touch(self, self._index(index))
        super().train(index, outcome)


class _RecordingCounters(bytearray):
    """Confidence counters that record every read and write."""

    def __getitem__(self, index):
        RECORDER.touch(self, index)
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        RECORDER.touch(self, index)
        super().__setitem__(index, value)


def _record_kernels(predictor, entries) -> None:
    """Record the entries ``entries(key, history)`` of every planned kernel
    call of ``predictor``."""
    output, train = predictor.output_planned, predictor.train_planned

    def recorded_output(key, local_slot, history):
        for entry in entries(key, history):
            RECORDER.touch(predictor, entry)
        return output(key, local_slot, history)

    def recorded_train(key, local_slot, history, outcome):
        for entry in entries(key, history):
            RECORDER.touch(predictor, entry)
        train(key, local_slot, history, outcome)

    predictor.output_planned, predictor.train_planned = recorded_output, recorded_train


def _gshare_entries(predictor: GsharePredictor):
    return lambda folded, history: [(folded ^ history) & (predictor.entries - 1)]


def _tage_entries(predictor: TAGEPredictor):
    # The reference hashes of the plan's pc, not the optimized kernel's.
    def entries(key, history):
        pc = key[0]
        yield "base", predictor._base_index(pc)
        for table in range(predictor.num_tables):
            yield table, predictor._index(pc, history, table)

    return entries


def _instrument(obj, seen) -> None:
    """Swap every predictor table reachable from ``obj`` for a recording one."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if type(obj) is FlatWeightTable:
        obj.__class__ = _RecordingFlatWeightTable
    elif type(obj) is CounterTable:
        obj.__class__ = _RecordingCounterTable
    elif isinstance(obj, GsharePredictor):
        _record_kernels(obj, _gshare_entries(obj))
    elif isinstance(obj, TAGEPredictor):
        _record_kernels(obj, _tage_entries(obj))
    elif isinstance(obj, ConfidenceEstimator):
        obj.counters = _RecordingCounters(obj.counters)
    else:
        for value in getattr(obj, "__dict__", {}).values():
            if type(value).__module__.startswith("repro."):
                _instrument(value, seen)


def _unpaired(scheme, pack, optimized: bool) -> dict:
    """Run ``scheme`` recorded; the entries each update wrote that no
    prediction of its dynamic instance read, by sequence number."""
    global RECORDER
    RECORDER = recorder = _Recorder()
    _instrument(scheme, set())
    for name in READ_HOOKS:
        setattr(scheme, name, recorder.hook(getattr(scheme, name), recorder.reads))
    for name in WRITE_HOOKS:
        setattr(scheme, name, recorder.hook(getattr(scheme, name), recorder.writes))
    OutOfOrderCore(optimized=optimized).run(pack, scheme, "pairing")
    assert any(recorder.writes.values()), "the run trained no table"
    return {
        seq: sorted(map(str, written - recorder.reads.get(seq, set())))
        for seq, written in recorder.writes.items()
        if not written <= recorder.reads.get(seq, set())
    }


class _PostPushFirstLevel(PredicatePredictionScheme):
    """The predicate scheme with its first level trained at the history
    after the branch pushed its own outcome (no prediction read it)."""

    def on_branch_resolved(self, dyn, resolve_cycle, mispredicted):
        pending = self._fetch_histories.pop(dyn.seq, None)
        if pending is not None:
            (key, local_slot), _history = pending
            self.first_level.train_planned(
                key, local_slot, self._branch_ghr.value, bool(dyn.taken)
            )


def _neighbour_confidence(scheme_class):
    """``scheme_class`` with each confidence update landing on the counter
    after the one its prediction read."""

    class NeighbourConfidence(scheme_class):
        def __init__(self):
            super().__init__()
            confidence = self.confidence
            record = confidence.record_slot
            confidence.record_slot = lambda slot, correct: record(
                (slot + 1) % confidence.entries, correct
            )

    return NeighbourConfidence


CONFIDENCE_SCHEMES = {
    "predicate": PredicatePredictionScheme,
    "wish": WishBranchScheme,
}


@pytest.fixture(scope="module")
def packs():
    profile = ExperimentProfile(
        name="pairing",
        instructions_per_benchmark=INSTRUCTIONS,
        benchmarks=list(BENCHMARKS),
        profile_budget=INSTRUCTIONS,
    )
    engine = ExecutionEngine(profile, store=None)
    return {b: engine.collect_trace(b, IF_CONVERTED) for b in BENCHMARKS}


LOOPS = pytest.mark.parametrize("optimized", [True, False], ids=["fast-loop", "reference-loop"])


@LOOPS
@pytest.mark.parametrize("spec", SPECS, ids=SchemeSpec.describe)
@pytest.mark.parametrize("workload", BENCHMARKS)
def test_every_update_writes_an_entry_its_prediction_read(packs, workload, spec, optimized):
    scheme = spec.build()
    unpaired = _unpaired(scheme, packs[workload], optimized)
    assert not unpaired, f"{len(unpaired)} updates wrote entries no prediction read"
    confidence = getattr(scheme, "confidence", None)
    if confidence is not None:
        for accesses in (RECORDER.reads, RECORDER.writes):
            assert any(
                table == id(confidence.counters)
                for entries in accesses.values()
                for table, _ in entries
            ), "the confidence counters were not recorded"


@LOOPS
@pytest.mark.parametrize("workload", BENCHMARKS)
def test_training_the_first_level_after_the_push_is_caught(packs, workload, optimized):
    unpaired = _unpaired(_PostPushFirstLevel(), packs[workload], optimized)
    assert unpaired, "the property missed a first level trained at the post-push history"


@LOOPS
@pytest.mark.parametrize("kind", sorted(CONFIDENCE_SCHEMES))
@pytest.mark.parametrize("workload", BENCHMARKS)
def test_training_a_confidence_counter_no_prediction_read_is_caught(
    packs, workload, kind, optimized
):
    scheme = _neighbour_confidence(CONFIDENCE_SCHEMES[kind])()
    unpaired = _unpaired(scheme, packs[workload], optimized)
    counters = str(id(scheme.confidence.counters))
    assert any(
        entry.startswith(f"({counters},") for entries in unpaired.values() for entry in entries
    ), "the property missed a confidence counter trained at an entry no prediction read"
