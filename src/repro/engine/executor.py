"""The execution engine: runs job graphs serially or across processes.

:class:`ExecutionEngine` is the one place artifacts are materialised.  Every
request goes through the same three-tier lookup — bounded in-memory cache,
then the persistent :class:`~repro.engine.store.ArtifactStore` (when one is
configured), then actual work — and every tier records what it did in
:class:`EngineStats`, which is how the tests (and the acceptance criteria)
prove that a second run recompiles and re-traces nothing.

Trace lifetime is an engine responsibility: traces are the only sizeable
artifact (tens of MB for the full suite at paper budgets), so the engine
keeps at most ``max_cached_traces`` of them in memory and evicts in LRU
order.  Experiments no longer manage trace memory by hand.

With ``jobs > 1`` the engine executes independent (benchmark, flavour) cells
in parallel worker processes; workers share the on-disk store (writes are
atomic) and return their (small) results by pickle.  Traces are never
queue-pickled: with a store they travel as columnar artifact files, and
without one the parent spills its in-memory traces into an ephemeral
trace-only store the workers read back.  Simulation is deterministic given
a trace and a scheme spec, so parallel runs are bit-identical to serial
ones.

**Supervision.** Parallel execution survives worker death (an OOM-killed
or crashed process surfaces as a broken pool): the lost cells' jobs are
re-planned — workers consult the store first, so finished sub-jobs are
never redone — and retried on a fresh pool, up to ``max_retries`` rounds;
past the budget the engine degrades to in-process serial execution of the
remainder, so a sweep completes (slowly) rather than dying.  A progress
watchdog (``job_timeout`` seconds without any cell completing) kills a
stalled pool the same way.  :class:`EngineStats` accounts for all of it
(``workers_lost``/``jobs_retried``/``jobs_timed_out``).
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import faults
from repro.log import get_logger

from repro.compiler.binaries import BinaryFactory
from repro.emulator.executor import Emulator
from repro.emulator.tracepack import ChunkedPackWriter
from repro.engine.jobs import (
    BASELINE,
    IF_CONVERTED,
    BatchedSimulateJob,
    SchemeSpec,
    SimulateJob,
)
from repro.engine.planner import (
    ExperimentDefinition,
    JobGraph,
    make_batched_simulate_job,
    make_build_job,
    make_simulate_job,
    make_trace_job,
    plan,
)
from repro.engine.store import BINARIES, CHECKPOINTS, RESULTS, TRACES, ArtifactStore
from repro.pipeline.batched import LaneSpec, simulate_lanes
from repro.pipeline.core import OutOfOrderCore, SimulationResult
from repro.pipeline.machine import MachineSpec
from repro.pipeline.windowed import SimulationCheckpoint, simulate_windowed
from repro.program.program import Program
from repro.workloads.registry import build_workload
from repro.workloads.spec_suite import workload_names

_log = get_logger(__name__)

#: (benchmark, flavour)
Cell = Tuple[str, str]

#: What one parallel worker receives:
#: (profile, store root, spill root, jobs, engine options).  The options
#: dict carries the streaming knobs (``checkpoint_every``,
#: ``trace_segment_rows``) so a retried worker resumes a windowed run from
#: its persisted checkpoint instead of starting over.
_CellPayload = Tuple[
    Any, Optional[str], Optional[str], List[SimulateJob], Dict[str, Any]
]

#: What an experiment gets back: (benchmark, label) → result.
ExperimentOutputs = Dict[Tuple[str, str], SimulationResult]


@dataclass
class EngineStats:
    """What the engine actually did (vs. served from its caches)."""

    binaries_built: int = 0
    binaries_loaded: int = 0
    traces_collected: int = 0
    traces_loaded: int = 0
    simulations_run: int = 0
    results_loaded: int = 0
    #: Lane-batched execution accounting: how many batched kernel launches
    #: happened and how many simulate jobs rode in them.  ``simulations_run``
    #: still counts every *job* (lanes included), so the cache-proof
    #: invariant "second run simulates nothing" is batch-transparent.
    batches_run: int = 0
    batched_lanes: int = 0
    #: Wall-clock seconds spent collecting traces / running simulations
    #: (work actually performed, cache hits excluded).
    trace_seconds: float = 0.0
    simulate_seconds: float = 0.0
    #: Fault-recovery accounting: simulate jobs resubmitted after a pool
    #: failure, worker-death events survived, and jobs whose pool was
    #: killed by the progress watchdog.  All zero on a clean run.
    jobs_retried: int = 0
    workers_lost: int = 0
    jobs_timed_out: int = 0
    #: Windowed-simulation accounting: mid-run checkpoints persisted to the
    #: store (one per window of a batch, all lanes in it), and simulate jobs
    #: that resumed from one (a retry after a kill picks up mid-trace
    #: instead of restarting).  Zero unless ``checkpoint_every`` is
    #: configured.
    checkpoints_written: int = 0
    checkpoints_resumed: int = 0

    def merge(self, other: Dict[str, Any]) -> None:
        """Accumulate a worker's stats dict into this record (field-wise add)."""
        for field_ in fields(self):
            setattr(
                self,
                field_.name,
                getattr(self, field_.name) + other.get(field_.name, 0),
            )

    def as_dict(self) -> Dict[str, Any]:
        """The stats as a plain dict (the cross-process wire form)."""
        return {field_.name: getattr(self, field_.name) for field_ in fields(self)}

    def render(self) -> str:
        """One human-readable summary line of what the engine did."""
        batched = ""
        if self.batches_run:
            batched = f", {self.batched_lanes} lanes in {self.batches_run} batches"
        recovered = ""
        if self.workers_lost or self.jobs_retried or self.jobs_timed_out:
            recovered = (
                f", recovered from {self.workers_lost} lost workers "
                f"({self.jobs_retried} jobs retried, "
                f"{self.jobs_timed_out} timed out)"
            )
        if self.checkpoints_written or self.checkpoints_resumed:
            recovered += (
                f", wrote {self.checkpoints_written} checkpoints "
                f"({self.checkpoints_resumed} resumed)"
            )
        return (
            f"built {self.binaries_built} binaries ({self.binaries_loaded} cached), "
            f"collected {self.traces_collected} traces ({self.traces_loaded} cached) "
            f"in {self.trace_seconds:.2f}s, "
            f"ran {self.simulations_run} simulations ({self.results_loaded} cached) "
            f"in {self.simulate_seconds:.2f}s{batched}{recovered}"
        )


@dataclass
class JobTiming:
    """Wall-clock timing of one simulate job (the engine's result records).

    ``cached`` jobs were served from the artifact store; their ``seconds``
    measure the load, not a simulation.

    ``lanes`` is the size of the batched kernel launch the job rode in
    (1 for a per-cell run).  Batched jobs are attributed an equal share of
    the batch's wall clock — the lanes replay the same trace, so the
    per-instruction split is exactly proportional — keeping per-cell
    simulate seconds meaningful for throughput and regression accounting.
    """

    key: str
    benchmark: str
    flavour: str
    scheme: str
    seconds: float
    instructions: int
    cycles: int
    cached: bool
    lanes: int = 1

    def instructions_per_second(self) -> float:
        """Simulated-instruction throughput of this job (0 when untimed)."""
        return self.instructions / self.seconds if self.seconds > 0 else 0.0


class ExecutionEngine:
    """Materialises binaries, traces and results for job graphs."""

    def __init__(
        self,
        profile=None,
        store: Optional[ArtifactStore] = None,
        jobs: int = 1,
        max_cached_traces: int = 2,
        trace_spill: Optional[ArtifactStore] = None,
        max_retries: int = 2,
        job_timeout: Optional[float] = None,
        checkpoint_every: Optional[int] = None,
        trace_segment_rows: Optional[int] = None,
    ) -> None:
        # Lazy import: repro.experiments imports repro.engine.
        from repro.experiments.setup import PAPER_PROFILE

        self.profile = profile or PAPER_PROFILE
        self.store = store
        #: Supervision budget for parallel runs: how many retry rounds a
        #: broken/stalled pool is rebuilt before degrading to in-process
        #: serial execution of the remaining cells.
        self.max_retries = max(0, int(max_retries))
        #: Progress-watchdog window (seconds): with ``jobs > 1``, if no
        #: cell completes for this long the pool is presumed wedged,
        #: killed, and its outstanding cells retried.  ``None`` disables
        #: the watchdog.  This is deliberately *progress*-based — the pool
        #: API cannot observe when a queued cell starts running, so a
        #: per-job clock would penalise jobs for time spent queued.
        self.job_timeout = float(job_timeout) if job_timeout else None
        #: Ephemeral trace-only store used by parallel runs without a
        #: persistent store: the parent spills its in-memory traces there as
        #: columnar files and workers read them back, so traces cross the
        #: process boundary by file instead of by queue pickle.
        self.trace_spill = trace_spill
        #: Windowed-simulation cadence (rows per window): with a store, a
        #: resume checkpoint is persisted after each window, so a killed
        #: worker's retry continues mid-trace bit-identically.  ``None``
        #: runs straight through.  Checkpointed jobs still batch: one
        #: checkpoint holds every lane of a batch.
        if checkpoint_every is not None and int(checkpoint_every) < 1:
            raise ValueError(
                f"checkpoint_every must be a positive row count, got {checkpoint_every}"
            )
        self.checkpoint_every = (
            int(checkpoint_every) if checkpoint_every is not None else None
        )
        #: Trace-collection segmentation (rows per RTP3 segment): budgets
        #: above this stream completed segments to the store instead of
        #: materialising the whole pack, bounding peak memory.  ``None``
        #: keeps monolithic collection.  Batches run chunked traces one
        #: decoded segment at a time.
        if trace_segment_rows is not None and int(trace_segment_rows) < 1:
            raise ValueError(
                f"trace_segment_rows must be a positive row count, got {trace_segment_rows}"
            )
        self.trace_segment_rows = (
            int(trace_segment_rows) if trace_segment_rows is not None else None
        )
        self.jobs = max(1, int(jobs))
        self.max_cached_traces = max(1, int(max_cached_traces))
        self.factory = BinaryFactory(profile_budget=self.profile.profile_budget)
        self.stats = EngineStats()
        #: Per-simulate-job wall-clock records, in execution order.
        self.job_timings: List[JobTiming] = []
        self._binaries: Dict[Cell, Program] = {}
        #: In-memory trace cache of columnar packs.
        self._traces: "OrderedDict[Cell, Any]" = OrderedDict()

    # ------------------------------------------------------------------
    def benchmarks(self) -> List[str]:
        """Benchmarks selected by the profile (default: the full suite)."""
        return list(self.profile.benchmarks or workload_names())

    # ------------------------------------------------------------------
    # Artifact materialisation (in-memory cache → store → work)
    # ------------------------------------------------------------------
    def build_binary(self, benchmark: str, flavour: str) -> Program:
        """Return the compiled binary of one cell, building it if needed."""
        cell = (benchmark, flavour)
        cached = self._binaries.get(cell)
        if cached is not None:
            return cached
        job = make_build_job(benchmark, flavour, self.factory)
        program: Optional[Program] = None
        if self.store is not None:
            program = self.store.get(BINARIES, job.key)
        if program is not None:
            self.stats.binaries_loaded += 1
        else:
            program = self._compile(benchmark, flavour)
            self.stats.binaries_built += 1
            if self.store is not None:
                self.store.put(
                    BINARIES,
                    job.key,
                    program,
                    metadata={"benchmark": benchmark, "flavour": flavour},
                )
        self._binaries[cell] = program
        return program

    def _compile(self, benchmark: str, flavour: str) -> Program:
        # ``benchmark`` resolves through the workload registry, so it may be
        # a built-in name, a library name, or a spec/trace file path — the
        # resolution re-runs identically in worker processes.
        def generator() -> Program:
            return build_workload(benchmark)

        if flavour == BASELINE:
            return self.factory.build_baseline(benchmark, generator)
        if flavour == IF_CONVERTED:
            return self.factory.build_if_converted(benchmark, generator)
        raise ValueError(f"unknown binary flavour {flavour!r}")

    def collect_trace(self, benchmark: str, flavour: str):
        """Return the dynamic trace of one cell, collecting it if needed.

        The trace is a columnar :class:`~repro.emulator.tracepack.TracePack`
        (built directly by the emulator's
        :meth:`~repro.emulator.executor.Emulator.run_pack` loop), or a
        :class:`~repro.emulator.tracepack.ChunkedTracePack` when streamed
        through the store in segments.
        """
        cell = (benchmark, flavour)
        cached = self._traces.get(cell)
        if cached is not None:
            self._traces.move_to_end(cell)
            return cached
        build = make_build_job(benchmark, flavour, self.factory)
        job = make_trace_job(build, self.profile.instructions_per_benchmark)
        trace = None
        trace_store = self.store if self.store is not None else self.trace_spill
        if trace_store is not None:
            trace = trace_store.get(TRACES, job.key)
        if trace is not None:
            self.stats.traces_loaded += 1
        else:
            program = self.build_binary(benchmark, flavour)
            emulator = Emulator(program)
            streamed = (
                self.store is not None
                and self.trace_segment_rows is not None
                and job.instructions > self.trace_segment_rows
            )
            started = perf_counter()
            if streamed:
                trace = self._collect_trace_streaming(emulator, job)
            else:
                trace = emulator.run_pack(job.instructions)
            self.stats.trace_seconds += perf_counter() - started
            self.stats.traces_collected += 1
            # Write back to the persistent store only: the spill store is a
            # parent-to-worker handoff, and each cell is assigned to exactly
            # one worker, so a worker-side spill write would never be read.
            # (The streaming path already wrote through the store.)
            if self.store is not None and not streamed:
                self.store.put(
                    TRACES,
                    job.key,
                    trace,
                    metadata={
                        "benchmark": benchmark,
                        "flavour": flavour,
                        "instructions": len(trace),
                    },
                )
        self._traces[cell] = trace
        self._traces.move_to_end(cell)
        while len(self._traces) > self.max_cached_traces:
            self._traces.popitem(last=False)
        return trace

    def _collect_trace_streaming(self, emulator: Emulator, job) -> Any:
        """Collect one trace segment-by-segment straight into the store.

        Completed RTP3 segments are flushed to a scratch file as the
        emulator produces them — the full outcome list is never
        materialised, so peak memory is bounded by ``trace_segment_rows``
        regardless of the instruction budget.  The finished file is adopted
        by the store atomically (:meth:`~repro.engine.store.ArtifactStore.
        put_file`) and read back as a lazily-decoded
        :class:`~repro.emulator.tracepack.ChunkedTracePack`.
        """
        scratch = self.store.scratch_path(TRACES)
        try:
            with open(scratch, "wb") as handle:
                writer = ChunkedPackWriter(handle)
                emulator.run_pack(
                    job.instructions,
                    segment_rows=self.trace_segment_rows,
                    on_segment=writer.add_segment,
                )
                rows = writer.finish()
            self.store.put_file(
                TRACES,
                job.key,
                scratch,
                metadata={
                    "benchmark": job.benchmark,
                    "flavour": job.flavour,
                    "instructions": rows,
                    "segments": writer.segments,
                },
            )
        finally:
            try:
                os.remove(scratch)
            except OSError:
                pass
        trace = self.store.get(TRACES, job.key)
        if trace is None:  # pragma: no cover - requires concurrent damage
            raise RuntimeError(
                f"streamed trace {job.key} unreadable immediately after write"
            )
        return trace

    def release_trace(self, benchmark: str, flavour: str) -> None:
        """Drop one trace from the in-memory cache (a no-op if absent)."""
        self._traces.pop((benchmark, flavour), None)

    def simulate(
        self,
        benchmark: str,
        flavour: str,
        scheme: SchemeSpec,
        machine: Optional[MachineSpec] = None,
        sampling=None,
    ) -> SimulationResult:
        """Return the simulation result of one cell under one scheme.

        ``machine`` selects the simulated machine configuration (default:
        the Table 1 machine); ``sampling`` (a
        :class:`~repro.pipeline.windowed.SamplingSpec`) requests sampled
        simulation, cached under its own key.
        """
        build = make_build_job(benchmark, flavour, self.factory)
        trace_job = make_trace_job(build, self.profile.instructions_per_benchmark)
        job = make_simulate_job(trace_job, scheme, machine, sampling)
        return self._run_simulation(job)

    def _run_simulation(self, job: SimulateJob) -> SimulationResult:
        cached = self._load_cached_result(job)
        if cached is not None:
            return cached
        return self._simulate_uncached(job)

    def _load_cached_result(self, job: SimulateJob) -> Optional[SimulationResult]:
        """Serve one simulate job from the artifact store, if present."""
        if self.store is None:
            return None
        started = perf_counter()
        result = self.store.get(RESULTS, job.key)
        if result is None:
            return None
        self.stats.results_loaded += 1
        self._record_timing(job, result, perf_counter() - started, cached=True)
        return result

    def _checkpointing(self) -> bool:
        """True when windowed resume checkpoints are configured and usable."""
        return self.checkpoint_every is not None and self.store is not None

    def _simulate_uncached(self, job: SimulateJob) -> SimulationResult:
        """Run one simulate job (store miss path).

        Sampled jobs run through the windowed driver
        (:func:`~repro.pipeline.windowed.simulate_windowed`).  With
        ``checkpoint_every`` configured, every other job runs as a one-lane
        batch (:meth:`_run_batch`), so all full-run checkpoints have the
        batch layout; without it, the scalar core runs straight through.
        """
        if job.sampling is None and self._checkpointing():
            return self._run_batch(make_batched_simulate_job([job]))[job.key]
        faults.on_simulate_launch()
        trace = self.collect_trace(job.benchmark, job.flavour)
        core = OutOfOrderCore(config=job.machine.build_config())
        started = perf_counter()
        if job.sampling is not None:
            result = self._simulate_windowed(job, core, trace)
        else:
            result = core.run(trace, job.scheme.build(), program_name=job.benchmark)
        elapsed = perf_counter() - started
        self.stats.simulations_run += 1
        self.stats.simulate_seconds += elapsed
        self._record_timing(job, result, elapsed, cached=False)
        self._store_result(job, result)
        return result

    def _simulate_windowed(
        self, job: SimulateJob, core: OutOfOrderCore, trace
    ) -> SimulationResult:
        """One sampled simulate job, checkpointed under its own key."""
        options = self._checkpoint_options(job.key, [job], len(trace), job.sampling)
        result = simulate_windowed(
            core,
            trace,
            job.scheme.build(),
            program_name=job.benchmark,
            sampling=job.sampling,
            **options,
        )
        self._discard_checkpoint(job.key)
        return result

    def _checkpoint_options(
        self, key: str, jobs: Sequence[SimulateJob], total_rows: int, sampling=None
    ) -> Dict[str, Any]:
        """Windowing keywords for a checkpointed run stored under ``key``.

        Empty unless checkpointing is configured.  Otherwise the run pauses
        every ``checkpoint_every`` rows and persists a checkpoint under
        ``key``, and resumes from the one already there when it matches the
        run's row count, lane count and sampling mode.
        """
        if not self._checkpointing():
            return {}
        first = jobs[0]
        schemes = ", ".join(job.scheme.describe() for job in jobs)
        checkpoint: Optional[SimulationCheckpoint] = None
        loaded = self.store.get(CHECKPOINTS, key)
        if isinstance(loaded, SimulationCheckpoint) and loaded.matches(
            total_rows, sampling, len(jobs)
        ):
            checkpoint = loaded
            self.stats.checkpoints_resumed += len(jobs)
            _log.info(
                "resuming %s/%s (%s) from checkpoint at %d/%d rows",
                first.benchmark,
                first.flavour,
                schemes,
                loaded.rows_done,
                loaded.total_rows,
            )

        def on_checkpoint(ckpt: SimulationCheckpoint) -> None:
            self.store.put(
                CHECKPOINTS,
                key,
                ckpt,
                metadata={
                    "benchmark": first.benchmark,
                    "flavour": first.flavour,
                    "scheme": schemes,
                    "rows_done": ckpt.rows_done,
                    "total_rows": ckpt.total_rows,
                },
            )
            self.stats.checkpoints_written += 1
            faults.on_checkpoint_write()

        return {
            "window_rows": self.checkpoint_every,
            "checkpoint": checkpoint,
            "on_checkpoint": on_checkpoint,
        }

    def _discard_checkpoint(self, key: str) -> None:
        # The results are about to be stored; a surviving checkpoint would
        # only waste eviction budget.
        if self._checkpointing():
            self.store.discard(CHECKPOINTS, key)

    def _store_result(self, job: SimulateJob, result: SimulationResult) -> None:
        if self.store is not None:
            self.store.put(
                RESULTS,
                job.key,
                result,
                metadata={
                    "benchmark": job.benchmark,
                    "flavour": job.flavour,
                    "scheme": job.scheme.describe(),
                },
            )

    # ------------------------------------------------------------------
    # Lane-batched execution
    # ------------------------------------------------------------------
    def run_cell_jobs(
        self, cell_jobs: Sequence[SimulateJob]
    ) -> Dict[str, SimulationResult]:
        """Run one cell's simulate jobs, lane-batching where profitable.

        Cached jobs are served from the store first and never enter a
        batch.  When at least two uncached full-run jobs remain, they run
        as lanes of one batched launch
        (:func:`repro.pipeline.batched.simulate_lanes`) over the cell's
        trace, monolithic or chunked, checkpointed or not; results are
        stored under each lane's own key, so later runs — batched or not —
        hit the identical artifacts.
        """
        results: Dict[str, SimulationResult] = {}
        pending: List[SimulateJob] = []
        for job in cell_jobs:
            cached = self._load_cached_result(job)
            if cached is not None:
                results[job.key] = cached
            else:
                pending.append(job)
        # Sampled jobs never batch: the lane driver has no warmup machinery.
        batchable = [job for job in pending if job.sampling is None]
        if len(batchable) >= 2:
            results.update(self._run_batch(make_batched_simulate_job(batchable)))
            pending = [job for job in pending if job.sampling is not None]
        for job in pending:
            results[job.key] = self._simulate_uncached(job)
        return results

    def _run_batch(self, batch: BatchedSimulateJob) -> Dict[str, SimulationResult]:
        """Execute a batched simulate job; fan results out to lane keys.

        With checkpointing configured, the batch's checkpoints — every lane
        in one — live under the batch key, which hashes the lane keys, so a
        checkpoint never resumes a different lane set.
        """
        trace = self.collect_trace(batch.benchmark, batch.flavour)
        faults.on_simulate_launch()
        jobs = batch.lanes
        lanes = [
            LaneSpec(scheme_factory=job.scheme.build, config=job.machine.build_config())
            for job in jobs
        ]
        options = self._checkpoint_options(batch.key, jobs, len(trace))
        started = perf_counter()
        lane_results = simulate_lanes(trace, lanes, program_name=batch.benchmark, **options)
        elapsed = perf_counter() - started
        self._discard_checkpoint(batch.key)
        n = len(jobs)
        self.stats.simulations_run += n
        self.stats.simulate_seconds += elapsed
        self.stats.batches_run += 1
        self.stats.batched_lanes += n
        share = elapsed / n
        results: Dict[str, SimulationResult] = {}
        for job, result in zip(jobs, lane_results):
            self._record_timing(job, result, share, cached=False, lanes=n)
            self._store_result(job, result)
            results[job.key] = result
        return results

    def _record_timing(
        self,
        job: SimulateJob,
        result: SimulationResult,
        seconds: float,
        cached: bool,
        lanes: int = 1,
    ) -> None:
        self.job_timings.append(
            JobTiming(
                key=job.key,
                benchmark=job.benchmark,
                flavour=job.flavour,
                scheme=job.scheme.describe(),
                seconds=seconds,
                instructions=result.metrics.committed_instructions,
                cycles=result.metrics.cycles,
                cached=cached,
                lanes=lanes,
            )
        )

    # ------------------------------------------------------------------
    # Graph execution
    # ------------------------------------------------------------------
    def plan(self, definitions: Sequence[ExperimentDefinition]) -> JobGraph:
        """Expand ``definitions`` into one deduplicated job graph under this
        engine's profile and binary factory."""
        return plan(
            definitions, self.profile.instructions_per_benchmark, self.factory
        )

    def run(
        self,
        definitions: Sequence[ExperimentDefinition],
        jobs: Optional[int] = None,
    ) -> Dict[str, ExperimentOutputs]:
        """Plan and execute ``definitions``; return per-experiment outputs."""
        graph = self.plan(definitions)
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        cells = graph.cells()
        if jobs > 1 and len(cells) > 1:
            results = self._execute_parallel(cells, jobs)
        else:
            results = self._execute_serial(cells)
        outputs: Dict[str, ExperimentOutputs] = {}
        for name, table in graph.outputs.items():
            outputs[name] = {slot: results[key] for slot, key in table.items()}
        return outputs

    def _execute_serial(
        self, cells: "OrderedDict[Cell, List[SimulateJob]]"
    ) -> Dict[str, SimulationResult]:
        results: Dict[str, SimulationResult] = {}
        for cell_jobs in cells.values():
            results.update(self.run_cell_jobs(cell_jobs))
        return results

    def _execute_parallel(
        self, cells: "OrderedDict[Cell, List[SimulateJob]]", jobs: int
    ) -> Dict[str, SimulationResult]:
        """Run cells across worker processes, surviving worker failures.

        Each round submits the pending cells to a fresh pool; cells lost to
        a dead worker or the progress watchdog are retried for up to
        ``max_retries`` further rounds (their finished sub-jobs come back
        from the store, so a retry only redoes lost work).  Past the budget
        the remainder runs serially in this process — degraded, never dead.
        """
        store_root = self.store.root if self.store is not None else None
        spill_root: Optional[str] = None
        if store_root is None:
            # No persistent store: traces still cross the process boundary
            # by file, never by queue pickle.  Any trace the parent already
            # holds in memory is spilled as a columnar pack for the workers;
            # the directory lives only for the duration of the pool.
            spill_root = tempfile.mkdtemp(prefix="repro-trace-spill-")
            self._spill_traces(ArtifactStore(spill_root))
        options: Dict[str, Any] = {
            "checkpoint_every": self.checkpoint_every,
            "trace_segment_rows": self.trace_segment_rows,
        }
        payloads: List[_CellPayload] = [
            (self.profile, store_root, spill_root, list(cell_jobs), options)
            for cell_jobs in cells.values()
        ]
        results: Dict[str, SimulationResult] = {}
        try:
            pending = payloads
            rounds = 0
            while pending:
                lost = self._run_pool(pending, min(jobs, len(pending)), results)
                if not lost:
                    break
                rounds += 1
                if rounds > self.max_retries:
                    _log.warning(
                        "retry budget exhausted after %d rounds; running "
                        "%d remaining cells serially in-process",
                        self.max_retries,
                        len(lost),
                    )
                    for payload in lost:
                        results.update(self.run_cell_jobs(payload[3]))
                    break
                self.stats.jobs_retried += sum(len(p[3]) for p in lost)
                _log.warning(
                    "retrying %d lost cells on a fresh worker pool "
                    "(round %d of %d)",
                    len(lost),
                    rounds,
                    self.max_retries,
                )
                pending = lost
        finally:
            if spill_root is not None:
                shutil.rmtree(spill_root, ignore_errors=True)
        return results

    def _run_pool(
        self,
        payloads: List[_CellPayload],
        processes: int,
        results: Dict[str, SimulationResult],
    ) -> List[_CellPayload]:
        """One supervised pool round; return the cells that were lost.

        Merges every completed cell into ``results``/``self.stats`` as it
        lands.  Cells whose worker died (broken pool) or whose pool made no
        progress within ``job_timeout`` are returned for the caller to
        retry; a worker raising an ordinary exception is a *job* failure,
        not a worker failure, and propagates to the caller unchanged.
        """
        executor = ProcessPoolExecutor(
            max_workers=processes, mp_context=_mp_context()
        )
        futures: Dict[Future, _CellPayload] = {
            executor.submit(_execute_cell, payload): payload
            for payload in payloads
        }
        outstanding: Set[Future] = set(futures)
        lost: List[_CellPayload] = []
        pool_broken = False
        try:
            while outstanding:
                done, outstanding = wait(
                    outstanding,
                    timeout=self.job_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Watchdog: nothing completed for job_timeout seconds.
                    # The pool is presumed wedged — kill it and report the
                    # outstanding cells as lost.
                    timed_out = [futures[future] for future in outstanding]
                    jobs_hit = sum(len(p[3]) for p in timed_out)
                    self.stats.jobs_timed_out += jobs_hit
                    self.stats.workers_lost += 1
                    _log.warning(
                        "no cell completed within %.1fs; killing the pool "
                        "(%d cells / %d jobs outstanding)",
                        self.job_timeout,
                        len(timed_out),
                        jobs_hit,
                    )
                    lost.extend(timed_out)
                    self._terminate_workers(executor)
                    break
                for future in done:
                    payload = futures[future]
                    try:
                        cell_results, stats, timings = future.result()
                    except BrokenProcessPool:
                        if not pool_broken:
                            pool_broken = True
                            self.stats.workers_lost += 1
                            _log.warning(
                                "a worker process died; lost cells will be "
                                "re-planned against the store and retried"
                            )
                        lost.append(payload)
                        continue
                    results.update(cell_results)
                    self.stats.merge(stats)
                    self.job_timings.extend(timings)
                if pool_broken:
                    # Every future still outstanding on a broken pool is
                    # doomed; collect them now instead of draining errors.
                    lost.extend(futures[future] for future in outstanding)
                    break
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return lost

    @staticmethod
    def _terminate_workers(executor: ProcessPoolExecutor) -> None:
        """Hard-kill a pool's worker processes (stalled-pool recovery).

        ``ProcessPoolExecutor`` has no public kill switch; its
        ``_processes`` map has been stable across CPython releases and is
        the accepted escape hatch.  Guarded so an implementation change
        degrades to leaking the stalled workers, not crashing the run.
        """
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - platform specific
                pass

    def _spill_traces(self, spill: ArtifactStore) -> None:
        """Write the in-memory trace cache into ``spill`` (columnar files)."""
        for (benchmark, flavour), trace in self._traces.items():
            build = make_build_job(benchmark, flavour, self.factory)
            job = make_trace_job(build, self.profile.instructions_per_benchmark)
            spill.put(
                TRACES,
                job.key,
                trace,
                metadata={
                    "benchmark": benchmark,
                    "flavour": flavour,
                    "instructions": len(trace),
                },
            )


def _mp_context():
    """Prefer fork (inherits ``sys.path`` hacks of test harnesses)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _execute_cell(
    payload: _CellPayload,
) -> Tuple[Dict[str, SimulationResult], Dict[str, Any], List[JobTiming]]:
    """Worker entry point: run one cell's simulations in a fresh engine."""
    profile, store_root, spill_root, cell_jobs, options = payload
    engine = ExecutionEngine(
        profile=profile,
        store=ArtifactStore(store_root) if store_root is not None else None,
        max_cached_traces=1,
        trace_spill=ArtifactStore(spill_root) if spill_root is not None else None,
        checkpoint_every=options.get("checkpoint_every"),
        trace_segment_rows=options.get("trace_segment_rows"),
    )
    results = engine.run_cell_jobs(cell_jobs)
    return results, engine.stats.as_dict(), engine.job_timings


def resolve_engine(engine=None, profile=None) -> ExecutionEngine:
    """The engine an experiment should use: ``engine`` when given, else a
    fresh engine for ``profile``."""
    if engine is not None:
        return engine
    return ExecutionEngine(profile=profile)
