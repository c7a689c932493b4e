"""The experiment service: a job scheduler over one shared artifact store.

:class:`ExperimentService` is the in-process heart of the ``repro serve``
daemon (the HTTP layer in :mod:`repro.serve.http` is a thin skin over it).
Clients submit *job documents* — the same scenario/cell descriptions the
sweep and engine layers already validate.  One scheduler thread per
``workers`` plans each job, coalesces it against in-flight work, and hands
it to that scheduler's own worker process, which runs it through the
unified :func:`repro.engine.run.run_cells` entrypoint onto one shared
:class:`~repro.engine.store.ArtifactStore`.  The worker processes are
forked at their scheduler's first job and live until shutdown, so
concurrent jobs use separate cores instead of taking turns under one
interpreter lock.  They run at the lowest CPU priority, so the daemon's
own threads take a core ahead of a simulation.

Two multi-tenant properties live here:

* **Request coalescing** — before executing, a job plans its deduplicated
  graph and checks every simulate key against the service-wide in-flight
  registry.  Keys another job is currently computing are *waited on*, not
  recomputed; once the owning job finishes, the waiter's engine run serves
  them straight from the store.  Two clients submitting the same sweep
  therefore cost one set of simulations: the second job's
  :class:`~repro.engine.EngineStats` shows ``simulations_run == 0``.
  The claim step is all-or-nothing under one lock and a job never *holds*
  claims while waiting on foreign keys, so overlapping jobs cannot
  deadlock.
* **Size-gated eviction** — with ``max_store_bytes`` set, every job
  completion triggers :meth:`~repro.engine.store.ArtifactStore.evict`:
  least-recently-hit artifacts are dropped (hot keys survive, because every
  cache hit refreshes an artifact's last-hit time) until the store fits the
  budget.  Artifacts of still-running jobs are protected.

Fault tolerance adds three more:

* **Job deadlines** — with ``job_timeout`` set, a job that has not
  finished within the window is failed and its coalescing claims released,
  so waiters re-plan against the store instead of hanging on a wedged job.
  The orphaned run finishes into the store in its old worker process; the
  scheduler forks a fresh worker for its next job.
* **Lost workers** — a worker process that dies mid-job fails that job
  with :class:`WorkerLostError`, counts in ``workers_lost``, and is
  replaced at its scheduler's next job.
* **The job journal** — with ``journal`` set, every submission and state
  transition appends one JSONL event; a restarted daemon replays it, so
  previously completed jobs stay listable (and their results servable),
  jobs that died mid-run are reported ``failed``, and jobs that never
  started are re-queued.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import queue
import resource
import signal
import threading
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.engine.executor import EngineStats, ExecutionEngine, _mp_context
from repro.engine.jobs import FLAVOURS, IF_CONVERTED, SchemeSpec
from repro.engine.planner import CellRequest, ExperimentDefinition
from repro.engine.run import CellRunOutcome, run_cells
from repro.engine.store import ArtifactStore
from repro.log import get_logger
from repro.pipeline.machine import MachineSpec

_log = get_logger(__name__)

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Scheme kinds a cell document may request (mirrors the factory registry,
#: :data:`repro.experiments.setup.SCHEME_FACTORIES`).
_SCHEME_KINDS = ("conventional", "pep-pa", "predicate", "predicate-aware", "wish")


class SubmitError(ValueError):
    """A submitted job document is malformed or semantically invalid."""


# ----------------------------------------------------------------------
# Job records
# ----------------------------------------------------------------------
@dataclass
class JobRecord:
    """One submitted job: lifecycle state plus the engine's accounting."""

    id: str
    kind: str  # "scenario" | "cells"
    title: str
    state: str = QUEUED
    error: Optional[str] = None
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Planned deduplicated job counts (builds/traces/simulations).
    planned: Dict[str, int] = field(default_factory=dict)
    #: Simulate keys served by waiting on another job's in-flight work.
    coalesced_keys: int = 0
    #: The engine's EngineStats.as_dict() after the run.
    stats: Optional[Dict[str, Any]] = None
    #: Per-simulate-job JobTiming records as dicts.
    timings: List[Dict[str, Any]] = field(default_factory=list)
    #: Rendered report text and raw per-cell counters, set on completion.
    result_text: Optional[str] = None
    result_json: Optional[Any] = None
    #: True when this record was reconstructed from the job journal after
    #: a daemon restart (its results come from the journal/store, not from
    #: an execution in this process).
    recovered: bool = False
    #: Signalled when the job reaches a terminal state.
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)

    def snapshot(self) -> Dict[str, Any]:
        """The job's wire form for ``GET /v1/jobs/<id>`` (no result payload)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "title": self.title,
            "state": self.state,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "planned": dict(self.planned),
            "coalesced_keys": self.coalesced_keys,
            "stats": dict(self.stats) if self.stats is not None else None,
            "timings": list(self.timings),
            "recovered": self.recovered,
        }


@dataclass
class _ParsedJob:
    """A validated submission, ready to execute."""

    kind: str
    title: str
    requests: List[CellRequest]
    instructions: int
    scenario: Any = None  # sweep Scenario for scenario jobs


# ----------------------------------------------------------------------
# Submission parsing (eager validation, like the scenario loader)
# ----------------------------------------------------------------------
def parse_submission(
    document: Mapping[str, Any], default_instructions: Optional[int] = None
) -> _ParsedJob:
    """Validate one job document; raise :class:`SubmitError` on any problem.

    Two document shapes are accepted (exactly one of ``scenario``/``cells``):

    * ``{"scenario": <name or inline scenario document>, "instructions": N?}``
      — the same TOML/JSON scenario documents ``repro sweep`` runs, by
      built-in name or inline; ``instructions`` overrides the scenario's
      budget (mirroring the CLI's ``--instructions``).
    * ``{"cells": [{"benchmark": ..., "flavour"?, "scheme"?, "machine"?,
      "label"?}, ...], "instructions": N?}`` — explicit cell requests;
      ``scheme`` is a kind name or ``{"kind": ..., "options": {...}}`` and
      ``machine`` a mapping of Table 1 overrides.
    """
    if not isinstance(document, Mapping):
        raise SubmitError(
            f"job document must be a JSON object, got {type(document).__name__}"
        )
    unknown = set(document) - {"scenario", "cells", "instructions"}
    if unknown:
        raise SubmitError(
            f"unknown job document key(s) {sorted(unknown)}; "
            "expected 'scenario' or 'cells' plus optional 'instructions'"
        )
    has_scenario = "scenario" in document
    has_cells = "cells" in document
    if has_scenario == has_cells:
        raise SubmitError("a job document needs exactly one of 'scenario' or 'cells'")
    instructions = document.get("instructions", None)
    if instructions is not None and (
        isinstance(instructions, bool)
        or not isinstance(instructions, int)
        or instructions < 1
    ):
        raise SubmitError(
            f"'instructions' must be a positive integer, got {instructions!r}"
        )
    if has_scenario:
        return _parse_scenario_job(document["scenario"], instructions)
    return _parse_cells_job(document["cells"], instructions, default_instructions)


def _parse_scenario_job(raw: Any, instructions: Optional[int]) -> _ParsedJob:
    from repro.sweep.scenario import ScenarioError, load_scenario, parse_scenario
    from repro.sweep.spec import SweepSpec

    try:
        if isinstance(raw, str):
            scenario = load_scenario(raw)
        elif isinstance(raw, Mapping):
            scenario = parse_scenario(raw, source="<submitted scenario>")
        else:
            raise SubmitError(
                "'scenario' must be a built-in name or an inline scenario "
                f"document, got {type(raw).__name__}"
            )
    except ScenarioError as error:
        raise SubmitError(str(error)) from None
    if instructions is not None:
        scenario = dataclasses.replace(scenario, instructions=instructions)
    spec = SweepSpec(scenario)
    return _ParsedJob(
        kind="scenario",
        title=f"sweep:{scenario.name}",
        requests=list(spec.definition().requests),
        instructions=scenario.instructions,
        scenario=scenario,
    )


def _parse_cells_job(
    raw: Any, instructions: Optional[int], default_instructions: Optional[int]
) -> _ParsedJob:
    from repro.workloads.registry import UnknownWorkloadError, resolve_workload
    from repro.workloads.trace_ingest import TraceIngestError
    from repro.workloads.workload_spec import WorkloadSpecError

    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
        raise SubmitError("'cells' must be a non-empty list of cell objects")
    budget = instructions or default_instructions or 20_000
    requests: List[CellRequest] = []
    labels: Set[Tuple[str, str]] = set()
    for index, cell in enumerate(raw):
        what = f"cells[{index}]"
        if not isinstance(cell, Mapping):
            raise SubmitError(f"{what} must be an object, got {type(cell).__name__}")
        unknown = set(cell) - {"benchmark", "flavour", "scheme", "machine", "label"}
        if unknown:
            raise SubmitError(f"{what}: unknown key(s) {sorted(unknown)}")
        benchmark = cell.get("benchmark")
        if not isinstance(benchmark, str) or not benchmark:
            raise SubmitError(f"{what}: 'benchmark' must be a non-empty string")
        try:
            resolve_workload(benchmark)
        except (UnknownWorkloadError, WorkloadSpecError, TraceIngestError) as error:
            raise SubmitError(f"{what}: {error}") from None
        flavour = cell.get("flavour", IF_CONVERTED)
        if flavour not in FLAVOURS:
            raise SubmitError(
                f"{what}: unknown flavour {flavour!r}; expected one of {FLAVOURS}"
            )
        scheme = _parse_scheme(cell.get("scheme", "predicate"), what)
        machine = _parse_machine(cell.get("machine", {}), what)
        label = cell.get("label") or f"{scheme.describe()}@{machine.describe()}"
        if not isinstance(label, str):
            raise SubmitError(f"{what}: 'label' must be a string")
        if (benchmark, label) in labels:
            raise SubmitError(
                f"{what}: duplicate (benchmark, label) ({benchmark!r}, {label!r}); "
                "give duplicate cells distinct labels"
            )
        labels.add((benchmark, label))
        requests.append(
            CellRequest(
                benchmark=benchmark,
                flavour=flavour,
                label=label,
                scheme=scheme,
                machine=machine,
            )
        )
    return _ParsedJob(
        kind="cells",
        title=f"{len(requests)} cell(s)",
        requests=requests,
        instructions=budget,
    )


def _parse_scheme(raw: Any, what: str) -> SchemeSpec:
    if isinstance(raw, str):
        kind, options = raw, {}
    elif isinstance(raw, Mapping):
        unknown = set(raw) - {"kind", "options"}
        if unknown:
            raise SubmitError(f"{what}.scheme: unknown key(s) {sorted(unknown)}")
        kind = raw.get("kind")
        options = raw.get("options", {})
        if not isinstance(options, Mapping):
            raise SubmitError(f"{what}.scheme: 'options' must be an object")
    else:
        raise SubmitError(
            f"{what}: 'scheme' must be a kind name or {{'kind', 'options'}} object"
        )
    if kind not in _SCHEME_KINDS:
        raise SubmitError(
            f"{what}: unknown scheme kind {kind!r}; expected one of {_SCHEME_KINDS}"
        )
    spec = SchemeSpec.make(kind, **dict(options))
    # Equal specs can differ in their option types (64 and 64.0), and only
    # one of them may build, so the types are part of the check's key.
    types = tuple(type(value) for _, value in spec.options)
    try:
        hash(spec)
    except TypeError:  # an unhashable option value: build it every time
        check = _check_scheme.__wrapped__
    else:
        check = _check_scheme
    try:
        check(spec, types)  # surface bad option names/values at submit time
    except (TypeError, ValueError) as error:
        raise SubmitError(f"{what}.scheme: {error}") from None
    return spec


@functools.lru_cache(maxsize=256)
def _check_scheme(spec: SchemeSpec, _types: tuple) -> None:
    """Build ``spec``'s scheme once and drop it.

    Building is deterministic, so a spec that built once builds again: a
    repeat is answered from the cache.  A failed build raises and is not
    cached, so every submit of a bad spec still raises.
    """
    spec.build()


def _parse_machine(raw: Any, what: str) -> MachineSpec:
    if not isinstance(raw, Mapping):
        raise SubmitError(f"{what}: 'machine' must be an object of overrides")
    try:
        return MachineSpec.make(**dict(raw))
    except (TypeError, ValueError) as error:
        raise SubmitError(f"{what}.machine: {error}") from None


# ----------------------------------------------------------------------
# The job journal
# ----------------------------------------------------------------------
class JobTimeoutError(RuntimeError):
    """A job exceeded the service's per-job deadline."""


class WorkerLostError(RuntimeError):
    """The worker process running a job died before returning its result."""


class JobJournal:
    """An append-only JSONL record of job lifecycle events.

    Each line is one event object: ``submitted`` (with the original job
    document), ``started``, ``done`` (with the rendered results and engine
    stats) or ``failed`` (with the error).  The format is recovery-first:
    :meth:`replay` tolerates a truncated final line (the daemon may have
    died mid-append), and ``done`` events carry the full result payload so
    a restarted daemon serves prior results without re-running anything.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()

    def append(self, event: Dict[str, Any]) -> None:
        """Append one event line (best-effort: IO errors are logged, not raised)."""
        try:
            line = json.dumps(event, sort_keys=True, default=str)
        except (TypeError, ValueError) as error:  # pragma: no cover - defensive
            _log.warning("journal event not serialisable (%s); dropped", error)
            return
        try:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with self._lock, open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
        except OSError as error:
            _log.warning("journal append to %s failed: %s", self.path, error)

    def replay(self) -> List[Dict[str, Any]]:
        """Every well-formed event, in order (missing file → empty list)."""
        events: List[Dict[str, Any]] = []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except ValueError:
                        # A torn final line from a crashed append; any
                        # malformed interior line is equally skippable.
                        continue
                    if isinstance(event, dict):
                        events.append(event)
        except OSError:
            return []
        return events


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class ExperimentService:
    """Schedules submitted jobs onto one shared store, with coalescing."""

    def __init__(
        self,
        store: ArtifactStore,
        *,
        jobs: int = 1,
        workers: int = 2,
        max_store_bytes: Optional[int] = None,
        default_instructions: Optional[int] = None,
        job_timeout: Optional[float] = None,
        journal: Optional[JobJournal] = None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if store is None:
            raise ValueError(
                "ExperimentService needs an ArtifactStore: coalescing and "
                "cross-job deduplication hand results over through it"
            )
        if max_store_bytes is not None and max_store_bytes < 1:
            raise ValueError(
                f"max_store_bytes must be a positive integer, got {max_store_bytes}"
            )
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be positive, got {job_timeout}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be a positive integer, got {checkpoint_every}"
            )
        self.store = store
        #: Rows per mid-simulation resume checkpoint for every job's engine
        #: (None = off).  A job killed by a crash or deadline resumes from
        #: its last checkpoint when retried instead of starting over.
        self.checkpoint_every = checkpoint_every
        self.jobs = max(1, int(jobs))
        self.workers = max(1, int(workers))
        self.max_store_bytes = max_store_bytes
        self.default_instructions = default_instructions
        self.job_timeout = job_timeout
        self.journal = journal
        self._lock = threading.Lock()
        #: Notified when a job settles or the service starts shutting down;
        #: what :meth:`wait` blocks on.  It has its own lock, so a waiter
        #: never holds ``_lock``.
        self._settled = threading.Condition(threading.Lock())
        self._stopping = False
        self._queue: "queue.Queue[Optional[JobRecord]]" = queue.Queue()
        self._records: Dict[str, JobRecord] = {}
        self._parsed: Dict[str, _ParsedJob] = {}
        #: simulate key → Event of the job currently computing it.
        self._inflight: Dict[str, threading.Event] = {}
        #: job id → every artifact key its graph touches (eviction shield).
        self._protected: Dict[str, Set[str]] = {}
        self._evicted = {"count": 0, "bytes": 0}
        self._timed_out = 0
        self._recovered = 0
        self._started = False
        self._threads: List[threading.Thread] = []
        #: Scheduler index → its one-process pool, forked at the
        #: scheduler's first job (None before that and after a loss).
        self._pools: List[Optional[ProcessPoolExecutor]] = [None] * self.workers
        #: Worker processes of pools given up at a deadline: each finishes
        #: its orphaned run into the store and exits; shutdown kills any
        #: still running.
        self._orphans: List[Any] = []
        self._closed = False
        #: Worker processes that died mid-job.
        self._workers_lost = 0
        #: The largest ``ru_maxrss`` (KiB) any job's worker reported.
        self._worker_peak_rss_kb = 0
        if journal is not None:
            self._recover(journal.replay())

    # ------------------------------------------------------------------
    # Journal recovery
    # ------------------------------------------------------------------
    def _recover(self, events: List[Dict[str, Any]]) -> None:
        """Rebuild job records from a prior daemon's journal events.

        Jobs that finished (``done``/``failed``) come back as terminal
        records — listable, waitable, their results served straight from
        the journal.  Jobs that had ``started`` but never finished were
        killed with the old daemon and are reported ``failed``.  Jobs that
        were only ever ``submitted`` never ran at all: their documents are
        re-validated and re-queued.
        """
        latest: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        for event in events:
            job_id = event.get("id")
            if not isinstance(job_id, str):
                continue
            if job_id not in latest:
                latest[job_id] = {}
                order.append(job_id)
            latest[job_id][event.get("event")] = event
        requeue: List[Tuple[JobRecord, _ParsedJob]] = []
        for job_id in order:
            seen = latest[job_id]
            submitted = seen.get("submitted", {})
            record = JobRecord(
                id=job_id,
                kind=submitted.get("kind", "cells"),
                title=submitted.get("title", "recovered job"),
                recovered=True,
            )
            if isinstance(submitted.get("created"), (int, float)):
                record.created = submitted["created"]
            if "done" in seen:
                done = seen["done"]
                record.state = DONE
                record.finished = done.get("time")
                record.result_text = done.get("result_text")
                record.result_json = done.get("result_json")
                record.stats = done.get("stats")
                record.planned = done.get("planned") or {}
                record.coalesced_keys = done.get("coalesced_keys") or 0
                record.done_event.set()
            elif "failed" in seen:
                record.state = FAILED
                record.error = seen["failed"].get("error") or "failed"
                record.finished = seen["failed"].get("time")
                record.done_event.set()
            elif "started" in seen:
                record.state = FAILED
                record.error = "interrupted by daemon restart"
                record.finished = time.time()
                record.done_event.set()
            else:
                # Submitted but never started: run it on this daemon.
                document = submitted.get("document")
                try:
                    parsed = parse_submission(
                        document or {}, self.default_instructions
                    )
                except SubmitError as error:
                    record.state = FAILED
                    record.error = f"re-queue after restart failed: {error}"
                    record.finished = time.time()
                    record.done_event.set()
                else:
                    record.state = QUEUED
                    requeue.append((record, parsed))
            self._records[job_id] = record
            self._recovered += 1
        if self._recovered:
            _log.info(
                "journal recovery: %d prior jobs restored (%d re-queued)",
                self._recovered,
                len(requeue),
            )
        for record, parsed in requeue:
            self._parsed[record.id] = parsed
        # Enqueue after every record exists; the jobs run once the worker
        # threads start (first submission, or the daemon's explicit start).
        for record, _ in requeue:
            self._queue.put(record)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the scheduler threads (idempotent).

        Their worker processes are forked later, at each scheduler's first
        job, so starting the service costs no fork.
        """
        with self._lock:
            if self._started:
                return
            self._started = True
            self._closed = False
            with self._settled:
                self._stopping = False
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(index,),
                    name=f"repro-serve-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def shutdown(self, wait: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the schedulers and their worker processes.

        With ``wait``, block until the queued jobs drain and the workers
        exit (up to ``timeout`` seconds per thread and per process).
        Workers still alive after that, or at once without ``wait``, are
        killed with everything their engines forked, so no worker process
        outlives the service.  Every pending :meth:`wait` returns at once.
        """
        with self._settled:
            self._stopping = True
            self._settled.notify_all()
        with self._lock:
            threads, self._threads = self._threads, []
            self._started = False
        for _ in threads:
            self._queue.put(None)
        if wait:
            for thread in threads:
                thread.join(timeout)
        with self._lock:
            self._closed = True
            pools = [pool for pool in self._pools if pool is not None]
            self._pools = [None] * self.workers
            processes = [p for pool in pools for p in _pool_processes(pool)]
            processes += self._orphans
            self._orphans = []
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if wait:
                process.join(timeout)
            if process.is_alive():
                _kill_worker(process)
                process.join(5)

    # ------------------------------------------------------------------
    # Submission and inspection
    # ------------------------------------------------------------------
    def submit(self, document: Mapping[str, Any]) -> JobRecord:
        """Validate ``document``, enqueue it, and return its job record."""
        parsed = parse_submission(document, self.default_instructions)
        record = JobRecord(
            id=uuid.uuid4().hex[:12], kind=parsed.kind, title=parsed.title
        )
        with self._lock:
            self._records[record.id] = record
            self._parsed[record.id] = parsed
        if self.journal is not None:
            self.journal.append(
                {
                    "event": "submitted",
                    "id": record.id,
                    "kind": record.kind,
                    "title": record.title,
                    "created": record.created,
                    "document": dict(document),
                }
            )
        self.start()
        self._queue.put(record)
        return record

    def job(self, job_id: str) -> JobRecord:
        """The record of one job (:class:`KeyError` for unknown ids)."""
        with self._lock:
            return self._records[job_id]

    def list_jobs(self) -> List[JobRecord]:
        """Every job record, oldest first."""
        with self._lock:
            return sorted(self._records.values(), key=lambda record: record.created)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until one job reaches a terminal state, ``timeout`` seconds
        pass or the service shuts down; return its record either way.

        Raises :class:`KeyError` for unknown ids.  The wait does not hold
        ``_lock``, so any number of waiters leave the service responsive.
        """
        record = self.job(job_id)
        with self._settled:
            self._settled.wait_for(
                lambda: record.done_event.is_set() or self._stopping, timeout
            )
        return record

    def store_stats(self) -> Dict[str, Any]:
        """Per-kind store usage plus the service's eviction accounting."""
        usage = self.store.usage()
        with self._lock:
            evicted = dict(self._evicted)
            inflight = len(self._inflight)
        return {
            "root": self.store.root,
            "kinds": usage,
            "max_store_bytes": self.max_store_bytes,
            "evicted": evicted,
            "inflight_keys": inflight,
        }

    def health(self) -> Dict[str, Any]:
        """Service health with degradation detail (``GET /v1/health``).

        ``status`` is ``"degraded"`` when any fault-recovery machinery has
        fired — workers lost (the service's own or a job engine's) or jobs
        timed out/retried, artifacts sitting in quarantine, or jobs
        recovered from a prior daemon's journal — and ``"ok"`` otherwise.
        Degraded is informational, not fatal: it means the service
        *survived* something worth investigating.  ``worker_pids`` lists
        the live worker processes and ``worker_peak_rss_mb`` is the largest
        peak resident set any job's worker reported.
        """
        with self._lock:
            records = list(self._records.values())
            timed_out = self._timed_out
            recovered = self._recovered
            workers_lost = self._workers_lost
            peak_kb = self._worker_peak_rss_kb
            processes = self._live_workers()
        jobs_retried = 0
        for record in records:
            stats = record.stats or {}
            workers_lost += int(stats.get("workers_lost", 0) or 0)
            jobs_retried += int(stats.get("jobs_retried", 0) or 0)
        quarantined = self.store.quarantine_usage()
        degraded = bool(
            workers_lost or jobs_retried or timed_out or quarantined["count"]
            or recovered
        )
        return {
            "status": "degraded" if degraded else "ok",
            "workers_lost": workers_lost,
            "jobs_retried": jobs_retried,
            "jobs_timed_out": timed_out,
            "quarantined": quarantined,
            "recovered_jobs": recovered,
            "worker_pids": sorted(process.pid for process in processes),
            "worker_peak_rss_mb": peak_kb / 1024.0,
        }

    def _live_workers(self) -> List[Any]:
        """The live worker processes, orphans included (hold ``_lock``)."""
        self._orphans = [p for p in self._orphans if p.is_alive()]
        processes = list(self._orphans)
        for pool in self._pools:
            if pool is not None:
                processes += [p for p in _pool_processes(pool) if p.is_alive()]
        return processes

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker_loop(self, slot: int) -> None:
        while True:
            record = self._queue.get()
            if record is None:
                return
            try:
                self._execute(record, slot)
            except Exception as error:  # noqa: BLE001 - job isolation boundary
                record.state = FAILED
                record.error = f"{type(error).__name__}: {error}"
                record.finished = time.time()
                if isinstance(error, JobTimeoutError):
                    with self._lock:
                        self._timed_out += 1
                _log.warning("job %s failed: %s", record.id, record.error)
                if self.journal is not None:
                    self.journal.append(
                        {
                            "event": "failed",
                            "id": record.id,
                            "time": record.finished,
                            "error": record.error,
                        }
                    )
                self._settle(record)

    @staticmethod
    def _profile(parsed: _ParsedJob):
        """The engine profile a job runs under (budget + benchmark subset)."""
        from repro.experiments.setup import ExperimentProfile

        if parsed.kind == "scenario":
            from repro.sweep.runner import sweep_profile

            return sweep_profile(parsed.scenario)
        benchmarks: List[str] = []
        for request in parsed.requests:
            if request.benchmark not in benchmarks:
                benchmarks.append(request.benchmark)
        return ExperimentProfile(
            name="serve",
            instructions_per_benchmark=parsed.instructions,
            benchmarks=benchmarks,
            profile_budget=min(parsed.instructions, 20_000),
        )

    def _execute(self, record: JobRecord, slot: int) -> None:
        with self._lock:
            parsed = self._parsed[record.id]
        record.state = RUNNING
        record.started = time.time()
        if self.journal is not None:
            self.journal.append(
                {"event": "started", "id": record.id, "time": record.started}
            )
        profile = self._profile(parsed)
        # Planning only needs the profile's budget and binary factory; the
        # worker process builds the engine that runs the job.
        graph = ExecutionEngine(profile=profile).plan(
            [ExperimentDefinition(name=record.id, requests=list(parsed.requests))]
        )
        record.planned = graph.job_counts()
        simulate_keys = list(graph.simulations)
        protect = (
            set(graph.builds) | set(graph.traces) | set(graph.simulations)
        )
        own = threading.Event()
        claimed: List[str] = []
        waited: Set[str] = set()
        with self._lock:
            self._protected[record.id] = protect
        try:
            self._claim_or_wait(simulate_keys, own, claimed, waited)
            record.coalesced_keys = len(waited)
            outcome = self._run_in_worker(
                slot,
                (
                    profile,
                    self.store.root,
                    self.jobs,
                    self.checkpoint_every,
                    record.id,
                    list(parsed.requests),
                ),
            )
        finally:
            # Releases this job's claims whether it finished, failed or
            # timed out — waiters wake, re-check the store, and re-plan
            # whatever is missing instead of hanging on a dead job.
            with self._lock:
                for key in claimed:
                    self._inflight.pop(key, None)
                self._protected.pop(record.id, None)
            own.set()
        record.stats = outcome.stats.as_dict()
        record.timings = [dataclasses.asdict(timing) for timing in outcome.timings]
        self._render(record, parsed, outcome)
        record.state = DONE
        record.finished = time.time()
        if self.journal is not None:
            self.journal.append(
                {
                    "event": "done",
                    "id": record.id,
                    "time": record.finished,
                    "planned": dict(record.planned),
                    "coalesced_keys": record.coalesced_keys,
                    "stats": dict(record.stats),
                    "result_text": record.result_text,
                    "result_json": record.result_json,
                }
            )
        # Evict before signalling completion so a client that saw the job
        # finish also sees the store back under budget.
        self._evict()
        self._settle(record)

    def _settle(self, record: JobRecord) -> None:
        """Signal that ``record`` reached a terminal state, waking waiters."""
        record.done_event.set()
        with self._settled:
            self._settled.notify_all()

    def _pool(self, slot: int) -> ProcessPoolExecutor:
        """Scheduler ``slot``'s worker pool, forked on first use.

        A worker found dead between jobs counts as lost and is replaced
        before the job is handed over.
        """
        pool = self._pools[slot]
        if pool is not None and not all(
            process.is_alive() for process in _pool_processes(pool)
        ):
            self._retire(slot, pool, orphan=False)
            with self._lock:
                self._workers_lost += 1
        with self._lock:
            if self._closed:
                raise RuntimeError("the service is shut down")
            pool = self._pools[slot]
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=_mp_context(),
                    initializer=_worker_init,
                )
                self._pools[slot] = pool
            return pool

    def _run_in_worker(self, slot: int, payload: "_JobPayload") -> CellRunOutcome:
        """Run one job in scheduler ``slot``'s worker process.

        Each scheduler owns a one-process pool, so a worker that dies takes
        only its own job with it.  ``job_timeout`` bounds the wait: on
        expiry this raises :class:`JobTimeoutError` (failing the job and
        releasing its claims) and retires the pool, leaving the orphaned
        run to finish into the store, where its artifacts benefit whoever
        re-plans the work.  A dead worker raises :class:`WorkerLostError`.
        Either way the scheduler's next job forks a fresh worker.
        """
        pool = self._pool(slot)
        try:
            future = pool.submit(_run_job, payload)
            results, stats, timings, peak_kb = future.result(timeout=self.job_timeout)
        except FutureTimeoutError:
            self._retire(slot, pool, orphan=True)
            raise JobTimeoutError(
                f"job exceeded the {self.job_timeout:.1f}s deadline"
            ) from None
        except BrokenProcessPool:
            pids = ", ".join(str(process.pid) for process in _pool_processes(pool))
            self._retire(slot, pool, orphan=False)
            with self._lock:
                if self._closed:
                    raise RuntimeError("interrupted by service shutdown") from None
                self._workers_lost += 1
            raise WorkerLostError(
                f"worker process {pids or '?'} died while running the job"
            ) from None
        with self._lock:
            self._worker_peak_rss_kb = max(self._worker_peak_rss_kb, peak_kb)
        merged = EngineStats()
        merged.merge(stats)
        return CellRunOutcome(results=results, stats=merged, timings=timings)

    def _retire(self, slot: int, pool: ProcessPoolExecutor, orphan: bool) -> None:
        """Stop using ``pool``; the scheduler's next job forks a new one.

        An ``orphan`` pool's worker keeps running its job; otherwise the
        worker is dead and whatever its engine forked is killed with it.
        """
        processes = _pool_processes(pool)
        with self._lock:
            if self._pools[slot] is pool:
                self._pools[slot] = None
            if orphan:
                self._orphans += processes
        pool.shutdown(wait=False, cancel_futures=True)
        if not orphan:
            for process in processes:
                _kill_worker(process)

    def _claim_or_wait(
        self,
        simulate_keys: List[str],
        own: threading.Event,
        claimed: List[str],
        waited: Set[str],
    ) -> None:
        """Coalesce against in-flight work, then claim what remains.

        Loops until no foreign job holds any of ``simulate_keys``: each pass
        waits (holding no claims, so overlapping jobs cannot deadlock) for
        every foreign in-flight event, then re-checks.  On the final pass it
        atomically claims every key not already in the store, which is what
        makes a concurrent duplicate submission wait instead of re-running.
        """
        from repro.engine.store import RESULTS

        while True:
            with self._lock:
                foreign = {
                    key: self._inflight[key]
                    for key in simulate_keys
                    if key in self._inflight
                }
                if not foreign:
                    for key in simulate_keys:
                        if not self.store.contains(RESULTS, key):
                            self._inflight[key] = own
                            claimed.append(key)
                    return
                waited.update(foreign)
            for event in foreign.values():
                event.wait()

    def _render(self, record: JobRecord, parsed: _ParsedJob, outcome) -> None:
        """Fill ``result_text``/``result_json`` from a finished run."""
        if parsed.kind == "scenario":
            from repro.sweep.report import render_sweep
            from repro.sweep.runner import SweepRun
            from repro.sweep.spec import SweepSpec

            spec = SweepSpec(parsed.scenario)
            run = SweepRun(scenario=parsed.scenario, spec=spec, stats=outcome.stats)
            by_label = {
                label: (scheme, point)
                for (scheme, label), point in spec.labels().items()
            }
            rows = []
            for (benchmark, label), result in outcome.results.items():
                scheme, point = by_label[label]
                run.results[(scheme, point, benchmark)] = result
                rows.append(_result_row(result, benchmark, scheme, point.describe()))
            record.result_text = render_sweep(run)
            record.result_json = rows
            return
        by_request = {
            (request.benchmark, request.label): request for request in parsed.requests
        }
        rows = []
        lines = [f"{'benchmark':16s} {'label':32s} {'IPC':>7s} {'mispredict':>10s}"]
        for (benchmark, label), result in outcome.results.items():
            request = by_request[(benchmark, label)]
            rows.append(
                _result_row(result, benchmark, request.scheme.describe(), label)
            )
            lines.append(
                f"{benchmark:16s} {label:32s} {result.metrics.ipc:7.3f} "
                f"{100 * result.accuracy.misprediction_rate:9.2f}%"
            )
        record.result_text = "\n".join(lines)
        record.result_json = rows

    def _evict(self) -> None:
        if self.max_store_bytes is None:
            return
        with self._lock:
            protect: Set[str] = set(self._inflight)
            for keys in self._protected.values():
                protect |= keys
        removed = self.store.evict(self.max_store_bytes, protect=protect)
        with self._lock:
            self._evicted["count"] += removed["count"]
            self._evicted["bytes"] += removed["bytes"]


def _result_row(result, benchmark: str, scheme: str, label: str) -> Dict[str, Any]:
    """One simulation result as a flat JSON-ready counter row."""
    metrics = result.metrics
    accuracy = result.accuracy
    return {
        "benchmark": benchmark,
        "scheme": scheme,
        "label": label,
        "ipc": metrics.ipc,
        "cycles": metrics.cycles,
        "instructions": metrics.committed_instructions,
        "branches": accuracy.branches,
        "misprediction_rate": accuracy.misprediction_rate,
    }


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
#: Seconds between a worker's checks that the service process is alive.
_ORPHAN_POLL_S = 0.5

#: The niceness a worker process adds to its own (the kernel caps the sum
#: at 19, the lowest priority).
_WORKER_NICENESS = 19

#: What a job's worker receives: (profile, store root, engine jobs,
#: checkpoint_every, job id, requests).
_JobPayload = Tuple[Any, str, int, Optional[int], str, List[CellRequest]]


def _worker_init() -> None:
    """Worker start-up: its own process group, the lowest CPU priority,
    default signal actions, and an exit when the service process dies.

    The group lets the service kill a worker together with the processes
    its engine forked (``jobs > 1``); a terminal's Ctrl-C reaches only the
    daemon, which then stops its workers.  The daemon's SIGTERM/SIGINT
    handlers, inherited through the fork, would shut down a server the
    worker does not run, so the defaults are restored.  A daemon killed
    outright cannot stop its workers, and an idle worker would wait for
    its next job forever (holding the daemon's inherited listening
    socket), so a watchdog thread exits the worker once it is orphaned.

    Simulations are batch work: at the lowest priority (inherited by the
    engine's pool) they take whatever CPU the daemon process leaves idle,
    while its own threads — HTTP handlers, schedulers, or the program that
    embeds the service — take a core ahead of them whenever they need one.
    """
    os.setpgid(0, 0)
    os.nice(_WORKER_NICENESS)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    parent = os.getppid()

    def _exit_when_orphaned() -> None:
        while os.getppid() == parent:
            time.sleep(_ORPHAN_POLL_S)
        os.killpg(0, signal.SIGKILL)  # this worker and its engine's pool

    threading.Thread(
        target=_exit_when_orphaned, name="repro-serve-orphan-watch", daemon=True
    ).start()


def _run_job(payload: _JobPayload):
    """Worker entry point: run one job's cells in a fresh engine.

    Returns the results, the engine's stats dict, its job timings and this
    process's peak resident set (``ru_maxrss``, KiB on Linux).
    """
    profile, store_root, jobs, checkpoint_every, name, requests = payload
    engine = ExecutionEngine(
        profile=profile,
        store=ArtifactStore(store_root),
        jobs=jobs,
        checkpoint_every=checkpoint_every,
    )
    outcome = run_cells(requests, name=name, engine=engine)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcome.results, outcome.stats.as_dict(), outcome.timings, peak_kb


def _pool_processes(pool: ProcessPoolExecutor) -> List[Any]:
    """A pool's worker processes.

    ``ProcessPoolExecutor`` does not expose them; its ``_processes`` map
    is the same escape hatch the engine's stalled-pool recovery uses, and
    ``shutdown`` clears it, so callers read it first.
    """
    return list((getattr(pool, "_processes", None) or {}).values())


def _kill_worker(process) -> None:
    """SIGKILL a worker and every process in its group."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except OSError:  # gone, or killed before it made its group
        process.kill()
