"""The planner: experiment definitions → a deduplicated job DAG.

An :class:`ExperimentDefinition` is the declarative form of one figure/table
sweep: an ordered list of (benchmark, flavour, column-label, scheme) cell
requests.  :func:`plan` expands any number of definitions into one
:class:`JobGraph` of build → trace → simulate jobs, deduplicated by content
key — so when Figure 6, both ablations and the IPC study all simulate the
same predicate scheme over the same if-converted trace, the graph contains
that compilation, that trace and that simulation exactly once, no matter how
many experiments asked for them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.binaries import BinaryFactory
from repro.emulator.trace import TRACE_FORMAT_VERSION
from repro.engine.hashing import KeySplicer, code_fingerprint, stable_hash
from repro.engine.jobs import (
    FLAVOURS,
    BatchedSimulateJob,
    BuildJob,
    SchemeSpec,
    SimulateJob,
    TraceJob,
)
from repro.engine.store import STORE_FORMAT_VERSION
from repro.pipeline.machine import MachineSpec
from repro.pipeline.windowed import SamplingSpec


# ----------------------------------------------------------------------
# Definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellRequest:
    """One requested simulation: a cell plus the experiment-local label.

    ``machine`` selects the simulated machine configuration; the default is
    the paper's Table 1 machine, which is what every figure/table experiment
    uses.  Sweep scenarios (:mod:`repro.sweep`) request non-default specs.
    """

    benchmark: str
    flavour: str
    label: str
    scheme: SchemeSpec
    machine: MachineSpec = field(default_factory=MachineSpec)
    #: Sampled-simulation spec (``None`` = full simulation; see
    #: :class:`~repro.pipeline.windowed.SamplingSpec`).
    sampling: Optional[SamplingSpec] = None


@dataclass
class ExperimentDefinition:
    """A named, ordered collection of cell requests."""

    name: str
    requests: List[CellRequest] = field(default_factory=list)

    def benchmarks(self) -> List[str]:
        """Distinct benchmarks in request order."""
        seen: "OrderedDict[str, None]" = OrderedDict()
        for request in self.requests:
            seen.setdefault(request.benchmark, None)
        return list(seen)

    def labels(self) -> List[str]:
        """Distinct experiment-local column labels in request order."""
        seen: "OrderedDict[str, None]" = OrderedDict()
        for request in self.requests:
            seen.setdefault(request.label, None)
        return list(seen)


def sweep(
    name: str,
    benchmarks: Sequence[str],
    flavour: str,
    schemes: Mapping[str, SchemeSpec],
) -> ExperimentDefinition:
    """The common single-flavour sweep: benchmarks × labelled schemes."""
    if flavour not in FLAVOURS:
        raise ValueError(f"unknown binary flavour {flavour!r}; expected {FLAVOURS}")
    requests = [
        CellRequest(benchmark=b, flavour=flavour, label=label, scheme=spec)
        for b in benchmarks
        for label, spec in schemes.items()
    ]
    return ExperimentDefinition(name=name, requests=requests)


# ----------------------------------------------------------------------
# The graph
# ----------------------------------------------------------------------
@dataclass
class JobGraph:
    """A deduplicated DAG of build → trace → simulate jobs.

    ``outputs`` maps each experiment name to its (benchmark, label) →
    simulate-job-key table, which is how per-experiment results are
    reassembled after (possibly shared) execution.
    """

    builds: "OrderedDict[str, BuildJob]" = field(default_factory=OrderedDict)
    traces: "OrderedDict[str, TraceJob]" = field(default_factory=OrderedDict)
    simulations: "OrderedDict[str, SimulateJob]" = field(default_factory=OrderedDict)
    outputs: Dict[str, Dict[Tuple[str, str], str]] = field(default_factory=dict)

    def cells(self) -> "OrderedDict[Tuple[str, str], List[SimulateJob]]":
        """Simulation jobs grouped by (benchmark, flavour) cell.

        A cell is the executor's unit of scheduling: all of a cell's
        simulations replay the same trace, so they run in the same process
        and the trace is released once the whole cell is done.
        """
        grouped: "OrderedDict[Tuple[str, str], List[SimulateJob]]" = OrderedDict()
        for job in self.simulations.values():
            grouped.setdefault(job.cell, []).append(job)
        return grouped

    def job_counts(self) -> Dict[str, int]:
        """Deduplicated job totals per stage (builds/traces/simulations)."""
        return {
            "builds": len(self.builds),
            "traces": len(self.traces),
            "simulations": len(self.simulations),
        }

    def requested_simulations(self) -> int:
        """Total cell requests across definitions (before deduplication)."""
        return sum(len(table) for table in self.outputs.values())


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def artifact_keys() -> KeySplicer:
    """A splicer for artifact cache keys: each job's inputs salted with
    store format and code.

    :func:`~repro.engine.hashing.code_fingerprint` covers every source file
    of the package, so editing any layer of the simulator invalidates all
    previously stored artifacts — the store can never serve numbers that the
    current code would not reproduce.  Every key equals
    ``stable_hash(STORE_FORMAT_VERSION, code_fingerprint(), *parts)``.
    """
    return KeySplicer(STORE_FORMAT_VERSION, code_fingerprint())


def make_build_job(
    benchmark: str,
    flavour: str,
    factory: BinaryFactory,
    keys: Optional[KeySplicer] = None,
) -> BuildJob:
    """The compile job of one (benchmark, flavour) cell, content-keyed by
    the factory's fingerprint (generator source, budgets, options).

    ``keys`` (from :func:`artifact_keys`) shares rendered key parts with
    other jobs made under it; every ``make_*_job`` takes one."""
    keys = keys or artifact_keys()
    key = keys.hash(keys.part("binary"), keys.part(factory.fingerprint(benchmark, flavour)))
    return BuildJob(
        key=key,
        benchmark=benchmark,
        flavour=flavour,
        profile_budget=factory.profile_budget,
    )


def make_trace_job(
    build: BuildJob, instructions: int, keys: Optional[KeySplicer] = None
) -> TraceJob:
    """The trace-collection job downstream of ``build`` at one instruction
    budget.  Machine configuration deliberately does **not** contribute to
    the key: the functional emulation is timing-independent, so every
    machine of a sweep shares one cached trace per cell."""
    # The trace encoding version is part of the key: bumping the format
    # invalidates stale cached traces at planning time instead of failing
    # (or silently re-decoding) at load time.  Simulate keys inherit it
    # through ``trace.key``.
    keys = keys or artifact_keys()
    key = keys.hash(
        keys.part("trace"),
        keys.part(build.key),
        keys.part(instructions),
        keys.part(TRACE_FORMAT_VERSION),
    )
    return TraceJob(
        key=key,
        benchmark=build.benchmark,
        flavour=build.flavour,
        instructions=instructions,
        build_key=build.key,
    )


def make_simulate_job(
    trace: TraceJob,
    scheme: SchemeSpec,
    machine: Optional[MachineSpec] = None,
    sampling: Optional[SamplingSpec] = None,
    keys: Optional[KeySplicer] = None,
) -> SimulateJob:
    """The timing-simulation job replaying ``trace`` under ``scheme`` on
    ``machine`` (default: the Table 1 machine).  The key folds in the trace
    key, the scheme token and the machine's config token — plus, for sampled
    jobs only, the sampling spec: a full simulation's key is unchanged, and
    an approximate (sampled) result can never be served where an exact one
    was requested, or vice versa."""
    machine = machine if machine is not None else MachineSpec()
    keys = keys or artifact_keys()
    texts = [
        keys.part("result"),
        keys.part(trace.key),
        keys.part(scheme, SchemeSpec.token),
        keys.part(machine_fingerprint(machine)),
    ]
    if sampling is not None:
        texts.append(keys.part(sampling, SamplingSpec.token))
    return SimulateJob(
        key=keys.hash(*texts),
        benchmark=trace.benchmark,
        flavour=trace.flavour,
        scheme=scheme,
        trace_key=trace.key,
        machine=machine,
        sampling=sampling,
    )


def make_batched_simulate_job(lanes: Sequence[SimulateJob]) -> BatchedSimulateJob:
    """Group same-cell simulate jobs into one lane-batched execution job.

    Every lane must replay the same trace (same benchmark, flavour and
    trace key); lanes differ in scheme and/or machine.  The batch key is
    derived from the lane keys and addresses only the batch's transient
    checkpoints, so a checkpoint never resumes a different lane set.  It
    is **not** a result key: results are stored under each lane's own
    :class:`SimulateJob` key, so the store cannot tell a batched run from a
    per-cell one (and cached lanes are dropped from batches before launch).
    """
    if not lanes:
        raise ValueError("a batched simulate job needs at least one lane")
    first = lanes[0]
    for job in lanes[1:]:
        if job.cell != first.cell or job.trace_key != first.trace_key:
            raise ValueError(
                "batched lanes must share one (benchmark, flavour) trace; "
                f"got {first.cell} and {job.cell}"
            )
    key = stable_hash("batch", [job.key for job in lanes])
    return BatchedSimulateJob(
        key=key,
        benchmark=first.benchmark,
        flavour=first.flavour,
        lanes=tuple(lanes),
        trace_key=first.trace_key,
    )


@lru_cache(maxsize=None)
def machine_fingerprint(machine: MachineSpec = MachineSpec()) -> str:
    """The config token: a hash of the *effective* simulated machine.

    The spec's overrides are materialised into a full
    :class:`~repro.pipeline.config.PipelineConfig` and hashed together with
    the (currently fixed) :class:`~repro.memory.hierarchy.MemoryHierarchyConfig`,
    so the token changes iff an effective machine parameter changes:
    a :class:`MachineSpec` overriding a field to its Table 1 default hashes
    identically to the default spec (specs normalise such overrides away,
    and the materialised configs compare field-by-field anyway), which is
    what lets a Table 1 sweep cell reuse artifacts cached by the figure
    experiments.  Memoised per spec; specs are small frozen dataclasses.
    """
    from repro.memory.hierarchy import MemoryHierarchyConfig

    return stable_hash(
        {
            "pipeline": machine.build_config(),
            "memory": MemoryHierarchyConfig(),
        }
    )


def plan(
    definitions: Sequence[ExperimentDefinition],
    instructions: int,
    factory: BinaryFactory,
) -> JobGraph:
    """Expand ``definitions`` into one deduplicated :class:`JobGraph`.

    The build and trace jobs of a (benchmark, flavour) cell are made once
    per call and shared by all of its requests: hashing the workload's
    content fingerprint and the two artifact keys is the planner's main
    cost.  All keys of the call share one :class:`KeySplicer`, so each
    scheme, machine token and trace key is rendered once, not once per
    simulate key.  Neither memo outlives the call, so a file-backed
    workload edited between two plans gets a new key.
    """
    graph = JobGraph()
    keys = artifact_keys()
    traces: Dict[Tuple[str, str], TraceJob] = {}
    for definition in definitions:
        table: Dict[Tuple[str, str], str] = graph.outputs.setdefault(
            definition.name, {}
        )
        for request in definition.requests:
            cell = (request.benchmark, request.flavour)
            trace = traces.get(cell)
            if trace is None:
                build = make_build_job(request.benchmark, request.flavour, factory, keys)
                graph.builds.setdefault(build.key, build)
                trace = traces[cell] = make_trace_job(build, instructions, keys)
                graph.traces.setdefault(trace.key, trace)
            simulate = make_simulate_job(
                trace, request.scheme, request.machine, request.sampling, keys
            )
            graph.simulations.setdefault(simulate.key, simulate)
            table[(request.benchmark, request.label)] = simulate.key
    return graph
