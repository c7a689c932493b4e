"""Declarative job specifications: the nodes of the experiment job graph.

Every figure of the paper is a sweep over (benchmark × binary-flavour ×
scheme) cells, and every cell decomposes into the same three-stage chain:

``BuildJob``
    compile one (benchmark, flavour) binary;
``TraceJob``
    run the binary through the functional emulator and collect its dynamic
    instruction trace;
``SimulateJob``
    replay one trace through the timing pipeline under one branch-handling
    scheme.

A job is pure data — picklable, hashable, and identified by a
content-addressed ``key`` derived from everything that determines its
output.  Two experiments that need the same artifact therefore plan the
*same* job, which is what makes deduplication and the persistent artifact
store work across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.pipeline.machine import MachineSpec

#: Binary flavours used by the evaluation.
BASELINE = "baseline"
IF_CONVERTED = "if-converted"

#: The flavours a planner will accept.
FLAVOURS = (BASELINE, IF_CONVERTED)


# ----------------------------------------------------------------------
# Scheme specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchemeSpec:
    """A declarative, picklable description of one branch-handling scheme.

    ``kind`` names a factory from :mod:`repro.experiments.setup` and
    ``options`` its keyword arguments as a sorted tuple of pairs, so a spec
    can cross process boundaries (unlike a closure or ``functools.partial``
    over a lambda) and contributes deterministically to cache keys.
    """

    kind: str
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, **options: Any) -> "SchemeSpec":
        """Build a spec from a factory kind plus keyword options (sorted
        into the canonical tuple form)."""
        return cls(kind=kind, options=tuple(sorted(options.items())))

    # ------------------------------------------------------------------
    def build(self):
        """Instantiate the scheme (a fresh object on every call)."""
        # Imported lazily: repro.experiments imports repro.engine, so a
        # top-level import here would be circular.
        from repro.experiments.setup import scheme_factory

        return scheme_factory(self.kind)(**dict(self.options))

    def token(self) -> Dict[str, Any]:
        """The scheme's contribution to a cache key."""
        return {"kind": self.kind, "options": dict(self.options)}

    def describe(self) -> str:
        """Human-readable form, e.g. ``predicate(split_pvt=True)``."""
        if not self.options:
            return self.kind
        opts = ",".join(f"{k}={v}" for k, v in self.options)
        return f"{self.kind}({opts})"


# ----------------------------------------------------------------------
# Job specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """Base of every job-graph node: a content-addressed unit of work."""

    key: str
    benchmark: str
    flavour: str

    @property
    def cell(self) -> Tuple[str, str]:
        """The (benchmark, flavour) cell this job belongs to."""
        return (self.benchmark, self.flavour)


@dataclass(frozen=True)
class BuildJob(JobSpec):
    """Compile one binary flavour of one benchmark."""

    profile_budget: int = 20_000


@dataclass(frozen=True)
class TraceJob(JobSpec):
    """Collect the dynamic trace of one compiled binary."""

    instructions: int = 0
    build_key: str = ""


@dataclass(frozen=True)
class SimulateJob(JobSpec):
    """Replay one trace through the timing pipeline under one scheme.

    ``machine`` declares the simulated machine: the default
    :class:`~repro.pipeline.machine.MachineSpec` is the Table 1 configuration,
    a non-default spec carries validated overrides that the executor folds
    into the :class:`~repro.pipeline.config.PipelineConfig` it simulates
    with.  The spec contributes to ``key`` (see
    :func:`repro.engine.planner.machine_fingerprint`), so results of
    different machines can never collide in the artifact store.
    """

    scheme: SchemeSpec = SchemeSpec(kind="conventional")
    trace_key: str = ""
    machine: MachineSpec = field(default_factory=MachineSpec)


@dataclass(frozen=True)
class BatchedSimulateJob(JobSpec):
    """N same-cell simulate jobs stepped in lockstep over one trace.

    A batch is an *execution* grouping, not a cache identity: each lane
    keeps its own content-addressed :class:`SimulateJob` key, the executor
    stores one result per lane under that key, and a lane served from the
    store never enters a batch at all.  Cached artifacts are therefore
    bit-for-bit interchangeable between batched and per-cell runs.  The
    batch's own ``key`` hashes the lane keys and addresses its mid-trace
    checkpoints, which hold every lane.
    """

    lanes: Tuple[SimulateJob, ...] = ()
    trace_key: str = ""
