"""The workload registry: one lookup for built-ins, spec files and traces.

Everything downstream of workload selection — the engine's compile step,
``--benchmarks`` parsing, sweep-scenario validation, serve submissions —
resolves benchmarks through :func:`resolve_workload`, which accepts:

* a **built-in** name (``gzip``, ``twolf``, … — the 22-program synthetic
  suite of :mod:`repro.workloads.spec_suite`);
* a **library** name: the stem of a spec file shipped in
  ``src/repro/workloads/library/`` (``branchy``, …);
* a **path** to a user workload: a ``.toml``/``.json`` trait-spec file
  (:mod:`repro.workloads.workload_spec`) or a ``.trace`` branch-outcome
  stream (:mod:`repro.workloads.trace_ingest`).

Resolution is a pure function of the name string (plus the file contents it
denotes), so worker processes resolve the same string to the same workload
without any registration handshake.  File-backed definitions are re-read on
every resolve — the files are small, and it is exactly what makes an edited
spec show up immediately.

Every definition carries a **content fingerprint** that the binary factory
folds into engine cache keys (:meth:`repro.compiler.binaries.BinaryFactory.
fingerprint`): editing a spec file changes only that workload's fingerprint,
so only its artifacts rebuild while everything else stays cached.  Built-in
fingerprints hash the canonicalized traits (stable across processes).

Unknown names raise :class:`UnknownWorkloadError` listing the registry and
suggesting close matches.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.program.program import Program
from repro.workloads.spec_suite import SPEC_SUITE, workload_names
from repro.workloads.kernels import build_program_from_traits
from repro.workloads.trace_ingest import TraceIngestError, ingest_trace_file
from repro.workloads.traits import WorkloadTraits
from repro.workloads.workload_spec import WorkloadSpecError

#: Extensions that mark a benchmark string as a user workload file.
SPEC_EXTENSIONS = (".toml", ".json")
TRACE_EXTENSIONS = (".trace",)

#: Directory of the spec files shipped with the package.
_LIBRARY_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "library")

#: Workload origins, in `workloads list` order.
BUILTIN = "builtin"
LIBRARY = "library"
SPEC_FILE = "spec-file"
TRACE = "trace"


class UnknownWorkloadError(KeyError):
    """A benchmark name resolves to nothing in the registry.

    ``str(error)`` is the full user-facing message (registry listing plus
    close-match suggestions); :class:`KeyError`'s quoting is bypassed.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


@dataclass(frozen=True)
class WorkloadDefinition:
    """One resolved workload: identity, provenance, traits and builder.

    ``name`` is the *registry identity* — the exact string jobs, reports and
    cache metadata carry (for file-backed workloads that is the path the
    user passed, so re-resolution works in any process).  ``display_name``
    is the declared workload name (identical for built-ins).
    """

    name: str
    display_name: str
    origin: str  # BUILTIN | LIBRARY | SPEC_FILE | TRACE
    source: str  # module or file path the definition came from
    traits: WorkloadTraits
    fingerprint: str
    _builder: Callable[[], Program]

    def build(self) -> Program:
        """Build the (uncompiled) program; deterministic per fingerprint."""
        return self._builder()

    def describe(self) -> str:
        return f"{self.display_name} [{self.origin}] {self.traits.describe()}"


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=len(SPEC_SUITE))
def _traits_fingerprint(traits: WorkloadTraits) -> str:
    """Content fingerprint of in-package traits (canonical, process-stable).

    Memoised on the frozen traits value, one entry per built-in: every
    ``plan()`` resolves the same built-ins, and the fingerprint is a pure
    function of the traits.  Only built-in traits come here, whose field
    types are fixed, so the cache never conflates values that compare
    equal across types (``1`` and ``True``) but canonicalise differently.
    """
    from repro.engine.hashing import stable_hash  # lazy: engine imports workloads

    return stable_hash("workload-traits", traits)


def _text_fingerprint(kind: str, text: str) -> str:
    """Content fingerprint of a user file (spec or trace)."""
    digest = hashlib.sha256(f"{kind}\n{text}".encode("utf-8")).hexdigest()
    return digest[:32]


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def is_workload_path(name: str) -> bool:
    """True when a benchmark string denotes a file, not a registry name."""
    return os.sep in name or name.endswith(SPEC_EXTENSIONS + TRACE_EXTENSIONS)


def _builtin_definition(name: str) -> WorkloadDefinition:
    traits = SPEC_SUITE[name]
    return WorkloadDefinition(
        name=name,
        display_name=name,
        origin=BUILTIN,
        source="repro.workloads.spec_suite",
        traits=traits,
        fingerprint=_traits_fingerprint(traits),
        _builder=lambda: build_program_from_traits(traits),
    )


def library_paths() -> List[str]:
    """Paths of the shipped library spec files, sorted by stem.

    ``.toml`` entries are skipped on interpreters without :mod:`tomllib`
    (mirroring scenario loading: TOML fails only when actually requested).
    """
    from repro.workloads.workload_spec import tomllib

    paths = []
    for entry in sorted(os.listdir(_LIBRARY_DIR)):
        stem, extension = os.path.splitext(entry)
        if extension not in SPEC_EXTENSIONS:
            continue
        if extension == ".toml" and tomllib is None:  # pragma: no cover - 3.10
            continue
        paths.append(os.path.join(_LIBRARY_DIR, entry))
    return paths


def _library_names() -> List[str]:
    return [os.path.splitext(os.path.basename(path))[0] for path in library_paths()]


def _library_definition(name: str) -> Optional[WorkloadDefinition]:
    for path in library_paths():
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem == name:
            definition = _spec_file_definition(path, identity=name)
            return WorkloadDefinition(
                name=name,
                display_name=definition.display_name,
                origin=LIBRARY,
                source=path,
                traits=definition.traits,
                fingerprint=definition.fingerprint,
                _builder=definition._builder,
            )
    return None


def _spec_file_definition(path: str, identity: Optional[str] = None) -> WorkloadDefinition:
    from repro.workloads.workload_spec import load_workload_text

    traits, text = load_workload_text(path, name=identity)
    return WorkloadDefinition(
        name=identity if identity is not None else path,
        display_name=traits.name,
        origin=SPEC_FILE,
        source=path,
        traits=traits,
        fingerprint=_text_fingerprint("spec", text),
        _builder=lambda: build_program_from_traits(traits),
    )


def _trace_definition(path: str) -> WorkloadDefinition:
    stem = os.path.splitext(os.path.basename(path))[0]
    # Streaming on purpose: CBP-scale outcome streams do not fit in memory,
    # so both ingestion and the fingerprint fold the file in line by line.
    digest = hashlib.sha256(b"trace\n")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                digest.update(line.encode("utf-8"))
    except OSError as error:
        raise TraceIngestError(f"cannot read branch trace {path}: {error}") from None
    ingested = ingest_trace_file(path, name=stem)
    return WorkloadDefinition(
        name=path,
        display_name=ingested.name,
        origin=TRACE,
        source=path,
        traits=ingested.traits,
        fingerprint=digest.hexdigest()[:32],
        _builder=ingested.build,
    )


def registry_names() -> List[str]:
    """Every name the registry resolves: built-ins first, then the library."""
    return workload_names() + _library_names()


def _unknown(name: str) -> UnknownWorkloadError:
    suggestions = difflib.get_close_matches(name, registry_names(), n=3, cutoff=0.6)
    hint = f"; did you mean: {', '.join(suggestions)}?" if suggestions else ""
    return UnknownWorkloadError(
        f"unknown workload {name!r}{hint} "
        f"(registry: {', '.join(registry_names())}; or pass a "
        f".toml/.json workload spec or .trace outcome-stream path — "
        "see 'repro workloads list')"
    )


def resolve_workload(name: str) -> WorkloadDefinition:
    """Resolve a benchmark string to its definition.

    Raises :class:`UnknownWorkloadError` for unknown names,
    :class:`~repro.workloads.workload_spec.WorkloadSpecError` /
    :class:`~repro.workloads.trace_ingest.TraceIngestError` for files that
    exist but do not validate.
    """
    if is_workload_path(name):
        if name.endswith(TRACE_EXTENSIONS):
            return _trace_definition(name)
        if name.endswith(SPEC_EXTENSIONS):
            return _spec_file_definition(name)
        raise WorkloadSpecError(
            f"{name}: unsupported workload file extension (expected "
            f"{', '.join(SPEC_EXTENSIONS + TRACE_EXTENSIONS)})"
        )
    if name in SPEC_SUITE:
        return _builtin_definition(name)
    definition = _library_definition(name)
    if definition is not None:
        return definition
    raise _unknown(name)


def workload_fingerprint(name: str) -> str:
    """The content fingerprint the binary factory folds into cache keys."""
    return resolve_workload(name).fingerprint


def build_workload(name: str) -> Program:
    """Build any registry workload (built-in, library, spec path or trace)."""
    return resolve_workload(name).build()


__all__ = [
    "BUILTIN",
    "LIBRARY",
    "SPEC_FILE",
    "TRACE",
    "TraceIngestError",
    "UnknownWorkloadError",
    "WorkloadDefinition",
    "WorkloadSpecError",
    "build_workload",
    "is_workload_path",
    "library_paths",
    "registry_names",
    "resolve_workload",
    "workload_fingerprint",
]
