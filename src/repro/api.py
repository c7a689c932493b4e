"""The stable public facade: every blessed entry point under one import.

The packages under :mod:`repro` are layered for the implementation's sake
(engine, sweep, serve, workloads …); this module is layered for *callers'*
sake.  Everything a script, a notebook or an external tool should reach for
is re-exported here with one flat, documented ``__all__`` — the facade is
the compatibility surface: names listed here keep working across releases,
while the modules behind them stay free to move.

The blessed surface (see ``docs/api.md`` for the reference):

* **Running simulations** — :func:`run_cells` (alias :func:`run`), the one
  entrypoint that turns :class:`CellRequest` sequences into results through
  the deduplicating, artifact-cached, lane-batching engine;
  :class:`ExecutionEngine`, :class:`EngineStats`, :class:`JobTiming`,
  :class:`CellRunOutcome` and the :class:`ArtifactStore` behind it.
* **Describing work** — :class:`CellRequest`, :class:`SchemeSpec`,
  :class:`MachineSpec`, the ``BASELINE``/``IF_CONVERTED`` binary flavours,
  and :class:`ExperimentDefinition`.
* **Scenarios** — :class:`Scenario`, :func:`load_scenario`,
  :func:`builtin_scenario_names`, :func:`run_sweep`, :func:`render_sweep`.
* **Workloads** — :func:`resolve_workload`, :func:`registry_names`,
  :func:`build_workload`.
* **The experiment service** — :class:`ServeClient` (HTTP client of a
  ``repro serve`` daemon) and :class:`ExperimentService` (the in-process
  job scheduler it talks to).
* **Operations** — :func:`configure_logging` (the runtime's structured
  stderr logging) and :func:`fault_points` (the deterministic
  fault-injection catalog behind ``REPRO_FAULTS``).

Attributes resolve lazily (PEP 562), so ``import repro.api`` is cheap and
the facade can be imported from anywhere inside the package without
creating import cycles.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, Tuple

#: Facade name → (defining module, attribute).  The single source of truth
#: for the public surface; ``__all__``, lazy resolution and the
#: ``tests/docs/test_api_surface.py`` docstring/docs checks all derive
#: from it.
_EXPORTS: Dict[str, Tuple[str, str]] = {
    # Running simulations
    "run": ("repro.engine.run", "run_cells"),
    "run_cells": ("repro.engine.run", "run_cells"),
    "CellRunOutcome": ("repro.engine.run", "CellRunOutcome"),
    "ExecutionEngine": ("repro.engine.executor", "ExecutionEngine"),
    "EngineStats": ("repro.engine.executor", "EngineStats"),
    "JobTiming": ("repro.engine.executor", "JobTiming"),
    "ArtifactStore": ("repro.engine.store", "ArtifactStore"),
    "default_cache_dir": ("repro.engine.store", "default_cache_dir"),
    # Describing work
    "CellRequest": ("repro.engine.planner", "CellRequest"),
    "ExperimentDefinition": ("repro.engine.planner", "ExperimentDefinition"),
    "SchemeSpec": ("repro.engine.jobs", "SchemeSpec"),
    "MachineSpec": ("repro.pipeline.machine", "MachineSpec"),
    "simulate_windowed": ("repro.pipeline.batched", "simulate_windowed"),
    "BASELINE": ("repro.engine.jobs", "BASELINE"),
    "IF_CONVERTED": ("repro.engine.jobs", "IF_CONVERTED"),
    "FLAVOURS": ("repro.engine.jobs", "FLAVOURS"),
    # Scenarios (design-space sweeps)
    "Scenario": ("repro.sweep.scenario", "Scenario"),
    "ScenarioError": ("repro.sweep.scenario", "ScenarioError"),
    "load_scenario": ("repro.sweep.scenario", "load_scenario"),
    "builtin_scenario_names": ("repro.sweep.scenario", "builtin_scenario_names"),
    "run_sweep": ("repro.sweep.runner", "run_sweep"),
    "render_sweep": ("repro.sweep.report", "render_sweep"),
    # Workloads
    "resolve_workload": ("repro.workloads.registry", "resolve_workload"),
    "registry_names": ("repro.workloads.registry", "registry_names"),
    "build_workload": ("repro.workloads.registry", "build_workload"),
    # The experiment service
    "ServeClient": ("repro.client", "ServeClient"),
    "ServeError": ("repro.client", "ServeError"),
    "ExperimentService": ("repro.serve.service", "ExperimentService"),
    # Operations (logging and chaos testing)
    "configure_logging": ("repro.log", "configure_logging"),
    "fault_points": ("repro.faults", "fault_points"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}") from None
    value = getattr(import_module(module_name), attribute)
    # Cache on the module so the import machinery only runs once per name.
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
