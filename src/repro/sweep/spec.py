"""Grid expansion: a scenario → sweep points → one engine definition.

A :class:`SweepPoint` is one position of the scenario's cartesian grid —
the merged machine overrides of every pipeline axis plus the merged factory
options of every scheme axis.  :class:`SweepSpec` expands a scenario into
its points and renders them as one
:class:`~repro.engine.planner.ExperimentDefinition` whose cell-request
labels encode (scheme, point), which is how per-point results are collected
back out of the engine's output table after a (deduplicated, possibly
parallel, artifact-cached) run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from repro.engine.jobs import SchemeSpec
from repro.engine.planner import CellRequest, ExperimentDefinition
from repro.pipeline.machine import MachineSpec
from repro.sweep.scenario import Scenario


@dataclass(frozen=True)
class SweepPoint:
    """One grid position: per-axis coordinates plus their merged effect."""

    #: (axis name, display value) in scenario axis order — the point's
    #: coordinates, used for report grouping and labels.
    coordinates: Tuple[Tuple[str, str], ...]
    #: The simulated machine at this point (scenario base + pipeline axes).
    machine: MachineSpec
    #: Scheme-factory options contributed by scheme axes, sorted.
    scheme_options: Tuple[Tuple[str, object], ...]

    def describe(self) -> str:
        if not self.coordinates:
            return "default"
        return ",".join(f"{name}={value}" for name, value in self.coordinates)


def _point_label(scheme: str, point: SweepPoint) -> str:
    """The engine-facing label of one (scheme, point) cell request."""
    return f"{scheme}@{point.describe()}"


@dataclass(frozen=True)
class SweepSpec:
    """The expanded form of a scenario: points, labels, and the definition."""

    scenario: Scenario

    # ------------------------------------------------------------------
    def points(self) -> List[SweepPoint]:
        """The cartesian grid of every axis, in scenario axis order.

        Memoised on the (frozen) spec: expanding a position materialises a
        validated :class:`MachineSpec`, which is worth doing once per grid,
        not once per caller."""
        return list(self._points)

    @cached_property
    def _points(self) -> Tuple[SweepPoint, ...]:
        axes = self.scenario.axes
        grid: List[SweepPoint] = []
        for positions in itertools.product(*(range(len(axis.values)) for axis in axes)):
            coordinates: List[Tuple[str, str]] = []
            machine_overrides: Dict[str, int] = dict(self.scenario.base.overrides())
            scheme_options: Dict[str, object] = {}
            for axis, position in zip(axes, positions):
                coordinates.append((axis.name, axis.display[position]))
                if axis.kind == "pipeline":
                    machine_overrides.update(axis.values[position])
                else:
                    scheme_options.update(axis.values[position])
            grid.append(
                SweepPoint(
                    coordinates=tuple(coordinates),
                    machine=MachineSpec.make(**machine_overrides),
                    scheme_options=tuple(sorted(scheme_options.items())),
                )
            )
        return tuple(grid)

    # ------------------------------------------------------------------
    def benchmarks(self) -> List[str]:
        """The scenario's benchmarks (default: the test-suite trio).

        A sweep multiplies every axis value by every benchmark and scheme,
        so the default is deliberately the three fast-compiling programs
        the FAST profile uses rather than the whole 22-program suite.
        """
        return list(self._benchmarks)

    @cached_property
    def _benchmarks(self) -> Tuple[str, ...]:
        if self.scenario.benchmarks:
            return tuple(self.scenario.benchmarks)
        from repro.experiments.setup import FAST_PROFILE

        return tuple(FAST_PROFILE.benchmarks or [])

    def scheme_spec(self, scheme: str, point: SweepPoint) -> SchemeSpec:
        """The spec of ``scheme`` at ``point``, with default-valued options
        normalized away — a Table 1 point (e.g. ``entries = 3634``) builds
        the *plain* scheme spec and therefore the same cache token, mirroring
        what :class:`~repro.pipeline.machine.MachineSpec` does for machine
        overrides.  Options the scheme's factory does not accept are dropped
        the same way: a scheme untouched by an axis (e.g. ``pep-pa`` on a
        ``second_level`` sweep) contributes one cached simulation per point
        instead of an error or a spurious re-run."""
        import inspect

        from repro.experiments.setup import scheme_factory, scheme_option_defaults

        accepted = inspect.signature(scheme_factory(scheme)).parameters
        defaults = scheme_option_defaults(scheme)
        options = {
            name: value
            for name, value in point.scheme_options
            if name in accepted and (name not in defaults or defaults[name] != value)
        }
        return SchemeSpec.make(scheme, **options)

    def definition(self) -> ExperimentDefinition:
        """All (benchmark × point × scheme) cell requests, labelled.

        The label and scheme spec of each (scheme, point) are made once and
        shared by every benchmark."""
        cells = [
            (_point_label(scheme, point), self.scheme_spec(scheme, point), point.machine)
            for point in self._points
            for scheme in self.scenario.schemes
        ]
        requests = [
            CellRequest(
                benchmark=benchmark,
                flavour=self.scenario.flavour,
                label=label,
                scheme=spec,
                machine=machine,
            )
            for benchmark in self._benchmarks
            for label, spec, machine in cells
        ]
        return ExperimentDefinition(name=f"sweep:{self.scenario.name}", requests=requests)

    def labels(self) -> Dict[Tuple[str, str], SweepPoint]:
        """(scheme, label) → point, for reassembling engine outputs."""
        return {
            (scheme, _point_label(scheme, point)): point
            for point in self._points
            for scheme in self.scenario.schemes
        }

    def cell_count(self) -> int:
        """Total simulations the grid requests (before deduplication)."""
        return len(self._benchmarks) * len(self._points) * len(self.scenario.schemes)
