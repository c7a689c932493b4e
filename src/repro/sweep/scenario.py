"""The scenario model: declarative sweep descriptions and their parsing.

A scenario file (TOML or JSON) has three sections::

    [scenario]                      # what to run
    name = "rob-scaling"
    description = "..."
    benchmarks = ["gzip", "twolf", "swim"]  # registry names or workload
    #   spec/trace file paths (see repro.workloads.registry)
    flavour = "if-converted"        # optional, default "if-converted"
    instructions = 12000            # optional fetched-instruction budget
    schemes = ["conventional", "predicate"]   # optional, default the
    #   paper's trio; "predicate-aware" and "wish" may also be requested

    [base.pipeline]                 # optional fixed machine overrides,
    # fetch_width = 6               # applied to every point of the grid

    [axes.pipeline]                 # swept machine parameters
    rob_entries = [64, 128, 256]

    [axes.scheme]                   # swept scheme-factory options
    # entries = [512, 3634]

Every ``[axes.pipeline]`` entry is either a *simple* axis — the key names a
:class:`~repro.pipeline.config.PipelineConfig` field and the value lists the
settings to sweep — or a *composite* axis, whose values are tables of
several overrides applied together (e.g. sweeping the branch and predicate
misprediction penalties in lockstep, which keeps the grid free of
combinations the paper's recovery model would never pair).  Validation is
eager and total: unknown section keys, unknown config fields, non-list
axes, unknown scheme kinds and scheme options *no* scenario scheme's factory
accepts all raise :class:`ScenarioError` at load time, before any simulation
runs.  (An option some schemes lack is fine: those schemes ignore the axis
and their cells collapse onto one cached simulation per point.)

TOML parsing uses :mod:`tomllib` (Python ≥ 3.11).  On older interpreters
TOML scenario files raise a clear :class:`ScenarioError`; JSON scenarios
(and everything downstream of parsing) work everywhere.
"""

from __future__ import annotations

import inspect
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None  # type: ignore[assignment]

from repro.engine.jobs import FLAVOURS, IF_CONVERTED
from repro.pipeline.machine import MachineSpec, overridable_fields


class ScenarioError(ValueError):
    """A scenario file is malformed, unknown, or semantically invalid."""


#: Directory holding the built-in scenario files shipped with the package.
_BUILTIN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scenarios")

#: The paper's own schemes — the default when a scenario omits ``schemes``.
PAPER_SCHEME_KINDS = ("conventional", "pep-pa", "predicate")

#: Every scheme kind a scenario may request (mirrors the factory registry,
#: :data:`repro.experiments.setup.SCHEME_FACTORIES`).
SCHEME_KINDS = ("conventional", "pep-pa", "predicate", "predicate-aware", "wish")

_SCENARIO_KEYS = {
    "name",
    "title",
    "description",
    "benchmarks",
    "flavour",
    "instructions",
    "schemes",
}

#: Default fetched-instruction budget of a sweep point: large enough for
#: stable misprediction rates on the synthetic suite, small enough that a
#: 4-axis-value x 2-scheme x 3-benchmark grid runs in seconds.
DEFAULT_INSTRUCTIONS = 12_000


@dataclass(frozen=True)
class Axis:
    """One swept dimension of a scenario.

    ``values`` holds one :class:`~repro.pipeline.machine.MachineSpec`-style
    override mapping per grid position for pipeline axes (a single-field
    mapping for simple axes), or one option mapping per position for scheme
    axes.  ``display`` gives the per-position row labels used in reports.
    """

    kind: str  # "pipeline" | "scheme"
    name: str
    values: Tuple[Mapping[str, Any], ...]
    display: Tuple[str, ...]


@dataclass(frozen=True)
class Scenario:
    """A parsed, validated sweep scenario."""

    name: str
    title: str = ""
    description: str = ""
    benchmarks: Tuple[str, ...] = ()
    flavour: str = IF_CONVERTED
    instructions: int = DEFAULT_INSTRUCTIONS
    schemes: Tuple[str, ...] = PAPER_SCHEME_KINDS
    base: MachineSpec = field(default_factory=MachineSpec)
    axes: Tuple[Axis, ...] = ()

    def pipeline_axes(self) -> Tuple[Axis, ...]:
        return tuple(axis for axis in self.axes if axis.kind == "pipeline")

    def scheme_axes(self) -> Tuple[Axis, ...]:
        return tuple(axis for axis in self.axes if axis.kind == "scheme")


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _require_mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{what} must be a table/object, got {type(value).__name__}")
    return value


def _machine_spec(overrides: Mapping[str, Any], what: str) -> MachineSpec:
    try:
        return MachineSpec.make(**dict(overrides))
    except ValueError as error:
        raise ScenarioError(f"{what}: {error}") from None


def _display_value(mapping: Mapping[str, Any]) -> str:
    """Row label of one axis position: the value when all fields agree
    (the common single-field and lockstep cases), ``k=v`` pairs otherwise."""
    unique = {repr(value) for value in mapping.values()}
    if len(unique) == 1:
        return str(next(iter(mapping.values())))
    return ",".join(f"{key}={value}" for key, value in mapping.items())


def _parse_pipeline_axis(name: str, raw: Any) -> Axis:
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
        raise ScenarioError(
            f"axis {name!r} must be a non-empty list of values, got {raw!r}"
        )
    values: List[Mapping[str, Any]] = []
    for position in raw:
        if isinstance(position, Mapping):
            # Composite axis: each position is a table of overrides applied
            # together; the axis name itself is free-form.
            overrides = dict(position)
        else:
            overrides = {name: position}
        _machine_spec(overrides, f"axis {name!r}")  # field/value validation
        values.append(overrides)
    if len({tuple(sorted(v.items())) for v in values}) != len(values):
        raise ScenarioError(f"axis {name!r} has duplicate values")
    # Every position of one axis must move the same fields: ragged
    # composite positions make rows incomparable, and their display labels
    # (which key result collection) could collide across different machines.
    field_sets = {frozenset(v) for v in values}
    if len(field_sets) != 1:
        raise ScenarioError(
            f"axis {name!r}: every position must set the same field(s); got "
            f"{sorted(sorted(fields) for fields in field_sets)}"
        )
    display = tuple(_display_value(v) for v in values)
    if len(set(display)) != len(display):
        raise ScenarioError(
            f"axis {name!r} has positions with identical display labels {display}"
        )
    return Axis(kind="pipeline", name=name, values=tuple(values), display=display)


def _scheme_factory(kind: str):
    # Imported lazily for the same reason SchemeSpec.build() does: the
    # experiments package imports the engine.
    from repro.experiments.setup import scheme_factory

    return scheme_factory(kind)


def _parse_scheme_axis(name: str, raw: Any, schemes: Sequence[str]) -> Axis:
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
        raise ScenarioError(
            f"scheme axis {name!r} must be a non-empty list of values, got {raw!r}"
        )
    # An axis option must be accepted by at least one scheme of the
    # scenario; schemes whose factory does not take it simply ignore the
    # axis (their cells collapse onto one cached simulation per point).
    flag_option = False
    choice_option = False
    accepting = []
    all_options: set = set()
    for kind in schemes:
        accepted = inspect.signature(_scheme_factory(kind)).parameters
        all_options.update(accepted)
        if name in accepted:
            accepting.append(kind)
            # Factories agree on option shapes: feature flags default to a
            # bool, string choices to a string, geometry sizes to None
            # (resolve to positive ints).
            flag_option = isinstance(accepted[name].default, bool)
            choice_option = isinstance(accepted[name].default, str)
    if not accepting:
        raise ScenarioError(
            f"scheme axis {name!r} is not an option of any scenario scheme "
            f"({', '.join(schemes)}); options: {', '.join(sorted(all_options))}"
        )
    choices: Tuple[str, ...] = ()
    if choice_option:
        from repro.experiments.setup import SCHEME_OPTION_CHOICES

        choices = SCHEME_OPTION_CHOICES.get(name, ())
    for position in raw:
        # Anything non-scalar — floats, tables, strings outside the
        # declared choices — would only blow up deep inside a worker's
        # scheme build, violating the eager-validation contract of this
        # module.
        if flag_option:
            if not isinstance(position, bool):
                raise ScenarioError(
                    f"scheme axis {name!r} is a feature flag: values must be "
                    f"booleans, got {position!r}"
                )
            continue
        if choice_option:
            if not isinstance(position, str) or (choices and position not in choices):
                raise ScenarioError(
                    f"scheme axis {name!r}: values must be among "
                    f"{list(choices)}, got {position!r}"
                )
            continue
        if isinstance(position, bool) or not isinstance(position, int):
            raise ScenarioError(
                f"scheme axis {name!r}: values must be integers, got {position!r}"
            )
        if position < 1:
            raise ScenarioError(
                f"scheme axis {name!r}: {position} is not a positive integer"
            )
    values = tuple({name: position} for position in raw)
    if len({repr(position) for position in raw}) != len(raw):
        raise ScenarioError(f"scheme axis {name!r} has duplicate values")
    display = tuple(str(position) for position in raw)
    if len(set(display)) != len(display):
        raise ScenarioError(
            f"scheme axis {name!r} has positions with identical display labels {display}"
        )
    return Axis(kind="scheme", name=name, values=values, display=display)


def parse_scenario(data: Mapping[str, Any], source: str = "<scenario>") -> Scenario:
    """Validate a decoded scenario document and return the :class:`Scenario`."""
    data = _require_mapping(data, f"{source}: scenario document")
    unknown = set(data) - {"scenario", "base", "axes"}
    if unknown:
        raise ScenarioError(
            f"{source}: unknown top-level section(s) {sorted(unknown)}; "
            "expected [scenario], [base], [axes]"
        )
    header = _require_mapping(data.get("scenario", {}), f"{source}: [scenario]")
    unknown = set(header) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(
            f"{source}: unknown [scenario] key(s) {sorted(unknown)}; "
            f"expected {sorted(_SCENARIO_KEYS)}"
        )
    name = header.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{source}: [scenario] needs a non-empty string 'name'")
    # The name becomes the report filename (results/sweep_<name>.txt):
    # restrict it so a scenario can neither crash the writer nor escape the
    # output directory.
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", name):
        raise ScenarioError(
            f"{source}: scenario name {name!r} may only contain letters, "
            "digits, '.', '_' and '-' (it names the report file)"
        )

    flavour = header.get("flavour", IF_CONVERTED)
    if flavour not in FLAVOURS:
        raise ScenarioError(
            f"{source}: unknown flavour {flavour!r}; expected one of {FLAVOURS}"
        )

    schemes = tuple(header.get("schemes", PAPER_SCHEME_KINDS))
    bad = [kind for kind in schemes if kind not in SCHEME_KINDS]
    if bad or not schemes:
        raise ScenarioError(
            f"{source}: unknown scheme kind(s) {bad}; expected among {SCHEME_KINDS}"
        )
    if len(set(schemes)) != len(schemes):
        raise ScenarioError(f"{source}: duplicate scheme(s) in {list(schemes)}")

    benchmarks = tuple(header.get("benchmarks", ()))
    # Type-check before the duplicate set(): an unhashable entry (a nested
    # list/table) would otherwise escape as a raw TypeError.
    for benchmark in benchmarks:
        if not isinstance(benchmark, str):
            raise ScenarioError(
                f"{source}: benchmark entries must be strings, got {benchmark!r}"
            )
    if len(set(benchmarks)) != len(benchmarks):
        raise ScenarioError(f"{source}: duplicate benchmark(s) in {list(benchmarks)}")
    if benchmarks:
        # Benchmarks resolve through the workload registry: built-in names,
        # shipped library names, and user spec/trace file paths are all
        # valid; validation is eager so a bad reference fails at load time,
        # not deep inside a worker's compile step.
        from repro.workloads.registry import UnknownWorkloadError, resolve_workload
        from repro.workloads.trace_ingest import TraceIngestError
        from repro.workloads.workload_spec import WorkloadSpecError

        for benchmark in benchmarks:
            try:
                resolve_workload(benchmark)
            except (UnknownWorkloadError, WorkloadSpecError, TraceIngestError) as error:
                raise ScenarioError(f"{source}: {error}") from None

    instructions = header.get("instructions", DEFAULT_INSTRUCTIONS)
    if not isinstance(instructions, int) or isinstance(instructions, bool) or instructions < 1:
        raise ScenarioError(
            f"{source}: 'instructions' must be a positive integer, got {instructions!r}"
        )

    base_section = _require_mapping(data.get("base", {}), f"{source}: [base]")
    unknown = set(base_section) - {"pipeline"}
    if unknown:
        raise ScenarioError(
            f"{source}: unknown [base] subsection(s) {sorted(unknown)}; expected [base.pipeline]"
        )
    base = _machine_spec(
        _require_mapping(base_section.get("pipeline", {}), f"{source}: [base.pipeline]"),
        f"{source}: [base.pipeline]",
    )

    axes_section = _require_mapping(data.get("axes", {}), f"{source}: [axes]")
    unknown = set(axes_section) - {"pipeline", "scheme"}
    if unknown:
        raise ScenarioError(
            f"{source}: unknown [axes] subsection(s) {sorted(unknown)}; "
            "expected [axes.pipeline] and/or [axes.scheme]"
        )
    axes: List[Axis] = []
    pipeline_axes = _require_mapping(
        axes_section.get("pipeline", {}), f"{source}: [axes.pipeline]"
    )
    for axis_name, raw in pipeline_axes.items():
        axes.append(_parse_pipeline_axis(axis_name, raw))
    scheme_axes = _require_mapping(
        axes_section.get("scheme", {}), f"{source}: [axes.scheme]"
    )
    for axis_name, raw in scheme_axes.items():
        axes.append(_parse_scheme_axis(axis_name, raw, schemes))
    if not axes:
        raise ScenarioError(f"{source}: a scenario needs at least one [axes] entry")
    # Axis names key result grouping in the report (`(name, display) in
    # point.coordinates`), so a pipeline axis and a scheme axis sharing a
    # name would silently pool each other's cells into both tables.
    names = [axis.name for axis in axes]
    duplicated = sorted({axis_name for axis_name in names if names.count(axis_name) > 1})
    if duplicated:
        raise ScenarioError(
            f"{source}: axis name(s) {duplicated} used by more than one axis"
        )

    # Overlapping override sources would be silently shadowed (dict-merge
    # order decides the winner), turning an axis into a no-op and its
    # sensitivity table into fiction — reject both ambiguities instead:
    # a base override of a swept field, and two axes sweeping one field.
    claimed: Dict[str, str] = {}
    for axis in axes:
        if axis.kind != "pipeline":
            continue
        fields = {override for position in axis.values for override in position}
        for field_name in sorted(fields):
            if field_name in claimed:
                raise ScenarioError(
                    f"{source}: field {field_name!r} is swept by both axis "
                    f"{claimed[field_name]!r} and axis {axis.name!r}"
                )
            claimed[field_name] = axis.name
        shadowed = sorted(fields & set(base.overrides()))
        if shadowed:
            raise ScenarioError(
                f"{source}: field(s) {shadowed} appear in both [base.pipeline] and an axis"
            )

    return Scenario(
        name=name,
        title=str(header.get("title", "")),
        description=str(header.get("description", "")),
        benchmarks=benchmarks,
        flavour=flavour,
        instructions=instructions,
        schemes=schemes,
        base=base,
        axes=tuple(axes),
    )


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _decode(text: str, path: str) -> Mapping[str, Any]:
    if path.endswith(".json"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"{path}: invalid JSON: {error}") from None
    if path.endswith(".toml"):
        if tomllib is None:
            raise ScenarioError(
                f"{path}: TOML scenarios need Python >= 3.11 (tomllib); "
                "use a .json scenario on this interpreter"
            )
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ScenarioError(f"{path}: invalid TOML: {error}") from None
    raise ScenarioError(f"{path}: unsupported scenario extension (expected .toml or .json)")


def load_scenario_file(path: str) -> Scenario:
    """Parse one scenario file (``.toml`` or ``.json``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ScenarioError(f"cannot read scenario file {path}: {error}") from None
    return parse_scenario(_decode(text, path), source=os.path.basename(path))


def builtin_scenario_names() -> List[str]:
    """Names of the scenarios shipped with the package, sorted."""
    names = []
    for entry in os.listdir(_BUILTIN_DIR):
        stem, extension = os.path.splitext(entry)
        if extension in (".toml", ".json"):
            names.append(stem)
    return sorted(names)


def load_scenario(name_or_path: str) -> Scenario:
    """Resolve a built-in scenario name or a scenario file path.

    A known built-in name (``rob-scaling``, ``fetch-width``, …) loads the
    shipped file; anything containing a path separator or an extension is
    treated as a user scenario file.
    """
    if os.sep in name_or_path or name_or_path.endswith((".toml", ".json")):
        return load_scenario_file(name_or_path)
    for extension in (".toml", ".json"):
        path = os.path.join(_BUILTIN_DIR, name_or_path + extension)
        if os.path.exists(path):
            return load_scenario_file(path)
    raise ScenarioError(
        f"unknown scenario {name_or_path!r}; built-in scenarios: "
        f"{', '.join(builtin_scenario_names())} (or pass a .toml/.json path)"
    )


def overridable_parameters() -> Dict[str, int]:
    """Machine parameters a scenario may override → their Table 1 defaults
    (re-exported for the CLI's ``sweep --list`` output)."""
    return overridable_fields()
