"""Sensitivity reports: tables and ASCII plots over a finished sweep.

For every swept axis the report shows, per scheme, how the two headline
metrics respond as the axis moves through its values.  Each table cell
pools *every* simulation sharing that axis value — all benchmarks and, in
a multi-axis scenario, all positions of the other axes — and aggregates:

* **IPC** — geometric mean over the pooled cells (the standard
  aggregation for rates);
* **branch misprediction rate** — arithmetic mean over the pooled cells.

Each table is followed by one ASCII bar plot per scheme, so a terminal (or
the committed ``results/sweep_*.txt``) shows the shape of the sensitivity
curve at a glance.
"""

from __future__ import annotations

from math import exp, log
from typing import Dict, List, Sequence, Tuple

from repro.sweep.runner import SweepRun
from repro.sweep.scenario import Axis

#: Width, in characters, of the widest ASCII bar.
_BAR_WIDTH = 40


def _geomean(values: Sequence[float]) -> float:
    positive = [value for value in values if value > 0]
    if not positive:
        return 0.0
    return exp(sum(log(value) for value in positive) / len(positive))


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ascii_bars(rows: Sequence[Tuple[str, float]], unit: str = "") -> List[str]:
    """Render ``(label, value)`` rows as a horizontal ASCII bar chart."""
    if not rows:
        return []
    peak = max(value for _, value in rows)
    label_width = max(len(label) for label, _ in rows)
    lines = []
    for label, value in rows:
        length = round(_BAR_WIDTH * value / peak) if peak > 0 else 0
        bar = "#" * max(length, 1 if value > 0 else 0)
        lines.append(f"  {label:>{label_width}s} | {bar} {value:.3f}{unit}")
    return lines


def _axis_metrics(
    run: SweepRun, axis: Axis
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Per scheme, per axis display value: (IPC geomean, mispredict %),
    pooled over benchmarks and any other axes' positions."""
    metrics: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for scheme in run.schemes():
        per_value: Dict[str, Tuple[float, float]] = {}
        for display in axis.display:
            ipcs: List[float] = []
            rates: List[float] = []
            for (result_scheme, point, _benchmark), result in run.results.items():
                if result_scheme != scheme:
                    continue
                if (axis.name, display) not in point.coordinates:
                    continue
                ipcs.append(result.metrics.ipc)
                rates.append(result.accuracy.misprediction_rate)
            per_value[display] = (_geomean(ipcs), 100.0 * _mean(rates))
        metrics[scheme] = per_value
    return metrics


def _axis_section(run: SweepRun, axis: Axis) -> List[str]:
    metrics = _axis_metrics(run, axis)
    schemes = list(run.schemes())
    value_width = max([len(axis.name)] + [len(d) for d in axis.display])
    scheme_width = max(12, max(len(s) for s in schemes) + 2)

    lines = [f"axis: {axis.name}" + (" (scheme option)" if axis.kind == "scheme" else "")]
    benchmarks = ",".join(run.spec.benchmarks())

    header = f"  {axis.name:>{value_width}s}" + "".join(
        f" {scheme:>{scheme_width}s}" for scheme in schemes
    )
    lines += ["", f"  IPC (geomean over {benchmarks})", header, "  " + "-" * (len(header) - 2)]
    for display in axis.display:
        row = f"  {display:>{value_width}s}"
        for scheme in schemes:
            row += f" {metrics[scheme][display][0]:>{scheme_width}.3f}"
        lines.append(row)

    lines += ["", "  branch misprediction rate [%]", header, "  " + "-" * (len(header) - 2)]
    for display in axis.display:
        row = f"  {display:>{value_width}s}"
        for scheme in schemes:
            row += f" {metrics[scheme][display][1]:>{scheme_width}.2f}"
        lines.append(row)

    for scheme in schemes:
        lines += ["", f"  IPC vs {axis.name} — {scheme}"]
        lines += [
            "  " + line
            for line in ascii_bars(
                [(display, metrics[scheme][display][0]) for display in axis.display]
            )
        ]
    return lines


def render_sweep(run: SweepRun) -> str:
    """Render a finished sweep as the full sensitivity report.

    The report holds simulated numbers only; what the engine did and how
    long it took (``run.stats``) varies from run to run and is left out,
    so a report can be compared byte for byte with a committed one.
    """
    scenario = run.scenario
    lines = [
        f"sweep: {scenario.name}"
        + (f" — {scenario.title}" if scenario.title else ""),
    ]
    if scenario.description:
        lines.append(scenario.description)
    lines += [
        "",
        f"flavour         {scenario.flavour}",
        f"benchmarks      {', '.join(run.spec.benchmarks())}",
        f"instructions    {scenario.instructions} per benchmark",
        f"schemes         {', '.join(scenario.schemes)}",
        f"base machine    {scenario.base.describe()}",
        f"grid            {len(run.spec.points())} points x "
        f"{len(scenario.schemes)} schemes x {len(run.spec.benchmarks())} benchmarks "
        f"= {run.spec.cell_count()} simulations",
    ]
    for axis in scenario.axes:
        lines.append("")
        lines.extend(_axis_section(run, axis))
    return "\n".join(lines)
