"""Human-readable rendering of bench reports."""

from __future__ import annotations

from typing import Any, Dict


def _fmt_rate(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}"


def _fmt_bytes(value: float) -> str:
    if value >= 1 << 20:
        return f"{value / (1 << 20):.1f}M"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.0f}K"
    return f"{value:.0f}"


def render_table(report: Dict[str, Any]) -> str:
    """Render one bench report as an aligned text table."""
    header = (
        f"{'benchmark':10s} {'flavour':12s} {'scheme':26s} "
        f"{'insts':>7s} {'cycles':>7s} {'sim s':>7s} {'inst/s':>8s} {'cyc/s':>8s} "
        f"{'trc/s':>8s} {'trc B':>7s} {'trc mem':>8s}"
    )
    lines = [
        f"repro bench — suite={report.get('suite', '?')} "
        f"rev={report.get('revision', '?')}"
        + (f" filter={report['filter']}" if report.get("filter") else ""),
        header,
        "-" * len(header),
    ]
    for cell in report.get("cells", []):
        lines.append(
            f"{cell['benchmark']:10s} {cell['flavour']:12s} {cell['scheme']:26s} "
            f"{cell['instructions']:7d} {cell['cycles']:7d} "
            f"{cell['sim_seconds']:7.3f} "
            f"{_fmt_rate(cell['sim_instructions_per_second']):>8s} "
            f"{_fmt_rate(cell['sim_cycles_per_second']):>8s} "
            f"{_fmt_rate(cell.get('trace_instructions_per_second', 0.0)):>8s} "
            f"{_fmt_bytes(cell.get('trace_disk_bytes', 0)):>7s} "
            f"{_fmt_bytes(cell.get('trace_peak_alloc_bytes', 0)):>8s}"
        )
    aggregate = report.get("aggregate", {})
    lines.append("-" * len(header))
    lines.append(
        f"aggregate: {aggregate.get('total_instructions', 0)} instructions in "
        f"{aggregate.get('total_sim_seconds', 0.0):.3f}s simulate "
        f"(+{aggregate.get('total_trace_seconds', 0.0):.3f}s trace) -> "
        f"{_fmt_rate(aggregate.get('instructions_per_second', 0.0))} inst/s, "
        f"{_fmt_rate(aggregate.get('cycles_per_second', 0.0))} cyc/s"
    )
    if aggregate.get("total_trace_disk_bytes"):
        lines.append(
            f"traces: built at "
            f"{_fmt_rate(aggregate.get('trace_instructions_per_second', 0.0))} inst/s, "
            f"{_fmt_bytes(aggregate['total_trace_disk_bytes'])}B serialized, "
            f"peak build alloc {_fmt_bytes(aggregate.get('peak_trace_alloc_bytes', 0))}B"
        )
    calibration = report.get("calibration_mops")
    if calibration:
        lines.append(
            f"calibration: {calibration:.2f} Mops/s, "
            f"normalized score {aggregate.get('normalized_score', 0.0):.4f}"
        )
    return "\n".join(lines)

