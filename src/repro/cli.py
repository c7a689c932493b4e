"""Command-line interface: ``python -m repro <command>``.

Commands:

``table1``
    Print the simulated machine configuration (Table 1).
``figure5`` / ``figure6`` / ``idealized`` / ``ablations`` / ``ipc``
    Regenerate the corresponding experiment and print its report.
``all``
    Run every experiment through one shared, deduplicated engine pass and
    write the rendered reports under ``results/`` (see ``--output-dir``).
``simulate BENCHMARK``
    Run one benchmark under one scheme and print the headline metrics.
``sweep SCENARIO``
    Design-space exploration: run a scenario file's machine-configuration
    grid (built-in: ``rob-scaling``, ``fetch-width``, ``mispredict-penalty``,
    ``predictor-budget``; or a ``.toml``/``.json`` path) and render
    sensitivity tables and ASCII plots; ``sweep --list`` shows the built-in
    scenarios and the sweepable machine parameters.
``workloads list`` / ``workloads describe`` / ``workloads validate``
    Inspect the workload registry: the 22 built-in synthetic programs, the
    shipped library of trait-spec benchmarks, and user workloads declared
    as ``.toml``/``.json`` spec files or ``.trace`` branch-outcome streams
    (see ``docs/workloads.md``).
``cache stats`` / ``cache clear`` / ``cache path``
    Inspect or clear the persistent artifact cache (``stats`` reports
    per-kind entry counts, bytes and last-hit ages).
``serve``
    Run the experiment service: an HTTP+JSON job daemon over the engine
    (``--host``/``--port``, ``--workers`` concurrent jobs,
    ``--max-store-bytes`` size-gated LRU eviction); see ``docs/serve.md``.
``submit SCENARIO``
    Submit a job to a running daemon (``--url``), wait for it and print
    the rendered result; accepts built-in scenario names, scenario files,
    or ``.json`` job documents with ``cells``.
``list``
    List the available benchmarks (registry names, one per line).

Common options: ``--instructions N`` (per-benchmark budget),
``--benchmarks a,b,c`` (registry names and/or workload file paths),
``--jobs N`` (parallel worker processes), ``--cache-dir PATH`` /
``--no-cache`` (persistent artifact store; defaults to
``$REPRO_CACHE_DIR`` or ``.repro-cache``), ``--checkpoint-every ROWS``
(periodic resume checkpoints through the store; see
``docs/internals/traces.md``), and for ``simulate``: ``--scheme`` and
``--flavour``.

The full command reference, with expected outputs, lives in
``docs/experiments.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.api import (
    ArtifactStore,
    BASELINE,
    ExecutionEngine,
    IF_CONVERTED,
    SchemeSpec,
    default_cache_dir,
)
from repro.engine.store import KINDS
from repro.experiments.ablations import run_history_ablation, run_pvt_ablation
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.idealized import run_idealized_study
from repro.experiments.selective_ipc import run_selective_ipc
from repro.experiments.setup import SCHEME_FACTORIES, ExperimentProfile, paper_table1
from repro.experiments.suite import run_all, write_reports
from repro.workloads.registry import (
    UnknownWorkloadError,
    registry_names,
    resolve_workload,
)
from repro.workloads.trace_ingest import TraceIngestError
from repro.workloads.workload_spec import WorkloadSpecError

_SCHEME_SPECS = {kind: SchemeSpec.make(kind) for kind in SCHEME_FACTORIES}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Improving Branch Prediction and Predicated "
        "Execution in Out-of-Order Processors' (HPCA 2007)",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="fetched-instruction budget per benchmark per scheme "
        "(default: 20000; sweep scenarios default to their declared budget)",
    )
    parser.add_argument(
        "--benchmarks",
        type=str,
        default="",
        help="comma-separated benchmarks: registry names and/or workload "
        "spec/trace file paths (default: the full 22-program suite)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent (benchmark, flavour) cells "
        "(default: 1 = serial)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="ROWS",
        help="write a resume checkpoint to the artifact cache every ROWS "
        "simulated branches, so a killed run restarts mid-trace "
        "(default: off; needs the cache)",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent artifact cache for this run",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="stderr logging verbosity for the repro runtime "
        "(default: $REPRO_LOG_LEVEL or warning)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table1", help="print the Table 1 machine configuration")
    subparsers.add_parser("list", help="list the available benchmarks")
    subparsers.add_parser("figure5", help="Figure 5: non-if-converted accuracy")
    subparsers.add_parser("figure6", help="Figure 6a/6b: if-converted accuracy")
    idealized = subparsers.add_parser("idealized", help="idealized-predictor study")
    idealized.add_argument(
        "--flavour",
        choices=[BASELINE, IF_CONVERTED],
        default=BASELINE,
        help="binary flavour to evaluate",
    )
    subparsers.add_parser("ablations", help="PVT and history ablations")
    subparsers.add_parser("ipc", help="selective predicated-execution IPC comparison")

    everything = subparsers.add_parser(
        "all", help="run every experiment in one shared engine pass"
    )
    everything.add_argument(
        "--output-dir",
        type=str,
        default="results",
        help="directory the rendered reports are written to (default: results)",
    )

    cache = subparsers.add_parser("cache", help="inspect or clear the artifact cache")
    cache.add_argument(
        "action",
        choices=["stats", "clear", "path", "quarantine"],
        help="stats: per-kind counts/sizes (quarantine included); clear: "
        "delete artifacts; path: print the cache directory; "
        "'quarantine clear': delete quarantined artifacts",
    )
    cache.add_argument(
        "subaction",
        nargs="?",
        choices=["clear"],
        default=None,
        help="with 'quarantine': clear deletes the quarantined artifacts",
    )
    cache.add_argument(
        "--kind",
        choices=sorted(KINDS),
        default=None,
        help="restrict 'clear' to one artifact kind",
    )

    sweep = subparsers.add_parser(
        "sweep", help="design-space exploration over machine configurations"
    )
    sweep.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="built-in scenario name or a .toml/.json scenario file path",
    )
    sweep.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list built-in scenarios and sweepable machine parameters",
    )
    # Also accepted *after* the subcommand (the natural place to type it).
    # SUPPRESS keeps an absent post-command flag from clobbering the global
    # --jobs value argparse already parsed into the namespace.
    sweep.add_argument(
        "--jobs",
        type=int,
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    sweep.add_argument(
        "--output-dir",
        type=str,
        default="results",
        help="directory the rendered report is written to (default: results)",
    )
    sweep.add_argument(
        "--no-write",
        action="store_true",
        help="print the report without writing results/sweep_<name>.txt",
    )

    serve = subparsers.add_parser(
        "serve", help="run the experiment service (HTTP+JSON job daemon)"
    )
    serve.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="address to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="port to bind; 0 picks a free port (default: 8321)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent jobs, each run in its own worker process (default: 2)",
    )
    serve.add_argument(
        "--max-store-bytes",
        type=str,
        default=None,
        metavar="SIZE",
        help="evict least-recently-hit artifacts to keep the store under "
        "SIZE (bytes, or with a K/M/G suffix); default: unbounded",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail any job still running after SECONDS and release its "
        "coalescing claims (default: no deadline)",
    )
    serve.add_argument(
        "--journal",
        type=str,
        default=None,
        metavar="PATH",
        help="JSONL job journal for restart recovery (default: "
        "<cache-dir>/serve-journal.jsonl; 'none' disables)",
    )

    submit = subparsers.add_parser(
        "submit", help="submit a job to a running 'repro serve' daemon"
    )
    submit.add_argument(
        "target",
        help="built-in scenario name, a .toml/.json scenario file, or a "
        ".json job document with 'cells'",
    )
    submit.add_argument(
        "--url",
        type=str,
        default="http://127.0.0.1:8321",
        help="base URL of the daemon (default: http://127.0.0.1:8321)",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without waiting for the result",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="seconds to wait for completion (default: 600)",
    )
    submit.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="print raw per-cell counters as JSON instead of the table",
    )
    submit.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry idempotent GETs this many times on connection errors "
        "(default: 0)",
    )
    submit.add_argument(
        "--retry-backoff",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="base backoff between GET retries, doubled per attempt "
        "(default: 0.2)",
    )

    workloads = subparsers.add_parser(
        "workloads", help="inspect the workload registry and validate spec files"
    )
    workloads.add_argument(
        "action",
        choices=["list", "describe", "validate"],
        help="list: every registry workload with provenance and traits; "
        "describe: one workload in full; validate: parse spec/trace files "
        "and report the first problem",
    )
    workloads.add_argument(
        "targets",
        nargs="*",
        metavar="WORKLOAD",
        help="registry names or spec/trace file paths ('describe' takes "
        "exactly one; 'validate' takes one or more)",
    )

    simulate = subparsers.add_parser("simulate", help="simulate one benchmark")
    simulate.add_argument(
        "benchmark", help="registry name or workload file path (see 'workloads list')"
    )
    simulate.add_argument(
        "--scheme",
        choices=sorted(_SCHEME_SPECS),
        default="predicate",
        help="branch-handling scheme (default: predicate)",
    )
    simulate.add_argument(
        "--flavour",
        choices=[BASELINE, IF_CONVERTED],
        default=IF_CONVERTED,
        help="binary flavour (default: if-converted)",
    )
    return parser


def _store(args: argparse.Namespace) -> Optional[ArtifactStore]:
    if args.no_cache:
        return None
    return ArtifactStore(default_cache_dir(args.cache_dir))


def _resolve_benchmark(name: str) -> None:
    """Validate one benchmark string against the workload registry.

    Exits with the registry's message — which lists the available names and
    suggests close matches for near-misses — instead of an argparse-less
    traceback from deep inside a worker's compile step.
    """
    try:
        resolve_workload(name)
    except (UnknownWorkloadError, WorkloadSpecError, TraceIngestError) as error:
        raise SystemExit(str(error)) from None


def _parse_benchmarks(args: argparse.Namespace) -> Optional[List[str]]:
    """The validated ``--benchmarks`` selection, or ``None`` when not given.

    Entries may be registry names (built-in or library) or workload
    spec/trace file paths.
    """
    if not args.benchmarks:
        return None
    benchmarks = [name.strip() for name in args.benchmarks.split(",") if name.strip()]
    if not benchmarks:
        return None
    for name in benchmarks:
        _resolve_benchmark(name)
    return benchmarks


def _checkpoint_every(args: argparse.Namespace) -> Optional[int]:
    """The validated ``--checkpoint-every`` value, or ``None`` when off."""
    value = getattr(args, "checkpoint_every", None)
    if value is None:
        return None
    if value < 1:
        raise SystemExit(f"--checkpoint-every must be a positive integer, got {value}")
    if args.no_cache:
        raise SystemExit(
            "--checkpoint-every needs the artifact cache (checkpoints are "
            "stored there); drop --no-cache"
        )
    return value


def _engine(args: argparse.Namespace) -> ExecutionEngine:
    benchmarks = _parse_benchmarks(args)
    instructions = args.instructions if args.instructions is not None else 20_000
    profile = ExperimentProfile(
        name="cli",
        instructions_per_benchmark=instructions,
        benchmarks=benchmarks,
        profile_budget=min(instructions, 20_000),
    )
    return ExecutionEngine(
        profile,
        store=_store(args),
        jobs=args.jobs,
        checkpoint_every=_checkpoint_every(args),
    )


def _command_table1(_args: argparse.Namespace) -> str:
    return "\n".join(f"{key:28s} {value}" for key, value in paper_table1().items())


def _command_list(_args: argparse.Namespace) -> str:
    return "\n".join(registry_names())


def _command_figure5(args: argparse.Namespace) -> str:
    return run_figure5(engine=_engine(args)).render()


def _command_figure6(args: argparse.Namespace) -> str:
    return run_figure6(engine=_engine(args)).render()


def _command_idealized(args: argparse.Namespace) -> str:
    return run_idealized_study(args.flavour, engine=_engine(args)).render()


def _command_ablations(args: argparse.Namespace) -> str:
    engine = _engine(args)
    return "\n\n".join(
        [run_pvt_ablation(engine=engine).render(), run_history_ablation(engine=engine).render()]
    )


def _command_ipc(args: argparse.Namespace) -> str:
    return run_selective_ipc(engine=_engine(args)).render()


def _command_all(args: argparse.Namespace) -> str:
    engine = _engine(args)
    suite = run_all(engine=engine)
    written = write_reports(suite, args.output_dir)
    lines = [suite.render(), "", f"wrote {len(written)} reports:"]
    lines.extend(f"  {path}" for path in written)
    return "\n".join(lines)


def _command_sweep(args: argparse.Namespace) -> str:
    import dataclasses

    from repro.sweep import (
        ScenarioError,
        builtin_scenario_names,
        load_scenario,
        render_sweep,
        run_sweep,
    )
    from repro.sweep.scenario import overridable_parameters

    if args.list_scenarios or args.scenario is None:
        lines = ["built-in scenarios:"]
        lines.extend(f"  {name}" for name in builtin_scenario_names())
        lines.append("")
        lines.append("sweepable machine parameters (Table 1 defaults):")
        lines.extend(
            f"  {name:32s} {default}"
            for name, default in sorted(overridable_parameters().items())
        )
        lines.append("")
        lines.append("run one with: repro sweep <scenario> [--jobs N] [--output-dir DIR]")
        return "\n".join(lines)

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as error:
        raise SystemExit(str(error)) from None

    # Global --benchmarks / --instructions override the scenario's choices.
    requested = _parse_benchmarks(args)
    if requested:
        scenario = dataclasses.replace(scenario, benchmarks=tuple(requested))
    if args.instructions is not None:
        # Mirror the scenario parser's own budget validation: a zero or
        # negative override would "succeed" with an all-zero report.
        if args.instructions < 1:
            raise SystemExit(
                f"--instructions must be a positive integer, got {args.instructions}"
            )
        scenario = dataclasses.replace(scenario, instructions=args.instructions)

    from repro.sweep.runner import sweep_profile

    engine = ExecutionEngine(
        sweep_profile(scenario),
        store=_store(args),
        jobs=args.jobs,
        checkpoint_every=_checkpoint_every(args),
    )
    run = run_sweep(scenario, engine=engine)
    report = render_sweep(run)
    # The engine line goes to stdout only, as with ``repro all``: the
    # written report stays free of host time and cache state.
    output = f"{report}\n\nengine: {run.stats.render()}"
    if args.no_write:
        return output
    os.makedirs(args.output_dir, exist_ok=True)
    filename = f"sweep_{scenario.name.replace('-', '_')}.txt"
    path = os.path.join(args.output_dir, filename)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report + "\n")
    return f"{output}\n\nwrote {path}"


def _describe_workload(definition) -> str:
    """The full ``workloads describe`` rendering of one definition."""
    traits = definition.traits
    lines = [
        f"workload             {definition.display_name}",
        f"origin               {definition.origin} ({definition.source})",
        f"fingerprint          {definition.fingerprint}",
        f"category             {traits.category}",
        f"seed                 {traits.seed}",
        f"array length         {traits.array_length}",
        f"outer iterations     {traits.outer_iterations}",
        f"filler (alu/fp)      {traits.filler_alu}/{traits.filler_fp}",
        f"inner-loop trips     {traits.inner_loop_trips}",
        f"pointer chase        {traits.pointer_chase}",
    ]
    for index, region in enumerate(traits.hard_regions):
        nested = ", nested" if region.nested else ""
        lines.append(
            f"hard region {index}        bias={region.bias:.2f} "
            f"body={region.body_size} kind={region.kind.value}{nested}"
        )
    for index, branch in enumerate(traits.correlated_branches):
        early = "early" if branch.early_compare else "adjacent"
        lines.append(
            f"correlated branch {index}  {branch.op}{list(branch.sources)} "
            f"lag={branch.lag} noise={branch.noise:.2f} compare={early}"
        )
    for index, branch in enumerate(traits.easy_branches):
        early = "early" if branch.early_compare else "adjacent"
        lines.append(
            f"easy branch {index}        bias={branch.bias:.2f} "
            f"body={branch.body_size} compare={early}"
        )
    return "\n".join(lines)


def _command_workloads(args: argparse.Namespace) -> str:
    if args.action == "list":
        if args.targets:
            raise SystemExit("'workloads list' takes no arguments")
        lines = [
            f"{'name':16s} {'origin':9s} {'cat':4s} {'hard':>4s} {'corr':>4s} "
            f"{'easy':>4s} fingerprint"
        ]
        for name in registry_names():
            definition = resolve_workload(name)
            traits = definition.traits
            lines.append(
                f"{name:16s} {definition.origin:9s} {traits.category:4s} "
                f"{len(traits.hard_regions):4d} {len(traits.correlated_branches):4d} "
                f"{len(traits.easy_branches):4d} {definition.fingerprint[:12]}"
            )
        lines.append("")
        lines.append(
            "user workloads: pass a .toml/.json trait-spec or .trace "
            "outcome-stream path anywhere a benchmark name is accepted "
            "(docs/workloads.md documents both formats)"
        )
        return "\n".join(lines)
    if args.action == "describe":
        if len(args.targets) != 1:
            raise SystemExit("'workloads describe' takes exactly one workload")
        try:
            definition = resolve_workload(args.targets[0])
        except (UnknownWorkloadError, WorkloadSpecError, TraceIngestError) as error:
            raise SystemExit(str(error)) from None
        return _describe_workload(definition)
    # validate: report every file's verdict, exit non-zero on the first bad one.
    if not args.targets:
        raise SystemExit("'workloads validate' needs at least one spec/trace path")
    lines = []
    failures = 0
    for target in args.targets:
        try:
            definition = resolve_workload(target)
        except (UnknownWorkloadError, WorkloadSpecError, TraceIngestError) as error:
            failures += 1
            lines.append(f"FAIL {target}: {error}")
        else:
            lines.append(
                f"ok   {target}: {definition.traits.describe()} "
                f"(fingerprint {definition.fingerprint[:12]})"
            )
    if failures:
        raise SystemExit("\n".join(lines))
    return "\n".join(lines)


def _command_cache(args: argparse.Namespace) -> str:
    store = ArtifactStore(default_cache_dir(args.cache_dir))
    if args.subaction and args.action != "quarantine":
        raise SystemExit(f"'cache {args.action}' takes no subaction")
    if args.action == "path":
        store.ensure_root()
        return store.root
    if args.action == "clear":
        stale = store.stale_usage() if args.kind is None else None
        removed = store.clear(args.kind)
        scope = args.kind or "all kinds"
        message = f"removed {removed} artifacts ({scope}) from {store.root}"
        if stale and stale["bytes"]:
            message += f", and {stale['bytes'] / 1024:.1f} KiB of earlier store formats"
        return message
    if args.action == "quarantine":
        if args.subaction == "clear":
            removed = store.clear_quarantine()
            return f"removed {removed} quarantined artifacts from {store.root}"
        entries = store.quarantine_entries()
        if not entries:
            return f"no quarantined artifacts in {store.root}"
        lines = [f"quarantined artifacts in {store.root}:"]
        for entry in entries:
            lines.append(
                f"  {entry.get('kind', '?'):10s} {str(entry.get('key', '?'))[:16]:16s} "
                f"{entry.get('quarantine_reason', 'unknown reason')}"
            )
        lines.append("run 'repro cache quarantine clear' to delete them")
        return "\n".join(lines)
    import time as time_mod

    report = store.usage()
    now = time_mod.time()

    def _age(timestamp) -> str:
        if timestamp is None:
            return "-"
        seconds = max(0.0, now - timestamp)
        if seconds < 120:
            return f"{seconds:.0f}s ago"
        if seconds < 7200:
            return f"{seconds / 60:.0f}m ago"
        return f"{seconds / 3600:.1f}h ago"

    lines = [
        f"artifact cache at {store.root}",
        f"  {'kind':10s} {'entries':>7s} {'size':>12s}  last hit (oldest / newest)",
    ]
    for kind in KINDS:
        entry = report[kind]
        lines.append(
            f"  {kind:10s} {entry['count']:5d} artifacts  {entry['bytes'] / 1024:8.1f} KiB"
            f"  {_age(entry['oldest_hit'])} / {_age(entry['newest_hit'])}"
        )
    total = report["total"]
    lines.append(
        f"  {'total':10s} {total['count']:5d} artifacts  {total['bytes'] / 1024:8.1f} KiB"
    )
    quarantine = report["quarantine"]
    if quarantine["count"]:
        lines.append(
            f"  {'quarantine':10s} {quarantine['count']:5d} artifacts  "
            f"{quarantine['bytes'] / 1024:8.1f} KiB"
            "  (damaged; 'repro cache quarantine' to inspect)"
        )
    stale = report["stale"]
    if stale["bytes"]:
        lines.append(
            f"  {'stale':10s} {stale['count']:5d} artifacts  "
            f"{stale['bytes'] / 1024:8.1f} KiB"
            "  (earlier store formats, never read; 'repro cache clear' removes them)"
        )
    return "\n".join(lines)


def _parse_size(raw: Optional[str]) -> Optional[int]:
    """Parse a ``--max-store-bytes`` value: plain bytes or K/M/G suffixed."""
    if raw is None:
        return None
    text = raw.strip().upper()
    multiplier = 1
    for suffix, scale in (("K", 1024), ("M", 1024**2), ("G", 1024**3)):
        if text.endswith(suffix):
            text, multiplier = text[: -len(suffix)], scale
            break
    try:
        value = int(text) * multiplier
    except ValueError:
        raise SystemExit(
            f"--max-store-bytes must be an integer with optional K/M/G suffix, got {raw!r}"
        ) from None
    if value < 1:
        raise SystemExit(f"--max-store-bytes must be positive, got {raw!r}")
    return value


def _command_serve(args: argparse.Namespace) -> str:
    from repro.serve import ExperimentService, make_server, serve_until_shutdown

    if args.no_cache:
        raise SystemExit(
            "'serve' needs the artifact store (coalescing and cross-job "
            "deduplication live there); drop --no-cache"
        )
    store = ArtifactStore(default_cache_dir(args.cache_dir))
    journal = None
    if args.journal != "none":
        from repro.serve.service import JobJournal

        journal = JobJournal(
            args.journal or os.path.join(store.root, "serve-journal.jsonl")
        )
    if args.job_timeout is not None and args.job_timeout <= 0:
        raise SystemExit(f"--job-timeout must be positive, got {args.job_timeout}")
    service = ExperimentService(
        store,
        jobs=args.jobs,
        workers=args.workers,
        max_store_bytes=_parse_size(args.max_store_bytes),
        default_instructions=args.instructions,
        job_timeout=args.job_timeout,
        journal=journal,
        checkpoint_every=_checkpoint_every(args),
    )
    # Start the workers up front: jobs re-queued from the journal must run
    # even if no new submission ever arrives.
    service.start()
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    # One parseable line before blocking: smoke scripts read the bound port.
    print(f"repro serve listening on http://{host}:{port} (v1)", flush=True)
    serve_until_shutdown(server)
    return "repro serve: shut down cleanly"


def _command_submit(args: argparse.Namespace) -> str:
    import json as json_mod

    from repro.client import ServeClient, ServeError

    document = None
    if args.target.endswith(".json") and os.path.exists(args.target):
        with open(args.target, "r", encoding="utf-8") as handle:
            try:
                loaded = json_mod.load(handle)
            except ValueError as error:
                raise SystemExit(f"{args.target}: invalid JSON: {error}") from None
        if isinstance(loaded, dict) and ("cells" in loaded or "scenario" in loaded):
            document = loaded
    if document is None:
        # Scenario by name or file path (resolved by the daemon).
        document = {"scenario": args.target}
    if args.instructions is not None:
        document["instructions"] = args.instructions

    if args.retries < 0:
        raise SystemExit(f"--retries must be >= 0, got {args.retries}")
    client = ServeClient(
        args.url, retries=args.retries, retry_backoff=args.retry_backoff
    )
    try:
        job = client.submit(document)
        if args.no_wait:
            return f"submitted job {job['id']} ({job['title']}) to {args.url}"
        snapshot = client.wait(job["id"], timeout=args.timeout)
        if snapshot["state"] != "done":
            raise SystemExit(
                f"job {job['id']} {snapshot['state']}: {snapshot.get('error')}"
            )
        result = client.result(job["id"], format="json" if args.json_output else "table")
    except ServeError as error:
        raise SystemExit(str(error)) from None
    stats = snapshot["stats"] or {}
    footer = (
        f"job {job['id']}: {snapshot['state']} — "
        f"{stats.get('simulations_run', 0)} simulated, "
        f"{stats.get('results_loaded', 0)} from cache, "
        f"{snapshot['coalesced_keys']} coalesced"
    )
    if args.json_output:
        return json_mod.dumps(result, indent=2, sort_keys=True) + "\n" + footer
    return f"{result}\n\n{footer}"


def _command_simulate(args: argparse.Namespace) -> str:
    engine = _engine(args)
    _resolve_benchmark(args.benchmark)
    result = engine.simulate(args.benchmark, args.flavour, _SCHEME_SPECS[args.scheme])
    metrics = result.metrics
    accuracy = result.accuracy
    lines = [
        f"benchmark            {args.benchmark} ({args.flavour})",
        f"scheme               {result.scheme_name}",
        f"instructions         {metrics.committed_instructions}",
        f"cycles               {metrics.cycles}",
        f"IPC                  {metrics.ipc:.3f}",
        f"conditional branches {accuracy.branches}",
        f"misprediction rate   {100 * accuracy.misprediction_rate:.2f}%",
        f"early-resolved       {100 * accuracy.early_resolved_fraction:.1f}%",
        f"cancelled at rename  {metrics.cancelled_at_rename}",
        f"predicate flushes    {metrics.predicate_flushes}",
    ]
    return "\n".join(lines)


_COMMANDS = {
    "table1": _command_table1,
    "list": _command_list,
    "figure5": _command_figure5,
    "figure6": _command_figure6,
    "idealized": _command_idealized,
    "ablations": _command_ablations,
    "ipc": _command_ipc,
    "all": _command_all,
    "sweep": _command_sweep,
    "workloads": _command_workloads,
    "cache": _command_cache,
    "serve": _command_serve,
    "submit": _command_submit,
    "simulate": _command_simulate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro``."""
    args = build_parser().parse_args(argv)
    from repro.log import configure_logging

    configure_logging(args.log_level)
    output = _COMMANDS[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
