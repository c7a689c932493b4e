"""The benchmark's four workloads, driven through ``repro.api`` only.

Each workload prepares its state (``prepare``, repeated to measure set-up),
then runs timed *passes* — the unit a user waits for — and finally
cross-checks its simulated outputs against an independent path outside the
timed phase.  :func:`run_workload` drives one workload and returns the
result object the command prints; see ``README.md`` for why each workload
exists and what every metric means.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import queue
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import api
from repro.engine.hashing import code_fingerprint
from repro.pipeline.core import OutOfOrderCore
from repro.serve.http import make_server
from repro.sweep.runner import sweep_profile

import hostspeed
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

S = api.SchemeSpec

#: The eight scheme configurations of the shootout, by metric-name stem.
CONFIGS: Dict[str, Any] = {
    "conventional": S.make("conventional"),
    "conventional-tage": S.make("conventional", second_level="tage"),
    "predicate": S.make("predicate"),
    "predicate-tage": S.make("predicate", second_level="tage"),
    "wish": S.make("wish"),
    "wish-tage": S.make("wish", second_level="tage"),
    "pep-pa": S.make("pep-pa"),
    "predicate-aware": S.make("predicate-aware"),
}

#: The 22 built-ins in six strata of similar cost (median of 3 cold
#: 8-config runs at 12k instructions, in reference seconds, 2-vCPU host);
#: the seed draws one benchmark per stratum, so every draw costs the same
#: within about 2%.
SHOOTOUT_STRATA: Tuple[Tuple[str, ...], ...] = (
    ("wupwise", "mgrid", "apsi", "lucas"),
    ("gcc", "vortex", "gzip", "facerec"),
    ("gap", "bzip2", "vpr", "perlbmk"),
    ("swim", "equake", "ammp", "applu"),
    ("twolf", "art", "mcf"),
    ("crafty", "mesa", "parser"),
)

#: Candidates for the long trace: benchmarks whose windowed-simulation cost
#: at this budget lies within 2% of each other (2-vCPU host), so the seed
#: varies the program without varying the work.
LONG_TRACE_POOL: Tuple[str, ...] = ("art", "gap", "gzip", "lucas", "swim", "applu")
LONG_TRACE_SCHEMES = ("conventional", "predicate", "wish")

SERVE_BENCHMARKS = ("gzip", "twolf", "swim", "art")
SERVE_SCHEMES = ("conventional", "predicate", "wish", "predicate-aware")
SERVE_ROB = (64, 128, 256)
#: Client poll period while a request runs; ``ServeClient.wait``'s 0.2 s
#: default would round every latency to that step.
SERVE_POLL_S = 0.005


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much work each workload does per pass."""

    shootout_strata: int = 6
    shootout_instructions: int = 8_000
    sweep_instructions: int = 1_000
    #: ``None`` keeps the scenario's 22 benchmarks.
    sweep_benchmarks: Optional[int] = None
    serve_instructions: int = 8_000
    serve_round: int = 60
    serve_distinct: int = 48
    serve_min_requests: int = 100
    long_instructions: int = 60_000
    #: Rows per trace segment and per checkpoint window.
    long_rows: int = 15_000
    setup_reps: int = 3


#: Budgets small enough for the benchmark's own tests.
TINY = Sizes(
    shootout_strata=2,
    shootout_instructions=1_500,
    sweep_instructions=600,
    sweep_benchmarks=2,
    serve_instructions=1_500,
    serve_round=8,
    serve_distinct=5,
    serve_min_requests=8,
    long_instructions=4_000,
    long_rows=1_500,
    setup_reps=1,
)


def import_layers() -> None:
    """Import everything the workloads call and hash the package source
    (the cache-key fingerprint) — the import part of set-up."""
    for name in ("run_cells", "run_sweep", "render_sweep", "ExecutionEngine",
                 "ArtifactStore", "ExperimentService", "ServeClient"):
        getattr(api, name)
    code_fingerprint()


# ----------------------------------------------------------------------
# Simulated outputs
# ----------------------------------------------------------------------
def counters(result) -> Dict[str, Any]:
    """Every simulated statistic of one result, as plain JSON values."""
    metrics = result.metrics
    out: Dict[str, Any] = {
        field.name: getattr(metrics, field.name)
        for field in dataclasses.fields(metrics)
        if isinstance(getattr(metrics, field.name), int)
    }
    out["counters"] = metrics.counters.as_dict()
    out["memory"] = dict(metrics.memory_stats)
    out["fu"] = dict(metrics.fu_utilisation)
    accuracy = result.accuracy
    out["branches"] = accuracy.branches
    out["mispredictions"] = accuracy.mispredictions
    out["early_resolved"] = accuracy.early_resolved_count
    out["overrides"] = accuracy.override_count
    return out


def digest(cells: Dict[str, Any]) -> str:
    """SHA-256 over the per-cell counters, sorted by cell id."""
    payload = json.dumps(sorted(cells.items()), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class PassRecord:
    """What one timed pass did."""

    seconds: float
    cells: int = 0
    instructions: int = 0
    #: Seconds per user-visible operation: each request (serve-mixed) or
    #: the pass itself (the other workloads).
    latencies: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: cell id → counters, for the digest and pass-to-pass comparison.
    cells_out: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Engine accounting (simulations, batches, batched_lanes) and, for
    #: serve-mixed, the job-record timings.
    engine: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Host seconds → reference seconds for this pass (see hostspeed.py).
    speed: float = 1.0


def _engine_counts(stats: Dict[str, Any]) -> Dict[str, float]:
    return {
        "simulations": stats.get("simulations_run", 0),
        "batches": stats.get("batches_run", 0),
        "batched_lanes": stats.get("batched_lanes", 0),
    }


class Workload:
    """One workload: set-up, timed passes, and an output cross-check."""

    name = ""
    #: True when ``run_pass`` already checks each pass's outputs itself.
    checks_own_passes = False

    def __init__(self, seed: int, sizes: Sizes, work_dir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self._stores = 0

    def fresh_store(self) -> "api.ArtifactStore":
        self._stores += 1
        path = os.path.join(self.work_dir, f"store-{self._stores}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return api.ArtifactStore(path)

    def describe(self) -> str:
        return ""

    def prepare(self) -> None:
        """Bring the workload to ready (repeatable; replaces prior state)."""

    def ready(self) -> None:
        """Untimed work between set-up and the first pass."""

    def run_pass(self, tracer) -> PassRecord:
        raise NotImplementedError

    def cross_check(self, first: PassRecord) -> Tuple[int, int]:
        """Compare outputs against an independent path; (attempted, failed)."""
        return 0, 0

    def sim_summary(self, first: PassRecord) -> Dict[str, Dict[str, float]]:
        """Per scheme-config simulated IPC and misprediction rate."""
        return {}

    def close(self) -> None:
        pass


def _compare(expected: Dict[str, Any], actual: Dict[str, Any], what: str) -> int:
    """Count cells whose counters differ (missing cells included)."""
    bad = 0
    for cell, value in expected.items():
        if actual.get(cell) != value:
            bad += 1
            print(f"MISMATCH {what}: {cell}", file=sys.stderr)
    return bad


# ----------------------------------------------------------------------
# shootout-cold
# ----------------------------------------------------------------------
class ShootoutCold(Workload):
    """Fresh store each pass: 6 seed-chosen built-ins x 8 scheme configs."""

    name = "shootout-cold"

    def __init__(self, seed, sizes, work_dir) -> None:
        super().__init__(seed, sizes, work_dir)
        self.benchmarks = [
            self.rng.choice(stratum) for stratum in SHOOTOUT_STRATA[: sizes.shootout_strata]
        ]
        self.requests = [
            api.CellRequest(benchmark=b, flavour=api.IF_CONVERTED, label=label, scheme=spec)
            for b in self.benchmarks
            for label, spec in CONFIGS.items()
        ]
        self.last = None

    def describe(self) -> str:
        return f"benchmarks {','.join(self.benchmarks)}"

    def run_pass(self, tracer) -> PassRecord:
        store = self.fresh_store()
        record = PassRecord(seconds=0.0, attempted=len(self.requests))
        started = time.perf_counter()
        try:
            with tracer.span("pass"):
                outcome = api.run_cells(
                    self.requests,
                    store=store,
                    jobs=1,
                    instructions=self.sizes.shootout_instructions,
                )
        except Exception:  # noqa: BLE001 - a failed pass is reported, not fatal
            traceback.print_exc()
            record.seconds = time.perf_counter() - started
            record.failed = len(self.requests)
            return record
        record.seconds = time.perf_counter() - started
        record.latencies = [record.seconds]
        for (benchmark, label), result in outcome.results.items():
            record.cells_out[f"{benchmark}/{label}"] = counters(result)
            record.instructions += result.metrics.committed_instructions
        record.cells = len(outcome.results)
        record.engine = _engine_counts(outcome.stats.as_dict())
        if self.last is not None:
            shutil.rmtree(self.last[0].store.root, ignore_errors=True)
        self.last = (outcome.engine, outcome.results)
        return record

    def cross_check(self, first: PassRecord) -> Tuple[int, int]:
        """One lane per config, re-simulated through the scalar core."""
        engine, results = self.last
        benchmark = self.benchmarks[-1]
        trace = engine.collect_trace(benchmark, api.IF_CONVERTED)
        config = api.MachineSpec().build_config()
        failed = 0
        for label, spec in CONFIGS.items():
            scalar = OutOfOrderCore(config=config).run(trace, spec.build(), program_name=benchmark)
            failed += _compare(
                {label: counters(results[(benchmark, label)])},
                {label: counters(scalar)},
                f"{benchmark} batched vs scalar",
            )
        return len(CONFIGS), failed

    def sim_summary(self, first: PassRecord) -> Dict[str, Dict[str, float]]:
        summary = {}
        for label in CONFIGS:
            cells = [first.cells_out[f"{b}/{label}"] for b in self.benchmarks]
            summary[label] = {
                "ipc": statistics.fmean(c["committed_instructions"] / c["cycles"] for c in cells),
                "mispredict_rate": sum(c["mispredictions"] for c in cells)
                / max(1, sum(c["branches"] for c in cells)),
            }
        return summary


# ----------------------------------------------------------------------
# sweep-warm
# ----------------------------------------------------------------------
class SweepWarm(Workload):
    """Re-run and re-render the scheme-shootout sweep on a filled store."""

    name = "sweep-warm"
    checks_own_passes = True

    def __init__(self, seed, sizes, work_dir) -> None:
        super().__init__(seed, sizes, work_dir)
        scenario = api.load_scenario("scheme-shootout")
        changes: Dict[str, Any] = {"instructions": sizes.sweep_instructions}
        if sizes.sweep_benchmarks is not None:
            changes["benchmarks"] = tuple(scenario.benchmarks[: sizes.sweep_benchmarks])
        self.scenario = dataclasses.replace(scenario, **changes)
        self.store = None
        self.reference: Optional[Tuple[Dict[str, Any], str]] = None

    def describe(self) -> str:
        return (
            f"scenario {self.scenario.name} at {self.scenario.instructions} "
            f"instructions, {len(self.scenario.benchmarks)} benchmarks"
        )

    def _engine(self):
        return api.ExecutionEngine(profile=sweep_profile(self.scenario), store=self.store)

    def prepare(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
        self.store = self.fresh_store()
        api.run_sweep(self.scenario, engine=self._engine(), jobs=1)

    def _sweep(self, tracer) -> Tuple[Any, str]:
        with tracer.span("pass"):
            run = api.run_sweep(self.scenario, engine=self._engine(), jobs=1)
            with tracer.span("sweep.render"):
                text = api.render_sweep(run)
        return run, text

    def ready(self) -> None:
        run, text = self._sweep(spans.NullTracer())
        self.reference = (self._cells(run), text)

    @staticmethod
    def _cells(run) -> Dict[str, Any]:
        return {
            f"{benchmark}/{scheme}@{point.describe()}": counters(result)
            for (scheme, point, benchmark), result in run.results.items()
        }

    def run_pass(self, tracer) -> PassRecord:
        started = time.perf_counter()
        try:
            run, text = self._sweep(tracer)
        except Exception:  # noqa: BLE001 - a failed pass is reported, not fatal
            traceback.print_exc()
            cells = len(self.reference[0]) + 1
            return PassRecord(time.perf_counter() - started, attempted=cells, failed=cells)
        seconds = time.perf_counter() - started
        record = PassRecord(seconds=seconds, latencies=[seconds])
        record.cells_out = self._cells(run)
        record.cells = len(run.results)
        record.instructions = sum(r.metrics.committed_instructions for r in run.results.values())
        record.attempted = record.cells + 1
        record.failed = _compare(self.reference[0], record.cells_out, "warm pass vs reference")
        if text != self.reference[1]:
            record.failed += 1
            print("MISMATCH rendered sweep text differs from the reference", file=sys.stderr)
        record.engine = _engine_counts(run.stats.as_dict())
        return record

    def close(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class ServeMixed(Workload):
    """Two closed-loop HTTP clients against an in-process service."""

    name = "serve-mixed"
    checks_own_passes = True

    def __init__(self, seed, sizes, work_dir) -> None:
        super().__init__(seed, sizes, work_dir)
        keys = [
            (b, s, rob) for b in SERVE_BENCHMARKS for s in SERVE_SCHEMES for rob in SERVE_ROB
        ]
        distinct = self.rng.sample(keys, sizes.serve_distinct)
        repeats = [
            self.rng.choice(distinct) for _ in range(sizes.serve_round - sizes.serve_distinct)
        ]
        self.stream = distinct + repeats
        self.rng.shuffle(self.stream)
        self.server = None
        self.thread = None
        self.service = None
        self.client = None
        #: cell id → the JSON counters its first answer carried.
        self.answers: Dict[str, Any] = {}

    def describe(self) -> str:
        return (
            f"{len(self.stream)} requests per round, {len(set(self.stream))} distinct cells, "
            "2 closed-loop clients"
        )

    def _document(self, key) -> Dict[str, Any]:
        benchmark, scheme, rob = key
        return {
            "cells": [{"benchmark": benchmark, "scheme": scheme, "machine": {"rob_entries": rob}}],
            "instructions": self.sizes.serve_instructions,
        }

    def _stop(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.service.shutdown(wait=True, timeout=30)
            shutil.rmtree(self.service.store.root, ignore_errors=True)
            self.server = None

    def prepare(self) -> None:
        self._stop()
        self.service = api.ExperimentService(self.fresh_store(), workers=2, jobs=1)
        self.server = make_server(self.service, host="127.0.0.1", port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = api.ServeClient(f"http://{host}:{port}", timeout=60)
        if self.client.health().get("status") not in ("ok", "degraded"):
            raise RuntimeError("service did not answer /v1/health")

    def _request(self, tracer, index: int, key, out: Dict[str, Any]) -> None:
        tracer.set_rid(f"req-{index}")
        started = time.perf_counter()
        try:
            with tracer.span("serve.submit"):
                job = self.client.submit(self._document(key))
            with tracer.span("serve.wait"):
                snapshot = self.client.wait(job["id"], timeout=120, poll_interval=SERVE_POLL_S)
            if snapshot["state"] != "done":
                raise RuntimeError(f"job {job['id']} ended {snapshot['state']}: {snapshot['error']}")
            with tracer.span("serve.result"):
                rows = self.client.result(job["id"], format="json")["cells"]
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            traceback.print_exc()
            out["failed"] = True
            return
        finally:
            tracer.set_rid(None)
        out["latency"] = time.perf_counter() - started
        out["snapshot"] = snapshot
        out["row"] = rows[0]

    def run_pass(self, tracer) -> PassRecord:
        # Each round starts from an empty store, so every round does the
        # same mix of fresh simulations, store hits and coalesced duplicates.
        for kind in os.listdir(self.service.store.root):
            shutil.rmtree(os.path.join(self.service.store.root, kind), ignore_errors=True)
        work: "queue.Queue[Tuple[int, Any]]" = queue.Queue()
        for index, key in enumerate(self.stream):
            work.put((index, key))
        outs: List[Dict[str, Any]] = [{} for _ in self.stream]

        def client_loop() -> None:
            while True:
                try:
                    index, key = work.get_nowait()
                except queue.Empty:
                    return
                self._request(tracer, index, key, outs[index])

        started = time.perf_counter()
        with tracer.span("pass"):
            clients = [threading.Thread(target=client_loop) for _ in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
        record = PassRecord(seconds=time.perf_counter() - started, attempted=len(self.stream))
        engine = {"simulations": 0, "batches": 0, "batched_lanes": 0, "queue_s": 0.0,
                  "run_s": 0.0, "coalesced_keys": 0, "results_loaded": 0}
        for key, out in zip(self.stream, outs):
            if out.get("failed"):
                record.failed += 1
                continue
            cell = "/".join(str(part) for part in key)
            row = out["row"]
            expected = self.answers.setdefault(cell, row)
            if row != expected:
                record.failed += 1
                print(f"MISMATCH duplicate request of {cell} answered differently", file=sys.stderr)
            record.cells_out[cell] = row
            record.cells += 1
            record.instructions += row["instructions"]
            record.latencies.append(out["latency"])
            snapshot = out["snapshot"]
            for name, value in _engine_counts(snapshot["stats"] or {}).items():
                engine[name] += value
            engine["results_loaded"] += (snapshot["stats"] or {}).get("results_loaded", 0)
            engine["coalesced_keys"] += snapshot["coalesced_keys"]
            engine["queue_s"] += snapshot["started"] - snapshot["created"]
            engine["run_s"] += snapshot["finished"] - snapshot["started"]
        record.engine = engine
        return record

    def close(self) -> None:
        self._stop()


# ----------------------------------------------------------------------
# long-trace
# ----------------------------------------------------------------------
class LongTrace(Workload):
    """One long trace, streamed in segments, simulated with checkpoints."""

    name = "long-trace"

    def __init__(self, seed, sizes, work_dir) -> None:
        super().__init__(seed, sizes, work_dir)
        self.benchmark = self.rng.choice(LONG_TRACE_POOL)
        self.requests = [
            api.CellRequest(
                benchmark=self.benchmark, flavour=api.IF_CONVERTED, label=kind, scheme=CONFIGS[kind]
            )
            for kind in LONG_TRACE_SCHEMES
        ]
        self.checkpoints = 0

    def describe(self) -> str:
        return (
            f"benchmark {self.benchmark} at {self.sizes.long_instructions} instructions, "
            f"{self.sizes.long_rows}-row segments and checkpoints"
        )

    def run_pass(self, tracer) -> PassRecord:
        store = self.fresh_store()
        record = PassRecord(seconds=0.0, attempted=len(self.requests))
        started = time.perf_counter()
        try:
            with tracer.span("pass"):
                outcome = api.run_cells(
                    self.requests,
                    store=store,
                    jobs=1,
                    instructions=self.sizes.long_instructions,
                    trace_segment_rows=self.sizes.long_rows,
                    checkpoint_every=self.sizes.long_rows,
                )
        except Exception:  # noqa: BLE001 - a failed pass is reported, not fatal
            traceback.print_exc()
            record.seconds = time.perf_counter() - started
            record.failed = len(self.requests)
            return record
        record.seconds = time.perf_counter() - started
        shutil.rmtree(store.root, ignore_errors=True)
        record.latencies = [record.seconds]
        for (benchmark, label), result in outcome.results.items():
            record.cells_out[f"{benchmark}/{label}"] = counters(result)
            record.instructions += result.metrics.committed_instructions
        record.cells = len(outcome.results)
        record.engine = _engine_counts(outcome.stats.as_dict())
        self.checkpoints = outcome.stats.checkpoints_written
        return record

    def cross_check(self, first: PassRecord) -> Tuple[int, int]:
        """The same cells without segments or checkpoints (lane-batched)."""
        outcome = api.run_cells(
            self.requests, store=None, jobs=1, instructions=self.sizes.long_instructions
        )
        plain = {f"{b}/{label}": counters(r) for (b, label), r in outcome.results.items()}
        return len(plain), _compare(plain, first.cells_out, "windowed vs plain")


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (ShootoutCold, SweepWarm, ServeMixed, LongTrace)
}


# ----------------------------------------------------------------------
# Driving one run
# ----------------------------------------------------------------------
END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_inst_per_s": "inst/s",
    "cells_per_s": "cells/s",
    "jobs_per_s": "jobs/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MiB",
}


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _timed_passes(
    workload: Workload,
    tracer,
    sampler: "hostspeed.Sampler",
    seconds: float,
    min_ops: int,
    first: Optional[PassRecord] = None,
) -> List[PassRecord]:
    """Run passes until ``seconds`` elapse (and ``min_ops`` operations).

    Each pass's counters are checked against ``first`` (the run's first
    pass) and then dropped."""
    records: List[PassRecord] = []
    started = time.perf_counter()
    while not records or (
        time.perf_counter() - started < seconds
        or sum(len(r.latencies) for r in records) < min_ops
    ):
        # Every pass starts from a collected heap, as a fresh process would;
        # otherwise a full collection lands in some passes and not others.
        gc.collect()
        began = time.perf_counter()
        record = workload.run_pass(tracer)
        record.speed = sampler.factor(began, time.perf_counter())
        if first is not None and record.failed == 0 and not workload.checks_own_passes:
            # Simulation is deterministic: every pass must repeat the first.
            record.failed += _compare(first.cells_out, record.cells_out, "pass vs first pass")
        if first is None:
            first = record
        else:
            record.cells_out = {}  # keep the harness's own heap flat
        records.append(record)
    return records


def fresh_import_seconds(statement: str, reps: int) -> float:
    """Median host seconds of ``python -c statement`` in a fresh interpreter
    that sees the checkout's package and this directory."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    times = []
    for _ in range(max(1, reps)):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", statement], env=env, check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    sizes: Sizes = Sizes(),
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Set up, time and cross-check one workload; return the result object."""
    workload = WORKLOADS[name](seed, sizes, work_dir)
    try:
        # Set-up = a fresh interpreter importing everything the workload
        # calls (host seconds: the sampler cannot see into the child) plus
        # the workload's own preparation, each the median of several tries.
        import_s = fresh_import_seconds(
            "import workloads; workloads.import_layers()", sizes.setup_reps
        )
        with hostspeed.Sampler() as sampler:
            raw_prep, scaled_prep = [], []
            for _ in range(max(1, sizes.setup_reps)):
                started = time.perf_counter()
                workload.prepare()
                ended = time.perf_counter()
                raw_prep.append(ended - started)
                scaled_prep.append((ended - started) * sampler.factor(started, ended))
            setup = (
                import_s + statistics.median(raw_prep),
                import_s + statistics.median(scaled_prep),
            )
            workload.ready()
            min_ops = sizes.serve_min_requests if name == "serve-mixed" else 1
            if not trace:
                records = _timed_passes(workload, spans.NullTracer(), sampler, seconds, min_ops)
                traced: List[PassRecord] = []
                tracer = None
            else:
                records = _timed_passes(workload, spans.NullTracer(), sampler, seconds / 2, 1)
                tracer = spans.Tracer()
                wrappers = spans.Wrappers(tracer).install()
                try:
                    traced = _timed_passes(workload, tracer, sampler, seconds / 2, 1, records[0])
                finally:
                    wrappers.remove()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        every = records + traced
        first = every[0]
        attempted = sum(r.attempted for r in every)
        failed = sum(r.failed for r in every)
        checked, mismatched = workload.cross_check(first)
        attempted += checked
        failed += mismatched
        summary = workload.sim_summary(first)
        report_lines = [
            f"workload {name} seed {seed}: {workload.describe()}",
            f"simulated-statistics digest sha256 {digest(first.cells_out)} over "
            f"{len(first.cells_out)} cells",
            "model unvalidated: the repository holds no hardware reference, so no "
            "error figure is given",
        ]
        for config, values in summary.items():
            report_lines.append(
                f"sim {config}: ipc {values['ipc']:.4f} "
                f"mispredict_rate {values['mispredict_rate']:.4f}"
            )
        if not trace:
            raw = end_to_end(records, setup[0], peak_rss_mb, scaled=False)
            for metric, value in raw.items():
                report_lines.append(f"host {metric} = {value['value']:.6g} {value['unit']}")
            report_lines.append(
                "reference seconds per host second: median "
                f"{statistics.median(r.speed for r in records):.4f} over {len(records)} passes"
            )
            metrics = end_to_end(records, setup[1], peak_rss_mb)
        else:
            metrics = per_layer(
                name, records, traced, tracer, summary, fresh_import_seconds("import repro.cli", 3)
            )
            if trace_path is not None:
                tracer.write_chrome_trace(trace_path)
                report_lines.append(f"chrome trace: {trace_path}")
        for metric, value in metrics.items():
            report_lines.append(f"metric {metric} = {value['value']:.6g} {value['unit']}")
        return {
            "lines": report_lines,
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
        }
    finally:
        workload.close()


def end_to_end(
    records: List[PassRecord], setup_s: float, peak_rss_mb: float, scaled: bool = True
) -> Dict[str, Any]:
    """The end-to-end metrics, in reference seconds unless ``scaled`` is off."""
    ok = [r for r in records if r.failed < r.attempted and r.seconds > 0]
    scale = {id(r): r.speed if scaled else 1.0 for r in ok}
    latencies = [latency * scale[id(r)] for r in ok for latency in r.latencies]
    values = {
        "setup_s": setup_s,
        "sim_inst_per_s": statistics.median(r.instructions / (r.seconds * scale[id(r)]) for r in ok),
        "cells_per_s": statistics.median(r.cells / (r.seconds * scale[id(r)]) for r in ok),
        "jobs_per_s": statistics.median(len(r.latencies) / (r.seconds * scale[id(r)]) for r in ok),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
STORE_KINDS = ("binaries", "traces", "results", "checkpoints")

PER_LAYER_UNITS: Dict[str, str] = {
    "cli.import_s": "s",
    "compiler.build_s": "s",
    "compiler.builds": "count",
    "emulator.trace_s": "s",
    "emulator.inst_per_s": "inst/s",
    "planner.plan_s": "s",
    **{
        f"store.{kind}.{what}": unit
        for kind in STORE_KINDS
        for what, unit in (
            ("get_s", "s"),
            ("get_calls", "count"),
            ("hit_ratio", "ratio"),
            ("put_s", "s"),
            ("put_bytes", "bytes"),
        )
    },
    "executor.simulations": "count",
    "executor.batches": "count",
    "executor.batched_lanes": "count",
    "executor.run_self_s": "s",
    "pipeline.lanes_s": "s",
    "pipeline.core_s": "s",
    "pipeline.windowed_s": "s",
    "pipeline.host_inst_per_s": "inst/s",
    **{f"sim.{config}.{what}": "ratio" for config in CONFIGS for what in ("ipc", "mispredict_rate")},
    "sweep.expand_s": "s",
    "sweep.render_s": "s",
    "serve.submit_s": "s",
    "serve.queue_s": "s",
    "serve.run_s": "s",
    "serve.result_s": "s",
    "serve.coalesced_keys": "count",
    "serve.hit_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Span name → the per-layer metric its self time feeds.
_SELF_TIME = {
    "compiler.build": "compiler.build_s",
    "emulator.run_pack": "emulator.trace_s",
    "planner.plan": "planner.plan_s",
    "executor.run": "executor.run_self_s",
    "pipeline.lanes": "pipeline.lanes_s",
    "pipeline.core": "pipeline.core_s",
    "pipeline.windowed": "pipeline.windowed_s",
    "sweep.expand": "sweep.expand_s",
    "sweep.render": "sweep.render_s",
    "serve.submit": "serve.submit_s",
    "serve.result": "serve.result_s",
}


def per_layer(
    name: str,
    untraced: List[PassRecord],
    traced: List[PassRecord],
    tracer: "spans.Tracer",
    summary: Dict[str, Dict[str, float]],
    import_s: float,
) -> Dict[str, Any]:
    """Layer metrics from the traced passes: times and counts per pass,
    serve timings per request, ratios over all traced passes."""
    totals: Dict[str, float] = {metric: 0.0 for metric in PER_LAYER_UNITS}
    self_times = tracer.self_times()
    rows = insts = 0
    hits = {kind: 0 for kind in STORE_KINDS}
    for span in tracer.spans:
        own = self_times[span.id]
        if span.name in _SELF_TIME:
            totals[_SELF_TIME[span.name]] += own
        if span.name == "compiler.build":
            totals["compiler.builds"] += 1
        elif span.name == "emulator.run_pack":
            rows += span.attrs.get("rows", 0)
        elif span.name.startswith("pipeline."):
            insts += span.attrs.get("insts", 0)
        elif span.name == "store.get":
            kind = span.attrs["kind"]
            totals[f"store.{kind}.get_s"] += own
            totals[f"store.{kind}.get_calls"] += 1
            hits[kind] += span.attrs["hit"]
        elif span.name == "store.put":
            kind = span.attrs["kind"]
            totals[f"store.{kind}.put_s"] += own
            totals[f"store.{kind}.put_bytes"] += span.attrs["bytes"]
    engine: Dict[str, float] = {}
    for record in traced:
        for key, value in record.engine.items():
            engine[key] = engine.get(key, 0) + value
    for key in ("simulations", "batches", "batched_lanes"):
        totals[f"executor.{key}"] = engine.get(key, 0)
    totals["serve.coalesced_keys"] = engine.get("coalesced_keys", 0)

    values = {metric: total / len(traced) for metric, total in totals.items()}
    values["cli.import_s"] = import_s
    for kind in STORE_KINDS:
        calls = totals[f"store.{kind}.get_calls"]
        values[f"store.{kind}.hit_ratio"] = hits[kind] / calls if calls else 0.0
    values["emulator.inst_per_s"] = rows / totals["emulator.trace_s"] if rows else 0.0
    pipeline_s = sum(totals[f"pipeline.{part}_s"] for part in ("lanes", "core", "windowed"))
    values["pipeline.host_inst_per_s"] = insts / pipeline_s if insts else 0.0
    if name == "serve-mixed":
        requests = max(1, sum(r.cells for r in traced))
        for metric, total in (
            ("serve.submit_s", totals["serve.submit_s"]),
            ("serve.result_s", totals["serve.result_s"]),
            ("serve.queue_s", engine["queue_s"]),
            ("serve.run_s", engine["run_s"]),
        ):
            values[metric] = total / requests
        served = engine["results_loaded"] + engine["simulations"] + engine["coalesced_keys"]
        values["serve.hit_ratio"] = engine["results_loaded"] / served if served else 0.0
    for config, sim in summary.items():
        values[f"sim.{config}.ipc"] = sim["ipc"]
        values[f"sim.{config}.mispredict_rate"] = sim["mispredict_rate"]
    pass_spans = [span for span in tracer.spans if span.name == "pass"]
    wall = sum(span.duration for span in pass_spans)
    covered = sum(tracer.covered(span.start, span.end, skip=("pass",)) for span in pass_spans)
    values["trace.unattributed_frac"] = 1.0 - covered / wall if wall else 0.0
    values["trace.overhead_frac"] = (
        statistics.median(r.seconds * r.speed for r in traced)
        / statistics.median(r.seconds * r.speed for r in untraced)
        - 1.0
    )
    return {
        metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER_UNITS.items()
    }
