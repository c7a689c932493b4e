"""Experiment configuration: Table 1, scheme factories and run profiles."""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.core.conventional import ConventionalScheme
from repro.core.peppa_scheme import PEPPAScheme
from repro.core.predicate_aware_scheme import PredicateAwareScheme
from repro.core.predicate_scheme import PredicatePredictionScheme, PredicateSchemeOptions
from repro.core.wish_scheme import WishBranchScheme
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.pipeline.config import PipelineConfig
from repro.predictors.peppa import PEPPAConfig
from repro.predictors.perceptron import PerceptronConfig
from repro.predictors.predicate_aware import PredicateAwareConfig
from repro.predictors.predicate_perceptron import PredicatePredictorConfig


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def paper_table1() -> Dict[str, str]:
    """Return Table 1 of the paper as reproduced by this code base.

    The values are pulled from the live default configurations so the table
    printed by the benchmark harness can never drift from what the simulator
    actually models.
    """
    pipeline = PipelineConfig()
    memory = MemoryHierarchyConfig()
    perceptron = PerceptronConfig()
    predicate = PredicatePredictorConfig()
    peppa = PEPPAConfig()
    return {
        "Fetch Width": (
            f"Up to {pipeline.bundles_per_fetch} bundles "
            f"({pipeline.fetch_width} instructions)"
        ),
        "Issue Queues": (
            f"Integer: {pipeline.int_queue_entries} entries, "
            f"FP: {pipeline.fp_queue_entries} entries, "
            f"Branch: {pipeline.branch_queue_entries} entries, "
            f"Load-Store: 2 x {pipeline.load_queue_entries} entries"
        ),
        "Reorder Buffer": f"{pipeline.rob_entries} entries",
        "L1D": (
            f"{memory.l1d.size_bytes // 1024}KB, {memory.l1d.associativity}-way, "
            f"{memory.l1d.block_bytes}B block, {memory.l1d.hit_latency}-cycle latency, "
            f"non-blocking ({memory.l1d.primary_misses} primary misses), "
            f"{memory.l1d_write_buffer_entries} write-buffer entries"
        ),
        "L1I": (
            f"{memory.l1i.size_bytes // 1024}KB, {memory.l1i.associativity}-way, "
            f"{memory.l1i.block_bytes}B block, {memory.l1i.hit_latency}-cycle latency"
        ),
        "L2 unified": (
            f"{memory.l2.size_bytes // 1024 // 1024}MB, {memory.l2.associativity}-way, "
            f"{memory.l2.block_bytes}B block, {memory.l2.hit_latency}-cycle latency, "
            f"{memory.l2_write_buffer_entries} write-buffer entries"
        ),
        "DTLB": f"{memory.dtlb.entries} entries, {memory.dtlb.miss_penalty}-cycle miss penalty",
        "ITLB": f"{memory.itlb.entries} entries, {memory.itlb.miss_penalty}-cycle miss penalty",
        "Main Memory": f"{memory.memory_latency} cycles of latency",
        "Multilevel Branch Predictor": (
            "First level: gshare, 14-bit GHR, 4KB, 1-cycle access. "
            f"Second level: perceptron, {perceptron.global_bits}-bit GHR, "
            f"{perceptron.local_bits}-bit LHR, ~148KB, "
            f"{PipelineConfig().second_level_latency}-cycle access. "
            f"{PipelineConfig().branch_mispredict_penalty} cycles for misprediction recovery"
        ),
        "Predicate Predictor": (
            f"Perceptron, {predicate.global_bits}-bit GHR, {predicate.local_bits}-bit LHR, "
            f"~148KB, {PipelineConfig().second_level_latency}-cycle access. "
            f"{PipelineConfig().predicate_mispredict_penalty} cycles for misprediction recovery"
        ),
        "PEP-PA Predictor": (
            f"{peppa.local_bits}-bit local histories, "
            f"{peppa.storage_bits() // 8 // 1024}KB"
        ),
    }


# ----------------------------------------------------------------------
# Run profiles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentProfile:
    """How much work an experiment run performs.

    The paper simulates 100 M committed instructions per benchmark on a C++
    simulator; the pure-Python reproduction defaults to much smaller budgets
    that still give stable misprediction rates for the synthetic workloads.
    """

    name: str
    instructions_per_benchmark: int
    benchmarks: Optional[List[str]] = None  # None = the full 22-program suite
    profile_budget: int = 20_000

    def with_benchmarks(self, benchmarks: List[str]) -> "ExperimentProfile":
        return ExperimentProfile(
            name=self.name,
            instructions_per_benchmark=self.instructions_per_benchmark,
            benchmarks=list(benchmarks),
            profile_budget=self.profile_budget,
        )


#: Profile used by the benchmark harness (full suite).
PAPER_PROFILE = ExperimentProfile(name="paper", instructions_per_benchmark=40_000)

#: Profile used by the test-suite (small budgets, a few benchmarks).
FAST_PROFILE = ExperimentProfile(
    name="fast",
    instructions_per_benchmark=6_000,
    benchmarks=["gzip", "twolf", "swim"],
    profile_budget=6_000,
)


def profile_from_environment(default: ExperimentProfile = PAPER_PROFILE) -> ExperimentProfile:
    """Resolve the active profile, honouring ``REPRO_BENCH_INSTRUCTIONS`` and
    ``REPRO_BENCH_BENCHMARKS`` environment overrides."""
    instructions = int(
        os.environ.get("REPRO_BENCH_INSTRUCTIONS", default.instructions_per_benchmark)
    )
    benchmarks_env = os.environ.get("REPRO_BENCH_BENCHMARKS", "")
    benchmarks = (
        [b.strip() for b in benchmarks_env.split(",") if b.strip()]
        if benchmarks_env
        else default.benchmarks
    )
    return ExperimentProfile(
        name=default.name,
        instructions_per_benchmark=instructions,
        benchmarks=benchmarks,
        profile_budget=default.profile_budget,
    )


# ----------------------------------------------------------------------
# Scheme factories (one place controls the sizes used everywhere)
# ----------------------------------------------------------------------
def _geometry_overrides(
    entries: Optional[int], global_bits: Optional[int], local_bits: Optional[int]
) -> Dict[str, int]:
    """Non-``None`` perceptron-geometry overrides as replace() kwargs.

    Shared by the conventional and predicate factories so the sweep
    subsystem's predictor-budget axis (:mod:`repro.sweep`) can scale either
    predictor's table below the paper's 148 KB budget.
    """
    requested = {
        "entries": entries,
        "global_bits": global_bits,
        "local_bits": local_bits,
    }
    return {name: value for name, value in requested.items() if value is not None}


#: Valid values of every *string-valued* scheme-factory option; the sweep
#: scenario parser validates string axis positions against these eagerly.
SCHEME_OPTION_CHOICES: Dict[str, tuple] = {
    "second_level": ("perceptron", "tage"),
}


def scheme_option_defaults(kind: str) -> Dict[str, Any]:
    """The *effective* default of every option a scheme factory accepts.

    Boolean flags and string choices carry their default right in the
    factory signature; geometry options take ``None`` as "keep the Table 1
    value", so the value a ``None`` resolves to is read from the predictor
    configs.  Callers that need option values to be canonical — the sweep
    subsystem normalizes away options equal to these before building a
    :class:`~repro.engine.jobs.SchemeSpec`, so a Table 1 point contributes
    the same cache token as the plain scheme — read them from here.
    """
    defaults: Dict[str, Any] = {
        name: parameter.default
        for name, parameter in inspect.signature(scheme_factory(kind)).parameters.items()
        if parameter.default is not inspect.Parameter.empty
        and parameter.default is not None
    }
    if kind == "conventional":
        config: Any = PerceptronConfig()
    elif kind == "predicate":
        config = PredicatePredictorConfig()
    elif kind == "predicate-aware":
        config = PredicateAwareConfig()
        defaults.update(
            entries=config.entries,
            global_bits=config.global_bits,
            local_bits=config.local_bits,
            predicate_bits=config.predicate_bits,
        )
        return defaults
    else:
        return defaults
    defaults.update(
        entries=config.entries,
        global_bits=config.global_bits,
        local_bits=config.local_bits,
    )
    return defaults


def make_conventional_scheme(
    ideal_no_alias: bool = False,
    perfect_history: bool = False,
    entries: Optional[int] = None,
    global_bits: Optional[int] = None,
    local_bits: Optional[int] = None,
    second_level: str = "perceptron",
) -> ConventionalScheme:
    """The 148 KB (+4 KB gshare) conventional two-level override predictor.

    ``entries`` / ``global_bits`` / ``local_bits`` override the second-level
    perceptron geometry (``None`` keeps the Table 1 value; they are ignored
    by the TAGE backend).  ``second_level`` selects the slow predictor:
    ``"perceptron"`` (Table 1) or ``"tage"``.
    """
    config = replace(
        PerceptronConfig(), **_geometry_overrides(entries, global_bits, local_bits)
    )
    return ConventionalScheme(
        perceptron_config=config,
        ideal_no_alias=ideal_no_alias,
        perfect_history=perfect_history,
        second_level=second_level,
    )


def make_peppa_scheme() -> PEPPAScheme:
    """The 144 KB PEP-PA predictor."""
    return PEPPAScheme(PEPPAConfig())


def make_predicate_scheme(
    selective_predication: bool = True,
    ideal_no_alias: bool = False,
    perfect_history: bool = False,
    split_pvt: bool = False,
    entries: Optional[int] = None,
    global_bits: Optional[int] = None,
    local_bits: Optional[int] = None,
    second_level: str = "perceptron",
) -> PredicatePredictionScheme:
    """The 148 KB predicate perceptron scheme (the paper's proposal).

    ``entries`` / ``global_bits`` / ``local_bits`` override the predicate
    perceptron geometry (``None`` keeps the Table 1 value; they are ignored
    by the TAGE backend).  ``second_level`` selects the predicate-predictor
    structure: the paper's dual-hash perceptron (``"perceptron"``) or the
    TAGE-class backend behind the same slot interface (``"tage"``).
    """
    config = replace(
        PredicatePredictorConfig(split_pvt=split_pvt),
        **_geometry_overrides(entries, global_bits, local_bits),
    )
    options = PredicateSchemeOptions(
        predictor_config=config,
        selective_predication=selective_predication,
        ideal_no_alias=ideal_no_alias,
        perfect_history=perfect_history,
        second_level=second_level,
    )
    return PredicatePredictionScheme(options)


def make_wish_scheme(
    second_level: str = "perceptron",
    confidence_bits: int = 4,
) -> WishBranchScheme:
    """The wish-branch scheme: confidence-gated predication-to-branching.

    ``second_level`` selects the slow *branch* predictor (``"perceptron"``
    or ``"tage"``); the guard predictor is always the 148 KB dual-hash
    predicate perceptron gated by a ``confidence_bits``-wide saturating
    counter per entry.
    """
    return WishBranchScheme(
        second_level=second_level, confidence_bits=confidence_bits
    )


def make_predicate_aware_scheme(
    entries: Optional[int] = None,
    global_bits: Optional[int] = None,
    local_bits: Optional[int] = None,
    predicate_bits: Optional[int] = None,
) -> PredicateAwareScheme:
    """The predicate-aware branch predictor (mixed branch/predicate history).

    The geometry options override the predicate-aware perceptron
    (``None`` keeps the default ~148 KB-comparable configuration).
    """
    overrides = _geometry_overrides(entries, global_bits, local_bits)
    if predicate_bits is not None:
        overrides["predicate_bits"] = predicate_bits
    config = replace(PredicateAwareConfig(), **overrides)
    return PredicateAwareScheme(config)


#: Scheme kind -> factory.  This is *the* scheme registry: SchemeSpec.build,
#: the sweep scenario parser and the serve submission validator all resolve
#: kinds through it, so registering a factory here is all it takes for a new
#: scheme to compose with sweeps and serve submissions.
SCHEME_FACTORIES = {
    "conventional": make_conventional_scheme,
    "pep-pa": make_peppa_scheme,
    "predicate": make_predicate_scheme,
    "predicate-aware": make_predicate_aware_scheme,
    "wish": make_wish_scheme,
}


def scheme_kinds() -> tuple:
    """Every registered scheme kind, in registry order."""
    return tuple(SCHEME_FACTORIES)


def scheme_factory(kind: str):
    """The factory registered for ``kind`` (raises ``ValueError`` if none)."""
    try:
        return SCHEME_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown scheme kind {kind!r}; expected one of "
            f"{sorted(SCHEME_FACTORIES)}"
        ) from None
