"""Pipeline configuration (Table 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.isa.opcodes import FunctionalUnitClass


def _default_fu_counts() -> Dict[FunctionalUnitClass, int]:
    return {
        FunctionalUnitClass.INT_ALU: 4,
        FunctionalUnitClass.INT_MUL: 1,
        FunctionalUnitClass.FP_UNIT: 2,
        FunctionalUnitClass.LOAD_PORT: 2,
        FunctionalUnitClass.STORE_PORT: 1,
        FunctionalUnitClass.BRANCH_UNIT: 1,
    }


@dataclass
class PipelineConfig:
    """All pipeline parameters.

    Defaults reproduce Table 1: an eight-stage out-of-order core fetching up
    to two bundles (six instructions) per cycle, 80-entry integer and
    floating-point issue queues, a 32-entry branch queue, two 64-entry
    load/store queues, a 256-entry reorder buffer, and 10-cycle misprediction
    recovery.
    """

    # Front end -------------------------------------------------------
    fetch_width: int = 6
    bundles_per_fetch: int = 2
    bundle_slots: int = 3
    rename_width: int = 6
    #: pipeline depth between fetch and rename (the paper's eight-stage core
    #: has two front-end stages between them: decode and the rename itself).
    fetch_to_rename: int = 2

    # Windows and queues ----------------------------------------------
    rob_entries: int = 256
    int_queue_entries: int = 80
    fp_queue_entries: int = 80
    branch_queue_entries: int = 32
    load_queue_entries: int = 64
    store_queue_entries: int = 64

    # Back end ----------------------------------------------------------
    commit_width: int = 6
    fu_counts: Dict[FunctionalUnitClass, int] = field(default_factory=_default_fu_counts)
    store_forward_latency: int = 2
    store_forward_window: int = 200

    # Prediction-related timing -----------------------------------------
    #: cycles of recovery charged after a resolved branch misprediction.
    branch_mispredict_penalty: int = 10
    #: cycles of recovery charged after a predicate misprediction flush
    #: (selective predicate prediction; same recovery path as branches).
    predicate_mispredict_penalty: int = 10
    #: front-end flush cost when the slow second-level prediction (or the
    #: PPRF value read at rename) overrides the fast fetch-time prediction.
    override_flush_penalty: int = 3
    #: access latency of the second-level predictor (Table 1: 3 cycles).
    second_level_latency: int = 3

    def __post_init__(self) -> None:
        if self.fetch_width < 1 or self.rename_width < 1 or self.commit_width < 1:
            raise ValueError("pipeline widths must be at least 1")
        if self.rob_entries < 1:
            raise ValueError("reorder buffer needs at least one entry")


#: The exact configuration used in the paper's evaluation (alias of the
#: defaults; exposed under a separate name so experiment code reads clearly).
def paper_pipeline_config() -> PipelineConfig:
    """Return the Table 1 pipeline configuration."""
    return PipelineConfig()
