"""Selective predicate prediction policy (section 3.2).

Predicting all predicates blindly would undo the benefit of if-conversion —
the compiler removed those branches precisely because they were hard to
predict.  The selective policy therefore speculates only on *confident*
predictions:

* confident **false** prediction → the instruction is cancelled at rename
  and removed from the pipeline (no issue-queue entry, no functional unit,
  no physical destination register);
* confident **true** prediction → the instruction executes as if it were
  not predicated (no predicate dependence, no old-destination dependence);
* not confident → conservative handling (the instruction keeps its predicate
  and old-destination dependences, like the baseline).

When the guard's computed value is already available at rename, the decision
is not speculative at all: a false guard cancels the instruction outright and
a true guard executes it normally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.pipeline.pprf import PPRFEntry
from repro.pipeline.uop import RenameDecision


@dataclass(frozen=True)
class SelectiveDecision:
    """Outcome of the selective-predication decision for one instruction.

    There are only five distinct outcomes, so :meth:`SelectivePredicationPolicy.decide`
    returns one of the shared instances below instead of allocating.
    """

    decision: RenameDecision
    #: True when the decision relied on a (confident) prediction.
    speculative: bool
    #: The predicted guard value the decision relied on (None when the
    #: decision was not based on a prediction).
    assumed_value: Optional[bool] = None


CONSERVATIVE = SelectiveDecision(RenameDecision.CONSERVATIVE, speculative=False)
#: The guard's computed value is available at rename.
RESOLVED_TRUE = SelectiveDecision(RenameDecision.ASSUME_TRUE, False, True)
RESOLVED_FALSE = SelectiveDecision(RenameDecision.CANCEL, False, False)
#: A confident prediction of the guard.
PREDICTED_TRUE = SelectiveDecision(RenameDecision.ASSUME_TRUE, True, True)
PREDICTED_FALSE = SelectiveDecision(RenameDecision.CANCEL, True, False)


class SelectivePredicationPolicy:
    """Decides how rename handles each predicated instruction."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled

    # ------------------------------------------------------------------
    def decide(
        self,
        entry: Optional[PPRFEntry],
        rename_cycle: int,
        architectural_value: bool,
    ) -> SelectiveDecision:
        """Return the rename decision for an instruction guarded by ``entry``.

        ``architectural_value`` is the guard's architecturally-correct value
        (known to the trace-driven simulator); it is only used when the
        guard is already resolved at rename, in which case using it is not
        speculation.
        """
        if not self.enabled:
            return CONSERVATIVE

        if entry is None or entry.is_resolved_at(rename_cycle):
            # The computed value is available in the PPRF: act on it
            # non-speculatively.
            return RESOLVED_TRUE if architectural_value else RESOLVED_FALSE

        if not entry.confident or entry.predicted_value is None:
            return CONSERVATIVE
        return PREDICTED_TRUE if entry.predicted_value else PREDICTED_FALSE
