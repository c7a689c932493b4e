"""The contract between the pipeline and a branch-handling scheme.

A *scheme* decides how conditional branches and predicated instructions are
handled: which predictor structures exist, when they are read, how
predictions reach their consumers, and what has to be flushed when a
prediction is wrong.  The three schemes evaluated in the paper —
conventional two-level branch prediction, PEP-PA, and the proposed predicate
prediction scheme — are implemented in :mod:`repro.core` against this
interface.

The pipeline calls the hooks in program order and supplies the timestamps it
has computed so far:

``on_fetch``
    every instruction, with its fetch cycle;
``on_compare_rename`` / ``on_compare_complete``
    compare instructions at rename and at completion (when the predicate
    values are computed);
``on_branch_rename``
    conditional branches at rename; the scheme returns the final prediction
    used for this branch, whether the fetch-time prediction was overridden,
    and whether the branch was early-resolved;
``on_branch_resolved``
    conditional branches when they resolve (train, repair history);
``on_predicated_rename``
    predicated non-branch instructions at rename; the scheme returns how the
    rename stage must handle them (conservative, assume-true or cancel) and,
    when the underlying speculation is wrong, when the misprediction will be
    discovered so the pipeline can charge the flush.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.emulator.executor import DynInst
from repro.stats.accuracy import BranchAccuracy
from repro.stats.counters import CounterSet
from repro.pipeline.uop import RenameDecision


@dataclass
class BranchHandling:
    """What the scheme decided for one dynamic conditional branch.

    Never mutated once returned: every possible handling is one of the
    shared :data:`BRANCH_HANDLING` instances.
    """

    #: The prediction that steers the front end after rename (and is checked
    #: against the architectural outcome at resolution).
    final_prediction: bool
    #: The fast, fetch-time prediction (``None`` if the scheme has none).
    fetch_prediction: Optional[bool] = None
    #: True when the computed predicate value was available at rename
    #: (the paper's early-resolved branches — always correct).
    early_resolved: bool = False
    #: True when the final prediction disagrees with the fetch prediction,
    #: which costs a front-end flush.
    override_flush: bool = False


#: The shared handling of every branch decision, keyed by
#: ``(fetch_prediction, final_prediction, early_resolved)``; a final
#: prediction that disagrees with a fetch prediction is an override flush.
BRANCH_HANDLING = {
    (fetch, final, early): BranchHandling(
        final, fetch, early, fetch is not None and fetch != final
    )
    for fetch in (None, False, True)
    for final in (False, True)
    for early in (False, True)
}


@dataclass(frozen=True)
class PredicatedHandling:
    """What the scheme decided for one predicated non-branch instruction.

    Immutable: a handling without a flush is one of the shared
    :data:`PREDICATED_HANDLING` instances.
    """

    decision: RenameDecision = RenameDecision.CONSERVATIVE
    #: When the decision speculates (cancel / assume-true) and the
    #: speculation is wrong, the cycle at which the producing compare
    #: computes the true value and the misprediction is discovered.
    flush_discovery_cycle: Optional[int] = None

    @property
    def mispredicted(self) -> bool:
        return self.flush_discovery_cycle is not None


#: The shared flush-free handling of each rename decision.
PREDICATED_HANDLING = {decision: PredicatedHandling(decision) for decision in RenameDecision}


class BranchHandlingScheme(abc.ABC):
    """Base class of all branch-handling schemes."""

    #: Short machine-readable name used in result tables.
    name: str = "abstract"

    #: True when the scheme's hook results depend only on the dynamic
    #: instruction stream, never on the pipeline timestamps passed to the
    #: hooks.  The lane-batched kernel (:mod:`repro.pipeline.batched`) may
    #: then replay such a scheme once per spec and share the resulting
    #: prediction stream across every lane (machine configuration) of a
    #: batch.  Schemes that read cycle arguments (predicate prediction,
    #: PEP-PA) must leave this ``False``.
    timing_independent: bool = False

    def __init__(self) -> None:
        self.accuracy = BranchAccuracy()
        self.counters = CounterSet()

    # ------------------------------------------------------------------
    # Hooks with default no-op behaviour
    # ------------------------------------------------------------------
    def on_fetch(self, dyn: DynInst, fetch_cycle: int) -> None:
        """Called for every fetched instruction."""

    def on_compare_rename(self, dyn: DynInst, fetch_cycle: int, rename_cycle: int) -> None:
        """Called when a compare instruction renames."""

    def on_compare_complete(self, dyn: DynInst, complete_cycle: int) -> None:
        """Called when a compare executes and its predicate values are known."""

    @abc.abstractmethod
    def on_branch_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> BranchHandling:
        """Called when a conditional branch renames; must return the handling."""

    def on_branch_resolved(self, dyn: DynInst, resolve_cycle: int, mispredicted: bool) -> None:
        """Called when a conditional branch resolves."""

    def on_predicated_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> PredicatedHandling:
        """Called when a predicated non-branch instruction renames."""
        return PREDICATED_HANDLING[RenameDecision.CONSERVATIVE]

    # ------------------------------------------------------------------
    def branch_scheme(self) -> "BranchHandlingScheme":
        """The scheme whose hooks decide this scheme's conditional branches.

        A scheme that composes another for its branch half and whose
        ``on_branch_rename``/``on_branch_resolved`` only delegate to it
        returns that scheme; the base returns the scheme itself.  When the
        branch scheme is stream-eligible, the lane-batched kernel replays
        its decision stream on the branch rows instead of calling the
        branch hooks.
        """
        return self

    def share_branch_scheme(self, scheme: "BranchHandlingScheme") -> None:
        """Drop this scheme's composed branch half for ``scheme``.

        The lane-batched kernel calls this on a lane whose decision stream
        it takes from ``scheme``, another lane's branch scheme of an equal
        :meth:`stream_key`, so the lane keeps no private branch predictor.
        The lane's branch hooks are then never called.  The base scheme is
        its own branch half and keeps it.
        """

    def stream_key(self):
        """Hashable token of this scheme's branch decision stream, or ``None``.

        Two schemes returning equal tokens promise identical decision
        streams over any trace, so the lane-batched kernel computes the
        stream once for all of them.  ``None`` (the base) shares nothing.
        """
        return None

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable description used by reports."""
        return self.name


#: The hooks with a base-class default (``on_branch_rename`` is abstract).
_OPTIONAL_HOOKS = (
    "on_fetch",
    "on_compare_rename",
    "on_compare_complete",
    "on_branch_resolved",
    "on_predicated_rename",
)


def overridden_hooks(cls: type) -> FrozenSet[str]:
    """The optional hooks ``cls`` overrides: its schemes' dispatch table.

    The timing loop calls only these (a base-class default is a no-op, or
    for ``on_predicated_rename`` the conservative decision the loop applies
    itself), and the lane-batched kernel reads the same table to decide
    which schemes can run as decision-stream replays.
    """
    return frozenset(
        name
        for name in _OPTIONAL_HOOKS
        if getattr(cls, name) is not getattr(BranchHandlingScheme, name)
    )
