"""Profile collection: per-branch execution counts and taken rates.

The compiler passes (if-conversion in particular) are profile-guided, like
the paper's set-up ("all benchmarks have been compiled ... using maximum
optimization levels and profile information").  The profiler simply runs the
program on the functional emulator for a configurable instruction budget and
aggregates per-static-branch statistics, keyed by the branch instruction's
unique id so the data survives later program transformations and re-layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.emulator.executor import Emulator
from repro.isa.branches import BranchInstruction
from repro.program.program import Program


@dataclass
class BranchSiteProfile:
    """Profile of one static branch instruction."""

    executions: int = 0
    taken: int = 0

    @property
    def taken_rate(self) -> float:
        return self.taken / self.executions if self.executions else 0.0

    @property
    def bias(self) -> float:
        """Bias towards the dominant direction, in [0.5, 1.0]."""
        if not self.executions:
            return 1.0
        rate = self.taken_rate
        return max(rate, 1.0 - rate)


@dataclass
class BranchProfile:
    """Profile of a whole program, keyed by branch instruction uid."""

    sites: Dict[int, BranchSiteProfile] = field(default_factory=dict)
    profiled_instructions: int = 0

    def site(self, branch: BranchInstruction) -> BranchSiteProfile:
        return self.sites.setdefault(branch.uid, BranchSiteProfile())

    def lookup(self, branch: BranchInstruction) -> Optional[BranchSiteProfile]:
        return self.sites.get(branch.uid)

    def hard_branches(self, bias_threshold: float = 0.9, min_executions: int = 8):
        """Uids of branches executed often enough and biased below the
        threshold — the if-conversion candidates."""
        return {
            uid
            for uid, site in self.sites.items()
            if site.executions >= min_executions and site.bias < bias_threshold
        }


def profile_program(program: Program, budget: int = 20_000) -> BranchProfile:
    """Run ``program`` for ``budget`` fetched instructions and profile it.

    The trace is built as a columnar pack and counted per static branch
    with ``bincount``; sites are created in order of first execution.
    """
    if not program.laid_out:
        program.layout()
    pack = Emulator(program).run_pack(budget)
    profile = BranchProfile(profiled_instructions=len(pack))
    conditional = pack.static_flags()["is_conditional_branch"][pack.inst_index]
    sites = pack.inst_index[conditional]
    executions = np.bincount(sites, minlength=len(pack.insts)).tolist()
    taken = np.bincount(
        sites[pack.taken[conditional] == 1], minlength=len(pack.insts)
    ).tolist()
    # The pack's instruction table is in order of first appearance.
    for index, inst in enumerate(pack.insts):
        if executions[index]:
            site = profile.site(inst)
            site.executions = executions[index]
            site.taken = taken[index]
    return profile
