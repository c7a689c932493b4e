"""Tests for the branch profiler."""

import pytest

from repro.compiler.profiler import profile_program
from repro.emulator.executor import Emulator
from repro.isa.branches import BranchInstruction
from repro.workloads.spec_suite import build_workload, workload_names

from tests.conftest import build_counting_loop, build_diamond_program


class TestProfiler:
    def test_execution_counts(self):
        program, _ = build_counting_loop()
        profile = profile_program(program, budget=10_000)
        assert profile.profiled_instructions > 0
        # Exactly one conditional branch site (the loop-back branch).
        assert len(profile.sites) == 1
        site = next(iter(profile.sites.values()))
        assert site.executions == 8
        assert site.taken == 7

    def test_bias_computation(self):
        program, _, _ = build_diamond_program()
        profile = profile_program(program, budget=10_000)
        biases = sorted(site.bias for site in profile.sites.values())
        assert biases[0] < 0.9      # the data-dependent branch
        assert biases[-1] >= 0.85   # the loop-back branch

    def test_hard_branches_selection(self):
        program, _, _ = build_diamond_program()
        profile = profile_program(program, budget=10_000)
        hard = profile.hard_branches(bias_threshold=0.85, min_executions=4)
        assert len(hard) == 1

    def test_lookup_by_instruction(self):
        program, _ = build_counting_loop()
        profile = profile_program(program, budget=10_000)
        branch = next(
            i
            for i in program.instructions()
            if isinstance(i, BranchInstruction) and i.is_conditional
        )
        assert profile.lookup(branch) is not None

    def test_unknown_branch_lookup_returns_none(self):
        program, _ = build_counting_loop()
        profile = profile_program(program, budget=100)
        foreign = BranchInstruction.__new__(BranchInstruction)
        # lookup only needs .uid
        foreign.uid = 10**9
        assert profile.lookup(foreign) is None

    def test_empty_site_defaults(self):
        from repro.compiler.profiler import BranchSiteProfile

        site = BranchSiteProfile()
        assert site.taken_rate == 0.0
        assert site.bias == 1.0


def _profile_by_rows(program, budget):
    """The per-row count over the reference interpreter's object trace."""
    sites = {}
    rows = list(Emulator(program, optimized=False).run(budget))
    for dyn in rows:
        inst = dyn.inst
        if isinstance(inst, BranchInstruction) and inst.is_conditional:
            executions, taken = sites.get(inst.uid, (0, 0))
            sites[inst.uid] = (executions + 1, taken + bool(dyn.taken))
    return len(rows), sites


class TestColumnarCount:
    """The pack-driven profile equals a per-row count, site order included."""

    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("budget", [0, 1_500, 8_000])
    def test_equals_the_per_row_count(self, workload, budget):
        program = build_workload(workload)
        profile = profile_program(program, budget)
        rows, sites = _profile_by_rows(program, budget)
        assert profile.profiled_instructions == rows
        assert [
            (uid, site.executions, site.taken) for uid, site in profile.sites.items()
        ] == [(uid, executions, taken) for uid, (executions, taken) in sites.items()]
