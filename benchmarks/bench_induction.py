"""[S84] §8.4: smooth-solution induction.

Claims regenerated:
* the rule proves the §2.3-style safety property for dfm (outputs are
  justified by prior inputs);
* the rule's acknowledged weakness (Trakhtenbrot): it ignores the limit
  condition, so some true properties of all smooth solutions have
  unprovable premises.
"""

from conftest import banner, row

from repro.channels import Channel
from repro.core import (
    Description,
    SmoothSolutionSolver,
    check_premises_on_tree,
    combine,
    conclude,
    holds_on_prefixes,
)
from repro.functions import chan
from repro.functions.base import const_seq
from repro.processes.merge import dfm_descriptions
from repro.seq import fseq
from repro.traces import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def outputs_justified(t: Trace) -> bool:
    pool = [e.message for e in t if e.channel in (B, C)]
    for m in t.messages_on(D):
        if m in pool:
            pool.remove(m)
        else:
            return False
    return True


def test_safety_by_induction(benchmark):
    desc = dfm()
    solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])

    def prove():
        report = check_premises_on_tree(
            solver, outputs_justified, max_depth=4
        )
        solution = Trace.from_pairs([(B, 0), (C, 1), (D, 1), (D, 0)])
        return report, conclude(report, desc, solution)

    report, concluded = benchmark(prove)
    banner("S84", "safety of dfm by smooth-solution induction")
    row("base φ(⊥)", report.base_holds)
    row("step failures", len(report.step_failures))
    row("edges checked", report.edges_checked)
    row("φ concluded for a smooth solution", concluded)
    assert report.premises_hold and concluded


def test_direct_check_agrees(benchmark):
    solution = Trace.cycle_pairs([(B, 0), (D, 0)])
    ok = benchmark(
        lambda: holds_on_prefixes(outputs_justified, solution, 32)
    )
    banner("S84", "direct prefix check agrees on an infinite solution")
    row("φ on all prefixes to 32", ok)
    assert ok


def test_rule_incompleteness(benchmark):
    bz = Channel("bz", alphabet={0})
    desc = Description(chan(bz), const_seq(fseq(0)))
    solver = SmoothSolutionSolver.over_channels(desc, [bz])
    phi = lambda t: t.length() > 0  # true of every smooth solution

    def attempt():
        solutions = solver.explore(3).finite_solutions
        all_satisfy = all(phi(s) for s in solutions)
        report = check_premises_on_tree(solver, phi, max_depth=3)
        return all_satisfy, report.premises_hold

    all_satisfy, premises = benchmark(attempt)
    banner("S84", "incompleteness: a true property the rule misses")
    row("φ holds of every smooth solution", all_satisfy)
    row("rule premises provable (False!)", premises)
    assert all_satisfy and not premises
