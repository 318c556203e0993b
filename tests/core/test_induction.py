"""Unit tests for repro.core.induction — §8.4's rule, incl. its
(paper-acknowledged) incompleteness."""

from repro.channels.channel import Channel
from repro.core.description import Description, combine
from repro.core.induction import (
    check_premises_on_tree,
    conclude,
    holds_on_prefixes,
)
from repro.core.solver import SmoothSolutionSolver
from repro.functions.base import chan, const_seq
from repro.functions.seq_fns import prepend_of
from repro.processes.merge import dfm_descriptions
from repro.seq.finite import fseq
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def outputs_justified(t: Trace) -> bool:
    """Safety: every output on d was previously received on b or c."""
    from repro.seq.combinators import is_subsequence

    d_msgs = t.messages_on(D)
    inputs = [e.message for e in t if e.channel in (B, C)]
    # multiset containment with order irrelevant
    pool = list(inputs)
    for m in d_msgs:
        if m in pool:
            pool.remove(m)
        else:
            return False
    return True


class TestPremises:
    def test_safety_property_premises_hold(self):
        solver = SmoothSolutionSolver.over_channels(dfm(), [B, C, D])
        report = check_premises_on_tree(
            solver, outputs_justified, max_depth=4
        )
        assert report.premises_hold
        assert report.edges_checked > 0

    def test_false_base_detected(self):
        solver = SmoothSolutionSolver.over_channels(dfm(), [B, C, D])
        report = check_premises_on_tree(
            solver, lambda t: t.length() > 0, max_depth=2
        )
        assert not report.base_holds

    def test_non_invariant_detected(self):
        # "no outputs yet" fails on edges that emit output
        solver = SmoothSolutionSolver.over_channels(dfm(), [B, C, D])
        report = check_premises_on_tree(
            solver, lambda t: t.count_on(D) == 0, max_depth=3
        )
        assert report.step_failures
        failure = report.step_failures[0]
        assert failure.v.count_on(D) == 1


class TestConclusion:
    def test_rule_applies_to_smooth_solution(self):
        desc = dfm()
        solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])
        report = check_premises_on_tree(
            solver, outputs_justified, max_depth=4
        )
        solution = Trace.from_pairs([(B, 0), (C, 1), (D, 1), (D, 0)])
        assert conclude(report, desc, solution)
        assert holds_on_prefixes(outputs_justified, solution, 10)

    def test_no_conclusion_for_non_solution(self):
        desc = dfm()
        solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])
        report = check_premises_on_tree(
            solver, outputs_justified, max_depth=4
        )
        assert not conclude(report, desc,
                            Trace.from_pairs([(D, 0)]))


class TestIncompleteness:
    def test_rule_cannot_use_limit_condition(self):
        """Trakhtenbrot's observation (§8.4): the rule ignores the
        limit condition, so a property that holds of every smooth
        solution *because of the limit condition* has failing premises.

        For b ⟵ ⟨0⟩ (alphabet {0}), every smooth solution is exactly
        ⟨(b,0)⟩ — so φ = "length ≠ 0 ⇒ true, but specifically: t is
        not ⊥" holds of all smooth solutions (⊥ is not a solution:
        ε ≠ ⟨0⟩).  Yet φ(⊥) — the base premise — is false, so the rule
        cannot derive φ even though it is true of every solution."""
        bz = Channel("bz", alphabet={0})
        desc = Description(chan(bz), const_seq(fseq(0)))
        solver = SmoothSolutionSolver.over_channels(desc, [bz])

        phi = lambda t: t.length() > 0  # true of every smooth solution
        # every smooth solution satisfies phi:
        result = solver.explore(3)
        assert result.finite_solutions == [
            Trace.from_pairs([(bz, 0)])
        ]
        assert all(phi(s) for s in result.finite_solutions)
        # but the rule's base premise fails:
        report = check_premises_on_tree(solver, phi, max_depth=3)
        assert not report.premises_hold
