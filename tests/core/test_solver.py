"""Unit tests for repro.core.solver — the §3.3 tree search."""

import pytest

from repro.channels.channel import Channel
from repro.core.description import Description, combine
from repro.core.solver import (
    SmoothSolutionSolver,
    alphabet_candidates,
    rhs_guided_candidates,
    solve,
)
from repro.functions.base import chan, const_seq
from repro.functions.seq_fns import prepend_of
from repro.processes.deterministic import doubling_descriptions
from repro.processes.merge import dfm_descriptions
from repro.seq.finite import fseq
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


class TestCandidates:
    def test_alphabet_candidates(self):
        gen = alphabet_candidates([B, C])
        events = list(gen(Trace.empty()))
        assert len(events) == 4
        assert all(e.channel in (B, C) for e in events)

    def test_requires_finite_alphabets(self):
        with pytest.raises(ValueError):
            alphabet_candidates([Channel("x")])


class TestTreeStructure:
    def test_children_of_root(self):
        solver = SmoothSolutionSolver.over_channels(dfm(), [B, C, D])
        kids = list(solver.children(Trace.empty()))
        # any input admissible; no output admissible yet
        assert all(k.item(0).channel in (B, C) for k in kids)
        assert len(kids) == 4

    def test_children_allow_justified_output(self):
        solver = SmoothSolutionSolver.over_channels(dfm(), [B, C, D])
        u = Trace.from_pairs([(B, 0)])
        kids = list(solver.children(u))
        messages_on_d = [
            k.item(1).message for k in kids
            if k.item(1).channel == D
        ]
        assert messages_on_d == [0]

    def test_is_node(self):
        solver = SmoothSolutionSolver.over_channels(dfm(), [B, C, D])
        assert solver.is_node(Trace.from_pairs([(B, 0), (D, 0)]))
        assert not solver.is_node(Trace.from_pairs([(D, 0)]))


class TestExploration:
    def test_every_enumerated_solution_is_smooth(self):
        desc = dfm()
        result = solve(desc, [B, C, D], max_depth=4)
        assert result.finite_solutions
        for s in result.finite_solutions:
            assert desc.is_smooth_solution(s)

    def test_completeness_on_finite_universe(self):
        # brute-force all traces up to length 3 and compare
        import itertools

        from repro.channels.event import Event

        desc = dfm()
        events = [Event(B, 0), Event(B, 2), Event(C, 1), Event(C, 3),
                  Event(D, 0), Event(D, 1), Event(D, 2), Event(D, 3)]
        brute = set()
        for n in range(4):
            for combo in itertools.product(events, repeat=n):
                t = Trace.finite(combo)
                if desc.is_smooth_solution(t):
                    brute.add(t)
        result = solve(desc, [B, C, D], max_depth=3)
        enumerated = {
            s for s in result.finite_solutions if s.length() <= 3
        }
        assert enumerated == brute

    def test_root_counted_for_chaos_like(self):
        k = const_seq(fseq())
        desc = Description(k, k, name="K ⟵ K")
        result = solve(desc, [B], max_depth=2)
        # every node is a solution: 1 + 2 + 4
        assert len(result.finite_solutions) == 7

    def test_frontier_for_ticks(self):
        bt = Channel("t", alphabet={"T"})
        desc = Description(chan(bt), prepend_of("T", chan(bt)))
        result = solve(desc, [bt], max_depth=5)
        assert result.finite_solutions == []
        assert len(result.frontier) == 1  # the single live path

    def test_dead_ends_detected(self):
        # conflicting requirements: b ⟵ ⟨0⟩ and b ⟵ ⟨0 0⟩ — the node
        # ⟨(b,0)⟩ satisfies neither the limit condition nor has any
        # admissible extension (the second conjunct allows the step but
        # the first forbids ⟨0 0⟩ ⊑ ⟨0⟩)
        desc = combine([
            Description(chan(B), const_seq(fseq(0))),
            Description(chan(B), const_seq(fseq(0, 0))),
        ])
        result = solve(desc, [B], max_depth=3)
        assert result.finite_solutions == []
        assert Trace.from_pairs([(B, 0)]) in result.dead_ends

    def test_node_budget_yields_truncated_partial_result(self):
        k = const_seq(fseq())
        desc = Description(k, k)
        solver = SmoothSolutionSolver.over_channels(desc, [D])
        result = solver.explore(max_depth=10, max_nodes=20)
        assert result.truncated
        assert "node budget" in result.truncation_reason
        assert result.nodes_explored <= 20
        # unexamined nodes are parked on the unvisited bucket, not
        # lost — and NOT on the frontier, whose invariant (admissible
        # extensions exist) was never checked for them
        assert result.unvisited
        assert not result.frontier

    def test_wall_clock_budget_yields_truncated_result(self):
        k = const_seq(fseq())
        desc = Description(k, k)
        solver = SmoothSolutionSolver.over_channels(desc, [D])
        result = solver.explore(max_depth=10, budget_seconds=0.0)
        assert result.truncated
        assert "wall-clock" in result.truncation_reason

    def test_unbudgeted_exploration_not_truncated(self):
        result = solve(dfm(), [B, C, D], max_depth=2)
        assert not result.truncated
        assert result.truncation_reason == ""

    def test_broken_candidate_generator_is_diagnosed(self):
        from repro.core.solver import CandidateError

        k = const_seq(fseq())
        desc = Description(k, k)

        from repro.channels.event import Event

        def hostile(u):
            if u.length() >= 1:
                raise ValueError("generator bug")
            return [Event(D, 0)]

        solver = SmoothSolutionSolver(desc, hostile)
        with pytest.raises(CandidateError) as info:
            solver.explore(max_depth=3)
        # the diagnostic names the offending trace and the original error
        assert "generator bug" in str(info.value)
        assert info.value.trace.length() == 1


class TestRhsGuidedCandidates:
    def test_fig3_enumeration(self):
        # §2.3's network: even(d) ⟵ 0;2×d, odd(d) ⟵ 2×d+1 on an
        # unbounded alphabet; candidates come from the right side.
        d = Channel("d")
        desc = combine(doubling_descriptions(d), name="fig3")
        candidates = rhs_guided_candidates([d], desc)
        solver = SmoothSolutionSolver(desc, candidates)
        result = solver.explore(max_depth=4)
        # no finite solutions (output never stops), but live frontier
        assert result.finite_solutions == []
        assert result.frontier
        # every frontier prefix starts with 0 (the forced first output)
        for t in result.frontier:
            assert t.item(0).message == 0

    def test_guided_candidates_are_finite(self):
        d = Channel("d")
        desc = combine(doubling_descriptions(d))
        candidates = rhs_guided_candidates([d], desc)
        events = list(candidates(Trace.empty()))
        assert len(events) < 20
