"""Property-based tests of the core theorems on random finite traces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.composition import Component, ComposedNetwork
from repro.core.description import Description, combine
from repro.core.solver import SmoothSolutionSolver
from repro.functions.base import chan
from repro.functions.seq_fns import even_of, odd_of
from repro.processes.merge import dfm_descriptions
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})

EVENTS = [Event(B, 0), Event(B, 2), Event(C, 1), Event(C, 3),
          Event(D, 0), Event(D, 1), Event(D, 2), Event(D, 3)]

traces = st.lists(st.sampled_from(EVENTS), max_size=7).map(Trace.finite)


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


class TestLemma2Property:
    @given(traces)
    def test_lemma2(self, t):
        desc = dfm()
        if desc.is_smooth_solution(t):
            assert desc.lemma2_holds(t, depth=t.length())


class TestTheorem1Property:
    @given(traces)
    def test_equivalence(self, t):
        desc = dfm()
        assert desc.is_smooth_solution(t) == \
            desc.is_smooth_solution_thm1(t)


class TestTheorem2Property:
    @given(traces)
    @settings(max_examples=60)
    def test_sublemma(self, t):
        net = ComposedNetwork([
            Component("dfm-even", frozenset({B, D}),
                      Description(even_of(chan(D)), chan(B))),
            Component("dfm-odd", frozenset({C, D}),
                      Description(odd_of(chan(D)), chan(C))),
        ])
        assert net.sublemma_agrees(t)


class TestSolverSoundness:
    @given(st.integers(min_value=0, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_everything_enumerated_is_smooth(self, depth):
        desc = dfm()
        solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])
        result = solver.explore(depth)
        for s in result.finite_solutions:
            assert desc.is_smooth_solution(s)

    @given(traces)
    @settings(max_examples=60)
    def test_smooth_prefixes_are_tree_nodes(self, t):
        # every prefix of a smooth solution is a node of the tree
        desc = dfm()
        solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])
        if desc.is_smooth_solution(t):
            for prefix in t.prefixes():
                assert solver.is_node(prefix)


class TestProjectionProperties:
    @given(traces)
    def test_projection_partitions_length(self, t):
        assert (t.project({B, C}).length() + t.project({D}).length()
                == t.length())

    @given(traces)
    def test_projection_idempotent(self, t):
        once = t.project({B})
        assert once.project({B}) == once

    @given(traces)
    def test_fact_f4_property(self, t):
        from repro.traces.projection import fact_f4

        for u, v in t.pre_pairs(t.length()):
            assert fact_f4(u, v, {B, C})
