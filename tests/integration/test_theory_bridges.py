"""Bridges between the paper's layers.

* §6's note: the generalized (chain-based) smooth-solution definition,
  restricted to the trace cpo, coincides with the §3.2.2 definition.
* operational catalog agents produce traces of their described
  processes (fairness processes included).
* reproducibility: a seeded oracle replays the same computation.
"""

from repro.channels.channel import Channel
from repro.core.chains import GeneralDescription
from repro.core.description import combine
from repro.kahn.agents import (
    finite_ticks_agent,
    random_number_agent,
    tee_agent,
)
from repro.kahn.scheduler import RandomOracle, run_network
from repro.order.cpo import CountableChain
from repro.processes import finite_ticks, random_number
from repro.processes.merge import dfm_descriptions
from repro.traces.domain import TraceCpo
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


class TestSection6Note:
    """The chain-based definition restricted to traces = the §3.2.2 one."""

    def _both_verdicts(self, t: Trace):
        desc = combine(dfm_descriptions(B, C, D), name="dfm")
        # §3.2.2 (trace) definition:
        trace_level = desc.is_smooth_solution(t)
        # §6 (chain) definition, witnessed by the prefix chain:
        cpo = TraceCpo(frozenset({B, C, D}))
        general = GeneralDescription(
            lhs=desc.lhs.apply, rhs=desc.rhs.apply,
            domain=cpo, codomain=desc.codomain,
        )
        prefixes = list(t.prefixes())
        chain = CountableChain.from_elements(cpo, prefixes)
        chain_level = general.is_smooth_via(
            t, chain, upto=t.length()
        )
        return trace_level, chain_level

    def test_agree_on_smooth_solution(self):
        t = Trace.from_pairs([(B, 0), (C, 1), (D, 0), (D, 1)])
        a, b = self._both_verdicts(t)
        assert a and b

    def test_agree_on_non_solution(self):
        t = Trace.from_pairs([(D, 0)])
        a, b = self._both_verdicts(t)
        assert not a and not b

    def test_agree_exhaustively_small(self):
        import itertools

        from repro.channels.event import Event

        events = [Event(B, 0), Event(C, 1), Event(D, 0), Event(D, 1)]
        for n in range(4):
            for combo in itertools.product(events, repeat=n):
                t = Trace.finite(combo)
                a, b = self._both_verdicts(t)
                assert a == b, t


class TestOperationalCatalogAgreement:
    def test_finite_ticks_agent_produces_traces(self):
        process = finite_ticks.make()
        d = next(c for c in process.visible_channels)
        for seed in range(10):
            result = run_network(
                {"ft": finite_ticks_agent(d)}, [d],
                RandomOracle(seed), max_steps=200,
            )
            assert result.quiescent
            assert process.is_trace(result.trace, depth=48)

    def test_random_number_agent_produces_traces(self):
        process = random_number.make()
        d = next(c for c in process.visible_channels)
        for seed in range(10):
            result = run_network(
                {"rn": random_number_agent(d)}, [d],
                RandomOracle(seed), max_steps=400,
            )
            assert result.quiescent
            assert process.is_trace(result.trace, depth=64)


class TestReproducibility:
    def test_same_seed_same_trace(self):
        from repro.kahn.agents import dfm_agent, source_agent

        def agents():
            return {
                "eb": source_agent(B, [0, 2]),
                "ec": source_agent(C, [1, 3]),
                "dfm": dfm_agent(B, C, D),
            }

        first = run_network(agents(), [B, C, D],
                            RandomOracle(42), max_steps=100)
        second = run_network(agents(), [B, C, D],
                             RandomOracle(42), max_steps=100)
        assert first.trace == second.trace

    def test_different_seeds_vary(self):
        from repro.kahn.agents import dfm_agent, source_agent

        def agents():
            return {
                "eb": source_agent(B, [0, 2]),
                "ec": source_agent(C, [1, 3]),
                "dfm": dfm_agent(B, C, D),
            }

        traces = {
            run_network(agents(), [B, C, D], RandomOracle(seed),
                        max_steps=100).trace
            for seed in range(20)
        }
        assert len(traces) > 1


class TestTeeAgent:
    def test_duplicates_in_order(self):
        from repro.kahn.agents import source_agent

        src = Channel("src", alphabet={0, 1})
        out1 = Channel("o1", alphabet={0, 1})
        out2 = Channel("o2", alphabet={0, 1})
        result = run_network(
            {"env": source_agent(src, [0, 1]),
             "tee": tee_agent(src, [out1, out2])},
            [src, out1, out2], RandomOracle(0), max_steps=60,
        )
        assert result.quiescent
        assert result.trace.messages_on(out1).items == (0, 1)
        assert result.trace.messages_on(out2).items == (0, 1)
