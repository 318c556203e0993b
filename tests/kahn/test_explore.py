"""Exhaustive schedule exploration: the central claim as an equality.

With every schedule enumerated, "smooth solutions ⇔ computations"
stops being a sampled statement: on finite networks the set of
quiescent traces *equals* the set of finite smooth solutions.
"""

import pytest

from repro.channels.channel import Channel
from repro.core.description import combine
from repro.core.solver import solve
from repro.kahn.agents import (
    brock_a_agent,
    brock_b_agent,
    copy_agent,
    dfm_agent,
    source_agent,
)
from repro.kahn.explore import (
    exhaustive_quiescent_traces,
    explore_schedules,
)
from repro.processes.merge import dfm_descriptions
from repro.seq.finite import fseq
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm_description():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def dfm_network():
    return {
        "env-b": source_agent(B, [0, 2]),
        "env-c": source_agent(C, [1]),
        "dfm": dfm_agent(B, C, D),
    }


class TestExplorerMechanics:
    def test_deterministic_network_has_one_schedule_class(self):
        # one agent, no choices: a single trace
        bc = Channel("bc", alphabet={0, 1})
        traces = exhaustive_quiescent_traces(
            lambda: {"src": source_agent(bc, [0, 1])}, [bc],
            max_steps=10,
        )
        assert traces == {Trace.from_pairs([(bc, 0), (bc, 1)])}

    def test_truncation_reported(self):
        def forever():
            from repro.kahn.effects import Send

            while True:
                yield Send(B, 0)

        result = explore_schedules(lambda: {"f": forever()}, [B],
                                   max_steps=5)
        assert not result.quiescent_traces
        assert result.truncated_traces
        assert result.complete

    def test_max_runs_valve(self):
        result = explore_schedules(dfm_network, [B, C, D],
                                   max_steps=60, max_runs=3)
        assert not result.complete
        with pytest.raises(RuntimeError):
            exhaustive_quiescent_traces(dfm_network, [B, C, D],
                                        max_steps=60, max_runs=3)

    def test_pipeline_interleavings_counted(self):
        # two independent sources: all interleavings of their sends
        x = Channel("x", alphabet={0})
        y = Channel("y", alphabet={1})
        traces = exhaustive_quiescent_traces(
            lambda: {"sx": source_agent(x, [0, 0]),
                     "sy": source_agent(y, [1])},
            [x, y], max_steps=20,
        )
        # merge orders of xx and y: C(3,1) = 3
        assert len(traces) == 3


class TestCentralClaimAsEquality:
    def test_dfm_exhaustive_equals_denotational(self):
        """quiescent traces = finite smooth solutions (fixed inputs)."""
        operational = exhaustive_quiescent_traces(
            dfm_network, [B, C, D], max_steps=60,
        )
        denotational = {
            t for t in solve(dfm_description(), [B, C, D],
                             max_depth=6).finite_solutions
            if t.messages_on(B) == fseq(0, 2)
            and t.messages_on(C) == fseq(1)
        }
        assert operational == denotational
        assert len(operational) == 30

    def test_brock_ackermann_exhaustive(self):
        """§2.4, proved by enumeration (within the step bound): every
        computation of the Figure-4 network outputs ⟨0 2 1⟩."""
        b = Channel("b", alphabet={1, 3})
        c = Channel("c", alphabet={0, 1, 2, 3})
        traces = exhaustive_quiescent_traces(
            lambda: {"A": brock_a_agent(b, c),
                     "B": brock_b_agent(c, b)},
            [b, c], max_steps=60,
        )
        outputs = {tuple(t.messages_on(c)) for t in traces}
        assert outputs == {(0, 2, 1)}

    def test_copy_loop_exhaustive_silence(self):
        """§2.1: the two-copy loop has exactly one computation — ε."""
        x = Channel("x", alphabet={0})
        y = Channel("y", alphabet={0})
        traces = exhaustive_quiescent_traces(
            lambda: {"p1": copy_agent(x, y), "p2": copy_agent(y, x)},
            [x, y], max_steps=20,
        )
        assert traces == {Trace.empty()}

    def test_fork_exhaustive_splittings(self):
        """§4.6 operationally complete: with two inputs, the fork's
        computations realize exactly the 4 splittings."""
        from repro.kahn.agents import fork_agent

        c = Channel("c", alphabet={0, 1})
        d = Channel("d", alphabet={0, 1})
        e = Channel("e", alphabet={0, 1})
        traces = exhaustive_quiescent_traces(
            lambda: {"src": source_agent(c, [0, 1]),
                     "fork": fork_agent(c, d, e)},
            [c, d, e], max_steps=30,
        )
        splittings = {
            (tuple(t.messages_on(d)), tuple(t.messages_on(e)))
            for t in traces
        }
        assert splittings == {
            ((0, 1), ()), ((0,), (1,)), ((1,), (0,)), ((), (0, 1)),
        }

    @pytest.mark.parametrize("evens,odds", [
        ([], []),
        ([0], []),
        ([0], [1]),
        ([0, 2], [1]),
    ])
    def test_exhaustive_equals_denotational_across_inputs(
            self, evens, odds):
        """The set equality holds for every input configuration."""
        def network():
            return {
                "env-b": source_agent(B, evens),
                "env-c": source_agent(C, odds),
                "dfm": dfm_agent(B, C, D),
            }

        operational = exhaustive_quiescent_traces(
            network, [B, C, D], max_steps=60,
        )
        depth = 2 * (len(evens) + len(odds))
        denotational = {
            t for t in solve(dfm_description(), [B, C, D],
                             max_depth=depth).finite_solutions
            if list(t.messages_on(B)) == evens
            and list(t.messages_on(C)) == odds
        }
        assert operational == denotational
