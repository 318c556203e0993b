"""Failure injection: broken machines produce non-smooth traces.

The theory's diagnostic power: a description is a *specification*, and
the smooth-solution checker is an oracle for implementation bugs.  Each
test wires a deliberately broken agent into a network and shows that
the checker rejects the resulting quiescent traces — and names the kind
of violation (limit vs. smoothness) the paper's conditions predict.
"""

from repro.channels.channel import Channel
from repro.core.description import combine
from repro.kahn.effects import Recv, RecvAny, Send
from repro.kahn.quiescence import collect_traces
from repro.kahn.agents import source_agent
from repro.processes.deterministic import copy_description
from repro.processes.merge import dfm_descriptions

B = Channel("b", alphabet={0, 2, 4})
C = Channel("c", alphabet={1, 3, 5})
D = Channel("d", alphabet={0, 1, 2, 3, 4, 5})


def dfm_description():
    return combine(dfm_descriptions(B, C, D), name="dfm")


# -- broken merge implementations -------------------------------------------

def dropping_merge(b, c, d):
    """Forwards b, silently drops every c message (starvation bug)."""
    while True:
        channel, message = yield RecvAny((b, c))
        if channel == b:
            yield Send(d, message)


def duplicating_merge(b, c, d):
    """Forwards everything twice (duplication bug)."""
    while True:
        _, message = yield RecvAny((b, c))
        yield Send(d, message)
        yield Send(d, message)


def corrupting_merge(b, c, d):
    """Adds 2 to every even message (corruption bug)."""
    while True:
        channel, message = yield RecvAny((b, c))
        if message % 2 == 0:
            message = (message + 2) % 6
        yield Send(d, message)


def eager_merge(b, c, d):
    """Outputs a 0 before receiving anything (causality bug)."""
    yield Send(d, 0)
    while True:
        _, message = yield RecvAny((b, c))
        yield Send(d, message)


def network_with(merge_body):
    return lambda: {
        "env-b": source_agent(B, [0, 2]),
        "env-c": source_agent(C, [1]),
        "merge": merge_body(B, C, D),
    }


def quiescent_verdicts(make_agents, seeds=range(12), max_steps=80):
    desc = dfm_description()
    sample = collect_traces(make_agents, [B, C, D], seeds,
                            max_steps=max_steps)
    assert sample.quiescent, "network never quiesced"
    return [desc.check(t) for t in sample.quiescent]


class TestBrokenMerges:
    def test_dropping_merge_fails_limit(self):
        # dropped messages: quiescent but odd(d) ≠ c — a limit failure
        for verdict in quiescent_verdicts(network_with(dropping_merge)):
            assert not verdict.is_smooth
            assert not verdict.limit.holds

    def test_duplicating_merge_rejected(self):
        for verdict in quiescent_verdicts(
                network_with(duplicating_merge)):
            assert not verdict.is_smooth

    def test_duplication_caught_as_causality_violation(self):
        # the second copy of a message is an output with no remaining
        # justification: a smoothness violation, not just a limit one
        verdicts = quiescent_verdicts(network_with(duplicating_merge))
        assert any(v.violations for v in verdicts)

    def test_corrupting_merge_rejected(self):
        for verdict in quiescent_verdicts(
                network_with(corrupting_merge)):
            assert not verdict.is_smooth

    def test_eager_merge_is_a_smoothness_violation(self):
        # the spontaneous 0 output is exactly the paper's "no output
        # can be caused by itself": u = ε, v = ⟨(d,0)⟩ fails
        verdicts = quiescent_verdicts(network_with(eager_merge))
        for verdict in verdicts:
            assert not verdict.is_smooth
        spontaneous = [
            v.first_violation for v in verdicts if v.violations
        ]
        assert spontaneous
        assert any(viol.u.length() == 0 for viol in spontaneous)


class TestBrokenCopy:
    def test_lossy_copy_fails_limit(self):
        bc = Channel("bc", alphabet={0, 1})
        cc = Channel("cc", alphabet={0, 1})
        desc = copy_description(bc, cc)

        def lossy_copy():
            while True:
                yield Recv(bc)          # drop
                message = yield Recv(bc)
                yield Send(cc, message)

        sample = collect_traces(
            lambda: {"env": source_agent(bc, [0, 1]),
                     "copy": lossy_copy()},
            [bc, cc], seeds=range(5), max_steps=50,
        )
        for t in sample.quiescent:
            assert not desc.is_smooth_solution(t)

    def test_correct_copy_passes(self):
        bc = Channel("bc", alphabet={0, 1})
        cc = Channel("cc", alphabet={0, 1})
        desc = copy_description(bc, cc)

        def copy():
            while True:
                message = yield Recv(bc)
                yield Send(cc, message)

        sample = collect_traces(
            lambda: {"env": source_agent(bc, [0, 1]),
                     "copy": copy()},
            [bc, cc], seeds=range(5), max_steps=50,
        )
        assert sample.quiescent
        for t in sample.quiescent:
            assert desc.is_smooth_solution(t)
