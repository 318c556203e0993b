"""Operational agents (§2/§4 machines) and the computations ⇔ smooth
solutions cross-validation."""

from repro.channels.channel import Channel
from repro.core.description import DescriptionSystem, combine
from repro.kahn.agents import (
    brock_a_agent,
    brock_b_agent,
    copy_agent,
    dfm_agent,
    fair_random_agent,
    finite_ticks_agent,
    fork_agent,
    implication_agent,
    merge_agent,
    prepend0_agent,
    random_bit_agent,
    random_number_agent,
    source_agent,
    ticks_agent,
)
from repro.kahn.effects import RecvAny, Send
from repro.kahn.quiescence import collect_traces, describe_run, quiescent_traces
from repro.kahn.scheduler import (
    RandomOracle,
    RoundRobinOracle,
    ScriptedOracle,
    run_network,
)
from repro.kahn.validate import (
    check_denotational_completeness,
    check_operational_soundness,
)
from repro.processes.deterministic import copy_description
from repro.processes.merge import dfm_descriptions
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2, 4})
C = Channel("c", alphabet={1, 3, 5})
D = Channel("d", alphabet={0, 1, 2, 3, 4, 5})


def dfm_description():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def dfm_network():
    return {
        "envb": source_agent(B, [0, 2]),
        "envc": source_agent(C, [1]),
        "dfm": dfm_agent(B, C, D),
    }


class TestAgents:
    def test_ticks_bounded(self):
        t = Channel("t", alphabet={"T"})
        result = run_network({"ticks": ticks_agent(t, limit=5)}, [t],
                             RandomOracle(0), max_steps=100)
        assert result.trace.count_on(t) == 5

    def test_copy_agent(self):
        result = run_network(
            {"src": source_agent(B, [0, 2]), "cp": copy_agent(B, D)},
            [B, D], RandomOracle(1), max_steps=100,
        )
        assert result.quiescent
        assert result.trace.messages_on(D).items == (0, 2)

    def test_prepend0_agent(self):
        result = run_network(
            {"p": prepend0_agent(C, B)}, [B, C],
            RandomOracle(0), max_steps=10,
        )
        assert result.trace.messages_on(B).items == (0,)

    def test_random_bit_both_outcomes_reachable(self):
        bit = Channel("bit", alphabet={"T", "F"})
        seen = set()
        for seed in range(16):
            result = run_network({"rb": random_bit_agent(bit)}, [bit],
                                 RandomOracle(seed), max_steps=10)
            seen.add(result.trace.item(0).message)
        assert seen == {"T", "F"}

    def test_random_number_distribution_has_spread(self):
        d = Channel("d")
        values = set()
        for seed in range(40):
            result = run_network({"rn": random_number_agent(d)}, [d],
                                 RandomOracle(seed), max_steps=200)
            assert result.quiescent
            values.add(result.trace.item(0).message)
        assert len(values) >= 3  # genuinely unbounded choice

    def test_finite_ticks_varies(self):
        d = Channel("d", alphabet={"T"})
        counts = {
            run_network({"ft": finite_ticks_agent(d)}, [d],
                        RandomOracle(seed), max_steps=300
                        ).trace.count_on(d)
            for seed in range(30)
        }
        assert len(counts) >= 3

    def test_fair_random_agent_is_fair_in_prefix(self):
        c = Channel("c", alphabet={"T", "F"})
        result = run_network(
            {"fr": fair_random_agent(c, rounds=10)}, [c],
            RandomOracle(3), max_steps=500,
        )
        bits = result.trace.messages_on(c)
        assert "T" in bits.items and "F" in bits.items

    def test_fork_agent_routes_everything(self):
        c = Channel("c", alphabet={0, 1, 2})
        d = Channel("d", alphabet={0, 1, 2})
        e = Channel("e", alphabet={0, 1, 2})
        result = run_network(
            {"src": source_agent(c, [0, 1, 2]),
             "fork": fork_agent(c, d, e)},
            [c, d, e], RandomOracle(7), max_steps=100,
        )
        assert result.quiescent
        routed = (list(result.trace.messages_on(d))
                  + list(result.trace.messages_on(e)))
        assert sorted(routed) == [0, 1, 2]

    def test_implication_agent(self):
        c = Channel("c", alphabet={"T", "F"})
        d = Channel("d", alphabet={"T", "F"})
        result = run_network(
            {"env": source_agent(c, ["F"]),
             "imp": implication_agent(c, d)},
            [c, d], RandomOracle(0), max_steps=20,
        )
        assert result.trace.messages_on(d).items == ("F",)

    def test_merge_agent_fair_merge(self):
        e = Channel("e", alphabet={0, 1, 2, 3, 4, 5})
        result = run_network(
            {"sb": source_agent(B, [0, 2]),
             "sc": source_agent(C, [1]),
             "m": merge_agent((B, C), e)},
            [B, C, e], RandomOracle(5), max_steps=100,
        )
        assert result.quiescent
        assert sorted(result.trace.messages_on(e)) == [0, 1, 2]


class TestOracles:
    def test_scripted_oracle_steers(self):
        # force dfm to emit 1 before 0 by scheduling envc first
        traces = set()
        for agent_picks in ([0, 0, 0, 0], [2, 2, 2, 2],
                            [1, 1, 1, 1]):
            result = run_network(
                dfm_network(), [B, C, D],
                ScriptedOracle(agent_picks=agent_picks),
                max_steps=100,
            )
            if result.quiescent:
                traces.add(tuple(result.trace.messages_on(D)))
        assert len(traces) >= 2

    def test_round_robin_reaches_quiescence(self):
        result = run_network(dfm_network(), [B, C, D],
                             RoundRobinOracle(), max_steps=200)
        assert result.quiescent

    def test_describe_run(self):
        result = run_network(dfm_network(), [B, C, D],
                             RandomOracle(0), max_steps=200)
        text = describe_run(result)
        assert "quiescent" in text


class TestCrossValidation:
    def test_dfm_operational_soundness(self):
        report = check_operational_soundness(
            dfm_network, [B, C, D], dfm_description(),
            seeds=range(25), max_steps=60,
        )
        assert report.all_agree, report.failures
        assert report.quiescent_checked > 0

    def test_dfm_denotational_completeness(self):
        # every merge order of the inputs ⟨0 2⟩ and ⟨1⟩ is realized by
        # some oracle — the operational side of "every smooth solution
        # corresponds to a computation"
        sample = collect_traces(dfm_network, [B, C, D],
                                seeds=range(60), max_steps=80)
        outputs = {
            tuple(t.messages_on(D))
            for t in sample.distinct_quiescent()
        }
        # all three interleavings of ⟨0 2⟩ and ⟨1⟩ occur
        assert outputs == {(0, 2, 1), (0, 1, 2), (1, 0, 2)}

    def test_sample_buckets(self):
        # every run lands in exactly one bucket, and the DFM network
        # with finite sources always reaches quiescence
        sample = collect_traces(dfm_network, [B, C, D],
                                seeds=range(6), max_steps=100)
        assert sample.runs == 6
        assert len(sample.quiescent) + len(sample.prefixes) == 6
        assert sample.quiescent

    def test_prefix_histories_satisfy_smoothness(self):
        report = check_operational_soundness(
            dfm_network, [B, C, D], dfm_description(),
            seeds=range(10), max_steps=3,  # cut runs short
        )
        assert report.all_agree
        assert report.prefixes_checked > 0

    def test_broken_machine_flagged(self):
        def broken_dfm():
            # emits a constant before any input: causality violation
            yield Send(D, 0)
            while True:
                _, message = yield RecvAny((B, C))
                yield Send(D, message)

        report = check_operational_soundness(
            lambda: {"envb": source_agent(B, [0]), "dfm": broken_dfm()},
            [B, C, D], dfm_description(), seeds=range(5), max_steps=60,
        )
        assert not report.all_agree
        assert report.failures

    def test_completeness_checker_flags_missing(self):
        ghost = Trace.from_pairs([(B, 4), (D, 4)])
        report = check_denotational_completeness(
            dfm_network, [B, C, D], [ghost], seeds=range(5),
            max_steps=60,
        )
        assert not report.all_agree


class TestBrockAgents:
    def test_only_021_reachable(self):
        b = Channel("b", alphabet={1, 3})
        c = Channel("c", alphabet={0, 1, 2, 3})
        outputs = set()
        for seed in range(30):
            result = run_network(
                {"A": brock_a_agent(b, c), "B": brock_b_agent(c, b)},
                [b, c], RandomOracle(seed), max_steps=100,
            )
            assert result.quiescent
            outputs.add(tuple(result.trace.messages_on(c)))
        assert outputs == {(0, 2, 1)}
