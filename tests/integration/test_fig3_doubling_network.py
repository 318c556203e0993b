"""Integration: the Figure-3 network (§2.3) — P, Q and dfm.

Claims reproduced:

* the sequences ``x`` and ``y`` are smooth solutions of
  ``even(d) ⟵ 0;2×d , odd(d) ⟵ 2×d+1``;
* the sequence ``z`` solves the equations but is not smooth, failing at
  its very first element (−1 would have to cause itself);
* progress: every natural number appears in the output;
* safety: ``2n`` appears only after ``n``;
* operationally, scripted schedules realize prefixes of ``x`` and ``y``.
"""

import pytest

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.description import Description, DescriptionSystem, combine
from repro.core.elimination import eliminate_channels
from repro.kahn.agents import affine_agent, dfm_agent, doubler_agent
from repro.kahn.scheduler import ScriptedOracle, run_network
from repro.processes.deterministic import (
    affine_description,
    doubler_description,
    doubling_descriptions,
)
from repro.processes.merge import dfm_descriptions
from repro.seq.builders import misra_x, misra_y, misra_z
from repro.seq.finite import Seq
from repro.traces.trace import Trace

D = Channel("d")


def network_description() -> Description:
    return combine(doubling_descriptions(D), name="fig3")


def d_trace(seq: Seq, name: str = "") -> Trace:
    def gen():
        i = 0
        while True:
            try:
                yield Event(D, seq.item(i))
            except IndexError:
                return
            i += 1

    return Trace.lazy(gen(), name=name)


DEPTH = 48


class TestDenotational:
    def test_x_is_smooth(self):
        verdict = network_description().check(d_trace(misra_x(), "x"),
                                              depth=DEPTH)
        assert verdict.is_smooth

    def test_y_is_smooth(self):
        verdict = network_description().check(d_trace(misra_y(), "y"),
                                              depth=DEPTH)
        assert verdict.is_smooth

    def test_z_solves_but_is_not_smooth(self):
        verdict = network_description().check(d_trace(misra_z(), "z"),
                                              depth=DEPTH)
        assert verdict.is_solution
        assert not verdict.is_smooth

    def test_z_fails_at_first_element(self):
        # the paper: u = ε, v = ⟨−1⟩ violates odd(v) ⊑ 2×u+1
        violation = network_description().check(
            d_trace(misra_z(), "z"), depth=DEPTH
        ).first_violation
        assert violation.u.length() == 0
        assert violation.v.item(0).message == -1

    def test_no_finite_smooth_solutions(self):
        # output never stops: every finite prefix fails the limit
        desc = network_description()
        for n in range(6):
            assert not desc.limit_holds(d_trace(misra_x()).take(n))


class TestDerivedFromFullSystem:
    def test_elimination_of_b_and_c(self):
        """§2.3 derives (1,2) by eliminating b, c from the three
        component descriptions; check the derived system classifies
        x and z the same way as the hand-written one."""
        b = Channel("b_fig3")
        c = Channel("c_fig3")
        full = DescriptionSystem(
            [doubler_description(D, b), affine_description(D, c),
             *dfm_descriptions(b, c, D)],
            channels=[b, c, D], name="fig3-full",
        )
        derived = eliminate_channels(full, [b, c])
        assert derived.is_smooth_solution(d_trace(misra_x()),
                                          depth=32)
        assert not derived.is_smooth_solution(d_trace(misra_z()),
                                              depth=32)


class TestProperties:
    def test_progress_every_natural_appears(self):
        # §2.3: every natural number n appears eventually (induction
        # on n); empirically on a deep prefix of x and of y
        for seq in (misra_x(), misra_y()):
            seen = set(seq.take(2 ** 7 * 2))
            assert set(range(32)) <= seen

    def test_safety_doubles_preceded_by_halves(self):
        # appearance of 2n is preceded by n (n > 0)
        for seq in (misra_x(), misra_y()):
            items = list(seq.take(200))
            for i, m in enumerate(items):
                if m > 0 and m % 2 == 0:
                    assert m // 2 in items[:i], (seq, m)


class TestOperational:
    def _network(self):
        from repro.kahn.agents import tee_agent

        b = Channel("b_op", alphabet=None)
        c = Channel("c_op", alphabet=None)
        dp = Channel("d_to_P", alphabet=None)
        dq = Channel("d_to_Q", alphabet=None)
        agents = {
            # Figure 3: dfm's output d fans out to both P and Q
            "tee": tee_agent(D, [dp, dq]),
            "P": doubler_agent(dp, b),
            "Q": affine_agent(dq, c),
            "dfm": dfm_agent(b, c, D),
        }
        return [b, c, D, dp, dq], agents

    def test_histories_satisfy_smoothness(self):
        # every operational history's d-projection is a node of the
        # §3.3 tree for the network description
        from repro.kahn.scheduler import RandomOracle

        desc = network_description()
        for seed in range(10):
            channels, agents = self._network()
            result = run_network(agents, channels,
                                 RandomOracle(seed), max_steps=80)
            d_only = result.trace.project({D})
            assert desc.smoothness_holds(
                d_only, depth=max(d_only.length(), 1)
            ), (seed, d_only)

    def test_output_is_never_minus_one(self):
        from repro.kahn.scheduler import RandomOracle

        for seed in range(10):
            channels, agents = self._network()
            result = run_network(agents, channels,
                                 RandomOracle(seed), max_steps=100)
            assert -1 not in list(result.trace.messages_on(D))

    def test_x_and_y_orders_reachable(self):
        # distinct merge disciplines yield distinct output orders;
        # sample many oracles and observe ≥ 2 distinct d-prefixes
        from repro.kahn.scheduler import RandomOracle

        prefixes = set()
        for seed in range(20):
            channels, agents = self._network()
            result = run_network(agents, channels,
                                 RandomOracle(seed), max_steps=80)
            prefix = tuple(result.trace.messages_on(D))[:6]
            if len(prefix) == 6:
                prefixes.add(prefix)
        assert len(prefixes) >= 2
