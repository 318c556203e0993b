"""Integration: the alternating-bit protocol against its Kahn spec.

Keeps ``examples/alternating_bit.py`` honest and probes the corners the
demo glosses over: unreliable-beyond-bound channels break delivery, the
spec rejects wrong/partial deliveries, and duplicates never surface.
"""

import sys
import pathlib

import pytest

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent.parent
           / "examples")
)

from alternating_bit import (  # noqa: E402
    CHANNELS,
    MESSAGES,
    OUT,
    S2C,
    delivery_safety,
    protocol_network,
    service_spec,
)
from repro.kahn import RandomOracle, run_network  # noqa: E402
from repro.traces import Trace  # noqa: E402


class TestProtocol:
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_delivery(self, seed):
        result = run_network(protocol_network(MESSAGES), CHANNELS,
                             RandomOracle(seed), max_steps=3000)
        assert result.quiescent
        visible = result.trace.project({OUT})
        assert service_spec(MESSAGES).is_smooth_solution(visible)

    def test_no_duplicates_ever(self):
        for seed in range(8):
            result = run_network(protocol_network(MESSAGES),
                                 CHANNELS, RandomOracle(seed),
                                 max_steps=3000)
            delivered = list(result.trace.messages_on(OUT))
            assert delivered == MESSAGES

    def test_safety_at_every_prefix(self):
        safety = delivery_safety(MESSAGES)
        result = run_network(protocol_network(MESSAGES), CHANNELS,
                             RandomOracle(3), max_steps=3000)
        for n in range(result.trace.length() + 1):
            assert safety(result.trace.take(n))

    def test_retransmissions_happen(self):
        # lossy channels force real retransmission work
        total_extra = 0
        for seed in range(6):
            result = run_network(protocol_network(MESSAGES),
                                 CHANNELS, RandomOracle(seed),
                                 max_steps=3000)
            total_extra += result.trace.count_on(S2C) - len(MESSAGES)
        assert total_extra > 0

    def test_spec_rejects_partial_delivery(self):
        spec = service_spec(MESSAGES)
        partial = Trace.from_pairs([(OUT, MESSAGES[0])])
        assert not spec.is_smooth_solution(partial)

    def test_spec_rejects_reordering(self):
        spec = service_spec(MESSAGES)
        wrong = Trace.from_pairs(
            [(OUT, MESSAGES[1]), (OUT, MESSAGES[0]),
             (OUT, MESSAGES[2])]
        )
        assert not spec.is_smooth_solution(wrong)

    def test_give_up_bound_respected(self):
        # with a tiny retransmit limit and hostile drops the sender
        # may give up — and then the spec correctly fails
        from repro.processes.alternating_bit import (
            C2R,
            C2S,
            R2C,
            receiver,
            sender,
        )
        from repro.processes.lossy import lossy_agent

        def fragile_network():
            return {
                "sender": sender(MESSAGES, S2C, C2S, retransmit_limit=0),
                "data-channel": lossy_agent(
                    S2C, C2R, max_consecutive_drops=None
                ),
                "ack-channel": lossy_agent(
                    R2C, C2S, max_consecutive_drops=None
                ),
                "receiver": receiver(C2R, R2C),
            }

        outcomes = set()
        for seed in range(12):
            result = run_network(fragile_network(), CHANNELS,
                                 RandomOracle(seed), max_steps=3000)
            visible = result.trace.project({OUT})
            outcomes.add(
                service_spec(MESSAGES).is_smooth_solution(visible)
            )
        # at least one run fails the spec under unbounded loss
        assert False in outcomes
