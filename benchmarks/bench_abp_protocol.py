"""[EXT] Extension scenario: alternating-bit protocol over lossy
channels, verified against a Kahn service specification.

Not a paper artifact — the paper's machinery applied to the protocol
the dataflow literature always reaches for.  Rows reported:

* delivery correctness across sampled schedules, per channel drop bound;
* retransmission cost as the channels get lossier (the expected shape:
  more loss → more retransmissions, same delivered sequence).
"""

import pytest
from conftest import banner, row

from repro.kahn import RandomOracle, run_network
from repro.processes.alternating_bit import (
    CHANNELS,
    MESSAGES,
    OUT,
    S2C,
    protocol_network,
    service_spec,
)


@pytest.mark.parametrize("drop_bound", [0, 1, 3])
def test_delivery_under_loss(benchmark, drop_bound):
    spec = service_spec(MESSAGES)

    def campaign():
        ok = 0
        retransmissions = 0
        for seed in range(15):
            result = run_network(
                protocol_network(MESSAGES, drop_bound=drop_bound),
                CHANNELS, RandomOracle(seed), max_steps=4000,
            )
            visible = result.trace.project({OUT})
            if result.quiescent and spec.is_smooth_solution(visible):
                ok += 1
            retransmissions += (
                result.trace.count_on(S2C) - len(MESSAGES)
            )
        return ok, retransmissions

    ok, retransmissions = benchmark(campaign)
    banner("EXT", f"ABP, ≤{drop_bound} consecutive drops per channel")
    row("runs with exact in-order delivery", f"{ok}/15")
    row("total retransmissions", retransmissions)
    assert ok == 15
    if drop_bound > 0:
        assert retransmissions > 0
