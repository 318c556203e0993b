#!/usr/bin/env python3
"""Alternating-bit protocol over lossy channels, verified against its
service specification.

The intro's motivating domain — message-communicating processes — in
one worked scenario that goes *beyond* the paper's catalog using its
machinery:

* two lossy channels (the paper's Fork pattern, see
  ``repro.processes.lossy``) connect a sender and a receiver;
* the sender tags messages with an alternating bit and retransmits
  until acknowledged; the receiver de-duplicates by bit and acks;
* the *service specification* is the humble Kahn description
  ``out ⟵ ⟨m₁ … mₖ⟩`` — delivered exactly the submitted sequence;
* every quiescent computation of the protocol (sampled over many
  schedules, with fair-lossy channels) satisfies the specification,
  and prefix safety (deliveries form a prefix of the submission order,
  no duplicates) holds at every step.

Part two swaps the explicit lossy-channel *agents* for the fault
injection layer (``repro.faults``): the same protocol rides directly on
two channels perturbed by seeded ``DropFault``/``DuplicateFault``
models, a conformance grid checks every quiescent trace against the
service spec, and an *unfair* black-hole channel shows the supervised
runtime's watchdog catching the resulting retransmission livelock.

The protocol itself (channels, agents, service spec and fault plans)
is defined in ``repro.processes.alternating_bit``; this script is the
demo.

Run:  python examples/alternating_bit.py
"""

from repro.faults import no_faults, run_conformance, run_supervised
from repro.kahn import RandomOracle, run_network
from repro.processes.alternating_bit import (
    CHANNELS,
    FAULTY_CHANNELS,
    MESSAGES,
    OUT,
    S2C,
    direct_agents,
    fair_loss_plan,
    loss_and_duplication_plan,
    protocol_network,
    service_spec,
    unfair_loss_plan,
)
from repro.reasoning import SafetyProperty, check_progress, eventually_count
from repro.seq import FiniteSeq


def delivery_safety(messages) -> SafetyProperty:
    """At every point, deliveries are a prefix of the submission."""
    submitted = FiniteSeq(messages)
    return SafetyProperty(
        "deliveries prefix submission",
        lambda t: t.messages_on(OUT).is_prefix_of(submitted),
    )


def main() -> None:
    spec = service_spec(MESSAGES)
    safety = delivery_safety(MESSAGES)

    print(f"submitting {MESSAGES} across two lossy channels "
          "(≤2 consecutive drops)")
    print()

    delivered_ok = 0
    runs = 40
    retransmissions = []
    for seed in range(runs):
        result = run_network(
            protocol_network(MESSAGES), CHANNELS,
            RandomOracle(seed), max_steps=3000,
        )
        visible = result.trace.project({OUT})
        # safety holds at every prefix of the full trace
        for n in range(result.trace.length() + 1):
            assert safety(result.trace.take(n)), (seed, n)
        if result.quiescent and spec.is_smooth_solution(visible):
            delivered_ok += 1
        retransmissions.append(
            result.trace.count_on(S2C) - len(MESSAGES)
        )

    print(f"runs with exact in-order delivery: "
          f"{delivered_ok}/{runs}")
    print(f"retransmissions per run: min "
          f"{min(retransmissions)}, max {max(retransmissions)}")

    print("\nprogress on one run:")
    result = run_network(protocol_network(MESSAGES), CHANNELS,
                         RandomOracle(7), max_steps=3000)
    report = check_progress(
        result.trace, eventually_count(OUT, len(MESSAGES)),
        horizon=result.trace.length(),
    )
    print(f"  {report}")

    print("\nthe specification is just a Kahn description:")
    for desc in spec:
        print(f"  {desc.name}")
    assert delivered_ok == runs
    print("\nprotocol verified against its service specification.")

    # -- part two: fault injection & supervision -------------------------
    print("\n--- fault injection layer ---")
    grid = {
        "no-faults": no_faults,
        "fair-loss": lambda: fair_loss_plan(seed=11),
        "heavy-loss": lambda: fair_loss_plan(seed=23, p=0.5),
        "loss+dup": lambda: loss_and_duplication_plan(seed=5),
    }
    report = run_conformance(
        "abp-direct", direct_agents(MESSAGES), FAULTY_CHANNELS,
        spec.combined(), grid, seeds=range(10),
        observe={OUT}, max_steps=4000, watchdog_limit=600,
    )
    print(report.summary())
    assert report.all_conform, report.violations
    print("every quiescent trace under every fair fault plan is a "
          "smooth solution of the service spec.")

    print("\nunfair loss (black-hole data wire, sender never gives up):")
    result = run_supervised(
        direct_agents(MESSAGES, retransmit_limit=None),
        FAULTY_CHANNELS, RandomOracle(3),
        max_steps=100_000, fault_plan=unfair_loss_plan(),
        watchdog_limit=400,
    )
    assert result.watchdog_fired and result.steps < 100_000
    print(f"  watchdog terminated the livelock after {result.steps} "
          f"steps (budget was 100000):")
    for line in result.diagnosis.splitlines():
        print(f"  | {line}")
    print("\nfault-injected protocol verified; unfair loss diagnosed.")


if __name__ == "__main__":
    main()
