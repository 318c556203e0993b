"""The alternating-bit protocol — an extension beyond the paper's catalog.

A sender tags each message with an alternating bit and retransmits it
until the matching ack arrives; the receiver acks every frame and
delivers only fresh bits.  The whole specification is the §8.3 Kahn
description ``out ⟵ ⟨m₁ … mₖ⟩`` (``service_spec``).

The same sender and receiver run in two wirings: through two
fair-lossy channel agents (``protocol_network``; the §4.6 Fork pattern
of :mod:`repro.processes.lossy`), or directly over ``DATA``/``ACK``
with a fault plan perturbing the wires (``direct_agents``; the
registry's ``alternating_bit`` grid).  The plan factories import
``repro.faults`` when called, so importing the catalog loads no
fault-injection code.
"""

from __future__ import annotations

from typing import Optional

from repro.channels.channel import Channel
from repro.core.description import Description, DescriptionSystem
from repro.functions.base import chan, const_seq
from repro.kahn.effects import Poll, Recv, Send
from repro.kahn.runtime import AgentBody
from repro.processes.lossy import lossy_agent
from repro.seq.finite import FiniteSeq

MESSAGES = ["alpha", "beta", "gamma"]
ALPHABET = frozenset(MESSAGES)
TAGGED = frozenset((bit, m) for bit in (0, 1) for m in MESSAGES)
ACKS = frozenset({0, 1})

OUT = Channel("out", alphabet=ALPHABET)
S2C = Channel("s2c", alphabet=TAGGED)      # sender → data channel
C2R = Channel("c2r", alphabet=TAGGED)      # data channel → receiver
R2C = Channel("r2c", alphabet=ACKS)        # receiver → ack channel
C2S = Channel("c2s", alphabet=ACKS)        # ack channel → sender
CHANNELS = [OUT, S2C, C2R, R2C, C2S]

DATA = Channel("data", alphabet=TAGGED)    # sender → receiver, faulted
ACK = Channel("ack", alphabet=ACKS)        # receiver → sender, faulted
FAULTY_CHANNELS = [OUT, DATA, ACK]


def sender(messages, data: Channel, ack: Channel,
           retransmit_limit: Optional[int]) -> AgentBody:
    """Stop-and-wait: send ``(bit, m)`` on ``data``, poll ``ack`` for
    the matching bit, retransmit while it has not arrived.

    The sender retransmits one message at most ``retransmit_limit``
    times and then gives up.  ``None`` never gives up — reliable
    against fair loss, a livelock against an unfair black hole."""
    bit = 0
    for m in messages:
        yield Send(data, (bit, m))
        attempts = 0
        while True:
            has_ack = yield Poll(ack)
            if has_ack:
                acked = yield Recv(ack)
                if acked == bit:
                    break  # delivered; next message
                continue   # stale ack for the previous bit
            attempts += 1
            if retransmit_limit is not None \
                    and attempts > retransmit_limit:
                return
            yield Send(data, (bit, m))
        bit ^= 1


def receiver(data: Channel, ack: Channel) -> AgentBody:
    """Ack every frame on ``data``; deliver fresh bits on ``OUT`` and
    drop duplicates."""
    expected = 0
    while True:
        bit, message = yield Recv(data)
        yield Send(ack, bit)
        if bit == expected:
            yield Send(OUT, message)
            expected ^= 1


def protocol_network(messages, drop_bound: int = 2) -> dict:
    """Agent bodies for the lossy wiring: channel agents drop at most
    ``drop_bound`` consecutive messages, and the sender gives up after
    25 retransmissions of one message (never reached with fair
    channels)."""
    return {
        "sender": sender(messages, S2C, C2S, retransmit_limit=25),
        "data-channel": lossy_agent(S2C, C2R,
                                    max_consecutive_drops=drop_bound),
        "ack-channel": lossy_agent(R2C, C2S,
                                   max_consecutive_drops=drop_bound),
        "receiver": receiver(C2R, R2C),
    }


def direct_agents(messages,
                  retransmit_limit: Optional[int] = 50) -> dict:
    """Agent factories (restartable) for the direct wiring."""
    return {
        "sender": lambda: sender(messages, DATA, ACK, retransmit_limit),
        "receiver": lambda: receiver(DATA, ACK),
    }


def service_spec(messages) -> DescriptionSystem:
    """The end-to-end Kahn specification: out ⟵ ⟨m₁ … mₖ⟩."""
    return DescriptionSystem(
        [Description(chan(OUT), const_seq(FiniteSeq(messages)),
                     name="out ⟵ submitted")],
        channels=[OUT], name="service",
    )


# -- fault plans for the direct wiring ----------------------------------------


def fair_loss_plan(seed, p=0.35, bound=2):
    """Fair-lossy wires: at most ``bound`` consecutive drops."""
    from repro.faults.models import DropFault
    from repro.faults.plan import FaultPlan

    return FaultPlan({
        DATA: DropFault(seed=seed, p=p, max_consecutive_drops=bound),
        ACK: DropFault(seed=seed + 1, p=p, max_consecutive_drops=bound),
    }, name=f"fair-loss(p={p})")


def loss_and_duplication_plan(seed):
    """Drops and duplicates on the data wire, drops on the ack wire."""
    from repro.faults.models import DropFault, DuplicateFault
    from repro.faults.plan import FaultPlan

    return FaultPlan({
        DATA: [DropFault(seed=seed, p=0.3, max_consecutive_drops=2),
               DuplicateFault(seed=seed + 7, p=0.3)],
        ACK: DropFault(seed=seed + 1, p=0.3, max_consecutive_drops=2),
    }, name="loss+dup")


def unfair_loss_plan():
    """A black hole on the data wire: unbounded, certain loss."""
    from repro.faults.models import DropFault
    from repro.faults.plan import FaultPlan

    return FaultPlan(
        {DATA: DropFault(seed=0, p=1.0, max_consecutive_drops=None)},
        name="black-hole",
    )
