"""A lossy channel — an extension beyond the paper's catalog.

A lossy channel delivers an arbitrary *subsequence* of its input, in
order (it may drop any message; no fairness obligation).  The paper
does not define this process, but it falls straight out of the Fork
construction (§4.6): route each input either to the output or to a
dropped-message sink, with the sink hidden.  Description, with an
auxiliary oracle ``b`` of random bits:

    R(b) ⟵ trues ,   d ⟵ g(c, b)

where ``g`` keeps the inputs at the oracle's ``T`` positions (the ``F``
positions are the drops — the Fork's second output, simply never
named).  This is the §8.2 auxiliary-channel pattern again: drops are
internal nondeterminism the trace set must not expose.

The operational agent optionally bounds consecutive drops (a *fair*
lossy channel) — the standard assumption under which retransmission
protocols such as alternating-bit achieve reliable delivery; see
:mod:`repro.processes.alternating_bit`.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.channels.channel import Channel
from repro.core.description import Description, DescriptionSystem
from repro.functions.base import chan
from repro.functions.seq_fns import select_of
from repro.kahn.effects import Choose, Recv, Send
from repro.kahn.runtime import AgentBody
from repro.processes.fork import oracle_description
from repro.processes.process import DescribedProcess
from repro.traces.trace import Trace

DEFAULT_ALPHABET = frozenset({0, 1, 2})


def lossy_descriptions(b: Channel, c: Channel,
                       d: Channel) -> list[Description]:
    """``R(b) ⟵ trues , d ⟵ g(c, b)``."""
    return [
        oracle_description(b),
        Description(chan(d), select_of(chan(c), chan(b), "T"),
                    name=f"{d.name} ⟵ g({c.name},{b.name})"),
    ]


def make(c: Optional[Channel] = None, d: Optional[Channel] = None,
         alphabet: Iterable[Any] = DEFAULT_ALPHABET
         ) -> DescribedProcess:
    c = c or Channel("c", alphabet=alphabet)
    d = d or Channel("d", alphabet=alphabet)
    b = Channel("b_lossy", alphabet={"T", "F"}, auxiliary=True)
    system = DescriptionSystem(
        lossy_descriptions(b, c, d), channels=[b, c, d],
        name="LossyChannel",
    )
    return DescribedProcess(
        "LossyChannel", [b, c, d], system,
        witness_fn=lambda t: witness(t, b, c, d),
    )


def route(t: Trace, c: Channel, d: Channel) -> Optional[list[str]]:
    """Oracle bits delivering the observed subsequence, or ``None``.

    Greedy is sound here: walk the inputs; each pending delivery must
    match the next undelivered input *for some* assignment, and since
    drops are unconstrained the earliest match can always be taken.
    Causality (output after its input) is enforced positionally.
    """
    inputs: list[tuple[int, Any]] = []   # (event index, message)
    bits: list[Optional[str]] = []
    cursor = 0  # next input eligible for delivery
    for k, event in enumerate(t):
        if event.channel == c:
            inputs.append((k, event.message))
            bits.append(None)
        elif event.channel == d:
            while cursor < len(inputs) and (
                inputs[cursor][1] != event.message
                or bits[cursor] is not None
            ):
                bits[cursor] = "F"  # dropped
                cursor += 1
            if cursor >= len(inputs):
                return None  # delivery with no matching prior input
            bits[cursor] = "T"
            cursor += 1
    # undelivered leftovers are drops
    return ["F" if bit is None else bit for bit in bits]


def witness(t: Trace, b: Channel, c: Channel,
            d: Channel) -> Optional[Trace]:
    """An infinite smooth solution projecting to the visible trace."""
    import itertools

    from repro.channels.event import Event

    if not t.is_known_finite():
        return None
    bits = route(t, c, d)
    if bits is None:
        return None
    delivered_to_input = [
        i for i, bit in enumerate(bits) if bit == "T"
    ]

    def gen():
        emitted_bits = 0
        delivery_index = 0
        for event in t:
            if event.channel == d:
                need = delivered_to_input[delivery_index] + 1
                while emitted_bits < need:
                    yield Event(b, bits[emitted_bits])
                    emitted_bits += 1
                delivery_index += 1
            yield event
        while emitted_bits < len(bits):
            yield Event(b, bits[emitted_bits])
            emitted_bits += 1
        for _ in itertools.count():
            yield Event(b, "T")

    return Trace.lazy(gen(), name="lossy-witness")


def lossy_agent(c: Channel, d: Channel,
                max_consecutive_drops: Optional[int] = None
                ) -> AgentBody:
    """Operational lossy channel.

    With ``max_consecutive_drops=None`` every drop pattern is possible
    (matching the description exactly).  A bound makes the channel
    *fair-lossy* — it cannot drop forever — which is the standard
    assumption for retransmission protocols.
    """
    consecutive = 0
    while True:
        message = yield Recv(c)
        forced_delivery = (
            max_consecutive_drops is not None
            and consecutive >= max_consecutive_drops
        )
        if forced_delivery:
            drop = 0
        else:
            drop = yield Choose(2)
        if drop == 1:
            consecutive += 1
            continue
        consecutive = 0
        yield Send(d, message)
