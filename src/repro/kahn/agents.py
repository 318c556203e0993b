"""Operational implementations of the paper's processes.

Each function returns a fresh generator body for the
:mod:`repro.kahn.runtime`.  These are the "machines" whose quiescent
traces the descriptions are claimed to capture; the cross-validation in
:mod:`repro.kahn.validate` checks that claim empirically.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.channels.channel import Channel
from repro.kahn.effects import Choose, Poll, Recv, RecvAny, Send
from repro.kahn.runtime import AgentBody


def copy_agent(b: Channel, c: Channel) -> AgentBody:
    """§2.1: copy every input from ``b`` to ``c``."""
    while True:
        message = yield Recv(b)
        yield Send(c, message)


def prepend0_agent(c: Channel, b: Channel) -> AgentBody:
    """§2.1 (modified second process): send 0 first, then copy c → b."""
    yield Send(b, 0)
    while True:
        message = yield Recv(c)
        yield Send(b, message)


def doubler_agent(d: Channel, b: Channel) -> AgentBody:
    """Process P of §2.3: output 0, then output 2n per input n."""
    yield Send(b, 0)
    while True:
        n = yield Recv(d)
        yield Send(b, 2 * n)


def affine_agent(d: Channel, c: Channel) -> AgentBody:
    """Process Q of §2.3: output 2m + 1 per input m."""
    while True:
        m = yield Recv(d)
        yield Send(c, 2 * m + 1)


def merge_agent(inputs: Iterable[Channel], output: Channel,
                transform=lambda channel, message: message
                ) -> AgentBody:
    """A (discriminated/fair) merge: forward whatever arrives on any
    input, transformed, to the output.  The oracle breaks ties when
    several inputs have data — every finite interleaving is reachable
    under some oracle."""
    channels = tuple(inputs)
    while True:
        channel, message = yield RecvAny(channels)
        yield Send(output, transform(channel, message))


def dfm_agent(b: Channel, c: Channel, d: Channel) -> AgentBody:
    """§2.2's discriminated fair merge of ``b`` and ``c`` onto ``d``."""
    return merge_agent((b, c), d)


def tagging_merge_agent(c: Channel, d: Channel,
                        e: Channel) -> AgentBody:
    """§4.10's fair merge: tag-free output of whatever arrives."""
    return merge_agent((c, d), e)


def tee_agent(source: Channel,
              outputs: Iterable[Channel]) -> AgentBody:
    """Fan a channel out to several consumers.

    Kahn channels are single-consumer queues; a network diagram whose
    channel feeds two processes (Figure 3's ``d`` feeding both P and Q)
    is realized with an explicit duplicator.
    """
    outs = tuple(outputs)
    while True:
        message = yield Recv(source)
        for out in outs:
            yield Send(out, message)


def source_agent(channel: Channel,
                 messages: Iterable[Any]) -> AgentBody:
    """Feed a fixed finite sequence into a channel, then halt."""
    for message in messages:
        yield Send(channel, message)


def brock_a_agent(b: Channel, c: Channel,
                  stored: tuple[int, ...] = (0, 2)) -> AgentBody:
    """Process A of §2.4: fair-merge the input ``b`` with the internally
    stored sequence onto ``c``.

    Fairness discipline: while stored items remain, the agent never
    blocks — it either forwards an available input or emits the next
    stored item (oracle's choice when both are possible).  After the
    store drains it becomes a plain copy.  This matches the paper's
    fair merge: neither source is deferred forever.
    """
    remaining = list(stored)
    while remaining:
        has_input = yield Poll(b)
        if has_input:
            which = yield Choose(2)
            if which == 0:
                message = yield Recv(b)
                yield Send(c, message)
                continue
        yield Send(c, remaining.pop(0))
    while True:
        message = yield Recv(b)
        yield Send(c, message)


def brock_b_agent(c: Channel, b: Channel) -> AgentBody:
    """Process B of §2.4: after two inputs, output first + 1; then
    consume silently (``f`` is constant from there on)."""
    n = yield Recv(c)
    yield Recv(c)
    yield Send(b, n + 1)
    while True:
        yield Recv(c)


def random_bit_agent(b: Channel) -> AgentBody:
    """§4.3: output one arbitrary bit, halt."""
    which = yield Choose(2)
    yield Send(b, "T" if which == 0 else "F")


def random_bit_sequence_agent(c: Channel, b: Channel) -> AgentBody:
    """§4.4: one random bit per tick received."""
    while True:
        yield Recv(c)
        which = yield Choose(2)
        yield Send(b, "T" if which == 0 else "F")


def ticks_agent(b: Channel, limit: Optional[int] = None) -> AgentBody:
    """§4.2: an unending stream of ticks (bounded by ``limit`` for
    finite experiments — the bound models running the machine for a
    finite time, not a property of the process)."""
    count = 0
    while limit is None or count < limit:
        yield Send(b, "T")
        count += 1


def implication_agent(c: Channel, d: Channel) -> AgentBody:
    """§4.5: receive one bit; answer ``F`` on ``F``, anything on ``T``."""
    bit = yield Recv(c)
    if bit == "F":
        yield Send(d, "F")
        return
    which = yield Choose(2)
    yield Send(d, "T" if which == 0 else "F")


def fork_agent(c: Channel, d: Channel, e: Channel) -> AgentBody:
    """§4.6: route each input to ``d`` or ``e``, oracle's choice."""
    while True:
        message = yield Recv(c)
        which = yield Choose(2)
        yield Send(d if which == 0 else e, message)


def fair_random_agent(c: Channel, block: int = 1,
                      rounds: Optional[int] = None) -> AgentBody:
    """§4.7: emit bits with both values occurring (in the limit,
    infinitely often).  Per round: an oracle-chosen burst of up to
    ``block`` copies of one bit, then the other bit — so every finite
    bit string is reachable while fairness holds in the limit."""
    done = 0
    while rounds is None or done < rounds:
        burst = yield Choose(block)
        bit_first = yield Choose(2)
        first = "T" if bit_first == 0 else "F"
        other = "F" if first == "T" else "T"
        for _ in range(burst + 1):
            yield Send(c, first)
        yield Send(c, other)
        done += 1


def finite_ticks_agent(d: Channel) -> AgentBody:
    """§4.8: some finite number of ticks, then halt.

    The number is chosen by repeated coin flips (geometric), mirroring
    the fair-random-sequence implementation: each flip either emits a
    tick and continues or stops.
    """
    while True:
        which = yield Choose(2)
        if which == 1:
            return
        yield Send(d, "T")


def random_number_agent(d: Channel) -> AgentBody:
    """§4.9: output one arbitrary natural number, then halt."""
    count = 0
    while True:
        which = yield Choose(2)
        if which == 1:
            yield Send(d, count)
            return
        count += 1
