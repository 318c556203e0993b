"""Interning: channels, messages and events as small integers.

The compiled solver path evaluates descriptions on a packed
*environment*: one flat message tuple per channel, indexed by a small
channel id — exactly the per-channel subsequence the paper writes as
``b(t)``.  The :class:`InternTable` owns the ids in both directions
(channels, messages, and each candidate event's ``(channel_id,
message_id)`` pair) and builds, extends and projects environments.

A *packed trace* is a tuple of those pairs; :meth:`InternTable.pack`
and :meth:`InternTable.unpack` convert losslessly, unpacking each pair
to the candidate alphabet's own :class:`~repro.channels.event.Event`
object.  The solver itself never unpacks: a compiled search node
carries its trace as a tuple of those same Event objects beside its
environment (see ``repro.core.solver._CompiledEngine``), so a
classified node is its event tuple wrapped in a :class:`Trace` — the
trace the reference path builds by repeated ``append``, and digests,
cache keys and checkpoints come out bit-identical.

The table is built from a solver's *constant* candidate alphabet (the
``alphabet_candidates`` generator publishes it as
``constant_events``); per-node candidate generators such as
``rhs_guided_candidates`` have no fixed alphabet and therefore no
intern table — the solver falls back to the reference path for them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.seq.finite import FiniteSeq
from repro.traces.trace import Trace

#: A packed event: ``(channel_id, message_id)``.
PackedEvent = Tuple[int, int]
#: A packed trace: a flat tuple of packed events.
PackedTrace = Tuple[PackedEvent, ...]
#: A packed environment: per-channel message tuples, indexed by
#: channel id.  ``env[cid]`` is the channel's message subsequence.
PackedEnv = Tuple[Tuple[Any, ...], ...]


class InternTable:
    """Bidirectional channel/message/event ↔ small-int mapping."""

    __slots__ = (
        "channels", "channel_ids", "messages", "message_ids",
        "events", "_event_pairs", "_pair_events", "empty_env",
    )

    def __init__(self, events: Iterable[Event],
                 extra_channels: Iterable[Channel] = ()):
        channels: List[Channel] = []
        channel_ids: Dict[Channel, int] = {}
        messages: List[Any] = []
        message_ids: Dict[Any, int] = {}
        event_list: List[Event] = []
        pairs: List[PackedEvent] = []
        pair_events: Dict[PackedEvent, Event] = {}

        def intern_channel(channel: Channel) -> int:
            cid = channel_ids.get(channel)
            if cid is None:
                cid = len(channels)
                channel_ids[channel] = cid
                channels.append(channel)
            return cid

        # Channels a description observes but no candidate mentions
        # still need environment slots (their subsequence is ε).
        for channel in extra_channels:
            intern_channel(channel)
        for event in events:
            cid = intern_channel(event.channel)
            mid = message_ids.get(event.message)
            if mid is None:
                mid = len(messages)
                message_ids[event.message] = mid
                messages.append(event.message)
            pair = (cid, mid)
            event_list.append(event)
            pairs.append(pair)
            # keep the *first* Event object for a pair so unpacking
            # returns stable identities even with duplicate candidates
            pair_events.setdefault(pair, event)

        self.channels = tuple(channels)
        self.channel_ids = channel_ids
        self.messages = tuple(messages)
        self.message_ids = message_ids
        self.events = tuple(event_list)
        self._event_pairs = tuple(pairs)
        self._pair_events = pair_events
        self.empty_env: PackedEnv = ((),) * len(self.channels)

    # -- events ---------------------------------------------------------

    def event_pairs(self) -> Tuple[PackedEvent, ...]:
        """Packed form of the candidate events, in candidate order."""
        return self._event_pairs

    def intern_event(self, event: Event) -> PackedEvent:
        """Pack one event; raises ``KeyError`` off-alphabet."""
        return (self.channel_ids[event.channel],
                self.message_ids[event.message])

    def event_for(self, pair: PackedEvent) -> Event:
        """The canonical :class:`Event` for a packed pair."""
        event = self._pair_events.get(pair)
        if event is None:
            # a pair assembled from valid ids that never co-occurred
            # in the alphabet: build (and remember) a fresh event
            event = Event(self.channels[pair[0]], self.messages[pair[1]])
            self._pair_events[pair] = event
        return event

    # -- traces ---------------------------------------------------------

    def pack(self, trace: Trace) -> PackedTrace:
        """Pack a known-finite trace; ``KeyError`` off-alphabet."""
        return tuple(self.intern_event(e) for e in trace)

    def unpack(self, packed: PackedTrace, name: str = "") -> Trace:
        """Rebuild the :class:`Trace` for a packed trace.

        One :meth:`event_for` per pair: the Event objects come from
        the candidate alphabet, so the result is indistinguishable
        from the trace the reference path builds by repeated
        ``append`` — same events, same equality, same hash, same
        ``repr``.
        """
        if not packed and not name:
            return Trace.empty()
        return Trace(FiniteSeq.from_tuple(tuple(map(self.event_for,
                                                    packed))),
                     name=name)

    def env_of(self, packed: PackedTrace) -> PackedEnv:
        """The per-channel message environment of a packed trace.

        ``env[cid]`` equals ``trace.messages_on(channels[cid])`` as a
        flat tuple — the compiled face of the paper's ``b(t)``.
        """
        buckets: List[List[Any]] = [[] for _ in self.channels]
        for cid, mid in packed:
            buckets[cid].append(self.messages[mid])
        return tuple(tuple(b) for b in buckets)

    def extend_env(self, env: PackedEnv, pair: PackedEvent) -> PackedEnv:
        """The environment after appending one packed event."""
        cid, mid = pair
        return env[:cid] + (env[cid] + (self.messages[mid],),) \
            + env[cid + 1:]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<InternTable {len(self.channels)} channels, "
                f"{len(self.messages)} messages, "
                f"{len(self.events)} events>")


def intern_table_for(candidates: Any,
                     extra_channels: Sequence[Channel] = ()
                     ) -> Optional[InternTable]:
    """Build an :class:`InternTable` from a candidate generator.

    Returns ``None`` when the generator does not publish a constant
    alphabet (``constant_events``) — the signal that the solver must
    stay on the reference path.
    """
    events = getattr(candidates, "constant_events", None)
    if events is None:
        return None
    return InternTable(events, extra_channels=extra_channels)
