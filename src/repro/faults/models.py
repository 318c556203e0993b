"""Seeded, composable channel fault models.

Each fault wraps one channel of the operational runtime and rewrites
its delivery stream: a message an agent sends passes through the fault,
which may drop it, duplicate it, corrupt it, hold it back to be
overtaken (reorder), or hold it for a number of runtime steps (delay).
The runtime records the *post-fault* stream as the channel's events, so
a faulted channel behaves exactly like a Kahn channel carrying the
perturbed stream — the §4.6 Fork reading, where the drops are the
Fork's hidden second output.

Design rules, enforced across all models:

* **Determinism** — every model owns a ``random.Random(seed)``; the
  same seed yields the same perturbation of the same input stream.
  Grids of fault plans are therefore replayable run by run.
* **Fairness bounds** — every lossy/withholding behaviour has an
  optional bound (``max_consecutive_drops``, ``max_hold``,
  ``max_delay``, …).  A bounded model cannot misbehave forever, which
  is the standard assumption (fair loss) under which retransmission
  protocols deliver.  Passing ``None`` removes the bound and makes the
  fault *unfair* — useful for driving watchdog and livelock tests.
* **Flushability** — anything a model holds in flight can be forced
  out by :meth:`ChannelFault.flush`.  The runtime flushes when every
  agent is stuck, so a delaying fault can postpone quiescence but
  never manufacture a spurious one.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.channels.channel import Channel


class ChannelFault:
    """Base fault: the identity (deliver everything immediately).

    Subclasses override :meth:`on_send` (and, if they hold messages,
    :meth:`on_step`, :meth:`flush` and :meth:`held`).  All randomness
    must come from ``self.rng`` so behaviour is a function of the seed.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)

    def bind(self, channel: Channel) -> None:
        """Called once when the fault is attached to a channel; models
        that need the channel's alphabet hook in here."""
        del channel

    def on_send(self, message: Any) -> List[Any]:
        """Deliveries produced by one send (possibly empty)."""
        return [message]

    def on_step(self) -> List[Any]:
        """Deliveries released by the passage of one runtime step."""
        return []

    @property
    def releases_on_step(self) -> bool:
        """Whether :meth:`on_step` can release anything: only a model
        that overrides it can."""
        return type(self).on_step is not ChannelFault.on_step

    def flush(self) -> List[Any]:
        """Force out everything held in flight (fairness valve)."""
        return []

    def held(self) -> List[Any]:
        """Messages currently held in flight (for diagnosis)."""
        return []

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.describe()}(seed={self.seed})"


class DropFault(ChannelFault):
    """Drop each message with probability ``p``.

    ``max_consecutive_drops`` bounds runs of losses (fair-lossy); after
    that many drops in a row the next message is forcibly delivered.
    ``None`` removes the bound — with ``p=1.0`` that is a black-hole
    channel, the canonical unfair-loss livelock driver.
    """

    def __init__(self, seed: int = 0, p: float = 0.5,
                 max_consecutive_drops: Optional[int] = 2):
        super().__init__(seed)
        self.p = p
        self.max_consecutive_drops = max_consecutive_drops
        self.dropped: List[Any] = []
        self._consecutive = 0

    def on_send(self, message: Any) -> List[Any]:
        forced = (self.max_consecutive_drops is not None
                  and self._consecutive >= self.max_consecutive_drops)
        if not forced and self.rng.random() < self.p:
            self._consecutive += 1
            self.dropped.append(message)
            return []
        self._consecutive = 0
        return [message]

    def describe(self) -> str:
        bound = self.max_consecutive_drops
        fair = f"≤{bound} consecutive" if bound is not None else "unfair"
        return f"Drop(p={self.p}, {fair})"


class DuplicateFault(ChannelFault):
    """Deliver each message twice with probability ``p``.

    ``max_consecutive_duplicates`` bounds runs of duplications so the
    queue growth rate stays bounded.
    """

    def __init__(self, seed: int = 0, p: float = 0.3,
                 max_consecutive_duplicates: Optional[int] = 2):
        super().__init__(seed)
        self.p = p
        self.max_consecutive_duplicates = max_consecutive_duplicates
        self._consecutive = 0

    def on_send(self, message: Any) -> List[Any]:
        capped = (self.max_consecutive_duplicates is not None
                  and self._consecutive
                  >= self.max_consecutive_duplicates)
        if not capped and self.rng.random() < self.p:
            self._consecutive += 1
            return [message, message]
        self._consecutive = 0
        return [message]

    def describe(self) -> str:
        return f"Duplicate(p={self.p})"


class ReorderFault(ChannelFault):
    """Let later messages overtake an earlier one.

    With probability ``p`` a message is stashed; each subsequent send
    passes it by, until it is released (randomly, or forcibly after
    ``max_hold`` overtakes — the fairness bound on displacement).  Only
    one message is stashed at a time, so the perturbation is a bounded
    permutation of the input stream.
    """

    def __init__(self, seed: int = 0, p: float = 0.3,
                 max_hold: int = 3):
        super().__init__(seed)
        self.p = p
        self.max_hold = max_hold
        self._stash: List[Any] = []   # zero or one message
        self._overtaken = 0

    def on_send(self, message: Any) -> List[Any]:
        if not self._stash and self.rng.random() < self.p:
            self._stash.append(message)
            self._overtaken = 0
            return []
        out = [message]
        if self._stash:
            self._overtaken += 1
            if (self._overtaken >= self.max_hold
                    or self.rng.random() < 0.5):
                out.append(self._stash.pop())
        return out

    def flush(self) -> List[Any]:
        out, self._stash = self._stash, []
        return out

    def held(self) -> List[Any]:
        return list(self._stash)

    def describe(self) -> str:
        return f"Reorder(p={self.p}, hold≤{self.max_hold})"


class CorruptFault(ChannelFault):
    """Replace a message with a corrupted one, probability ``p``.

    ``corrupt`` maps the original message to its corruption; by default
    the fault picks a *different* symbol from the channel's alphabet
    (so the corrupted stream stays well-typed — the runtime rejects
    fault outputs outside the alphabet).  ``max_consecutive`` bounds
    runs of corruptions.
    """

    def __init__(self, seed: int = 0, p: float = 0.2,
                 corrupt: Optional[Callable[[Any], Any]] = None,
                 max_consecutive: Optional[int] = 2):
        super().__init__(seed)
        self.p = p
        self.corrupt = corrupt
        self.max_consecutive = max_consecutive
        self._consecutive = 0
        self._alphabet: Optional[list] = None

    def bind(self, channel: Channel) -> None:
        if self.corrupt is None:
            if channel.alphabet is None:
                raise ValueError(
                    f"CorruptFault on channel {channel.name!r} needs "
                    "either a corrupt function or a finite alphabet"
                )
            self._alphabet = sorted(channel.alphabet, key=repr)

    def _corrupted(self, message: Any) -> Any:
        if self.corrupt is not None:
            return self.corrupt(message)
        if self._alphabet is None:
            raise ValueError(
                "CorruptFault was never bound to a channel; supply a "
                "corrupt function or attach it through a FaultPlan"
            )
        others = [m for m in self._alphabet if m != message]
        return self.rng.choice(others) if others else message

    def on_send(self, message: Any) -> List[Any]:
        capped = (self.max_consecutive is not None
                  and self._consecutive >= self.max_consecutive)
        if not capped and self.rng.random() < self.p:
            self._consecutive += 1
            return [self._corrupted(message)]
        self._consecutive = 0
        return [message]

    def describe(self) -> str:
        return f"Corrupt(p={self.p})"


class DelayFault(ChannelFault):
    """Hold a message for a bounded number of runtime steps.

    With probability ``p`` a message is parked with a time-to-release
    drawn uniformly from ``1..max_delay`` steps; each runtime step ages
    the parked messages and releases the expired ones (in park order).
    Delay across different residence times is the second source of
    reordering.
    """

    def __init__(self, seed: int = 0, p: float = 0.5,
                 max_delay: int = 4):
        super().__init__(seed)
        if max_delay < 1:
            raise ValueError("max_delay must be ≥ 1")
        self.p = p
        self.max_delay = max_delay
        self._parked: List[list] = []   # [ttl, message] pairs

    def on_send(self, message: Any) -> List[Any]:
        if self.rng.random() < self.p:
            ttl = self.rng.randint(1, self.max_delay)
            self._parked.append([ttl, message])
            return []
        return [message]

    def on_step(self) -> List[Any]:
        out: List[Any] = []
        survivors: List[list] = []
        for pair in self._parked:
            pair[0] -= 1
            if pair[0] <= 0:
                out.append(pair[1])
            else:
                survivors.append(pair)
        self._parked = survivors
        return out

    def flush(self) -> List[Any]:
        out = [m for _, m in self._parked]
        self._parked = []
        return out

    def held(self) -> List[Any]:
        return [m for _, m in self._parked]

    def describe(self) -> str:
        return f"Delay(p={self.p}, ≤{self.max_delay} steps)"


class FaultPipeline(ChannelFault):
    """Sequential composition of faults on one channel.

    A send passes through the stages left to right; a stage's releases
    (on step or flush) pass through the stages after it.  Composition
    is how a plan expresses e.g. "lossy *and* reordering".
    """

    def __init__(self, faults: Sequence[ChannelFault]):
        super().__init__(seed=0)
        self.faults = list(faults)
        if not self.faults:
            raise ValueError("FaultPipeline needs at least one fault")

    def bind(self, channel: Channel) -> None:
        for fault in self.faults:
            fault.bind(channel)

    def _through(self, messages: Iterable[Any],
                 start: int) -> List[Any]:
        out = list(messages)
        for fault in self.faults[start:]:
            out = [d for m in out for d in fault.on_send(m)]
        return out

    def on_send(self, message: Any) -> List[Any]:
        return self._through([message], 0)

    def on_step(self) -> List[Any]:
        out: List[Any] = []
        for i, fault in enumerate(self.faults):
            out.extend(self._through(fault.on_step(), i + 1))
        return out

    @property
    def releases_on_step(self) -> bool:
        return any(fault.releases_on_step for fault in self.faults)

    def flush(self) -> List[Any]:
        out: List[Any] = []
        for i, fault in enumerate(self.faults):
            pending = fault.flush()
            for downstream in self.faults[i + 1:]:
                released = [d for m in pending
                            for d in downstream.on_send(m)]
                released.extend(downstream.flush())
                pending = released
            out.extend(pending)
        return out

    def held(self) -> List[Any]:
        return [m for fault in self.faults for m in fault.held()]

    def describe(self) -> str:
        return " ∘ ".join(f.describe() for f in self.faults)
