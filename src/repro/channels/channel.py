"""Channels and their message alphabets.

The paper fixes a set *channels*; each channel has an associated alphabet
*messages* (§3.1.2).  A :class:`Channel` is identified by its name —
two channels with the same name are the same channel — and optionally
constrains its message alphabet (used by the smooth-solution solver to
enumerate one-step extensions, and by validators to reject ill-typed
events).

Channels may be flagged *auxiliary* (§8.2): auxiliary channels are
internal to a single process, and a described process's traces are the
smooth solutions *projected off* its auxiliary channels.
"""

from __future__ import annotations

from typing import AbstractSet, Any, FrozenSet, Iterable, Optional


class Channel:
    """A named channel with an optional finite message alphabet."""

    __slots__ = ("name", "alphabet", "auxiliary", "_hash")

    def __init__(self, name: str,
                 alphabet: Optional[Iterable[Any]] = None,
                 auxiliary: bool = False):
        if not name:
            raise ValueError("a channel needs a nonempty name")
        object.__setattr__(self, "name", name)
        object.__setattr__(
            self, "alphabet",
            None if alphabet is None else frozenset(alphabet),
        )
        object.__setattr__(self, "auxiliary", bool(auxiliary))
        # every queue lookup hashes the channel: compute it once
        object.__setattr__(self, "_hash", hash(("Channel", name)))

    def __setattr__(self, *_: Any) -> None:  # pragma: no cover
        raise AttributeError("Channel is immutable")

    def __reduce__(self):
        # slots + the immutability guard defeat default pickling
        # (unpickling would call the guarded ``__setattr__``); rebuild
        # through ``__init__`` instead so channels cross process
        # boundaries (parallel conformance grids) intact.
        return (Channel, (self.name, self.alphabet, self.auxiliary))

    def admits(self, message: Any) -> bool:
        """Return ``True`` iff ``message`` is in this channel's alphabet."""
        return self.alphabet is None or message in self.alphabet

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Channel):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        aux = ", aux" if self.auxiliary else ""
        return f"Channel({self.name!r}{aux})"

    def __lt__(self, other: "Channel") -> bool:
        return self.name < other.name


def channel_set(*channels: Channel) -> FrozenSet[Channel]:
    """A frozen set of channels (the ``L`` of projections ``t_L``)."""
    return frozenset(channels)


def names(channels: AbstractSet[Channel]) -> tuple[str, ...]:
    """Sorted channel names, for stable display."""
    return tuple(sorted(c.name for c in channels))


def non_auxiliary(channels: AbstractSet[Channel]) -> FrozenSet[Channel]:
    """The externally visible channels (§8.2)."""
    return frozenset(c for c in channels if not c.auxiliary)
