"""Fault plans: one perturbation scenario for a whole network.

A :class:`FaultPlan` bundles per-channel fault models (see
:mod:`repro.faults.models`) with per-agent body injectors (see
:mod:`repro.faults.inject`).  The runtime consults the plan on every
send and step; the conformance harness runs grids of *plan factories*
(plans are stateful, so each run needs a fresh one) against oracle
seeds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.channels.channel import Channel
from repro.faults.models import ChannelFault, FaultPipeline
from repro.kahn.runtime import AgentBody

#: Wraps an agent body with an injector (crash, stall, …).
AgentWrapper = Callable[[AgentBody], AgentBody]
#: Produces a fresh plan per run (plans carry RNG and buffer state).
PlanFactory = Callable[[], Optional["FaultPlan"]]


class FaultPlan:
    """Channel faults + agent injectors for one run of a network."""

    def __init__(self,
                 channel_faults: Mapping[
                     Channel,
                     "ChannelFault | Sequence[ChannelFault]"] = (),
                 agent_faults: Mapping[str, AgentWrapper] = (),
                 name: str = "faults"):
        self.name = name
        self.channel_faults: Dict[Channel, ChannelFault] = {}
        for channel, fault in dict(channel_faults).items():
            if not isinstance(fault, ChannelFault):
                fault = FaultPipeline(list(fault))
            fault.bind(channel)
            self.channel_faults[channel] = fault
        #: the faults whose ``on_step`` can release a message, in plan
        #: order: the others are skipped on every runtime step
        self._stepping: List[Tuple[Channel, ChannelFault]] = [
            (channel, fault)
            for channel, fault in self.channel_faults.items()
            if fault.releases_on_step]
        self.agent_faults: Dict[str, AgentWrapper] = dict(agent_faults)

    # -- agent side ----------------------------------------------------------

    def wrap_agent(self, name: str, body: AgentBody) -> AgentBody:
        wrapper = self.agent_faults.get(name)
        return wrapper(body) if wrapper is not None else body

    # -- channel side --------------------------------------------------------

    def on_send(self, channel: Channel, message: Any) -> List[Any]:
        fault = self.channel_faults.get(channel)
        if fault is None:
            return [message]
        return fault.on_send(message)

    def on_step(self) -> List[Tuple[Channel, Any]]:
        out: List[Tuple[Channel, Any]] = []
        for channel, fault in self._stepping:
            out.extend((channel, m) for m in fault.on_step())
        return out

    def flush(self) -> List[Tuple[Channel, Any]]:
        out: List[Tuple[Channel, Any]] = []
        for channel, fault in self.channel_faults.items():
            out.extend((channel, m) for m in fault.flush())
        return out

    def held_count(self) -> int:
        return sum(len(f.held()) for f in self.channel_faults.values())

    def held_messages(self) -> Dict[Channel, list]:
        return {channel: fault.held()
                for channel, fault in self.channel_faults.items()
                if fault.held()}

    def dropped_messages(self) -> Dict[Channel, list]:
        """Messages each fault dropped outright (post-mortem aid)."""
        out: Dict[Channel, list] = {}
        for channel, fault in self.channel_faults.items():
            dropped = getattr(fault, "dropped", None)
            if dropped:
                out[channel] = list(dropped)
        return out

    def describe(self) -> str:
        if not self.channel_faults and not self.agent_faults:
            return f"{self.name}: no faults"
        parts = [f"{c.name}: {f.describe()}"
                 for c, f in sorted(self.channel_faults.items())]
        parts.extend(f"agent {name}: injected"
                     for name in sorted(self.agent_faults))
        return f"{self.name}: " + "; ".join(parts)

    def __repr__(self) -> str:
        return f"FaultPlan({self.describe()!r})"
