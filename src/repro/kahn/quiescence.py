"""Collecting quiescent traces from operational runs.

A quiescent trace is a communication history after which no agent can
make progress (§3.1.1).  Bounded runs of networks with unending
behaviour never reach quiescence — their histories are *prefixes* of
(infinite) quiescent traces; :class:`TraceSample` keeps the two kinds
apart so validation can treat them correctly (prefixes need only the
smoothness condition, full quiescent traces also the limit condition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.channels.channel import Channel
from repro.kahn.runtime import AgentBody, RunResult
from repro.kahn.scheduler import sample_runs
from repro.traces.trace import Trace

#: Builds a fresh agent dict per run.
NetworkFactory = Callable[[], dict[str, AgentBody]]


@dataclass
class TraceSample:
    """Traces gathered from many oracle-driven runs of one network."""

    quiescent: list[Trace] = field(default_factory=list)
    prefixes: list[Trace] = field(default_factory=list)
    runs: int = 0

    def distinct_quiescent(self) -> set[Trace]:
        return set(self.quiescent)


def collect_traces(make_agents: NetworkFactory,
                   channels: Iterable[Channel],
                   seeds: Iterable[int],
                   max_steps: int = 10_000,
                   make_fault_plan=None) -> TraceSample:
    """Run the network once per seed and bucket the resulting traces.

    ``make_fault_plan`` (fresh plan per run) samples the network's
    behaviour under channel faults — the quiescent bucket then holds
    the traces the *perturbed* network can produce.
    """
    sample = TraceSample()
    for result in sample_runs(make_agents, channels, seeds,
                              max_steps=max_steps,
                              make_fault_plan=make_fault_plan):
        sample.runs += 1
        if result.quiescent:
            sample.quiescent.append(result.trace)
        else:
            sample.prefixes.append(result.trace)
    return sample


def quiescent_traces(make_agents: NetworkFactory,
                     channels: Iterable[Channel],
                     seeds: Iterable[int],
                     max_steps: int = 10_000) -> set[Trace]:
    """Just the distinct quiescent traces."""
    return collect_traces(
        make_agents, channels, seeds, max_steps
    ).distinct_quiescent()


def describe_run(result: RunResult) -> str:
    """One-line human-readable summary of a run."""
    kind = "quiescent" if result.quiescent else "prefix"
    line = (
        f"{kind} after {result.steps} steps: {result.trace!r} "
        f"(halted: {result.halted_agents}, "
        f"blocked: {result.blocked_agents})"
    )
    if result.failed_agents:
        line += f" (FAILED: {result.failed_agents})"
    return line
