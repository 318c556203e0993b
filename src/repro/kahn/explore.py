"""Exhaustive schedule exploration: *all* computations of a network.

Seeded sampling (``repro.kahn.scheduler``) finds computations with high
probability; this module finds them *all* — a model checker for the
operational semantics.  Every run of a network is determined by its
sequence of decisions (which ready agent steps; which branch a
``Choose``/``RecvAny`` takes).  Generators cannot be forked, so the
decision tree is walked by **replay**: each run follows a script of
decisions, records the arity of every decision point it passes, and the
explorer backtracks by incrementing the last incrementable decision —
depth-first enumeration of the whole tree.

Cost: the number of runs is the number of leaves of the decision tree
(exponential in steps for highly concurrent networks), and each run
replays from scratch.  For the paper-scale networks this is thousands
of cheap runs; the explorer takes ``max_runs`` as a safety valve and
reports truncation honestly.

With exhaustive exploration the paper's central claim becomes a
*checked equality* on finite networks: the set of quiescent traces
equals the set of finite smooth solutions (see
``tests/kahn/test_explore.py`` and bench COV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional

from repro.channels.channel import Channel
from repro.kahn.runtime import Agent, AgentBody, Oracle, Runtime
from repro.traces.trace import Trace

NetworkFactory = Callable[[], Dict[str, AgentBody]]


class _ReplayOracle(Oracle):
    """Follows a script of decision indices, then defaults to 0;
    records the arity of every decision point encountered."""

    def __init__(self, script: list[int]):
        self.script = script
        self.cursor = 0
        #: (arity, chosen) per decision point, in order.
        self.log: list[tuple[int, int]] = []

    def _decide(self, arity: int) -> int:
        if self.cursor < len(self.script):
            choice = self.script[self.cursor]
        else:
            choice = 0
        self.cursor += 1
        choice %= arity
        self.log.append((arity, choice))
        return choice

    def pick_agent(self, ready: list[Agent]) -> int:
        return self._decide(len(ready))

    def pick_choice(self, agent: Agent, arity: int) -> int:
        del agent
        return self._decide(arity)


@dataclass
class ExplorationResult:
    """Every outcome of a bounded exhaustive exploration."""

    quiescent_traces: set[Trace] = field(default_factory=set)
    #: histories of runs stopped by the step bound (non-quiescent)
    truncated_traces: set[Trace] = field(default_factory=set)
    runs: int = 0
    #: ``True`` when the decision tree was fully enumerated
    complete: bool = True


def explore_schedules(make_agents: NetworkFactory,
                      channels: Iterable[Channel],
                      max_steps: int = 200,
                      max_runs: int = 100_000) -> ExplorationResult:
    """Enumerate every schedule of the network up to ``max_steps``.

    Returns all distinct quiescent traces (and the truncated histories
    of runs that hit the step bound).  ``complete`` is ``False`` iff
    ``max_runs`` stopped the enumeration early.
    """
    channel_list = list(channels)
    result = ExplorationResult()
    script: Optional[list[int]] = []
    while script is not None:
        if result.runs >= max_runs:
            result.complete = False
            break
        oracle = _ReplayOracle(script)
        runtime = Runtime(make_agents(), channel_list)
        run = runtime.run(oracle, max_steps)
        result.runs += 1
        if run.quiescent:
            result.quiescent_traces.add(run.trace)
        else:
            result.truncated_traces.add(run.trace)
        script = _next_script(oracle.log)
    return result


def _next_script(log: list[tuple[int, int]]) -> Optional[list[int]]:
    """The next decision script in depth-first order, or ``None``.

    Increment the last decision whose chosen index can still grow;
    drop everything after it (those decision points may not even exist
    on the new path).
    """
    for i in range(len(log) - 1, -1, -1):
        arity, chosen = log[i]
        if chosen + 1 < arity:
            return [choice for _, choice in log[:i]] + [chosen + 1]
    return None


def exhaustive_quiescent_traces(make_agents: NetworkFactory,
                                channels: Iterable[Channel],
                                max_steps: int = 200,
                                max_runs: int = 100_000
                                ) -> set[Trace]:
    """All quiescent traces; raises if the exploration was truncated."""
    result = explore_schedules(make_agents, channels, max_steps,
                               max_runs)
    if not result.complete:
        raise RuntimeError(
            f"exploration truncated after {result.runs} runs; raise "
            "max_runs or reduce the network"
        )
    return result.quiescent_traces
