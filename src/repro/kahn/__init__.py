"""Operational substrate: an executable Kahn-style network simulator.

Agents are generator coroutines over unbounded FIFO channels; oracles
resolve scheduling and choice nondeterminism; quiescent traces are
collected and cross-validated against the denotational smooth-solution
semantics (the paper's "computations ⇔ smooth solutions").
"""

from repro.kahn import agents
from repro.kahn.effects import Choose, Halt, Poll, Recv, RecvAny, Send
from repro.kahn.quiescence import (
    TraceSample,
    collect_traces,
    describe_run,
    quiescent_traces,
)
from repro.kahn.runtime import (
    Agent,
    AgentFailure,
    AgentState,
    Oracle,
    RunResult,
    Runtime,
)
from repro.kahn.scheduler import (
    FirstOracle,
    RandomOracle,
    RoundRobinOracle,
    ScriptedOracle,
    run_network,
    sample_runs,
)
from repro.obs.recorder import ScheduleExhausted
from repro.kahn.explore import (
    ExplorationResult,
    exhaustive_quiescent_traces,
    explore_schedules,
)
from repro.kahn.validate import (
    CrossCheckReport,
    check_denotational_completeness,
    check_operational_soundness,
)

__all__ = [
    "Agent",
    "AgentFailure",
    "AgentState",
    "Choose",
    "CrossCheckReport",
    "ExplorationResult",
    "FirstOracle",
    "Halt",
    "Oracle",
    "Poll",
    "RandomOracle",
    "Recv",
    "RecvAny",
    "RoundRobinOracle",
    "RunResult",
    "Runtime",
    "ScheduleExhausted",
    "ScriptedOracle",
    "Send",
    "TraceSample",
    "agents",
    "check_denotational_completeness",
    "check_operational_soundness",
    "collect_traces",
    "describe_run",
    "exhaustive_quiescent_traces",
    "explore_schedules",
    "quiescent_traces",
    "run_network",
    "sample_runs",
]
