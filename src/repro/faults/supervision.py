"""Supervision: restart failed agents, watchdog stuck networks.

:class:`SupervisedRuntime` extends the base runtime with two defences
that turn pathological runs into diagnosable results:

* **Restart policy** — when an agent body raises, the supervisor
  respawns a fresh body from the agent's factory (bodies are single-use
  generators), up to ``max_restarts`` times, with an exponentially
  growing step-budget backoff between failure and respawn.  Restarted
  agents lose their local state but the network, its channels and the
  global history survive — Kahn channels are the durable state.
* **Watchdog** — a network that keeps taking steps without growing the
  history (agents spinning on polls/choices, retransmitting into a
  black hole) is livelocked.  After ``watchdog_limit`` consecutive
  growthless steps the run is terminated with a diagnostic
  :class:`SupervisedRunResult` instead of burning to ``max_steps``.

Both behaviours are deterministic given the oracle seed and the fault
plan seeds, so a watchdog firing replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.channels.channel import Channel
from repro.faults.plan import FaultPlan
from repro.kahn.runtime import (
    Agent,
    AgentFactory,
    AgentState,
    Oracle,
    RunResult,
    Runtime,
)
from repro.obs.recorder import RecordingOracle, record_fault_rng


@dataclass(frozen=True)
class RestartPolicy:
    """How many times, and how patiently, to restart a failed agent.

    The ``n``-th restart of an agent is delayed by
    ``backoff_initial * backoff_factor**(n-1)`` runtime steps — an
    exponential step-budget backoff, so a crash-looping agent consumes
    a geometrically shrinking share of the schedule.

    The same policy doubles as the fleet coordinator's retry shape
    (:mod:`repro.par.fleet`): ``backoff_cap`` saturates the exponential
    (``None`` leaves it unbounded — the in-runtime default, which keeps
    every existing digest), and ``jitter`` adds a *seeded* random
    spread via :meth:`jittered_delay` — deterministic per
    ``(seed, salt)``, so a retry schedule replays exactly.
    """

    max_restarts: int = 3
    backoff_initial: int = 8
    backoff_factor: int = 2
    #: saturate the exponential at this delay (``None``: unbounded)
    backoff_cap: Optional[int] = None
    #: jitter fraction for :meth:`jittered_delay` — the delay is
    #: stretched by a seeded factor in ``[1, 1 + jitter]``
    jitter: float = 0.0

    def delay(self, restart_index: int) -> int:
        """Backoff before the ``restart_index``-th restart (1-based),
        saturated at ``backoff_cap`` when one is set."""
        if restart_index < 1:
            raise ValueError("restart_index is 1-based")
        base = self.backoff_initial * self.backoff_factor ** (
            restart_index - 1)
        if self.backoff_cap is not None:
            base = min(base, self.backoff_cap)
        return base

    def jittered_delay(self, restart_index: int, seed: int = 0,
                       salt: str = "") -> float:
        """:meth:`delay` stretched by seeded jitter.

        The jitter draw is a pure function of ``(seed, salt,
        restart_index)`` — string-keyed ``random.Random``, stable
        across processes and ``PYTHONHASHSEED`` — so the whole retry
        schedule is deterministic and replayable.  ``salt``
        discriminates independent retry chains (e.g. one grid cell
        each) under one seed, de-synchronizing their retries.
        """
        base = float(self.delay(restart_index))
        if self.jitter <= 0.0:
            return base
        import random

        u = random.Random(
            f"{seed}|{salt}|{restart_index}").random()
        return base * (1.0 + self.jitter * u)

    def retry_schedule(self, attempts: int, seed: int = 0,
                       salt: str = "") -> list[float]:
        """The full deterministic backoff sequence for ``attempts``
        retries — what a supervisor will actually wait, in order."""
        return [self.jittered_delay(i, seed=seed, salt=salt)
                for i in range(1, attempts + 1)]


@dataclass
class SupervisedRunResult(RunResult):
    """A :class:`RunResult` plus supervision telemetry."""

    #: restarts performed per agent (zero entries included)
    restarts: Dict[str, int] = field(default_factory=dict)
    #: the watchdog terminated the run (livelock/starvation detected)
    watchdog_fired: bool = False
    #: human-readable post-mortem when the watchdog fired
    diagnosis: str = ""

    def _digest_payload(self) -> dict:
        payload = super()._digest_payload()
        payload["watchdog_fired"] = self.watchdog_fired
        payload["restarts"] = sorted(self.restarts.items())
        return payload


class SupervisedRuntime(Runtime):
    """A runtime owning agent *factories*, restartable and watched.

    ``watchdog_limit`` is the number of consecutive steps without
    history growth tolerated before the run is declared livelocked
    (``None`` disables the watchdog).  ``policy=None`` disables
    restarts (failures stay FAILED, as in the base runtime).
    """

    def __init__(self, factories: Dict[str, AgentFactory],
                 channels: Iterable[Channel],
                 fault_plan: Optional[FaultPlan] = None,
                 policy: Optional[RestartPolicy] = RestartPolicy(),
                 watchdog_limit: Optional[int] = 500,
                 tracer=None):
        super().__init__(
            {name: make() for name, make in factories.items()},
            channels, fault_plan=fault_plan, tracer=tracer,
        )
        self.factories = dict(factories)
        self.policy = policy
        self.watchdog_limit = watchdog_limit
        self.restarts: Dict[str, int] = {n: 0 for n in self.factories}
        #: agents waiting out a backoff: name → step at which to resume
        #: (a deadline is dropped once passed: steps only grow)
        self._resume_at: Dict[str, int] = {}
        #: agents that failed during the current step
        self._failed: list[Agent] = []
        self._last_growth_step = 0
        self._watchdog_fired = False
        self._diagnosis = ""

    # -- backoff-aware scheduling --------------------------------------------

    def _backing_off(self) -> bool:
        """Whether some agent is still waiting out a backoff."""
        resume_at = self._resume_at
        if resume_at:
            steps = self.steps
            for name in [n for n, t in resume_at.items() if t <= steps]:
                del resume_at[name]
        return bool(resume_at)

    def ready_agents(self) -> list[Agent]:
        ready = super().ready_agents()
        if self._resume_at and self._backing_off():
            return [a for a in ready if a.name not in self._resume_at]
        return ready

    def is_quiescent(self) -> bool:
        # an agent waiting out a backoff will run again: not quiescent
        if self._backing_off():
            return False
        return super().is_quiescent()

    def step(self, oracle: Oracle) -> bool:
        grew_from = len(self.history)
        if super().step(oracle):
            if len(self.history) > grew_from:
                self._last_growth_step = self.steps
            if self._failed:
                self._handle_failures()
            return True
        if self._backing_off():
            # nothing runnable, but a restart is pending: idle tick
            self.steps += 1
            return True
        return False

    # -- restarts -------------------------------------------------------------

    def _fail(self, agent: Agent, error: Exception) -> None:
        super()._fail(agent, error)
        self._failed.append(agent)

    def _handle_failures(self) -> None:
        """Restart, or give up on, each agent that failed this step."""
        failed, self._failed = self._failed, []
        if self.policy is None:
            return
        for agent in failed:
            if self.restarts[agent.name] >= self.policy.max_restarts:
                if self._tracing:
                    self.tracer.event(
                        "supervise.give_up", category="supervision",
                        track="supervisor", agent=agent.name,
                        restarts=self.restarts[agent.name],
                        step=self.steps)
                continue  # restarts exhausted: stays FAILED
            self.restarts[agent.name] += 1
            delay = self.policy.delay(self.restarts[agent.name])
            self._resume_at[agent.name] = self.steps + delay
            if self._tracing:
                self.tracer.event(
                    "supervise.restart", category="supervision",
                    track="supervisor", agent=agent.name,
                    restart=self.restarts[agent.name],
                    backoff_steps=delay, step=self.steps)
                self.metrics.counter(
                    f"supervise.restarts.{agent.name}").inc()
            self._respawn(agent)

    def _respawn(self, agent: Agent) -> None:
        """Fresh body from the factory; the failure record survives."""
        body = self.factories[agent.name]()
        if self.fault_plan is not None:
            body = self.fault_plan.wrap_agent(agent.name, body)
        agent.body = body
        agent.state = AgentState.READY
        agent.pending = None
        agent.waiting_on = ()
        agent._next_input = None
        agent._started = False

    # -- watchdog -------------------------------------------------------------

    def _watchdog_due(self) -> bool:
        return (self.watchdog_limit is not None
                and self.steps - self._last_growth_step
                >= self.watchdog_limit
                and not self.is_quiescent())

    def diagnose(self) -> str:
        """Post-mortem snapshot for a stuck or faulty network."""
        lines = [
            f"steps={self.steps}, history length={len(self.history)}, "
            f"last growth at step {self._last_growth_step}",
        ]
        for agent in self.agents:
            detail = agent.state.value
            if agent.state is AgentState.BLOCKED:
                waiting = ", ".join(c.name for c in agent.waiting_on)
                detail += f" on [{waiting}]"
            if self.restarts.get(agent.name):
                detail += f", {self.restarts[agent.name]} restart(s)"
            if agent.failure is not None:
                detail += f", last failure: {agent.failure}"
            lines.append(f"  {agent.name}: {detail}")
        undelivered = self.undelivered()
        if undelivered:
            lines.append(f"  undelivered: {undelivered}")
        if self.fault_plan is not None:
            dropped = self.fault_plan.dropped_messages()
            if dropped:
                lines.append("  dropped: " + ", ".join(
                    f"{c.name}×{len(ms)}" for c, ms in dropped.items()))
        return "\n".join(lines)

    # -- running --------------------------------------------------------------

    def _result(self) -> SupervisedRunResult:
        base = super()._result()
        return SupervisedRunResult(
            **base.__dict__,
            restarts=dict(self.restarts),
            watchdog_fired=self._watchdog_fired,
            diagnosis=self._diagnosis,
        )

    def run(self, oracle: Oracle,
            max_steps: int) -> SupervisedRunResult:
        while self.steps < max_steps:
            if not self.step(oracle):
                break
            if self._watchdog_due():
                self._watchdog_fired = True
                self._diagnosis = (
                    f"watchdog: no history growth for "
                    f"{self.steps - self._last_growth_step} steps\n"
                    + self.diagnose()
                )
                if self._tracing:
                    self.tracer.event(
                        "supervise.watchdog", category="supervision",
                        track="supervisor", step=self.steps,
                        stalled_for=(self.steps
                                     - self._last_growth_step),
                        diagnosis=self._diagnosis)
                    self.metrics.counter(
                        "supervise.watchdog_fired").inc()
                break
        return self._result()


def run_supervised(factories: Dict[str, AgentFactory],
                   channels: Iterable[Channel],
                   oracle: Oracle,
                   max_steps: int = 10_000,
                   fault_plan: Optional[FaultPlan] = None,
                   policy: Optional[RestartPolicy] = RestartPolicy(),
                   watchdog_limit: Optional[int] = 500,
                   tracer=None,
                   record: bool = False) -> SupervisedRunResult:
    """One-call supervised run (mirrors ``run_network``).

    ``record=True`` attaches the flight-recorder
    :class:`~repro.obs.recorder.Schedule` to ``result.schedule``; see
    :func:`repro.obs.replay.replay_supervised` for the bit-for-bit
    re-execution.
    """
    schedule = None
    if record:
        recording = RecordingOracle(oracle)
        schedule = recording.schedule
        schedule.meta["max_steps"] = max_steps
        schedule.meta["watchdog_limit"] = watchdog_limit
        if fault_plan is not None:
            record_fault_rng(fault_plan, schedule)
            schedule.meta["fault_plan"] = fault_plan.describe()
        oracle = recording
    runtime = SupervisedRuntime(
        factories, channels, fault_plan=fault_plan,
        policy=policy, watchdog_limit=watchdog_limit, tracer=tracer,
    )
    result = runtime.run(oracle, max_steps)
    if schedule is not None:
        schedule.meta["steps"] = result.steps
        schedule.meta["quiescent"] = result.quiescent
        schedule.meta["watchdog_fired"] = result.watchdog_fired
        schedule.meta["digest"] = result.digest()
        result.schedule = schedule
    return result
