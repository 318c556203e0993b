"""The operational network runtime.

Channels are unbounded FIFO queues (Kahn's asynchronous, lossless,
order-preserving channels); agents run one effect at a time under a
scheduler.  The runtime records the global communication history (sends
only) and detects *quiescence*: every agent halted, or blocked on a
receive whose every candidate channel is empty.  Quiescent histories are
the paper's traces; non-quiescent ones are the communication histories
that the process is guaranteed to extend (§3.1.1).

Two robustness extensions beyond the pristine Kahn picture:

* **Agent failure capture** — an exception raised inside an agent body
  moves that agent to :attr:`AgentState.FAILED` and records an
  :class:`AgentFailure` (exception + traceback + step) instead of
  destroying the whole run; the other agents keep running and the
  partial history survives in the :class:`RunResult`.  Errors raised by
  the runtime itself while *interpreting* an effect (unknown channel,
  alphabet violation) still propagate — they are wiring bugs, not
  process behaviour.
* **Channel fault injection** — an optional *fault plan* (see
  :mod:`repro.faults`) intercepts sends.  On a faulted channel the
  recorded event stream is the *post-fault delivery stream*: a dropped
  message produces no event, a duplicated one produces two, a delayed
  one appears at release time.  This is the §4.6 Fork reading of a
  faulty channel — the loss is internal nondeterminism, and the trace
  shows only what the channel actually transmitted.
"""

from __future__ import annotations

import enum
import traceback as _traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.kahn.effects import (
    Choose,
    Effect,
    Halt,
    Poll,
    Recv,
    RecvAny,
    Send,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import stable_digest
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.traces.trace import Trace

#: An agent body: a generator yielding effects and receiving answers.
AgentBody = Generator[Effect, Any, None]
#: A factory producing a fresh agent body per run.
AgentFactory = Callable[[], AgentBody]


class AgentState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    HALTED = "halted"
    #: the body raised; captured, the rest of the network keeps running
    FAILED = "failed"


# the per-step readiness scan tests states by identity against these
_READY = AgentState.READY
_BLOCKED = AgentState.BLOCKED


@dataclass
class AgentFailure:
    """Post-mortem record of one agent-body exception."""

    agent: str
    step: int
    error: BaseException
    traceback: str

    def __str__(self) -> str:
        return (f"{self.agent} failed at step {self.step}: "
                f"{type(self.error).__name__}: {self.error}")


class Agent:
    """A named operational process instance."""

    def __init__(self, name: str, body: AgentBody):
        self.name = name
        self.body = body
        self.state = AgentState.READY
        #: channels the agent is blocked waiting on (when BLOCKED)
        self.waiting_on: tuple[Channel, ...] = ()
        #: the pending effect to resume (a Recv/RecvAny while blocked)
        self.pending: Optional[Effect] = None
        #: the most recent failure (survives a supervised restart)
        self.failure: Optional[AgentFailure] = None
        self._next_input: Any = None
        self._started = False

    def __repr__(self) -> str:
        return f"Agent({self.name!r}, {self.state.value})"


@dataclass
class RunResult:
    """Outcome of a bounded network run."""

    trace: Trace
    quiescent: bool
    steps: int
    halted_agents: list[str] = field(default_factory=list)
    blocked_agents: list[str] = field(default_factory=list)
    #: agents left in ``FAILED`` state at the end of the run
    failed_agents: list[str] = field(default_factory=list)
    #: last failure per agent (includes agents later restarted by a
    #: supervisor — membership in ``failed_agents`` is the terminal test)
    failures: dict[str, AgentFailure] = field(default_factory=dict)
    #: per-channel residual contents: queued-but-unconsumed messages,
    #: plus anything still held in flight by a fault model
    undelivered: dict[str, list] = field(default_factory=dict)
    #: per-run metrics summary (steps/sends/blocks per agent and
    #: channel, fault actions, …) when the run was traced; else empty
    metrics: dict = field(default_factory=dict)
    #: the recorded :class:`~repro.obs.recorder.Schedule` when the run
    #: was made with ``record=True``; else ``None``
    schedule: Optional[Any] = None

    def events(self) -> list[Event]:
        return list(self.trace)

    def digest(self) -> str:
        """Stable content hash of the run's observable outcome.

        Covers the event history and the terminal shape of the network
        (quiescence, step count, agent states, residual channel
        contents) — everything a replay must reproduce — and excludes
        wall-clock artifacts (metrics, tracebacks).  Two runs with
        equal digests are the same computation; "replay equals
        original" is the assertion ``replayed.digest() == original
        .digest()``.
        """
        return stable_digest(self._digest_payload())

    def _digest_payload(self) -> dict:
        return {
            "trace": [[e.channel.name, repr(e.message)]
                      for e in self.trace],
            "quiescent": self.quiescent,
            "steps": self.steps,
            "halted": sorted(self.halted_agents),
            "blocked": sorted(self.blocked_agents),
            "failed": sorted(self.failed_agents),
            "undelivered": {
                name: [repr(m) for m in messages]
                for name, messages in sorted(self.undelivered.items())
            },
        }


class Oracle:
    """Resolves the two kinds of nondeterminism: which ready agent runs
    next, and which branch a ``Choose``/``RecvAny`` takes.

    The base class is deterministic (always the first option); see
    :mod:`repro.kahn.scheduler` for random and scripted oracles.
    """

    def pick_agent(self, ready: list[Agent]) -> int:
        del ready
        return 0

    def pick_choice(self, agent: Agent, arity: int) -> int:
        del agent, arity
        return 0


class Runtime:
    """Executes a set of agents over shared channels.

    ``fault_plan`` (optional, duck-typed — see
    :class:`repro.faults.plan.FaultPlan`) intercepts channel sends and
    may wrap agent bodies with crash/stall injectors.
    """

    def __init__(self, agents: dict[str, AgentBody],
                 channels: Iterable[Channel],
                 fault_plan: Optional[Any] = None,
                 tracer: Optional[Tracer] = None):
        self.fault_plan = fault_plan
        if fault_plan is not None:
            agents = {name: fault_plan.wrap_agent(name, body)
                      for name, body in agents.items()}
        self.agents = [Agent(name, body)
                       for name, body in agents.items()]
        self.queues: dict[Channel, deque] = {
            c: deque() for c in channels
        }
        self.history: list[Event] = []
        self.steps = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: hot loops test this one flag; everything else is behind it
        self._tracing = self.tracer.enabled
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self._tracing else None
        )

    # -- channel plumbing --------------------------------------------------

    def _queue(self, channel: Channel) -> deque:
        try:
            return self.queues[channel]
        except KeyError:
            wired = ", ".join(sorted(c.name for c in self.queues))
            raise KeyError(
                f"channel {channel.name!r} is not part of this network "
                f"(wired channels: {wired or 'none'})"
            ) from None

    def send(self, channel: Channel, message: Any) -> None:
        if not channel.admits(message):
            raise ValueError(
                f"message {message!r} not admitted by "
                f"channel {channel.name!r}"
            )
        queue = self._queue(channel)  # reject unknown channels up front
        if self.fault_plan is None:
            queue.append(message)
            self.history.append(Event(channel, message))
            return
        if not self._tracing:
            for delivered in self.fault_plan.on_send(channel, message):
                self._deliver(channel, delivered)
            return
        held_before = self.fault_plan.held_count()
        deliveries = self.fault_plan.on_send(channel, message)
        self._trace_fault_send(channel, message, deliveries,
                               self.fault_plan.held_count()
                               - held_before)
        for delivered in deliveries:
            self._deliver(channel, delivered)

    def _trace_fault_send(self, channel: Channel, message: Any,
                          deliveries: list, held_delta: int) -> None:
        """Narrate what the fault plan did to one send."""
        if len(deliveries) == 1 and deliveries[0] == message \
                and held_delta == 0:
            action = "pass"
        elif not deliveries and held_delta > 0:
            action = "hold"
        elif not deliveries:
            action = "drop"
        elif len(deliveries) > 1:
            action = "duplicate"
        elif deliveries[0] != message:
            action = "corrupt"
        else:
            action = "perturb"
        self.tracer.event(
            "fault.send", category="fault", track="faults",
            channel=channel.name, message=message, action=action,
            delivered=len(deliveries), held=held_delta, step=self.steps)
        self.metrics.counter(
            f"faults.{action}.{channel.name}").inc()

    def _deliver(self, channel: Channel, message: Any) -> None:
        """Put ``message`` on the wire: queue it and record the event."""
        if not channel.admits(message):
            raise ValueError(
                f"fault model produced message {message!r} not admitted "
                f"by channel {channel.name!r}"
            )
        self._queue(channel).append(message)
        self.history.append(Event(channel, message))

    def available(self, channel: Channel) -> bool:
        return bool(self._queue(channel))

    # -- agent stepping ------------------------------------------------------

    def ready_agents(self) -> list[Agent]:
        """Agents that can make progress now, in agent-index order.

        A blocked agent becomes ready when any of its awaited channels
        has data.  Oracles, recorded schedules and replay index into
        this list, so its order is part of every run digest.
        """
        queues = self.queues
        out = []
        for a in self.agents:
            state = a.state
            if state is _READY:
                out.append(a)
            elif state is _BLOCKED:
                # a blocked agent only awaits wired channels: the
                # effect that blocked it looked each one up first
                for c in a.waiting_on:
                    if queues[c]:
                        out.append(a)
                        break
        return out

    def is_quiescent(self) -> bool:
        """No agent can make progress and no message is in flight: the
        history is a quiescent trace."""
        if self.fault_plan is not None and self.fault_plan.held_count():
            return False
        return not self.ready_agents()

    def step(self, oracle: Oracle) -> bool:
        """Run one effect of one ready agent.  Returns ``False`` when
        the network is quiescent (no step taken).

        When every agent is stuck but a fault model still holds
        messages in flight, the step flushes them instead — a faulty
        channel may delay, but (short of dropping) must eventually
        deliver, so quiescence is only reported once nothing is held.
        """
        ready = self.ready_agents()
        if not ready:
            if (self.fault_plan is not None
                    and self.fault_plan.held_count()):
                for channel, message in self.fault_plan.flush():
                    self._deliver(channel, message)
                    if self._tracing:
                        self.tracer.event(
                            "fault.flush", category="fault",
                            track="faults", channel=channel.name,
                            message=message, step=self.steps)
                self.steps += 1
                return True
            return False
        agent = ready[oracle.pick_agent(ready) % len(ready)]
        if self._tracing:
            self.tracer.event(
                "oracle.pick_agent", category="scheduler",
                track="scheduler", step=self.steps,
                ready=[a.name for a in ready], chosen=agent.name)
            self.metrics.counter("oracle.agent_picks").inc()
            self.metrics.counter(f"agent.steps.{agent.name}").inc()
            self.metrics.gauge("runtime.ready_width").set(len(ready))
            with self.tracer.span("step", category="runtime",
                                  track=agent.name, step=self.steps):
                self._run_one_effect(agent, oracle)
        else:
            self._run_one_effect(agent, oracle)
        self.steps += 1
        if self.fault_plan is not None:
            for channel, message in self.fault_plan.on_step():
                self._deliver(channel, message)
                if self._tracing:
                    self.tracer.event(
                        "fault.release", category="fault",
                        track="faults", channel=channel.name,
                        message=message, step=self.steps)
        return True

    def _advance(self, agent: Agent, value: Any) -> Optional[Effect]:
        """Feed ``value`` into the agent and get its next effect.

        A ``StopIteration`` is a normal halt; any other exception from
        the body is an agent failure, captured rather than propagated.
        """
        try:
            if not agent._started:
                agent._started = True
                return next(agent.body)
            return agent.body.send(value)
        except StopIteration:
            agent.state = AgentState.HALTED
            if self._tracing:
                self.tracer.event(
                    "agent.halt", category="runtime",
                    track=agent.name, step=self.steps)
                self.metrics.counter("agent.halts").inc()
            return None
        except Exception as error:
            self._fail(agent, error)
            return None

    def _fail(self, agent: Agent, error: Exception) -> None:
        """Capture ``error``, which is being handled, as ``agent``'s
        failure."""
        agent.state = AgentState.FAILED
        agent.failure = AgentFailure(
            agent=agent.name, step=self.steps, error=error,
            traceback=_traceback.format_exc(),
        )
        if self._tracing:
            self.tracer.event(
                "agent.fail", category="runtime",
                track=agent.name, step=self.steps,
                error=f"{type(error).__name__}: {error}")
            self.metrics.counter("agent.failures").inc()

    def _run_one_effect(self, agent: Agent, oracle: Oracle) -> None:
        # resume a blocked receive, or fetch the next effect
        if agent.state is AgentState.BLOCKED:
            effect = agent.pending
            agent.state = AgentState.READY
            agent.pending = None
            agent.waiting_on = ()
        else:
            effect = self._advance(agent, agent._next_input)
            agent._next_input = None
        if effect is None:
            return
        self._interpret(agent, effect, oracle)

    def _interpret(self, agent: Agent, effect: Effect,
                   oracle: Oracle) -> None:
        tracing = self._tracing
        if isinstance(effect, Send):
            if tracing:
                self.tracer.event(
                    "send", category="runtime", track=agent.name,
                    channel=effect.channel.name,
                    message=effect.message, step=self.steps)
                self.metrics.counter(
                    f"channel.sends.{effect.channel.name}").inc()
            self.send(effect.channel, effect.message)
            agent._next_input = None
        elif isinstance(effect, Recv):
            if self.available(effect.channel):
                agent._next_input = self._queue(
                    effect.channel).popleft()
                if tracing:
                    self.tracer.event(
                        "recv", category="runtime", track=agent.name,
                        channel=effect.channel.name,
                        message=agent._next_input, step=self.steps)
                    self.metrics.counter(
                        f"channel.recvs.{effect.channel.name}").inc()
            else:
                self._block(agent, effect, (effect.channel,))
        elif isinstance(effect, RecvAny):
            live = [c for c in effect.channels if self.available(c)]
            if live:
                idx = oracle.pick_choice(agent, len(live)) % len(live)
                channel = live[idx]
                agent._next_input = (
                    channel, self._queue(channel).popleft()
                )
                if tracing:
                    self.tracer.event(
                        "oracle.pick_choice", category="scheduler",
                        track="scheduler", agent=agent.name,
                        options=[c.name for c in live],
                        chosen=channel.name, step=self.steps)
                    self.tracer.event(
                        "recv", category="runtime", track=agent.name,
                        channel=channel.name,
                        message=agent._next_input[1], step=self.steps)
                    self.metrics.counter("oracle.choice_picks").inc()
                    self.metrics.counter(
                        f"channel.recvs.{channel.name}").inc()
            else:
                self._block(agent, effect, effect.channels)
        elif isinstance(effect, Poll):
            agent._next_input = self.available(effect.channel)
            if tracing:
                self.tracer.event(
                    "poll", category="runtime", track=agent.name,
                    channel=effect.channel.name,
                    available=agent._next_input, step=self.steps)
        elif isinstance(effect, Choose):
            agent._next_input = (
                oracle.pick_choice(agent, effect.arity) % effect.arity
            )
            if tracing:
                self.tracer.event(
                    "oracle.pick_choice", category="scheduler",
                    track="scheduler", agent=agent.name,
                    arity=effect.arity, chosen=agent._next_input,
                    step=self.steps)
                self.metrics.counter("oracle.choice_picks").inc()
        elif isinstance(effect, Halt):
            agent.body.close()
            agent.state = AgentState.HALTED
            if tracing:
                self.tracer.event(
                    "agent.halt", category="runtime",
                    track=agent.name, step=self.steps)
                self.metrics.counter("agent.halts").inc()
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown effect {effect!r}")

    def _block(self, agent: Agent, effect: Effect,
               channels: tuple[Channel, ...]) -> None:
        agent.state = AgentState.BLOCKED
        agent.pending = effect
        agent.waiting_on = channels
        if self._tracing:
            self.tracer.event(
                "agent.block", category="runtime", track=agent.name,
                waiting_on=[c.name for c in channels],
                step=self.steps)
            self.metrics.counter("agent.blocks").inc()

    # -- running --------------------------------------------------------------

    def undelivered(self) -> dict[str, list]:
        """Residual per-channel contents, keyed by channel name."""
        out = {c.name: list(q) for c, q in self.queues.items() if q}
        if self.fault_plan is not None:
            for channel, held in self.fault_plan.held_messages().items():
                if held:
                    out.setdefault(channel.name, []).extend(held)
        return out

    def _metrics_summary(self) -> dict:
        if self.metrics is None:
            return {}
        self.metrics.gauge("runtime.history_len").set(
            len(self.history))
        self.metrics.gauge("runtime.steps").set(self.steps)
        return self.metrics.summary()

    def _result(self) -> RunResult:
        return RunResult(
            trace=Trace.finite(self.history),
            quiescent=self.is_quiescent(),
            steps=self.steps,
            halted_agents=[a.name for a in self.agents
                           if a.state is AgentState.HALTED],
            blocked_agents=[a.name for a in self.agents
                            if a.state is AgentState.BLOCKED],
            failed_agents=[a.name for a in self.agents
                           if a.state is AgentState.FAILED],
            failures={a.name: a.failure for a in self.agents
                      if a.failure is not None},
            undelivered=self.undelivered(),
            metrics=self._metrics_summary(),
        )

    def run(self, oracle: Oracle, max_steps: int) -> RunResult:
        """Run until quiescence or the step bound."""
        with self.tracer.span(
                "runtime.run", category="runtime", track="scheduler",
                max_steps=max_steps,
                agents=[a.name for a in self.agents]) as span:
            while self.steps < max_steps:
                if not self.step(oracle):
                    break
            span.annotate(steps=self.steps,
                          history_len=len(self.history))
        return self._result()
