"""Readiness and quiescence agree with a first-principles scan.

The runtime answers "who can run now?" on every step.  These tests
check its answers against a scan kept here, which reads only the
runtime's state: each agent's state and awaited channels,
``runtime.queues``, the messages a fault model holds, and each
agent's backoff deadline under a supervisor.  After every ``step()``
of small random networks (2–4 agents on 2–3 shared channels sending,
receiving, spinning on polls, choosing, halting and raising, under
random channel faults, injected crashes and stalls and backing-off
restart policies), ``ready_agents()`` and ``is_quiescent()`` must
equal the scan, and the oracle must be offered exactly the scanned
agents in agent-index order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.channel import Channel
from repro.faults import (
    CorruptFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPipeline,
    FaultPlan,
    ReorderFault,
    RestartPolicy,
    SupervisedRuntime,
    crash_at_step,
    stall_at_step,
)
from repro.kahn.effects import Choose, Halt, Poll, Recv, RecvAny, Send
from repro.kahn.runtime import AgentState, Runtime
from repro.kahn.scheduler import FirstOracle, RandomOracle

ALPHABET = (0, 1, 2)
CHANNELS = [Channel(name, alphabet=ALPHABET) for name in ("p", "q", "r")]
MAX_STEPS = 120


# -- the reference scan ----------------------------------------------------


def backing_off(runtime, name: str) -> bool:
    return getattr(runtime, "_resume_at", {}).get(name, 0) > runtime.steps


def scanned_ready(runtime) -> list:
    out = []
    for agent in runtime.agents:
        if agent.state is AgentState.READY:
            can_run = True
        elif agent.state is AgentState.BLOCKED:
            can_run = any(len(runtime.queues[c]) > 0
                          for c in agent.waiting_on)
        else:
            can_run = False
        if can_run and not backing_off(runtime, agent.name):
            out.append(agent)
    return out


def scanned_quiescent(runtime) -> bool:
    if any(backing_off(runtime, a.name) for a in runtime.agents):
        return False
    plan = runtime.fault_plan
    if plan is not None and any(
            fault.held() for fault in plan.channel_faults.values()):
        return False
    return not scanned_ready(runtime)


class CheckingOracle(RandomOracle):
    """A seeded oracle that checks the list it is offered."""

    def __init__(self, seed: int, runtime):
        super().__init__(seed)
        self.runtime = runtime

    def pick_agent(self, ready: list) -> int:
        assert ready == scanned_ready(self.runtime)
        return super().pick_agent(ready)


def assert_agrees(runtime) -> None:
    assert runtime.ready_agents() == scanned_ready(runtime)
    assert runtime.is_quiescent() == scanned_quiescent(runtime)


def drive(runtime, seed: int) -> None:
    oracle = CheckingOracle(seed, runtime)
    assert_agrees(runtime)
    for _ in range(MAX_STEPS):
        stepped = runtime.step(oracle)
        assert_agrees(runtime)
        if not stepped:
            assert runtime.is_quiescent()
            break


# -- generated networks ------------------------------------------------------


def ops(n_channels: int):
    channel = st.integers(0, n_channels - 1)
    return st.one_of(
        st.tuples(st.just("send"), channel, st.sampled_from(ALPHABET)),
        st.tuples(st.just("recv"), channel),
        st.tuples(st.just("recvany"),
                  st.lists(channel, min_size=2, max_size=3,
                           unique=True).map(tuple)),
        st.tuples(st.just("spin"), channel, st.integers(1, 4)),
        st.tuples(st.just("choose"), st.integers(1, 3)),
        st.tuples(st.just("halt")),
        st.tuples(st.just("raise")),
    )


def program_factory(program, channels, loops: int):
    """A restartable agent running ``program`` ``loops`` times."""

    def body():
        for _ in range(loops):
            for op in program:
                kind = op[0]
                if kind == "send":
                    yield Send(channels[op[1]], op[2])
                elif kind == "recv":
                    yield Recv(channels[op[1]])
                elif kind == "recvany":
                    yield RecvAny([channels[i] for i in op[1]])
                elif kind == "spin":
                    for _ in range(op[2]):
                        if (yield Poll(channels[op[1]])):
                            break
                elif kind == "choose":
                    yield Choose(op[1])
                elif kind == "halt":
                    yield Halt()
                else:
                    raise RuntimeError("generated failure")

    return body


def channel_fault(kind: str, seed: int):
    if kind == "drop":
        return DropFault(seed=seed, p=0.4)
    if kind == "dup":
        return DuplicateFault(seed=seed, p=0.4)
    if kind == "reorder":
        return ReorderFault(seed=seed, p=0.4, max_hold=2)
    if kind == "delay":
        return DelayFault(seed=seed, p=0.5, max_delay=3)
    return CorruptFault(seed=seed, p=0.3)


FAULT_KINDS = ("drop", "dup", "reorder", "delay", "corrupt")
faults = st.one_of(
    st.none(),
    st.sampled_from(FAULT_KINDS),
    st.lists(st.sampled_from(FAULT_KINDS), min_size=2, max_size=3),
)
injectors = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(("crash", "stall")), st.integers(0, 6)),
)
policies = st.one_of(
    st.none(),
    st.builds(RestartPolicy, max_restarts=st.integers(0, 3),
              backoff_initial=st.integers(0, 5),
              backoff_factor=st.integers(1, 3)),
)


@st.composite
def networks(draw):
    n_channels = draw(st.integers(2, 3))
    channels = CHANNELS[:n_channels]
    n_agents = draw(st.integers(2, 4))
    factories = {}
    for i in range(n_agents):
        program = draw(st.lists(ops(n_channels), min_size=1, max_size=6))
        loops = draw(st.integers(1, 3))
        factories[f"a{i}"] = program_factory(program, channels, loops)
    seed = draw(st.integers(0, 2**16))
    channel_faults = {}
    for i, channel in enumerate(channels):
        kinds = draw(faults)
        if isinstance(kinds, str):
            channel_faults[channel] = channel_fault(kinds, seed + i)
        elif kinds:
            channel_faults[channel] = FaultPipeline(
                [channel_fault(k, seed + 10 * i + j)
                 for j, k in enumerate(kinds)])
    agent_faults = {}
    for name in factories:
        injector = draw(injectors)
        if injector is not None:
            inject = crash_at_step if injector[0] == "crash" \
                else stall_at_step
            agent_faults[name] = (
                lambda body, inject=inject, at=injector[1]:
                inject(body, at))
    plan = None
    if channel_faults or agent_faults:
        plan = FaultPlan(channel_faults, agent_faults)
    return factories, channels, plan, draw(policies), seed


class TestReadinessScan:
    @given(networks(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_every_step_agrees_with_the_scan(self, network, supervised):
        factories, channels, plan, policy, seed = network
        if supervised:
            runtime = SupervisedRuntime(factories, channels,
                                        fault_plan=plan, policy=policy,
                                        watchdog_limit=None)
        else:
            runtime = Runtime({n: f() for n, f in factories.items()},
                              channels, fault_plan=plan)
        drive(runtime, seed)

    def test_two_waiters_on_one_channel_one_drains_it(self):
        p = CHANNELS[0]

        def waiter():
            yield Recv(p)

        def sender():
            yield Send(p, 1)

        runtime = SupervisedRuntime(
            {"a": waiter, "b": waiter, "s": sender}, [p],
            watchdog_limit=None)
        a, b, s = runtime.agents
        oracle = FirstOracle()
        runtime.step(oracle)  # a blocks on p
        runtime.step(oracle)  # b blocks on p
        assert runtime.ready_agents() == [s]
        runtime.step(oracle)  # s sends: both waiters can run
        assert_agrees(runtime)
        assert runtime.ready_agents() == [a, b, s]
        runtime.step(oracle)  # a drains p: b is stuck again
        assert_agrees(runtime)
        assert runtime.ready_agents() == [a, s]
        assert b.state is AgentState.BLOCKED
        drive(runtime, seed=0)
        assert runtime.is_quiescent()
        assert [x.state for x in runtime.agents] == [
            AgentState.HALTED, AgentState.BLOCKED, AgentState.HALTED]

    def test_backing_off_agent_is_left_out_until_its_deadline(self):
        p = CHANNELS[0]

        def dies():
            yield Send(p, 0)
            raise RuntimeError("x")

        def spinner():
            for _ in range(20):
                yield Choose(1)

        runtime = SupervisedRuntime(
            {"dies": dies, "spin": spinner}, [p],
            policy=RestartPolicy(max_restarts=1, backoff_initial=3),
            watchdog_limit=None)
        dying, spin = runtime.agents
        oracle = FirstOracle()
        runtime.step(oracle)  # send
        runtime.step(oracle)  # crash: restart due three steps on
        resume = runtime.steps + 3
        while runtime.steps < resume:
            assert runtime.ready_agents() == [spin]
            assert_agrees(runtime)
            runtime.step(oracle)
        assert runtime.ready_agents() == [dying, spin]
        drive(runtime, seed=1)
