"""SupervisedRuntime: failure capture, restarts, backoff, watchdog."""

import pytest

from repro.channels.channel import Channel
from repro.faults import (
    DropFault,
    FaultPlan,
    RestartPolicy,
    SupervisedRuntime,
    run_supervised,
    stall_at_step,
)
from repro.kahn.effects import Choose, Recv, Send
from repro.kahn.scheduler import FirstOracle, RandomOracle
from repro.obs import RingBufferSink, Tracer

B = Channel("b", alphabet={0, 1, 2})
C = Channel("c", alphabet={0, 1, 2})


def copier():
    while True:
        m = yield Recv(B)
        yield Send(C, m)


class TestFailureIsolation:
    def test_one_crash_leaves_other_agents_intact(self):
        def bomb():
            yield Send(B, 0)
            raise ValueError("kaput")

        def steady():
            for m in [1, 2]:
                yield Send(B, m)

        result = run_supervised(
            {"bomb": bomb, "steady": steady, "copy": copier},
            [B, C], RandomOracle(1), policy=None,
        )
        assert result.failed_agents == ["bomb"]
        # the crash is captured with its traceback, and the rest of the
        # network ran to quiescence with full progress
        assert "kaput" in result.failures["bomb"].traceback
        assert result.quiescent
        assert sorted(result.trace.messages_on(C).items) == [0, 1, 2]

    def test_failure_records_step_and_exception(self):
        def bomb():
            yield Send(B, 0)
            raise KeyError("boom")

        result = run_supervised({"bomb": bomb}, [B, C],
                                FirstOracle(), policy=None)
        failure = result.failures["bomb"]
        assert isinstance(failure.error, KeyError)
        assert failure.step >= 1
        assert "KeyError" in failure.traceback


class TestRestartPolicy:
    def test_backoff_is_exponential(self):
        policy = RestartPolicy(max_restarts=4, backoff_initial=8,
                               backoff_factor=2)
        assert [policy.delay(n) for n in (1, 2, 3)] == [8, 16, 32]
        with pytest.raises(ValueError):
            policy.delay(0)

    def test_default_policy_delays_unchanged(self):
        # the cap/jitter generalization must not move the defaults:
        # every recorded digest depends on these exact step budgets
        assert [RestartPolicy().delay(n) for n in (1, 2, 3)] == \
            [8, 16, 32]

    def test_zero_max_restarts_fails_immediately(self):
        def bomb():
            yield Send(B, 0)
            raise RuntimeError("kaput")

        result = run_supervised(
            {"bomb": bomb, "copy": copier}, [B, C], RandomOracle(1),
            policy=RestartPolicy(max_restarts=0),
        )
        assert result.restarts["bomb"] == 0
        assert "bomb" in result.failed_agents
        # the rest of the network still ran to quiescence
        assert result.quiescent

    def test_backoff_cap_saturates(self):
        policy = RestartPolicy(backoff_initial=1, backoff_factor=2,
                               backoff_cap=8)
        assert [policy.delay(n) for n in range(1, 7)] == \
            [1, 2, 4, 8, 8, 8]

    def test_no_cap_is_unbounded(self):
        policy = RestartPolicy(backoff_initial=1, backoff_factor=2)
        assert policy.delay(20) == 2 ** 19

    def test_jitter_zero_is_exact(self):
        policy = RestartPolicy(backoff_initial=4, backoff_factor=3)
        assert policy.jittered_delay(2, seed=99) == 12.0

    def test_jitter_stays_within_band(self):
        policy = RestartPolicy(backoff_initial=10, backoff_factor=1,
                               jitter=0.5)
        for n in range(1, 20):
            d = policy.jittered_delay(n, seed=5, salt="x")
            assert 10.0 <= d <= 15.0

    def test_seeded_jitter_is_deterministic(self):
        from repro.obs.recorder import stable_digest

        policy = RestartPolicy(backoff_initial=1, backoff_factor=2,
                               backoff_cap=8, jitter=0.5)
        a = policy.retry_schedule(6, seed=42, salt="cell")
        b = policy.retry_schedule(6, seed=42, salt="cell")
        assert a == b
        assert len(a) == 6
        # same seed ⇒ same retry schedule, pinned by digest: any
        # drift in the jitter derivation breaks recorded fleet runs
        assert stable_digest(a) == (
            "14721deeee3824d94277091537fcbff3"
            "c6d8e52ab4bbc3116d3baa285b75eebb")

    def test_distinct_seeds_and_salts_decorrelate(self):
        policy = RestartPolicy(jitter=0.5)
        base = policy.retry_schedule(4, seed=1, salt="cell")
        assert policy.retry_schedule(4, seed=2, salt="cell") != base
        assert policy.retry_schedule(4, seed=1, salt="other") != base

    def test_flaky_agent_recovers_after_restart(self):
        incarnations = []

        def flaky_factory():
            incarnations.append(None)
            first = len(incarnations) == 1

            def body():
                yield Send(B, 0)
                if first:
                    raise RuntimeError("transient")
                yield Send(B, 1)
            return body()

        result = run_supervised({"flaky": flaky_factory}, [B, C],
                                RandomOracle(0))
        assert result.restarts["flaky"] == 1
        assert result.failed_agents == []  # recovered
        assert result.quiescent
        # both incarnations ran: 0 (then crash), then 0, 1
        assert result.trace.messages_on(B).items == (0, 0, 1)

    def test_restarts_exhausted_leaves_agent_failed(self):
        def dies():
            def body():
                yield Send(B, 0)
                raise RuntimeError("permanent")
            return body()

        result = run_supervised(
            {"dies": dies}, [B, C], RandomOracle(0),
            policy=RestartPolicy(max_restarts=2, backoff_initial=2),
        )
        assert result.restarts["dies"] == 2
        assert result.failed_agents == ["dies"]
        assert result.trace.messages_on(B).items == (0, 0, 0)

    def test_backoff_delays_the_respawn(self):
        def dies():
            def body():
                yield Send(B, 0)
                raise RuntimeError("x")
            return body()

        slow = run_supervised(
            {"dies": dies}, [B, C], FirstOracle(),
            policy=RestartPolicy(max_restarts=1, backoff_initial=40),
        )
        fast = run_supervised(
            {"dies": dies}, [B, C], FirstOracle(),
            policy=RestartPolicy(max_restarts=1, backoff_initial=2),
        )
        # identical work, but the slow policy waits out idle steps
        assert slow.trace == fast.trace
        assert slow.steps > fast.steps

    def test_solo_agent_in_backoff_is_not_quiescent(self):
        def dies():
            def body():
                yield Send(B, 0)
                raise RuntimeError("x")
            return body()

        runtime = SupervisedRuntime(
            {"dies": dies}, [B, C],
            policy=RestartPolicy(max_restarts=1, backoff_initial=20),
        )
        runtime.step(FirstOracle())  # send
        runtime.step(FirstOracle())  # crash -> restart scheduled
        assert not runtime.is_quiescent()


def give_ups(factories, oracle, policy):
    """Run traced; the run and its ``(agent, restarts)`` give-ups."""
    sink = RingBufferSink()
    result = run_supervised(factories, [B, C], oracle, policy=policy,
                            tracer=Tracer([sink]))
    return result, [(rec.args["agent"], rec.args["restarts"])
                    for rec in sink.records
                    if rec.name == "supervise.give_up"]


class TestGiveUp:
    def test_announced_once_on_the_exhausting_failure(self):
        def dies():
            yield Send(B, 0)
            raise RuntimeError("permanent")

        def chatter():
            for _ in range(50):
                yield Send(C, 1)

        result, announced = give_ups(
            {"dies": dies, "chatter": chatter}, RandomOracle(0),
            RestartPolicy(max_restarts=1, backoff_initial=2))
        # the run goes on for ~40 steps after the give-up
        assert result.steps == 55
        assert result.failed_agents == ["dies"]
        assert announced == [("dies", 1)]

    def test_not_announced_again_when_another_agent_fails(self):
        def early():
            yield Send(B, 0)
            raise RuntimeError("early")

        def late():
            for _ in range(10):
                yield Send(C, 1)
            raise RuntimeError("late")

        result, announced = give_ups(
            {"early": early, "late": late}, FirstOracle(),
            RestartPolicy(max_restarts=0))
        assert result.failed_agents == ["early", "late"]
        assert announced == [("early", 0), ("late", 0)]


class TestWatchdog:
    def test_fires_on_stalled_agent(self):
        def worker():
            while True:
                yield Send(B, 0)
                yield Recv(C)

        result = run_supervised(
            {"w": lambda: stall_at_step(worker(), 1)}, [B, C],
            RandomOracle(3), max_steps=100_000, watchdog_limit=50,
        )
        assert result.watchdog_fired
        assert result.steps < 200  # terminated well before the budget
        assert "no history growth" in result.diagnosis
        assert "w: ready" in result.diagnosis

    def test_deterministic_across_repeated_runs(self):
        def worker():
            while True:
                yield Send(B, 0)
                yield Recv(C)

        def once():
            return run_supervised(
                {"w": lambda: stall_at_step(worker(), 1)}, [B, C],
                RandomOracle(3), max_steps=100_000, watchdog_limit=50,
            )

        first, second = once(), once()
        assert first.steps == second.steps
        assert first.trace == second.trace
        assert first.diagnosis == second.diagnosis

    def test_black_hole_retransmission_is_caught(self):
        # unfair loss: every send eaten, so the history never grows and
        # the sender's retransmit loop is a livelock
        def chatter():
            while True:
                yield Send(B, 0)
                yield Choose(2)

        plan = FaultPlan({B: DropFault(seed=0, p=1.0,
                                       max_consecutive_drops=None)})
        result = run_supervised(
            {"chatter": chatter}, [B, C], RandomOracle(0),
            max_steps=50_000, fault_plan=plan, watchdog_limit=100,
        )
        assert result.watchdog_fired
        assert result.steps < 500
        assert "dropped: b×" in result.diagnosis

    def test_quiescent_network_does_not_trip_watchdog(self):
        def short():
            yield Send(B, 0)

        result = run_supervised({"s": short}, [B, C],
                                FirstOracle(), watchdog_limit=1)
        assert result.quiescent
        assert not result.watchdog_fired

    def test_disabled_watchdog_runs_to_budget(self):
        def spin():
            while True:
                yield Choose(1)

        result = run_supervised({"s": spin}, [B, C],
                                FirstOracle(), max_steps=300,
                                watchdog_limit=None)
        assert not result.watchdog_fired
        assert result.steps == 300
