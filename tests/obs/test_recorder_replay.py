"""Flight recorder: record a run's nondeterminism, replay it exactly.

The round-trip law under test everywhere here: for any recorded run,
replaying its schedule strictly reproduces the run bit-for-bit —
``replayed.digest() == original.digest()`` — and any tampering with
the schedule is reported as a precise divergence, not silently
absorbed.
"""

import pytest

from repro.channels.channel import Channel
from repro.core import Description, DescriptionSystem
from repro.core.description import combine
from repro.core.solver import SmoothSolutionSolver
from repro.faults import (
    DropFault,
    DuplicateFault,
    FaultPipeline,
    FaultPlan,
    no_faults,
    replay_conformance_case,
    run_conformance,
    run_supervised,
)
from repro.functions import chan
from repro.functions.base import const_seq
from repro.kahn.agents import dfm_agent, source_agent
from repro.kahn.effects import Poll, Recv, Send
from repro.kahn.scheduler import (
    RandomOracle,
    RoundRobinOracle,
    ScriptedOracle,
    run_network,
)
from repro.obs import (
    RecordingOracle,
    ReplayDivergence,
    ReplayOracle,
    Schedule,
    ScheduleExhausted,
    iter_fault_rngs,
    replay_network,
    replay_supervised,
)
from repro.processes.merge import dfm_descriptions
from repro.seq import FiniteSeq
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm_agents():
    return {"eb": source_agent(B, [0, 2, 0, 2]),
            "dfm": dfm_agent(B, C, D)}


def dfm_desc():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def drop_plan(seed=5):
    return FaultPlan(
        {B: DropFault(seed=seed, p=0.4, max_consecutive_drops=2)},
        name="drop")


# -- the miniature stop-and-wait protocol (as in tests/faults) ---------------

PAYLOAD = ["a", "b"]
OUT = Channel("out", alphabet=frozenset(PAYLOAD))
DATA = Channel("data",
               alphabet=frozenset((b, m) for b in (0, 1)
                                  for m in PAYLOAD))
ACK = Channel("ack", alphabet=frozenset({0, 1}))
PROTO_CHANNELS = [OUT, DATA, ACK]


def _sender(messages, retransmit_limit=60):
    bit = 0
    for m in messages:
        yield Send(DATA, (bit, m))
        attempts = 0
        while True:
            if (yield Poll(ACK)):
                if (yield Recv(ACK)) == bit:
                    break
                continue
            attempts += 1
            if retransmit_limit is not None \
                    and attempts > retransmit_limit:
                return
            yield Send(DATA, (bit, m))
        bit ^= 1


def _receiver():
    expected = 0
    while True:
        bit, message = yield Recv(DATA)
        yield Send(ACK, bit)
        if bit == expected:
            yield Send(OUT, message)
            expected ^= 1


def proto_agents(retransmit_limit=60):
    return {"sender": lambda: _sender(PAYLOAD, retransmit_limit),
            "receiver": _receiver}


def proto_spec() -> DescriptionSystem:
    return DescriptionSystem(
        [Description(chan(OUT), const_seq(FiniteSeq(PAYLOAD)),
                     name="out ⟵ payload")],
        channels=[OUT], name="service",
    )


def fair_loss(seed):
    return FaultPlan({
        DATA: DropFault(seed=seed, p=0.4, max_consecutive_drops=2),
        ACK: DropFault(seed=seed + 1, p=0.4,
                       max_consecutive_drops=2),
    }, name="fair-loss")


class TestScheduleContainer:
    def test_json_round_trip(self):
        s = Schedule(agent_picks=[["a", ["a", "b"]]],
                     choice_picks=[[1, 2, "a"]],
                     rng_draws=[["ch:DropFault", "random", 0.5]],
                     meta={"seed": 3})
        back = Schedule.from_json(s.to_json())
        assert back.to_dict() == s.to_dict()
        assert back.digest() == s.digest()

    def test_digest_ignores_meta(self):
        s = Schedule(agent_picks=[["a", ["a"]]])
        t = s.copy()
        t.meta["anything"] = "else"
        assert s.digest() == t.digest()
        t.agent_picks.append(["b", ["b"]])
        assert s.digest() != t.digest()

    def test_version_guard(self):
        bad = Schedule().to_dict()
        bad["version"] = 999
        with pytest.raises(ValueError):
            Schedule.from_dict(bad)

    def test_missing_version_rejected(self):
        # a dict without the stamp is a truncated or hand-edited file;
        # the loader must refuse (naming the keys present) rather than
        # silently assume the current version
        bad = Schedule(agent_picks=[["a", ["a"]]]).to_dict()
        del bad["version"]
        with pytest.raises(ValueError) as info:
            Schedule.from_dict(bad)
        msg = str(info.value)
        assert "version" in msg
        assert "agent_picks" in msg  # names what IS there

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="not an object"):
            Schedule.from_dict(["not", "a", "schedule"])

    def test_save_load(self, tmp_path):
        s = Schedule(agent_picks=[["a", ["a"]]], meta={"k": 1})
        p = tmp_path / "s.json"
        s.save(str(p))
        assert Schedule.load(str(p)).digest() == s.digest()

    def test_len_and_counts(self):
        s = Schedule(agent_picks=[["a", ["a"]]] * 2,
                     rng_draws=[["x", "random", 0.1]])
        assert len(s) == 3
        assert s.counts()["agent_picks"] == 2


class TestRecordReplayNetwork:
    def test_round_trip_no_faults(self):
        r = run_network(dfm_agents(), [B, C, D], RandomOracle(7),
                        record=True)
        assert r.schedule is not None
        assert r.schedule.meta["digest"] == r.digest()
        rep = replay_network(r.schedule, dfm_agents(), [B, C, D])
        assert rep.matches
        assert rep.digest == r.digest()

    def test_round_trip_with_faults(self):
        r = run_network(dfm_agents(), [B, C, D], RandomOracle(7),
                        fault_plan=drop_plan(), record=True)
        assert r.schedule.rng_draws  # the DropFault drew
        rep = replay_network(r.schedule, dfm_agents(), [B, C, D],
                             fault_plan=drop_plan())
        assert rep.matches

    def test_round_trip_survives_serialization(self):
        r = run_network(dfm_agents(), [B, C, D], RandomOracle(3),
                        fault_plan=drop_plan(), record=True)
        reloaded = Schedule.from_json(r.schedule.to_json())
        rep = replay_network(reloaded, dfm_agents(), [B, C, D],
                             fault_plan=drop_plan())
        assert rep.matches

    def test_record_normalizes_indices(self):
        # RoundRobin returns raw counters; the schedule must store
        # what the runtime actually did (post-modulo)
        r = run_network(dfm_agents(), [B, C, D], RoundRobinOracle(),
                        record=True)
        for chosen, ready in r.schedule.agent_picks:
            assert chosen in ready

    def test_tampered_agent_pick_diverges(self):
        r = run_network(dfm_agents(), [B, C, D], RandomOracle(7),
                        record=True)
        bad = r.schedule.copy()
        bad.agent_picks[0] = ["nonexistent", ["nonexistent"]]
        with pytest.raises(ReplayDivergence) as exc:
            replay_network(bad, dfm_agents(), [B, C, D])
        assert exc.value.kind == "agent"
        assert exc.value.index == 0

    def test_truncated_schedule_exhausts_strictly(self):
        r = run_network(dfm_agents(), [B, C, D], RandomOracle(7),
                        record=True)
        cut = r.schedule.copy(
            agent_picks=r.schedule.agent_picks[:2])
        with pytest.raises(ScheduleExhausted) as exc:
            replay_network(cut, dfm_agents(), [B, C, D])
        assert exc.value.kind == "agent"
        assert exc.value.index == 2

    def test_lenient_replay_records_divergence_and_finishes(self):
        from repro.kahn.scheduler import FirstOracle

        r = run_network(dfm_agents(), [B, C, D], RandomOracle(7),
                        record=True)
        cut = r.schedule.copy(
            agent_picks=r.schedule.agent_picks[:2])
        rep = replay_network(cut, dfm_agents(), [B, C, D],
                             fallback=FirstOracle())
        assert rep.divergence is not None
        assert rep.divergence.kind == "agent"
        assert rep.result.quiescent  # the fallback finished the run

    def test_tampered_rng_draw_diverges(self):
        r = run_network(dfm_agents(), [B, C, D], RandomOracle(7),
                        fault_plan=drop_plan(), record=True)
        assert r.schedule.rng_draws
        bad = r.schedule.copy()
        bad.rng_draws[0] = ["wrong:Fault", "random", 0.0]
        with pytest.raises(ReplayDivergence) as exc:
            replay_network(bad, dfm_agents(), [B, C, D],
                           fault_plan=drop_plan())
        assert exc.value.kind == "rng"


class TestScriptedOracleStrict:
    def test_default_falls_back_to_zero(self):
        oracle = ScriptedOracle(agent_picks=[1])

        class A:
            def __init__(self, name):
                self.name = name

        ready = [A("x"), A("y")]
        assert oracle.pick_agent(ready) == 1
        assert oracle.pick_agent(ready) == 0  # exhausted, non-strict

    def test_strict_agent_exhaustion(self):
        oracle = ScriptedOracle(agent_picks=[0], strict=True)
        oracle.pick_agent([object()])
        with pytest.raises(ScheduleExhausted) as exc:
            oracle.pick_agent([object()])
        assert exc.value.kind == "agent"
        assert exc.value.index == 1

    def test_strict_choice_exhaustion(self):
        oracle = ScriptedOracle(choice_picks=[], strict=True)
        with pytest.raises(ScheduleExhausted) as exc:
            oracle.pick_choice(object(), 2)
        assert exc.value.kind == "choice"
        assert exc.value.index == 0


class TestFaultRngRecording:
    def test_pipeline_stages_get_distinct_labels(self):
        plan = FaultPlan({
            DATA: [DropFault(seed=1, p=0.3),
                   DuplicateFault(seed=2, p=0.3)],
        }, name="pipe")
        labels = [label for label, _ in iter_fault_rngs(plan)]
        assert labels == ["data/0:DropFault", "data/1:DuplicateFault"]

    def test_labels_sorted_by_channel(self):
        plan = fair_loss(3)
        labels = [label for label, _ in iter_fault_rngs(plan)]
        assert labels == sorted(labels)

    def test_pipeline_plan_round_trips(self):
        def plan():
            return FaultPlan({
                DATA: [DropFault(seed=1, p=0.3,
                                 max_consecutive_drops=2),
                       DuplicateFault(seed=2, p=0.3)],
            }, name="pipe")

        r = run_supervised(proto_agents(), PROTO_CHANNELS,
                           RandomOracle(4), max_steps=4000,
                           fault_plan=plan(), record=True)
        rep = replay_supervised(r.schedule, proto_agents(),
                                PROTO_CHANNELS, fault_plan=plan())
        assert rep.matches


class TestSupervisedRecordReplay:
    def test_round_trip(self):
        r = run_supervised(proto_agents(), PROTO_CHANNELS,
                           RandomOracle(2), max_steps=4000,
                           fault_plan=fair_loss(11), record=True)
        assert r.schedule.meta["digest"] == r.digest()
        rep = replay_supervised(r.schedule, proto_agents(),
                                PROTO_CHANNELS,
                                fault_plan=fair_loss(11))
        assert rep.matches
        assert rep.result.watchdog_fired == r.watchdog_fired

    def test_digest_covers_supervision_fields(self):
        r1 = run_supervised(proto_agents(), PROTO_CHANNELS,
                            RandomOracle(2), max_steps=4000)
        base_payload = r1._digest_payload()
        assert "watchdog_fired" in base_payload
        assert "restarts" in base_payload


class TestHarnessRecording:
    def test_every_case_ships_a_schedule(self):
        report = run_conformance(
            "proto", proto_agents(), PROTO_CHANNELS, proto_spec(),
            {"no-faults": no_faults,
             "fair-loss": lambda: fair_loss(7)},
            seeds=range(3), observe={OUT}, max_steps=4000,
        )
        assert all(c.schedule is not None for c in report.cases)
        for case in report.cases:
            assert case.schedule.meta["outcome"] == case.outcome
            assert case.schedule.meta["digest"] == \
                case.result.digest()

    def test_record_off(self):
        report = run_conformance(
            "proto", proto_agents(), PROTO_CHANNELS, proto_spec(),
            {"no-faults": no_faults}, seeds=[0], observe={OUT},
            record=False,
        )
        assert all(c.schedule is None for c in report.cases)

    def test_failed_property(self):
        report = run_conformance(
            "proto", proto_agents(), PROTO_CHANNELS, proto_spec(),
            {"no-faults": no_faults}, seeds=[0], observe={OUT},
        )
        assert not report.cases[0].failed

    def test_replay_conformance_case_round_trip(self):
        plans = {"fair-loss": lambda: fair_loss(7)}
        report = run_conformance(
            "proto", proto_agents(), PROTO_CHANNELS, proto_spec(),
            plans, seeds=[1], observe={OUT}, max_steps=4000,
        )
        case = report.cases[0]
        replayed = replay_conformance_case(
            case.schedule, proto_agents(), PROTO_CHANNELS,
            proto_spec(), plans, observe={OUT},
        )
        assert replayed.outcome == case.outcome
        assert replayed.result.digest() == \
            case.schedule.meta["digest"]

    def test_replay_rejects_unknown_plan(self):
        report = run_conformance(
            "proto", proto_agents(), PROTO_CHANNELS, proto_spec(),
            {"fair-loss": lambda: fair_loss(7)}, seeds=[1],
            observe={OUT},
        )
        with pytest.raises(KeyError):
            replay_conformance_case(
                report.cases[0].schedule, proto_agents(),
                PROTO_CHANNELS, proto_spec(), {"other": no_faults},
                observe={OUT},
            )


class TestRecordingOracleMeta:
    def test_seed_captured(self):
        rec = RecordingOracle(RandomOracle(42))
        assert rec.schedule.meta["oracle"] == "RandomOracle"
        assert rec.schedule.meta["oracle_seed"] == 42

    def test_replay_oracle_checks_choice_context(self):
        sched = Schedule(choice_picks=[[0, 2, "agent-a"]])
        oracle = ReplayOracle(sched)

        class A:
            name = "agent-b"

        with pytest.raises(ReplayDivergence) as exc:
            oracle.pick_choice(A(), 2)
        assert exc.value.kind == "choice"


class TestSolverWitness:
    def _solver(self):
        return SmoothSolutionSolver.over_channels(
            dfm_desc(), [B, C, D])

    def test_witness_round_trip(self):
        solver = self._solver()
        result = solver.explore(max_depth=4)
        t = max(result.finite_solutions, key=lambda t: t.length())
        w = solver.witness_schedule(t)
        assert w.meta["kind"] == "solver-path"
        assert w.meta["limit_holds"]
        assert len(w.path) == t.length()
        replayed = solver.replay_witness(w)
        assert list(replayed) == list(t)

    def test_witness_survives_json(self):
        solver = self._solver()
        t = max(solver.explore(max_depth=4).finite_solutions,
                key=lambda t: t.length())
        w = Schedule.from_json(solver.witness_schedule(t).to_json())
        assert list(solver.replay_witness(w)) == list(t)

    def test_tampered_witness_diverges(self):
        solver = self._solver()
        t = max(solver.explore(max_depth=4).finite_solutions,
                key=lambda t: t.length())
        w = solver.witness_schedule(t)
        w.path[1] = ["d", "99"]
        with pytest.raises(ReplayDivergence) as exc:
            solver.replay_witness(w)
        assert exc.value.kind == "path"
        assert exc.value.index == 1

    def test_empty_witness_is_bottom(self):
        solver = self._solver()
        w = solver.witness_schedule(Trace.empty())
        assert solver.replay_witness(w).length() == 0

    def test_solver_result_digest_stable(self):
        a = self._solver().explore(max_depth=4)
        b = self._solver().explore(max_depth=4)
        assert a.digest() == b.digest()
        c = self._solver().explore(max_depth=3)
        assert a.digest() != c.digest()
